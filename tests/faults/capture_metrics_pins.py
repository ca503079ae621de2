"""Regenerate ``metrics_pins.json``: exact campaign reports with metrics.

Run from the repository root::

    PYTHONPATH=src python tests/faults/capture_metrics_pins.py

Each cell is one seeded campaign on HM1 under the decoded engine: three
programs (a memory round trip whose memory faults restart it, a
counting loop, and the microcoded M1 interpreter running a small macro
program from a memory image) at plan seeds 0 and 5, with
``collect_metrics`` on and off.  A cell records the ``campaign_json``
report and the verbose text report (``render_campaign`` with its
scenarios and, with metrics on, the metrics block) — what ``repro
campaign --json`` and ``--metrics -v`` print.  ``test_metrics_pins.py``
asserts both byte for byte at ``jobs`` 1, 2 and 3.  The metrics block
carries the per-run plan-cache counters and the profile's decode
counts, which no other test pins; regenerate only when a report is
*supposed* to change, and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.macrosys import INTERPRETER, assemble_macro
from repro.faults.campaign import run_campaign
from repro.faults.report import campaign_json, render_campaign
from repro.machine.machines import get_machine
from repro.registry import get_language

PINS = Path(__file__).parent / "metrics_pins.json"

ROUNDTRIP = """
put addr,100
load v,addr
add v,v,1
stor v,addr
exit v
"""

COUNTDOWN = """
    put total,0
    put counter,6
loop:
    add total,total,counter
    sub counter,counter,1
    jump loop if nonzero
    exit total
"""

#: M1 macro program: total := n + (n-1) + ... + 1, left in the accumulator.
MACRO_SUM = """
        LDI 0
        STA total
loop:   LDA n
        JZ done
        LDA total
        ADD n
        STA total
        LDA n
        SUB one
        STA n
        JMP loop
done:   LDA total
        HALT
n:      .word 5
one:    .word 1
total:  .word 0
"""
MACRO_BASE = 0x100

PROGRAMS = ("roundtrip", "countdown", "m1_sum")
SEEDS = (0, 5)
SCENARIOS = 20


def _physical(machine, variable: str) -> str:
    """The register an M1 interpreter variable lives in on ``machine``."""
    result = get_language("yalll").compile(INTERPRETER, machine)
    mapping = result.allocation.mapping
    if variable in mapping:
        return mapping[variable]
    for name in machine.registers.names():
        if name.lower() == variable.lower():
            return name
    raise KeyError(variable)


def campaign_inputs(program: str, machine) -> dict:
    """``run_campaign`` arguments for one pinned program."""
    if program == "roundtrip":
        return {"source": ROUNDTRIP, "memory": {100: 41}}
    if program == "countdown":
        return {"source": COUNTDOWN}
    words, _ = assemble_macro(MACRO_SUM, MACRO_BASE)
    return {
        "source": INTERPRETER,
        "registers": {_physical(machine, "pc"): MACRO_BASE,
                      _physical(machine, "acc"): 0},
        "memory": {MACRO_BASE + i: word for i, word in enumerate(words)},
    }


def cells() -> list[tuple[str, int, bool]]:
    """``(program, seed, collect_metrics)`` per pinned cell."""
    return [
        (program, seed, metrics)
        for program in PROGRAMS
        for seed in SEEDS
        for metrics in (True, False)
    ]


def cell_key(program: str, seed: int, metrics: bool) -> str:
    return f"{program}/seed={seed}/metrics={metrics}"


def run_cell(program: str, seed: int, metrics: bool, jobs: int = 1) -> dict:
    machine = get_machine("HM1")
    inputs = campaign_inputs(program, machine)
    result = run_campaign(
        inputs["source"], "yalll", machine, n=SCENARIOS, seed=seed,
        registers=inputs.get("registers"), memory=inputs.get("memory"),
        jobs=jobs, collect_metrics=metrics,
    )
    return {
        "json": campaign_json([result]),
        "text": render_campaign(result, scenarios=True),
    }


def main() -> None:
    pins = {cell_key(*cell): run_cell(*cell) for cell in cells()}
    # One line per cell keeps the file's diffs per cell.
    lines = [
        f"{json.dumps(key)}: {json.dumps(pin, sort_keys=True)}"
        for key, pin in sorted(pins.items())
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"captured {len(pins)} cells -> {PINS}")


if __name__ == "__main__":
    main()
