"""Regenerate ``alloc_pins.json``: exact allocator output on spill paths.

Run from the repository root::

    PYTHONPATH=src:. python tests/regalloc/capture_alloc_pins.py

No corpus program spills, so the spill rounds of both automatic
allocators are pinned here on random symbolic programs instead: both
allocators x HM1/VAXm x three seeds x ``register_limit`` in {None, 4,
6}, plus two hand-made programs whose virtuals appear only in a
terminator.  Each cell records the mapping, spill slots, load/store
counts, ``registers_used``, the final program listing and the
``regalloc.round``/``regalloc.spill`` tracer instants (or the
``AllocationError`` message).  ``test_alloc_pins.py`` pins the
allocators to it; regenerate only when allocation is *supposed* to
change, and say why in the commit message.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.workloads import random_program
from repro.errors import AllocationError
from repro.machine.machines import get_machine
from repro.mir import (
    Exit, Imm, MaskCase, Multiway, ProgramBuilder, mop, preg, vreg,
)
from repro.obs.tracer import Tracer
from repro.regalloc import GraphColorAllocator, LinearScanAllocator

PINS = Path(__file__).parent / "alloc_pins.json"

ALLOCATORS = {"linear-scan": LinearScanAllocator, "graph-color": GraphColorAllocator}
MACHINES = ("HM1", "VAXm")
SEEDS = (0, 1, 2)
LIMITS = (None, 4, 6)


def terminator_only_program(machine, kind: str):
    """Virtuals that only a terminator reads: no op constrains them.

    The program names every VAXm microregister ``T0``..``T9``, so only
    the macro-visible ``R0``..``R3`` are left to allocate: the pin shows
    that a terminator-only ``_rs`` temporary is not class-filtered.
    """
    b = ProgramBuilder(f"term_{kind}", machine)
    b.start_block("entry")
    for index in range(10):
        b.emit(mop("movi", preg(f"T{index}"), Imm(index)))
    b.emit(mop("movi", vreg("x"), Imm(3)))
    if kind == "exit":
        b.terminate(Exit(vreg("_rs0")))
    else:
        b.terminate(Multiway(vreg("w"), (MaskCase("1x", "one"),), "other"))
        for label in ("one", "other"):
            b.start_block(label)
            b.exit(vreg("x"))
    return b.finish()


def cells() -> list[tuple[str, str, str, int | None]]:
    """``(allocator, machine, program, register_limit)`` per pinned cell."""
    grid = [
        (allocator, machine, f"seed{seed}", limit)
        for allocator in ALLOCATORS
        for machine in MACHINES
        for seed in SEEDS
        for limit in LIMITS
    ]
    grid += [
        (allocator, "VAXm", f"term_{kind}", None)
        for allocator in ALLOCATORS
        for kind in ("exit", "multiway")
    ]
    return grid


def cell_key(allocator: str, machine: str, program: str, limit) -> str:
    return f"{allocator}/{machine}/{program}/limit={limit}"


def run_cell(allocator: str, machine_name: str, program_name: str, limit) -> dict:
    machine = get_machine(machine_name)
    if program_name.startswith("seed"):
        program = random_program(
            machine, n_blocks=2, ops_per_block=6,
            seed=int(program_name[4:]), n_variables=10,
        )
    else:
        program = terminator_only_program(machine, program_name[5:])
    tracer = Tracer()
    try:
        result = ALLOCATORS[allocator](register_limit=limit, tracer=tracer).allocate(
            program, machine
        )
    except AllocationError as error:
        return {"error": str(error)}
    return {
        "mapping": dict(sorted(result.mapping.items())),
        "spilled_slots": dict(sorted(result.spilled_slots.items())),
        "loads_inserted": result.loads_inserted,
        "stores_inserted": result.stores_inserted,
        "registers_used": result.registers_used,
        "program": str(program).splitlines(),
        "instants": [
            [event.name, json.loads(json.dumps(event.args, sort_keys=True))]
            for event in tracer.events
        ],
    }


def main() -> None:
    pins = {cell_key(*cell): run_cell(*cell) for cell in cells()}
    # One line per cell keeps the file small and its diffs per cell.
    lines = [
        f"{json.dumps(key)}: {json.dumps(pin, sort_keys=True)}"
        for key, pin in sorted(pins.items())
    ]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    spilling = sum(1 for pin in pins.values() if pin.get("spilled_slots"))
    print(f"captured {len(pins)} cells ({spilling} spill) -> {PINS}")


if __name__ == "__main__":
    main()
