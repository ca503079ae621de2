"""Simulator throughput: interpretive vs decoded vs traced execution.

The decoded engine lowers each control-store word once into a flat
execution plan (pre-resolved register slots, pre-bound semantics,
pre-computed branch targets) and replays plans from an address-keyed
map.  The traced engine layers the profile-guided trace JIT
(``repro.sim.trace``) on top: hot loops are stitched into compiled
superinstructions that run whole iterations per dispatch.  This
benchmark measures all three engines in microinstructions per second
(MI/s) on a long arithmetic loop and on a memory-traffic loop, and
writes the machine-readable trajectory file ``BENCH_sim.json``.

The batched rows run the same workloads through the lockstep driver
(``repro.sim.batch``) with 64 homogeneous lanes per dispatch and score
aggregate lane-MI/s, so the cell is directly comparable to the scalar
decoded engine it reuses plans from.  They need numpy: without it
admission refuses lockstep and every lane would replay on the scalar
engine, so the rows are skipped rather than scored as batched.

Run standalone (the CI perf smoke job does)::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py \
        --json BENCH_sim.json --min-ratio 1.0 --batched-floor 1.0

or under pytest with the rest of the benchmark suite.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.asm import ControlStore
from repro.bench import render_table
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.sim import Simulator
from repro.sim.batch import HAVE_NUMPY, BatchCase, run_cases

#: 3 microinstructions per iteration, pure register arithmetic.
ARITH = """
    put total,0
loop:
    jump out if n = 0
    add total,total,n
    sub n,n,1
    jump loop
out:
    exit total
"""

#: Read-modify-write sweep: exercises load/stor plans and paging checks.
MEMLOOP = """
    put addr,64
loop:
    jump out if n = 0
    load w,addr
    add w,w,n
    stor w,addr
    add addr,addr,1
    sub n,n,1
    jump loop
out:
    exit w
"""

WORKLOADS = {
    "arith": (ARITH, 4000),
    "memloop": (MEMLOOP, 2000),
}

ENGINES = ("interpretive", "decoded", "traced")

#: Lanes per lockstep dispatch for the batched rows.
BATCH_LANES = 64


def measure(engine: str, workload: str, *, repeats: int = 3) -> dict:
    """Best-of-``repeats`` MI/s for one engine on one workload."""
    source, n = WORKLOADS[workload]
    machine = get_machine("HM1")
    result = compile_yalll(source, machine, name=workload)
    mapping = result.allocation.mapping
    best = None
    for _ in range(repeats):
        store = ControlStore(machine)
        store.load(result.loaded)
        simulator = Simulator(machine, store, engine=engine)
        simulator.state.write_reg(mapping["n"], n)
        start = time.perf_counter()
        run = simulator.run(workload, max_cycles=50_000_000)
        elapsed = time.perf_counter() - start
        rate = run.instructions / elapsed
        if best is None or rate > best["mi_per_s"]:
            best = {
                "engine": engine,
                "workload": workload,
                "instructions": run.instructions,
                "cycles": run.cycles,
                "seconds": round(elapsed, 6),
                "mi_per_s": round(rate, 1),
            }
    return best


def measure_batched(workload: str, *, repeats: int = 3,
                    lanes: int = BATCH_LANES) -> dict:
    """Best-of-``repeats`` aggregate lane-MI/s for the lockstep driver."""
    source, n = WORKLOADS[workload]
    machine = get_machine("HM1")
    result = compile_yalll(source, machine, name=workload)
    mapping = result.allocation.mapping
    cases = [BatchCase(registers={mapping["n"]: n}) for _ in range(lanes)]
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        outcomes = run_cases(
            machine, result.loaded, cases,
            batch=lanes, max_cycles=50_000_000,
        )
        elapsed = time.perf_counter() - start
        instructions = sum(o.result.instructions for o in outcomes)
        rate = instructions / elapsed
        if best is None or rate > best["mi_per_s"]:
            best = {
                "engine": "batched",
                "workload": workload,
                "instructions": instructions,
                "cycles": outcomes[0].result.cycles,
                "seconds": round(elapsed, 6),
                "mi_per_s": round(rate, 1),
            }
    return best


def run_suite(repeats: int = 3) -> dict:
    """Measure every (engine, workload) pair; summarise the ratios."""
    rows = [
        measure(engine, workload, repeats=repeats)
        for workload in WORKLOADS
        for engine in ENGINES
    ]
    if HAVE_NUMPY:
        rows += [
            measure_batched(workload, repeats=repeats)
            for workload in WORKLOADS
        ]
    ratios = {r["engine"]: {} for r in rows if r["engine"] != "interpretive"}
    batched_over_decoded = {}
    for workload in WORKLOADS:
        by_engine = {
            r["engine"]: r["mi_per_s"]
            for r in rows if r["workload"] == workload
        }
        for engine in ratios:
            ratios[engine][workload] = round(
                by_engine[engine] / by_engine["interpretive"], 3
            )
        if "batched" in by_engine:
            batched_over_decoded[workload] = round(
                by_engine["batched"] / by_engine["decoded"], 3
            )
    payload = {
        "benchmark": "sim_throughput",
        "machine": "HM1",
        "unit": "MI/s",
        "batch_lanes": BATCH_LANES,
        "results": rows,
        #: engine -> workload -> MI/s over the interpretive engine.
        "speedup": ratios,
        "min_speedup": {
            engine: min(per_workload.values())
            for engine, per_workload in ratios.items()
        },
    }
    if batched_over_decoded:
        #: the acceptance metric: lockstep lanes vs the scalar engine
        #: whose plans they replay.
        payload["batched_over_decoded"] = batched_over_decoded
        payload["min_batched_over_decoded"] = min(
            batched_over_decoded.values()
        )
    return payload


def render(payload: dict) -> str:
    batched = (
        f"vs batched x{payload['batch_lanes']} "
        if "batched" in payload["speedup"]
        else "(batched rows skipped: numpy missing) "
    )
    return render_table(
        ["workload", "engine", "MIs", "seconds", "MI/s"],
        [
            [r["workload"], r["engine"], r["instructions"],
             f"{r['seconds']:.4f}", f"{r['mi_per_s']:,.0f}"]
            for r in payload["results"]
        ],
        title="Simulator throughput, interpretive vs decoded vs traced "
              f"{batched}(HM1); speedups over interpretive "
              f"{payload['speedup']}",
    )


# ----------------------------------------------------------------------
# pytest entry points (collected with the rest of the bench suite)
# ----------------------------------------------------------------------
def test_decoded_vs_interpretive(report, benchmark):
    payload = run_suite(repeats=2)
    report(render(payload))
    # Shape: decoding must pay for itself on every workload; the
    # arithmetic loop (no memory stalls diluting the win) must show a
    # decisive advantage.
    assert payload["min_speedup"]["decoded"] >= 1.0
    assert payload["speedup"]["decoded"]["arith"] >= 1.5
    # The trace JIT must beat plain decoding on every workload, and
    # decisively beat the interpreter even on shared CI hardware (the
    # committed BENCH_sim.json records the full >=10x memloop margin).
    assert payload["min_speedup"]["traced"] >= 2.0
    for workload in WORKLOADS:
        by_engine = {
            r["engine"]: r["mi_per_s"]
            for r in payload["results"] if r["workload"] == workload
        }
        assert by_engine["traced"] > by_engine["decoded"], workload
    # Lockstep batching must beat the scalar engine it borrows plans
    # from decisively (the committed BENCH_sim.json records >=7x).
    if HAVE_NUMPY:
        assert payload["min_batched_over_decoded"] >= 3.0
    benchmark(lambda: measure("traced", "arith", repeats=1))


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure interpretive vs decoded simulator MI/s"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the machine-readable results to PATH",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=None, metavar="R",
        help="exit 1 unless decoded/interpretive >= R on every workload",
    )
    parser.add_argument(
        "--traced-floor", type=float, default=None, metavar="R",
        help="exit 1 unless traced/interpretive >= R on every workload",
    )
    parser.add_argument(
        "--batched-floor", type=float, default=None, metavar="R",
        help="exit 1 unless batched/decoded >= R on every workload",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per cell (best is kept)",
    )
    args = parser.parse_args(argv)
    payload = run_suite(repeats=args.repeats)
    print(render(payload))
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")
    status = 0
    floors = (
        ("decoded", args.min_ratio),
        ("traced", args.traced_floor),
    )
    for engine, floor in floors:
        if floor is None:
            continue
        worst = payload["min_speedup"][engine]
        if worst < floor:
            print(
                f"FAIL: min {engine}/interpretive speedup {worst} "
                f"< floor {floor}",
                file=sys.stderr,
            )
            status = 1
    if args.batched_floor is not None and not HAVE_NUMPY:
        print("batched floor not checked: numpy missing, so admission "
              "refuses lockstep", file=sys.stderr)
    elif args.batched_floor is not None:
        worst = payload["min_batched_over_decoded"]
        if worst < args.batched_floor:
            print(
                f"FAIL: min batched/decoded speedup {worst} "
                f"< floor {args.batched_floor}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
