#!/usr/bin/env python3
"""End-to-end benchmark by layer: compile, simulate, campaign, serve.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload simulate --seed 0
    python3 benchmarks/e2e/run.py --seed 0 --json results.json
    python3 benchmarks/e2e/run.py --seed 0 --trace-dir traces/
    python3 benchmarks/e2e/run.py --smoke

Without ``--workload`` every workload runs, each in its own process.
``--trace 1`` (or ``--trace-dir DIR``) makes a traced run instead: one
round per workload under a :class:`repro.obs.Tracer`, reporting the
per-layer metrics and writing one Chrome trace per workload; layers the
workload never enters come from one traced smoke round of each other
workload.  Metric names, units, directions and bounds come from
``BENCHMARK.json``.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when any operation
failed its correctness check, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: name -> (module, class) of each workload, in run order.
WORKLOADS = {
    "compile": ("compile_workload", "CompileWorkload"),
    "simulate": ("simulate_workload", "SimulateWorkload"),
    "campaign": ("campaign_workload", "CampaignWorkload"),
    "serve": ("serve_workload", "ServeWorkload"),
}
#: A workload process that runs longer than this is killed.
CHILD_TIMEOUT_S = 900


def make_workload(name: str, seed: int, seconds: float, smoke: bool):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)(seed, seconds, smoke)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Layered end-to-end benchmark of the toolkit"
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed every input is generated from")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="traced run; write Chrome traces here")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full result record here")
    parser.add_argument("--smoke", action="store_true",
                        help="one round at tiny sizes, to check the harness")
    return parser


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _fill_layers(record: dict, name: str, seed: int, seconds: float) -> None:
    """Add to a traced record the layers workload ``name`` never enters.

    One traced smoke round of each other workload measures them, so every
    per-layer metric of a traced run is a measurement, never a stand-in
    0; ``layers_from_smoke`` names the metrics each one supplied.
    """
    import harness
    from repro.obs import Tracer

    record["layers_from_smoke"] = {}
    for other in WORKLOADS:
        if other == name:
            continue
        extra = harness.measure(make_workload(other, seed, seconds, True),
                                smoke=True, tracer=Tracer())
        layers = extra["per_layer"]
        filled = sorted(set(layers) - set(record["per_layer"]))
        record["layers_from_smoke"][other] = filled
        record["per_layer"].update({metric: layers[metric]
                                    for metric in filled})
        for key in ("attempted", "failed", "failures"):
            record[key] += extra[key]
        record["correct"] = record["correct"] and extra["correct"]


def run_one(args, bench: dict) -> int:
    import harness
    from repro.obs import Tracer
    from repro.obs.export import dump_chrome_trace

    traced = args.trace == "1" or args.trace_dir is not None
    seconds = args.seconds or bench["run_seconds"]
    workload = make_workload(args.workload, args.seed, seconds, args.smoke)
    tracer = Tracer() if traced else None
    record = harness.measure(workload, smoke=args.smoke, tracer=tracer)
    if traced:
        directory = args.trace_dir or harness.WORK / "traces"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{args.workload}.json"
        dump_chrome_trace(tracer.events, path)
        print(f"# wrote {path}")
        _fill_layers(record, args.workload, args.seed, seconds)
        measured = dict(record["per_layer"])
    else:
        measured = {name: entry["value"]
                    for name, entry in record["end_to_end"].items()}

    metrics = {}
    for metric in bench["per_layer" if traced else "end_to_end"]:
        # Only a failed run leaves a metric unmeasured.
        value = measured.pop(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{args.workload:9s} {metric['name']:42s} "
              f"{_format(value):>14s} {metric['unit']}")
    for name, value in measured.items():
        print(f"{args.workload:9s} {name:42s} {_format(value):>14s} "
              f"(not in BENCHMARK.json)")
    for failure in record["failures"]:
        print(f"# FAILED: {failure}")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "meta": harness.metadata(args.seed, seconds, args.smoke),
            "workloads": {args.workload: record},
        }, indent=1) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so none inherits another's heap."""
    import harness

    harness.WORK.mkdir(parents=True, exist_ok=True)
    merged = {"meta": None, "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        part = harness.WORK / f"result-{name}.json"
        command = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--trace", args.trace,
                   "--json", str(part)]
        if args.seconds:
            command += ["--seconds", str(args.seconds)]
        if args.trace_dir is not None:
            command += ["--trace-dir", str(args.trace_dir)]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not part.exists():
            print(f"# workload {name} did not finish "
                  f"(exit {child.returncode})", file=sys.stderr)
            return 2
        status = max(status, child.returncode)
        result = json.loads(part.read_text())
        merged["meta"] = result["meta"]
        merged["workloads"].update(result["workloads"])
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(merged, indent=1) + "\n")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout of the repository; "
              f"{SRC / 'repro'} or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    bench = harness.load_benchmark()
    if args.workload is None:
        return run_all(args)
    return run_one(args, bench)


if __name__ == "__main__":
    raise SystemExit(main())
