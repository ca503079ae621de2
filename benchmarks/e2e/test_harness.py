"""Tests of the end-to-end benchmark harness itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict

import pytest

import compare
import stats
from harness import ROOT
from repro.obs.events import PH_COMPLETE, Event
from repro.obs.tracer import NULL_TRACER
from run import WORKLOADS, make_workload

RUN = ROOT / "benchmarks" / "e2e" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1_000, 99.0), (999, 98.0), (500, 98.0), (250, 95.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_nearest_rank_percentile_and_latency_summary():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    summary = stats.latency(samples)
    assert (summary["p50"], summary["tail_p"], summary["tail"]) == (50, 90.0,
                                                                    90)
    few = stats.latency([3.0, 1.0, 2.0])
    assert few["tail"] == 3.0 and few["tail_p"] == 100.0


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([5.0]) == 0.0


def test_self_time_subtracts_direct_children_only():
    def span(name, ts, dur):
        return Event(name=name, ph=PH_COMPLETE, ts=ts, dur=dur)

    events = [
        span("grandchild", 15, 5), span("child", 10, 30),
        span("child", 50, 10), span("parent", 0, 100),
        # Overlapping, not nested: concurrent client requests.
        span("request", 200, 50), span("request", 220, 50),
    ]
    own = stats.self_times(events)
    assert own["parent"] == [60]
    assert sorted(own["child"]) == [10, 25]
    assert own["grandchild"] == [5]
    assert own["request"] == [50, 50]


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------
BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_verdicts_on_a_steady_base():
    def judge(new, better="higher"):
        return compare.verdict(BASE, new, bound=0.1, better=better)

    assert judge([v * 1.2 for v in BASE])["verdict"] == "improved"
    assert judge([v * 1.05 for v in BASE])["verdict"] == "improved"
    assert judge([v * 1.002 for v in BASE])["verdict"] == "unchanged"
    assert judge([v * 0.95 for v in BASE])["verdict"] == "unchanged"
    assert judge([v * 0.8 for v in BASE])["verdict"] == "worse"
    # Lower-is-better metrics flip the direction.
    assert judge([v * 0.8 for v in BASE], "lower")["verdict"] == "improved"
    assert judge([v * 1.2 for v in BASE], "lower")["verdict"] == "worse"
    row = judge([v * 1.2 for v in BASE])
    assert row["ratio"] == pytest.approx(1.2, rel=1e-3)
    assert row["base"] == statistics.median(BASE)


def test_wide_spread_is_unresolved_unless_every_run_wins():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    shifted = [v * 0.85 for v in noisy]
    assert compare.verdict(noisy, shifted, bound=0.1,
                           better="higher")["verdict"] == "unresolved"
    assert compare.verdict(noisy, [200.0] * 10, bound=0.1,
                           better="higher")["verdict"] == "improved"


def test_gain_needs_nine_in_ten_pair_wins():
    new = [v * 1.05 for v in BASE]
    new[0], new[1] = BASE[0] - 1, BASE[1] - 1
    row = compare.verdict(BASE, new, bound=0.1, better="higher")
    assert row["wins"] == pytest.approx(0.8)
    assert row["verdict"] == "unchanged"


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------
def _op_list(workload) -> list:
    """A workload's generated inputs as plain, comparable data."""
    def plain(item):
        if isinstance(item, (list, tuple)):
            return [plain(x) for x in item]
        if isinstance(item, dict):
            return {str(k): plain(v) for k, v in item.items()}
        if hasattr(item, "make"):  # a program: its name identifies it
            return item.name
        if hasattr(item, "registers") and hasattr(item, "memory"):
            return plain(asdict(item))
        return item

    return plain(workload.inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_generates_the_same_op_list(name):
    lists = []
    for seed in (3, 3, 4):
        workload = make_workload(name, seed, 15, smoke=True)
        workload.setup(NULL_TRACER, ["warmup"] + workload.plan()[:2])
        try:
            lists.append(_op_list(workload))
        finally:
            workload.teardown()
    assert lists[0] == lists[1]
    assert lists[0] != lists[2]


# ----------------------------------------------------------------------
# The command, end to end
# ----------------------------------------------------------------------
def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_run_passes_every_correctness_check(tmp_path):
    result = _run("--smoke", "--seed", "1", "--json", str(tmp_path / "r.json"))
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    expected = {f"{w['name']}.{m['name']}" for w in BENCH["workloads"]
                for m in BENCH["end_to_end"]}
    assert set(last["metrics"]) == expected
    record = json.loads((tmp_path / "r.json").read_text())
    assert record["meta"]["seed"] == 1
    assert set(record["workloads"]) == set(WORKLOADS)


#: Units of per-layer metrics that are times or rates, so never 0.
MEASURED_UNITS = {"ms", "MI/s", "programs/s", "scenarios/s", "x"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_measures_every_declared_layer(tmp_path, name):
    result = _run("--smoke", "--workload", name, "--trace-dir", str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert "not in BENCHMARK.json" not in result.stdout
    unmeasured = [metric for metric, entry in last["metrics"].items()
                  if entry["unit"] in MEASURED_UNITS and entry["value"] <= 0]
    assert not unmeasured
    trace = json.loads((tmp_path / f"{name}.json").read_text())
    assert trace["traceEvents"]


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "compile",
         "--seed", "0", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert "correct" not in result.stdout


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"]
                                            for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert len(BENCH["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
