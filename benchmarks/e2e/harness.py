"""The round loop every workload runs through, and the result it builds.

A workload is an object with a ``name`` and these methods:

* ``plan()`` -- the kind of each measured round;
* ``setup(tracer, plan)`` -- build what the rounds need and generate
  every round's inputs (``plan`` includes the warm-up round);
* ``run_round(kind, index, tracer)`` -- run round ``index``, returning
  a :class:`Round`;
* ``teardown()``, ``config()`` (what the numbers were measured at) and
  ``layers(traced_rounds, events)`` (per-layer metrics of a traced run).

A workload may pin its latency tail with a ``tail_percentile``
attribute.  This module owns what is common: timing set-up, the warm-up
round, turning rounds into the end-to-end metrics, the tracing overhead
and the run metadata.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import stats
from repro.obs.tracer import NULL_TRACER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Working files inside the checkout (ignored by git).
WORK = ROOT / ".bench_build" / "e2e"

#: Set-up is timed at least this many times per run, and until the
#: repeats add up to ``SETUP_BUDGET_S``; the median is reported.  A
#: set-up of a few milliseconds thus gets enough repeats for a steady
#: median.
SETUP_REPEATS = 5
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 40
#: Throughput is the median of at least this many rounds.
MIN_ROUNDS = 5


@dataclass
class Round:
    """What one round of a workload did and how long it took."""

    kind: str
    #: Work units completed, and the seconds they took (throughput).
    ops: int = 0
    busy_s: float = 0.0
    #: Per-operation latencies, pooled across rounds.
    latencies_ms: list[float] = field(default_factory=list)
    #: Checked operations and the failures among them.
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Workload-specific measurements the per-layer metrics read.
    data: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float | None:
        if not self.ops or self.busy_s <= 0:
            return None
        return self.ops / self.busy_s

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def rounds_for(seconds: float, round_s: float) -> int:
    """Measured rounds that, with the warm-up round, fit ``seconds`` at
    ``round_s`` per round."""
    return max(MIN_ROUNDS, int(seconds / round_s) - 1)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_done(times: list[float], *, once: bool) -> bool:
    if once or len(times) >= SETUP_MAX_REPEATS:
        return bool(times)
    return len(times) >= SETUP_REPEATS and sum(times) >= SETUP_BUDGET_S


def measure(workload, *, smoke: bool, tracer=None) -> dict:
    """Run one workload; returns its result record.

    ``workload.plan()`` names the kind of each measured round.  Every
    run starts with one warm-up round, whose numbers are dropped;
    set-up, which generates every round's inputs, is repeated as
    :func:`_setup_done` says and the median reported.  A traced run
    (``tracer`` given) sets up once and runs, per round kind, one
    untraced and one traced round; it derives only the per-layer
    metrics and the tracing overhead.  A smoke run sets up once and
    runs one round per kind, with no warm-up.
    """
    traced = tracer is not None
    kinds = workload.plan()
    distinct = list(dict.fromkeys(kinds))
    warmup = [] if smoke else [("warmup", False)]
    if traced:
        measured = [(kind, with_tracer) for kind in distinct
                    for with_tracer in (False, True)]
    elif smoke:
        measured = [(kind, False) for kind in distinct]
    else:
        measured = [(kind, False) for kind in kinds]
    plan = warmup + measured
    setup_s: list[float] = []
    while not _setup_done(setup_s, once=traced or smoke):
        if setup_s:
            workload.teardown()
        start = time.perf_counter()
        workload.setup(tracer or NULL_TRACER, [kind for kind, _ in plan])
        setup_s.append(time.perf_counter() - start)
    rounds: list[Round] = []
    try:
        for index, (kind, with_tracer) in enumerate(plan):
            try:
                rounds.append(workload.run_round(
                    kind, index, tracer if with_tracer else NULL_TRACER
                ))
            except Exception as error:
                # An operation that raised is a failed operation: report
                # it and carry on, so the run still ends with a result.
                traceback.print_exc()
                failed = Round(kind)
                failed.check(False, f"round {index}: {error!r}")
                rounds.append(failed)
    finally:
        workload.teardown()

    measured = rounds[len(warmup):]
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    record = {
        "workload": workload.name,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "rounds": {kind: sum(r.kind == kind for r in measured)
                   for kind in distinct},
        "config": workload.config(),
    }
    if traced:
        # Per-layer metrics of a failed run would describe wrong work.
        record["per_layer"] = {} if failures else _layers(
            workload, measured, tracer.events
        )
        return record

    throughput = [r.throughput for r in measured if r.throughput is not None]
    latencies = [ms for r in measured for ms in r.latencies_ms]
    if not throughput or not latencies:  # every measured round failed
        record["end_to_end"] = {}
        return record
    ops = stats.summarize(throughput)
    tail_p = getattr(workload, "tail_percentile", None)
    lat = stats.latency(latencies, tail_p)
    record["end_to_end"] = {
        "setup_s": {"value": statistics.median(setup_s),
                    "samples": setup_s},
        "ops_per_s": {**ops, "samples": throughput},
        "p50_ms": {"value": lat["p50"], "n": lat["n"]},
        "tail_ms": {"value": lat["tail"], "n": lat["n"],
                    "percentile": lat["tail_p"],
                    "percentiles": lat["percentiles"]},
        "peak_rss_mb": {"value": _peak_rss_mb()},
    }
    return record


def _layers(workload, measured: list[Round], events) -> dict:
    """A traced run's per-layer metrics, plus the tracing overhead.

    ``measured`` alternates untraced and traced rounds of each kind.
    """
    untraced, traced = measured[0::2], measured[1::2]
    layers = workload.layers(traced, events)
    base = [r.throughput for r in untraced if r.throughput]
    with_trace = [r.throughput for r in traced if r.throughput]
    layers[f"obs.tracing_overhead.{workload.name}"] = (
        base[0] / with_trace[0] - 1.0 if base and with_trace else 0.0
    )
    return layers


def metadata(seed: int, seconds: float, smoke: bool) -> dict:
    """Where and how the numbers were measured."""
    from repro.sim.batch import HAVE_NUMPY, resolve_backend

    numpy_version = None
    if HAVE_NUMPY:
        import numpy

        numpy_version = numpy.__version__
    return {
        "commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "batch_backend": resolve_backend("auto"),
        "setup_repeats": [SETUP_REPEATS, SETUP_MAX_REPEATS],
        "setup_budget_s": SETUP_BUDGET_S,
        "min_rounds": MIN_ROUNDS,
        "tail_rule": f">= {stats.MIN_BEYOND} samples beyond",
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"
