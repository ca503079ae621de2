"""``campaign``: fault-injection campaigns sharded over two processes.

Why: fault injectors refuse every simulator fast path, so the work runs
on the per-microinstruction slow path, and ``jobs=2`` exercises the
``faults`` shard supervisor.  A fast-path win that costs the refused
path shows up here.

Closed loop, one caller.  Each round runs ``run_campaign(jobs=2,
engine="decoded", cache=CompileCache())`` over five YALLL corpus
programs and the M1 interpreter running the E10 transliteration (the
macro image as ``memory``), each with seeded inputs, scenario count and
plan seed.  Every golden run must match the Python reference; the first
round re-runs every campaign serially, later rounds one campaign each,
and the serial report must equal the sharded one byte for byte.

One operation is one fault scenario: ``ops_per_s`` is scenarios per
second of campaign time; ``p50_ms``/``tail_ms`` are milliseconds per
scenario of one campaign call.
"""

from __future__ import annotations

import random
import statistics
import time

from harness import Round, rounds_for
from inputs import compile_programs
from repro.cache import CompileCache
from repro.faults.campaign import CLASSIFICATIONS, run_campaign
from repro.faults.report import campaign_json
from repro.obs.tracer import NULL_TRACER
from repro.registry import build_machine

JOBS = 2
#: (program, input size) per campaign.  Sizes put every golden run but
#: bitcount's (fixed at 51 cycles) at about 610 cycles, so a scenario
#: costs about the same in every campaign and latency percentiles fall
#: inside one cluster, not on a gap between programs.  Programs whose
#: golden run length depends on the data (strcmp, the M1 matcher) are
#: left out, so the cost of a scenario does not depend on the seed.
CAMPAIGNS = (
    ("m1_translit", 6), ("translit", 68), ("memcpy", 100),
    ("checksum", 124), ("bitcount", 0), ("fib", 200),
)
#: Scenarios per campaign are drawn from this range; large enough that
#: the plan's mix of fault kinds and the two worker forks average out.
SCENARIOS = (32, 48)
#: A scenario still running after this many golden runs' cycles is a
#: hang.  At the default of 64 the few hangs a plan happens to draw take
#: most of the time, and throughput would measure how many the seed drew.
CYCLE_FACTOR = 8
#: Seconds one round takes on 2 vCPUs of an Intel Xeon; sets the round count.
ROUND_S = 0.55


class CampaignWorkload:
    name = "campaign"
    #: p90: above it sit a few campaign calls per run, mostly ones that a
    #: slowdown of the shared host hit, so higher percentiles do not
    #: repeat between runs.
    tail_percentile = 90.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke

    def config(self) -> dict:
        return {"jobs": JOBS, "engine": "decoded",
                "cycle_factor": CYCLE_FACTOR,
                "campaigns": [list(c) for c in CAMPAIGNS],
                "scenarios": list((4, 4) if self.smoke else SCENARIOS),
                "round_s": ROUND_S}

    def plan(self) -> list[str]:
        return [self.name] * rounds_for(self.seconds, ROUND_S)

    # ------------------------------------------------------------------
    def setup(self, tracer, plan: list[str]) -> None:
        self.machine = build_machine("HM1")
        self.programs = compile_programs(self.machine)
        self.inputs = [self._campaigns(index) for index in range(len(plan))]

    def teardown(self) -> None:
        self.machine = self.programs = self.inputs = None

    def _campaigns(self, index: int) -> list[tuple]:
        """Round ``index``'s campaigns: ``(program, job, n, plan seed)``."""
        rng = random.Random(f"{self.seed}:campaign:{index}")
        low, high = (4, 4) if self.smoke else SCENARIOS
        return [
            (self.programs[name],
             self.programs[name].make(rng, size // 2 if self.smoke else size),
             rng.randint(low, high), rng.randrange(1 << 30))
            for name, size in CAMPAIGNS
        ]

    def _run(self, program, job, n, plan_seed, jobs, cache,
             tracer=NULL_TRACER):
        return run_campaign(
            program.source, "yalll", self.machine, n=n, seed=plan_seed,
            registers=job.registers, memory=job.memory, jobs=jobs,
            engine="decoded", cache=cache, cycle_factor=CYCLE_FACTOR,
            tracer=tracer,
        )

    def run_round(self, kind: str, index: int, tracer) -> Round:
        out = Round(kind)
        campaigns = self.inputs[index]
        serial_every = index == 0 or tracer.enabled
        outcomes = dict.fromkeys(CLASSIFICATIONS, 0)
        serial_s = 0.0
        serial_n = 0
        caches = []
        for position, (program, job, n, plan_seed) in enumerate(campaigns):
            caches.append(CompileCache())
            with tracer.span("faults.campaign", program=program.name,
                             jobs=JOBS, n=n):
                start = time.perf_counter()
                sharded = self._run(program, job, n, plan_seed, JOBS,
                                    caches[-1])
                elapsed = time.perf_counter() - start
            out.ops += n
            out.busy_s += elapsed
            out.latencies_ms.append(elapsed * 1e3 / n)
            for name, count in sharded.counts().items():
                outcomes[name] += count
            out.check(
                sharded.golden.exit_value == job.exit_value
                and len(sharded.outcomes) == n,
                f"{program.name}: golden run or scenario count wrong",
            )
            if serial_every or position == index % len(campaigns):
                caches.append(CompileCache())
                with tracer.span("faults.campaign", program=program.name,
                                 jobs=1, n=n):
                    start = time.perf_counter()
                    serial = self._run(program, job, n, plan_seed, 1,
                                       caches[-1])
                    serial_s += time.perf_counter() - start
                serial_n += n
                out.check(
                    campaign_json([serial]) == campaign_json([sharded]),
                    f"{program.name}: jobs={JOBS} report differs from jobs=1",
                )
            if tracer.enabled:
                # Once more with the tracer inside, for its golden-run and
                # compile spans; a recording tracer forces the serial path
                # and slows it, so this run is not timed.
                caches.append(CompileCache())
                self._run(program, job, n, plan_seed, 1, caches[-1],
                          tracer=tracer)
        out.data = {
            "outcomes": outcomes,
            "serial_per_s": serial_n / serial_s,
            "cache_hit_ratio": (sum(c.stats.hits for c in caches)
                                / sum(c.stats.probes() for c in caches)),
        }
        return out

    # ------------------------------------------------------------------
    def layers(self, rounds: list[Round], events) -> dict:
        data = rounds[0].data
        golden = [e.dur / 1e3 for e in events
                  if e.ph == "X" and e.name == "golden"]
        sharded = rounds[0].throughput
        layers = {
            "faults.serial_scenarios_per_s": data["serial_per_s"],
            "faults.shard_speedup": sharded / data["serial_per_s"],
            "faults.golden_ms_p50": statistics.median(golden),
        }
        for name, count in data["outcomes"].items():
            layers[f"faults.outcome.{name}"] = count
        layers["cache.hit_ratio.campaign"] = data["cache_hit_ratio"]
        return layers
