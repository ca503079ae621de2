"""``simulate``: real microprograms on every simulator engine.

Why: nearly all the time is in ``repro.sim``.  The M1 interpreter's
multiway dispatch and lanes whose control flow diverges are where the
trace and batch fast paths are weak, so both are in the mix.

Closed loop, one caller; programs are compiled and loaded during set-up.
Each round runs, with freshly seeded inputs:

* on the interpretive, decoded and traced engines: the microcoded M1
  interpreter running the E10 transliteration and a REC-style pattern
  matcher (:mod:`m1`), and the six YALLL corpus programs on HM1 and
  CM1 -- sized so a run is a few thousand microinstructions;
* through ``run_cases(batch=64)``: a uniform-control lane set (every
  lane takes the same branches) and a divergent one.

Every run is checked against a Python reference, the three scalar
engines must agree on exit value, cycles, instructions and memory, and
sampled batch lanes must equal a scalar decoded run.

One operation is one simulated microinstruction (a lane's, for batched
runs): ``ops_per_s`` is microinstructions per second of simulation;
``p50_ms``/``tail_ms`` are the latency of one scalar program run.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from harness import Round, rounds_for
from inputs import Job, compile_programs
from repro.asm.loader import ControlStore
from repro.registry import build_machine
from repro.sim.batch import BatchCase, run_cases
from repro.sim.simulator import Simulator

ENGINES = ("interpretive", "decoded", "traced")
LANES = 64
MAX_CYCLES = 5_000_000
#: Seconds one round takes on 2 vCPUs of an Intel Xeon; sets the round count.
ROUND_S = 1.6

#: Scalar programs: (program, machine, input size).  Sizes make every
#: run but bitcount's take about as long on one engine, so latency
#: clusters by engine and its percentiles land inside a cluster, not on
#: a gap between programs.
SCALAR = (
    ("m1_translit", "HM1", 50),
    ("m1_match", "HM1", 28),
    *((name, machine, size)
      for machine in ("HM1", "CM1")
      for name, size in (("translit", 800), ("memcpy", 1200),
                         ("checksum", 1200), ("bitcount", 0),
                         ("strcmp", 960), ("fib", 1600))),
)
#: Batched lane sets: same-length inputs keep every lane on one path;
#: data-dependent loops make lanes diverge and peel off.
BATCHED = {
    "uniform": (("m1_translit", "HM1", 32), ("checksum", "HM1", 128)),
    "divergent": (("m1_match", "HM1", 12), ("strcmp", "HM1", 128)),
}
SMOKE_SCALE = 8


@dataclass
class Loaded:
    """A program resident in a control store, with its input generator."""

    name: str
    machine: object
    loaded: object
    store: ControlStore
    make: Callable[[random.Random, int], Job]


# ----------------------------------------------------------------------
def run_scalar(program: Loaded, job: Job, engine: str):
    """One fresh-simulator run: ``(RunResult, observed signature)``."""
    simulator = Simulator(program.machine, program.store, engine=engine)
    state = simulator.state
    for address, value in job.memory.items():
        state.memory.load_words(address, [value])
    for register, value in job.registers.items():
        state.write_reg(register, value)
    result = simulator.run(program.loaded.name, max_cycles=MAX_CYCLES)
    region = (
        tuple(state.memory.dump_words(job.region[0], len(job.region[1])))
        if job.region else None
    )
    return result, (result.exit_value, result.cycles, result.instructions,
                    region)


def _expected(job: Job) -> tuple:
    return job.exit_value, (job.region[1] if job.region else None)


class SimulateWorkload:
    name = "simulate"

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke

    def config(self) -> dict:
        return {"engines": list(ENGINES), "lanes": LANES,
                "scalar": [list(p) for p in SCALAR],
                "batched": {k: [list(p) for p in v]
                            for k, v in BATCHED.items()},
                "size_divisor": SMOKE_SCALE if self.smoke else 1,
                "round_s": ROUND_S}

    def plan(self) -> list[str]:
        return [self.name] * rounds_for(self.seconds, ROUND_S)

    # ------------------------------------------------------------------
    def setup(self, tracer, plan: list[str]) -> None:
        self.programs: dict[tuple[str, str], Loaded] = {}
        for machine_name in ("HM1", "CM1"):
            machine = build_machine(machine_name)
            stores = {}
            for name, program in compile_programs(machine).items():
                loaded = program.result.loaded
                if loaded.name not in stores:
                    stores[loaded.name] = ControlStore(machine)
                    with tracer.span("asm.load", program=loaded.name,
                                     machine=machine_name):
                        stores[loaded.name].load(loaded)
                self.programs[name, machine_name] = Loaded(
                    name, machine, loaded, stores[loaded.name], program.make,
                )
        self.inputs = [self._jobs(index) for index in range(len(plan))]

    def teardown(self) -> None:
        self.programs = self.inputs = None

    def _size(self, size: int) -> int:
        return max(4, size // SMOKE_SCALE) if self.smoke else size

    def _jobs(self, index: int) -> dict:
        """Round ``index``'s inputs: scalar jobs and batched lane sets."""
        rng = random.Random(f"{self.seed}:simulate:{index}")
        scalar = []
        for name, machine, size in SCALAR:
            program = self.programs[name, machine]
            scalar.append((program, program.make(rng, self._size(size))))
        batched = {
            kind: [(self.programs[name, machine],
                    [self.programs[name, machine].make(rng, self._size(size))
                     for _ in range(LANES)])
                   for name, machine, size in sets]
            for kind, sets in BATCHED.items()
        }
        return {"scalar": scalar, "batched": batched}

    # ------------------------------------------------------------------
    def run_round(self, kind: str, index: int, tracer) -> Round:
        out = Round(kind)
        rng = random.Random(f"{self.seed}:simulate:{index}:sample")
        jobs = self.inputs[index]
        for program, job in jobs["scalar"]:
            label = f"{program.name}/{program.machine.name}"
            signatures = {}
            for engine in ENGINES:
                with tracer.span("sim.run", engine=engine,
                                 program=program.name) as span:
                    start = time.perf_counter()
                    result, signature = run_scalar(program, job, engine)
                    elapsed = time.perf_counter() - start
                    span.set(mi=result.instructions, cycles=result.cycles,
                             plan_cache=result.plan_cache,
                             trace_cache=result.trace_cache)
                out.ops += result.instructions
                out.busy_s += elapsed
                out.latencies_ms.append(elapsed * 1e3)
                signatures[engine] = signature
                out.check(
                    (signature[0], signature[3]) == _expected(job),
                    f"{label} on {engine}: wrong result",
                )
            out.check(
                len(set(signatures.values())) == 1,
                f"{label}: engines disagree {signatures}",
            )
        peels = {}
        for set_kind, sets in jobs["batched"].items():
            peeled = lanes = 0
            for program, lane_jobs in sets:
                cases = [BatchCase(registers=dict(job.registers),
                                   memory=dict(job.memory))
                         for job in lane_jobs]
                with tracer.span("sim.batch", set=set_kind,
                                 program=program.name) as span:
                    start = time.perf_counter()
                    outcomes = run_cases(
                        program.machine, program.loaded, cases,
                        batch=LANES, max_cycles=MAX_CYCLES,
                    )
                    elapsed = time.perf_counter() - start
                    runs = [o.result for o in outcomes
                            if o.result is not None]
                    lane_mi = sum(run.instructions for run in runs)
                    span.set(mi=lane_mi,
                             cycles=sum(run.cycles for run in runs),
                             peeled=sum(o.peeled for o in outcomes))
                out.ops += lane_mi
                out.busy_s += elapsed
                lanes += len(outcomes)
                peeled += sum(o.peeled for o in outcomes)
                self._check_lanes(out, program, lane_jobs, outcomes, rng)
            peels[set_kind] = peeled / lanes
        out.data = {"peel_ratio": peels}
        return out

    def _check_lanes(self, out, program, lane_jobs, outcomes, rng) -> None:
        label = f"{program.name} batch"
        for lane, (job, outcome) in enumerate(zip(lane_jobs, outcomes)):
            region = None
            if outcome.error is None and job.region:
                region = tuple(outcome.memory.dump_words(
                    job.region[0], len(job.region[1])))
            out.check(
                outcome.error is None
                and (outcome.result.exit_value, region) == _expected(job),
                f"{label} lane {lane}: wrong result",
            )
        for lane in {0, rng.randrange(len(lane_jobs))}:
            outcome = outcomes[lane]
            _, scalar = run_scalar(program, lane_jobs[lane], "decoded")
            run = outcome.result
            out.check(
                run is not None
                and (run.exit_value, run.cycles, run.instructions)
                == scalar[:3],
                f"{label} lane {lane}: differs from a scalar decoded run",
            )

    # ------------------------------------------------------------------
    def layers(self, rounds: list[Round], events) -> dict:
        runs = [e for e in events if e.ph == "X" and e.name == "sim.run"]
        batches = [e for e in events if e.ph == "X" and e.name == "sim.batch"]
        loads = [e.dur / 1e3 for e in events
                 if e.ph == "X" and e.name == "asm.load"]

        def mips(spans):
            seconds = sum(e.dur for e in spans) / 1e6
            return sum(e.args["mi"] for e in spans) / seconds

        layers = {"asm.load_ms_p50": statistics.median(loads)}
        for engine in ENGINES:
            mine = [e for e in runs if e.args["engine"] == engine]
            layers[f"sim.{engine}_mips"] = mips(mine)
            for name in sorted({e.args["program"] for e in mine}):
                layers[f"sim.{engine}.{name}.mips"] = mips(
                    [e for e in mine if e.args["program"] == name]
                )
        layers["sim.batched_lane_mips"] = mips(batches)
        for set_kind in BATCHED:
            layers[f"sim.batched.{set_kind}.mips"] = mips(
                [e for e in batches if e.args["set"] == set_kind]
            )
        plans = [e.args["plan_cache"] for e in runs
                 if e.args["engine"] == "decoded"]
        hits = sum(p["hits"] for p in plans)
        layers["sim.decoded.plan_hit_ratio"] = (
            hits / (hits + sum(p["misses"] for p in plans))
        )
        traces = [e.args["trace_cache"] for e in runs
                  if e.args["engine"] == "traced"]
        layers["sim.traced.bailout_ratio"] = (
            sum(t["bailouts"] for t in traces)
            / max(1, sum(t["hits"] for t in traces))
        )
        for set_kind, ratio in rounds[0].data["peel_ratio"].items():
            layers[f"sim.batched.peel_ratio.{set_kind}"] = ratio
        layers["sim.cycles_total"] = sum(
            e.args["cycles"] for e in runs + batches
        )
        layers["sim.instructions_total"] = sum(
            e.args["mi"] for e in runs + batches
        )
        return layers
