"""``compile``: every front end, cold and as a compile-cache hit.

Why: the time goes to the front ends, ``pipeline``, ``regalloc`` and
``compose``, with no simulation, so a simulator-only change should show
no change here.

Closed loop, one caller.  Each round compiles a fresh seeded draw from
the difftest generators (every registered language on HM1, CM1 and
VM1), the six YALLL corpus programs and the M1 interpreter.  Each
program is compiled cold (``LanguageSpec.compile`` with no cache), then
stored in a :class:`~repro.cache.CompileCache` and compiled again
through it, which must be a hit that is byte-equal to the cold result.

One operation is one cold compile: ``ops_per_s`` is cold compiles per
second of compile time, ``p50_ms``/``tail_ms`` their latency.
"""

from __future__ import annotations

import random
import statistics
import time

import stats
from harness import Round, rounds_for
from repro.bench.macrosys import INTERPRETER
from repro.bench.programs import CORPUS
from repro.cache import CompileCache, compile_key
from repro.difftest.generators import generate_case
from repro.registry import build_machine, get_language, language_names

MACHINES = ("HM1", "CM1", "VM1")
#: Every pipeline stage any front end declares, in pipeline order.
STAGES = ("parse", "sema", "codegen", "legalize", "restart", "regalloc",
          "compose", "assemble")
#: Generated programs per (language, machine) per round, and their size.
CASES_PER_PAIR = 4
CASE_SIZE = 12
#: Seconds one round takes on 2 vCPUs of an Intel Xeon; sets the round count.
ROUND_S = 0.45


def _digest(result) -> tuple:
    """What must be byte-equal between a cache hit and a cold compile."""
    return (
        tuple(word.word for word in result.loaded.words),
        result.loaded.entry,
        tuple(sorted(result.allocation.mapping.items())),
    )


class CompileWorkload:
    name = "compile"
    #: p95: above it sit the M1 interpreter and the largest generated
    #: EMPL programs, about three compiles per round whose sizes the
    #: seed draws, so higher percentiles do not repeat between runs.
    tail_percentile = 95.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke

    def config(self) -> dict:
        return {"machines": list(MACHINES),
                "cases_per_pair": 1 if self.smoke else CASES_PER_PAIR,
                "case_size": CASE_SIZE, "round_s": ROUND_S}

    def plan(self) -> list[str]:
        return [self.name] * rounds_for(self.seconds, ROUND_S)

    # ------------------------------------------------------------------
    def setup(self, tracer, plan: list[str]) -> None:
        self.machines = {name: build_machine(name) for name in MACHINES}
        self.specs = {lang: get_language(lang) for lang in language_names()}
        self.inputs = [self._programs(index) for index in range(len(plan))]

    def teardown(self) -> None:
        self.machines = self.specs = self.inputs = None

    def _programs(self, index: int) -> list[tuple]:
        """Round ``index``'s op list: ``(lang, machine, source, options)``."""
        rng = random.Random(f"{self.seed}:compile:{index}")
        per_pair = 1 if self.smoke else CASES_PER_PAIR
        ops = []
        for machine in MACHINES:
            for lang in language_names():
                for _ in range(per_pair):
                    case = generate_case(
                        lang, self.machines[machine],
                        rng.randrange(1 << 30), size=CASE_SIZE,
                    )
                    ops.append((lang, machine, case.source, {}))
        ops += [("yalll", "HM1", source, {"name": name})
                for name, (source, _inputs) in CORPUS.items()]
        ops.append(("yalll", "HM1", INTERPRETER, {"name": "m1-interp"}))
        return ops

    def run_round(self, kind: str, index: int, tracer) -> Round:
        out = Round(kind)
        cache = CompileCache(capacity=1024)
        words = mir_ops = 0
        for lang, machine_name, source, options in self.inputs[index]:
            spec = self.specs[lang]
            machine = self.machines[machine_name]
            with tracer.span("compile.cold", lang=lang,
                             machine=machine_name):
                start = time.perf_counter()
                cold = spec.compile(source, machine, tracer=tracer,
                                    **options)
                elapsed = time.perf_counter() - start
            out.busy_s += elapsed
            out.latencies_ms.append(elapsed * 1e3)
            words += len(cold.loaded)
            mir_ops += cold.mir.n_ops()
            keyed = spec.pipeline.cache_options(
                {**spec.pipeline.option_defaults, **options}
            )
            with tracer.span("cache.key"):
                compile_key(source, lang, machine, keyed)
            with tracer.span("cache.miss"):
                cache.get_or_compile(source, lang, machine, keyed,
                                     lambda: cold)
            hits_before = cache.stats.hits
            with tracer.span("cache.hit"):
                hit = spec.compile(source, machine, cache=cache, **options)
            out.check(
                cache.stats.hits == hits_before + 1
                and _digest(hit) == _digest(cold),
                f"{lang}/{machine_name}: cache hit differs from cold compile",
            )
        out.ops = len(out.latencies_ms)
        out.data = {"words": words, "mir_ops": mir_ops}
        return out

    # ------------------------------------------------------------------
    def layers(self, rounds: list[Round], events) -> dict:
        own = stats.self_times(events)
        layers = {
            f"pipeline.{stage}.self_ms": statistics.fmean(own[stage]) / 1e3
            for stage in STAGES if stage in own
        }
        compiles = [e for e in events if e.ph == "X" and e.name == "compile"]
        for lang in language_names():
            layers[f"lang.{lang}.p50_ms"] = statistics.median(
                e.dur / 1e3 for e in compiles if e.args.get("lang") == lang
            )
        for probe in ("key", "miss", "hit"):
            layers[f"cache.{probe}_ms_p50"] = (
                statistics.median(own[f"cache.{probe}"]) / 1e3
            )
        layers["compile.hit_per_s"] = (
            len(own["cache.hit"]) / (sum(own["cache.hit"]) / 1e6)
        )
        layers["compile.words"] = rounds[0].data["words"]
        layers["compile.mir_ops"] = rounds[0].data["mir_ops"]
        return layers
