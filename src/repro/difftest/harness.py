"""The difftest campaign loop: generate, cross-check, shrink, report.

One campaign walks a seeded case stream round-robin over the selected
languages and machines: case ``i`` gets language ``langs[i % L]``,
machine ``machines[(i // L) % M]`` and per-case seed
``seed * 1_000_003 + i`` — so any reported case is reproducible from
the campaign seed and its index alone, and every (language, machine)
cell is visited evenly regardless of budget.

Axis thinning keeps the budget meaningful: ``engine``, ``traced``
and ``restart`` run on every case (they are one extra execution
each), ``cache`` on every 4th (disk round trips) and ``shards`` on
every 16th (each one is two full fault campaigns).  The schedule is a pure function of the
case index, so two runs with the same seed and budget check exactly
the same pairs.

Every divergence is shrunk with :func:`repro.difftest.reducer.
reduce_source` — the predicate re-runs the *same axis* on the
candidate text, so the reduced program is a true reproducer, not just
a smaller program — and written to the corpus directory as a
self-contained JSON repro file.

:func:`self_check` closes the loop on the harness itself: it plants a
semantic bug into the fast engines' op table (``xor`` in
:mod:`repro.sim.ops`, which the interpretive reference never reads)
and asserts the campaign both *finds* and *shrinks* it, then plants
a one-bit miscompile into the trace stitcher
(``repro.sim.trace.PLANT_RESULT_XOR``) and asserts the
``traced`` axis catches that too, then corrupts one lane of the
batched lockstep driver (``repro.sim.batch.PLANT_LANE_XOR``) and
asserts the ``batched`` axis reports it.  A difftest harness that
cannot detect a planted miscompile is worse than none — it
manufactures confidence.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.difftest.generators import generate_case
from repro.difftest.oracle import Divergence, run_axis
from repro.difftest.reducer import reduce_source
from repro.obs.aggregate import CampaignMetrics
from repro.obs.tracer import NULL_TRACER
from repro.registry import build_machine, generator_names

DEFAULT_MACHINES = ("HM1", "CM1", "VM1")
DEFAULT_AXES = ("engine", "traced", "batched", "cache", "restart", "shards")
#: axis -> run it on every Nth case.
_AXIS_EVERY = {
    "engine": 1, "traced": 1, "restart": 1, "batched": 2, "cache": 4,
    "shards": 16,
}


@dataclass
class DifftestReport:
    """Outcome of one differential-testing campaign."""

    seed: int
    budget: int
    langs: tuple[str, ...]
    machines: tuple[str, ...]
    axes: tuple[str, ...]
    cases_run: int = 0
    #: axis name -> number of pairs actually executed.
    pairs_run: dict = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    #: Repro files written, in divergence order.
    corpus_files: list[str] = field(default_factory=list)
    #: Shard-mergeable rollup of the campaign's tallies (``cases``,
    #: ``pairs.<axis>``, ``divergences.<axis>`` in the ``difftest``
    #: counter family) — merges with fault-campaign rollups into one
    #: fleet-level :class:`CampaignMetrics`.
    metrics: CampaignMetrics = field(default_factory=CampaignMetrics)

    @property
    def clean(self) -> bool:
        return not self.divergences

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "langs": list(self.langs),
            "machines": list(self.machines),
            "axes": list(self.axes),
            "cases_run": self.cases_run,
            "pairs_run": dict(sorted(self.pairs_run.items())),
            "divergences": [
                {
                    "lang": d.case.lang,
                    "machine": d.case.machine,
                    "seed": d.case.seed,
                    "axis": d.axis,
                    "mismatches": list(d.mismatches),
                    "source": d.case.source,
                    "reduced_source": d.reduced_source,
                }
                for d in self.divergences
            ],
            "corpus_files": list(self.corpus_files),
            "metrics": self.metrics.to_json(),
        }

    def render(self) -> str:
        lines = [
            f"difftest: seed={self.seed} budget={self.budget} "
            f"langs={','.join(self.langs)} "
            f"machines={','.join(self.machines)}",
            "  pairs: " + "  ".join(
                f"{axis}={self.pairs_run.get(axis, 0)}"
                for axis in self.axes
            ),
        ]
        if self.clean:
            lines.append(
                f"  {self.cases_run} cases, no divergence on any axis"
            )
        else:
            lines.append(
                f"  {self.cases_run} cases, "
                f"{len(self.divergences)} DIVERGENCE(S):"
            )
            for divergence, path in zip(
                self.divergences,
                self.corpus_files + [None] * len(self.divergences),
            ):
                lines.append(f"    {divergence.summary()}")
                for mismatch in divergence.mismatches[:4]:
                    lines.append(f"      {mismatch}")
                if path:
                    lines.append(f"      repro: {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _shrink(divergence: Divergence, workdir) -> str:
    """Reduce a diverging case against its own axis."""
    case, axis = divergence.case, divergence.axis

    def still_diverges(text: str) -> bool:
        try:
            return run_axis(axis, case.with_source(text),
                            workdir=workdir) is not None
        except Exception:
            return False

    return reduce_source(case.source, still_diverges)


def _write_repro(divergence: Divergence, corpus_dir: Path) -> str:
    case = divergence.case
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / (
        f"div-{case.lang}-{case.machine}-{case.seed}-{divergence.axis}.json"
    )
    path.write_text(json.dumps(
        {
            "lang": case.lang,
            "machine": case.machine,
            "seed": case.seed,
            "axis": divergence.axis,
            "mismatches": list(divergence.mismatches),
            "source": case.source,
            "reduced_source": divergence.reduced_source,
            "repro": (
                f"python -m repro difftest --seed {case.seed} --budget 1 "
                f"--langs {case.lang} --machines {case.machine} "
                f"--axes {divergence.axis}"
            ),
        },
        indent=2,
    ) + "\n")
    return str(path)


def run_difftest(
    *,
    seed: int = 0,
    budget: int = 200,
    langs: tuple[str, ...] | None = None,
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    axes: tuple[str, ...] = DEFAULT_AXES,
    corpus_dir: str | Path | None = None,
    reduce: bool = True,
    size: int | None = None,
    batch: int = 64,
    tracer=NULL_TRACER,
) -> DifftestReport:
    """Run one differential-testing campaign.

    ``budget`` counts generated cases, not axis pairs: each case runs
    the subset of ``axes`` its index selects (see ``_AXIS_EVERY``).
    Divergent cases are shrunk (``reduce=False`` skips it, for speed
    in self-tests) and, when ``corpus_dir`` is given, written out as
    self-contained JSON reproducers.

    ``batch`` sizes the ``batched`` axis's lockstep side (lanes per
    dispatch); it does not enter the report, so reports stay
    byte-identical across batch sizes — that identity is the axis's
    promise.
    """
    langs = tuple(langs) if langs else tuple(generator_names())
    machines = tuple(machines)
    axes = tuple(axes)
    report = DifftestReport(
        seed=seed, budget=budget, langs=langs, machines=machines, axes=axes,
    )
    corpus = Path(corpus_dir) if corpus_dir is not None else None
    with tempfile.TemporaryDirectory(prefix="difftest-") as scratch:
        workdir = Path(scratch)
        for index in range(budget):
            lang = langs[index % len(langs)]
            machine_name = machines[(index // len(langs)) % len(machines)]
            case_seed = seed * 1_000_003 + index
            case = generate_case(
                lang, build_machine(machine_name), case_seed, size=size,
            )
            report.cases_run += 1
            report.metrics.difftest.inc("cases")
            case_axes = [
                axis for axis in axes
                if index % _AXIS_EVERY.get(axis, 1) == 0
            ]
            if tracer.enabled:
                tracer.instant(
                    "difftest.case", cat="difftest",
                    lang=lang, machine=machine_name, seed=case_seed,
                    axes=",".join(case_axes),
                )
            for axis in case_axes:
                report.pairs_run[axis] = report.pairs_run.get(axis, 0) + 1
                report.metrics.difftest.inc(f"pairs.{axis}")
                divergence = run_axis(
                    axis, case, workdir=workdir, batch=batch,
                )
                if divergence is None:
                    continue
                report.metrics.difftest.inc(f"divergences.{axis}")
                if reduce:
                    divergence.reduced_source = _shrink(divergence, workdir)
                if tracer.enabled:
                    tracer.instant(
                        "difftest.divergence", cat="difftest",
                        lang=lang, machine=machine_name, seed=case_seed,
                        axis=axis, mismatches=len(divergence.mismatches),
                    )
                report.divergences.append(divergence)
                if corpus is not None:
                    report.corpus_files.append(
                        _write_repro(divergence, corpus)
                    )
    return report


# ----------------------------------------------------------------------
def self_check(
    *,
    seed: int = 0,
    budget: int = 10,
    size: int | None = None,
    tracer=NULL_TRACER,
) -> DifftestReport:
    """Prove the harness detects and shrinks planted engine bugs.

    Three plants, three phases.  Phase one plants ``xor ->
    xor-then-flip-bit-0`` into the fast engines' op table
    (:func:`repro.sim.ops.planted`; the interpretive engine is
    untouched) and runs an engine-axis campaign.  Every generated program ends in an xor
    fold, so the bug is reachable from every case; the campaign must
    come back with at least one divergence, and the *first* one is
    then shrunk (reducing every planted hit would prove nothing more
    and cost minutes) — the reduced program must still diverge.
    Phase two plants a one-bit miscompile into the trace *stitcher*
    (``repro.sim.trace.PLANT_RESULT_XOR``: every inlined ALU result
    is XORed with 1 at stitch time) and runs a ``traced``-axis
    campaign — the decoded reference is untouched, so only the
    stitched superinstructions are wrong, and the axis must report a
    divergence.  Phase three corrupts *one lane* of the batched
    lockstep driver (``repro.sim.batch.PLANT_LANE_XOR``: lane 0's
    value is XORed at every batched register commit) and runs a
    ``batched``-axis campaign — lanes that peel to the scalar engine
    are immune by construction, so a detection here proves the axis
    really compares the lockstep data path, not just the peel path;
    where admission refuses lockstep outright (no numpy) the phase
    fails naming that refusal rather than reporting a miss.
    Raises ``AssertionError`` otherwise.  Also reachable as ``python
    -m repro difftest --self-check``.
    """
    import repro.sim.batch as batch_mod
    import repro.sim.trace as trace
    from repro.sim.admission import LOCKSTEP, fast_path_refusal
    from repro.sim.ops import planted

    # Small fixed-size programs: the plant is reachable from any case
    # (every program ends in an xor fold), and shrinking a full-size
    # generated program costs minutes of oracle re-runs for no extra
    # evidence.
    size = 10 if size is None else size
    with planted("xor", "(a & M) ^ (b & M) ^ 1"):
        report = run_difftest(
            seed=seed, budget=budget, axes=("engine",),
            reduce=False, size=size, tracer=tracer,
        )
        if not report.divergences:
            raise AssertionError(
                "self-check: planted decoded-engine xor bug was not "
                "detected"
            )
        first = report.divergences[0]
        first.reduced_source = _shrink(first, workdir=None)
        reduced = first.reduced_source
        if not reduced or len(reduced) > len(first.case.source):
            raise AssertionError(
                f"self-check: divergence was not shrunk ({first.summary()})"
            )
        if run_axis("engine", first.case.with_source(reduced)) is None:
            raise AssertionError(
                "self-check: reduced program does not reproduce the "
                "planted divergence"
            )
    if run_axis("engine", first.case.with_source(reduced)) is not None:
        raise AssertionError(
            "self-check: reduced program still diverges on the pristine "
            "engine — a real engine bug is masquerading as the plant"
        )
    # Phase two: miscompile the trace stitcher by one bit.  No shrink
    # pass here — a planted trace bug derails loop control, so each
    # diverging run burns its whole cycle budget and re-running the
    # oracle dozens of times per reduction step buys no new evidence.
    trace.PLANT_RESULT_XOR = 1
    try:
        traced_report = run_difftest(
            seed=seed, budget=budget, axes=("traced",),
            reduce=False, size=size, tracer=tracer,
        )
        if not traced_report.divergences:
            raise AssertionError(
                "self-check: planted trace-stitcher bug was not detected"
            )
        planted = traced_report.divergences[0]
    finally:
        trace.PLANT_RESULT_XOR = 0
    if run_axis("traced", planted.case) is not None:
        raise AssertionError(
            "self-check: planted-trace case still diverges with the "
            "pristine stitcher — a real trace-JIT bug is masquerading "
            "as the plant"
        )
    report.divergences.extend(traced_report.divergences)
    for axis, pairs in traced_report.pairs_run.items():
        report.pairs_run[axis] = report.pairs_run.get(axis, 0) + pairs
    # Phase three: corrupt one lane of the batched lockstep driver.
    # No shrink pass, same economics as phase two.  A corrupted lane
    # 0 that derails its own control flow (a wrong branch, a runaway
    # loop) now stays batched on its own path instead of peeling out
    # of the plant's reach.  The budget floor stays above the other
    # phases': a flipped low bit can be masked before it shows, and
    # paged lanes still replay out of reach, so the phase needs more
    # shots on goal.  Detection needs only the corrupt lane 0, so a
    # small lane count proves the same property while every peel
    # replays 4 lanes instead of 64.  A corrupted loop counter often
    # spins until the cycle budget, so the budget is cut for the
    # phase — both sides of every pair see the same cut, which keeps
    # non-planted comparisons clean.
    import repro.difftest.oracle as oracle_mod

    refusal = fast_path_refusal(LOCKSTEP, lanes=4)
    if refusal is not None:
        raise AssertionError(
            f"self-check: the batch-lane plant cannot run — lockstep "
            f"admission refuses every batch (reason {refusal!r})"
        )
    batch_mod.PLANT_LANE_XOR = 1
    saved_max_cycles = oracle_mod.MAX_CYCLES
    oracle_mod.MAX_CYCLES = 50_000
    try:
        batched_report = run_difftest(
            seed=seed, budget=max(budget, 30), axes=("batched",),
            reduce=False, size=size, tracer=tracer, batch=4,
        )
        if not batched_report.divergences:
            raise AssertionError(
                "self-check: planted batch-lane corruption was not "
                "detected"
            )
        lane_planted = batched_report.divergences[0]
    finally:
        batch_mod.PLANT_LANE_XOR = 0
        oracle_mod.MAX_CYCLES = saved_max_cycles
    if run_axis("batched", lane_planted.case) is not None:
        raise AssertionError(
            "self-check: planted-lane case still diverges with the "
            "pristine batched driver — a real lockstep bug is "
            "masquerading as the plant"
        )
    report.divergences.extend(batched_report.divergences)
    for axis, pairs in batched_report.pairs_run.items():
        report.pairs_run[axis] = report.pairs_run.get(axis, 0) + pairs
    return report
