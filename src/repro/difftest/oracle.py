"""Axis oracles: run one case two ways and diff every observable.

Each **axis** pins one of the toolkit's equivalence promises by
running the *same* generated program under two configurations that
must be observably identical:

``engine``
    One compilation, executed by the interpretive and the pre-decoded
    engines.  Everything must match: final registers, flags, memory,
    exit value, cycle counts and the execution profile (modulo the
    ``decodes`` counter, which *defines* the engines' difference).
    Memory-touching cases run with demand paging enabled and a paging
    trap service, so §2.1.5 microtrap boundaries are part of the
    compared behaviour, not an untested corner.

``traced``
    The pre-decoded engine against the trace JIT (``engine=traced``,
    :mod:`repro.sim.trace`) with the hot threshold dropped to 1 so
    the short bounded loops difftest generates actually compile and
    dispatch.  The comparison is as strict as ``engine``: a stitched
    superinstruction that drifts from the decoded engine in *any*
    observable — cycles, traps, registers, memory, even the recorded
    profile — is a miscompile.

``cache``
    A fresh compile against a disk-tier pickle round trip (two cache
    instances sharing one directory, so the second probe *must* come
    off disk).  Words, entry, allocation and a full execution must
    match — a cache hit promises exactly what a fresh compile returns.

``restart``
    ``restart_safe=False`` against ``restart_safe=True``.  The
    transform may reschedule and add fix-up code, so words, cycles and
    profiles legitimately differ; trap-free *semantics* must not:
    exit value, memory image, trap counts and — for front ends whose
    variables name physical registers — final register values.

``shards``
    One fault campaign over the case, serial vs ``jobs=2``; the JSON
    reports must be byte-identical (the determinism contract of
    ``repro.faults``).

Axes never raise on behavioural differences — they return a
:class:`Divergence` carrying rendered mismatches.  A *crash* in
compile or run is itself an observable: it is captured into
``Observation.error`` and diverges when the other side disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm.loader import ControlStore
from repro.cache import CompileCache
from repro.difftest.generators import GeneratedCase
from repro.obs.timeline import TraceRecorder
from repro.obs.tracer import NULL_TRACER
from repro.registry import build_machine, get_language
from repro.sim import Simulator
from repro.sim.batch import DEFAULT_LANES, BatchCase, run_cases
from repro.sim.memory import MainMemory
from repro.sim.state import MachineState

#: Cycle budget per executed case; generated loops are bounded, so a
#: well-behaved case finishes in a few thousand cycles and anything
#: approaching this is itself a bug worth surfacing.
MAX_CYCLES = 2_000_000


@dataclass(frozen=True)
class Observation:
    """Everything the oracle can see from one compile-and-run.

    ``registers`` is keyed by the case's *source-level* ``observe``
    names, resolved through the allocation mapping, so observations
    stay meaningful when two sides of an axis compile differently.
    ``error`` is the exception class name when compile or execution
    raised; every other field is then empty.
    """

    words: tuple[int, ...] = ()
    entry: int = 0
    mapping: tuple[tuple[str, str], ...] = ()
    cycles: int = 0
    instructions: int = 0
    traps: int = 0
    interrupts: int = 0
    exit_value: int | None = None
    registers: tuple[tuple[str, int | None], ...] = ()
    flags: tuple[tuple[str, int], ...] = ()
    memory: tuple[int, ...] | None = None
    profile: tuple[tuple[str, object], ...] = ()
    error: str | None = None


@dataclass
class Divergence:
    """One confirmed observable difference on one axis."""

    case: GeneratedCase
    axis: str
    mismatches: list[str] = field(default_factory=list)
    #: Populated by the harness after reduction.
    reduced_source: str | None = None

    def summary(self) -> str:
        fields = ", ".join(m.split(":", 1)[0] for m in self.mismatches)
        return (
            f"{self.case.lang}/{self.case.machine} seed={self.case.seed} "
            f"axis={self.axis}: {fields} differ"
        )


# ----------------------------------------------------------------------
# Compile / execute
# ----------------------------------------------------------------------
def _paging_service(state, trap):
    """Map the faulted page (address parsed from the trap detail)."""
    address = int(trap.detail.split("address ")[1].rstrip(")"))
    state.memory.map_address(address)


def compile_case(
    case: GeneratedCase,
    machine,
    *,
    restart_safe: bool = False,
    cache=None,
    tracer=NULL_TRACER,
):
    """Compile a generated case through its registered pipeline."""
    return get_language(case.lang).compile(
        case.source, machine,
        restart_safe=restart_safe, cache=cache, tracer=tracer,
    )


def _resolve_observed(case: GeneratedCase, result, state) -> list:
    """Final values of the case's observed source-level names."""
    observed = []
    for name in case.observe:
        if case.physical_observe:
            observed.append((name, state.read_reg(name)))
            continue
        physical = result.allocation.mapping.get(name)
        if physical is not None:
            observed.append((name, state.read_reg(physical)))
            continue
        slot = result.allocation.spilled_slots.get(name)
        if slot is not None:
            observed.append((name, state.scratchpad.read(slot)))
        else:
            observed.append((name, None))  # optimised away / unmapped
    return observed


def _profile_projection(profile) -> list:
    """The engine-comparable subset of a :class:`SimProfile`.

    ``decodes`` is what *distinguishes* the engines and ``mi_text``
    coverage depends on which addresses the recorder was shown text
    for — neither belongs in a parity diff.
    """
    return [
        ("instructions", profile.instructions),
        ("busy_cycles", profile.busy_cycles),
        ("trap_cycles", profile.trap_cycles),
        ("traps", profile.traps),
        ("polls", profile.polls),
        ("exec_counts", tuple(sorted(profile.exec_counts.data.items()))),
        ("cycle_counts", tuple(sorted(profile.cycle_counts.data.items()))),
        ("field_util", tuple(sorted(profile.field_util.data.items()))),
    ]


def execute_case(
    case: GeneratedCase,
    result,
    machine=None,
    *,
    engine: str = "interpretive",
    paging: bool = False,
    trace_hot_threshold: int | None = None,
) -> Observation:
    """Run one compiled case to completion and observe everything."""
    machine = build_machine(case.machine) if machine is None else machine
    store = ControlStore(machine)
    store.load(result.loaded)
    memory = MainMemory(paging_enabled=paging)
    for address, value in case.memory.items():
        memory.load_words(address, [value])
    state = MachineState(machine, memory=memory)
    recorder = TraceRecorder()
    extra = {}
    if trace_hot_threshold is not None:
        extra["trace_hot_threshold"] = trace_hot_threshold
    simulator = Simulator(
        machine, store, state=state, recorder=recorder, engine=engine,
        trap_service=_paging_service if paging else None,
        **extra,
    )
    run = simulator.run(result.loaded.name, max_cycles=MAX_CYCLES)
    return Observation(
        words=tuple(word.word for word in result.loaded.words),
        entry=result.loaded.entry,
        mapping=tuple(sorted(result.allocation.mapping.items())),
        cycles=run.cycles,
        instructions=run.instructions,
        traps=run.traps,
        interrupts=run.interrupts_serviced,
        exit_value=run.exit_value,
        registers=tuple(_resolve_observed(case, result, state)),
        flags=tuple(sorted(state.flags.items())),
        memory=(
            tuple(memory.dump_words(*case.mem_region))
            if case.mem_region else None
        ),
        profile=tuple(_profile_projection(recorder.profile)),
    )


def observe(
    case: GeneratedCase,
    *,
    engine: str = "interpretive",
    restart_safe: bool = False,
    paging: bool = False,
    cache=None,
    trace_hot_threshold: int | None = None,
) -> Observation:
    """Fresh machine, compile, run — errors become observations."""
    try:
        machine = build_machine(case.machine)
        result = compile_case(
            case, machine, restart_safe=restart_safe, cache=cache,
        )
        return execute_case(
            case, result, machine, engine=engine, paging=paging,
            trace_hot_threshold=trace_hot_threshold,
        )
    except Exception as error:
        return Observation(error=f"{type(error).__name__}: {error}")


def observe_batch(
    case: GeneratedCase,
    *,
    lanes: int = DEFAULT_LANES,
    paging: bool = False,
) -> list[Observation]:
    """One observation per lane of a lockstep batch of the case.

    Every lane starts from the same initial state, so all lanes must
    observe exactly what the scalar decoded run observes — including
    lanes the driver peeled (traps, per-lane errors), whose scalar
    replay is the comparison's whole point.  Errors are captured per
    lane in the same ``TypeName: message`` rendering as
    :func:`observe`, so crash parity diffs cleanly too.
    """
    try:
        machine = build_machine(case.machine)
        result = compile_case(case, machine)
        outcomes = run_cases(
            machine, result.loaded,
            [BatchCase(memory=dict(case.memory)) for _ in range(lanes)],
            batch=lanes, paging=paging,
            trap_service=_paging_service if paging else None,
            max_cycles=MAX_CYCLES,
        )
    except Exception as error:
        return [Observation(error=f"{type(error).__name__}: {error}")] * lanes
    observations = []
    for outcome in outcomes:
        if outcome.error is not None:
            observations.append(Observation(
                error=f"{type(outcome.error).__name__}: {outcome.error}"
            ))
            continue
        try:
            run = outcome.result
            observations.append(Observation(
                words=tuple(word.word for word in result.loaded.words),
                entry=result.loaded.entry,
                mapping=tuple(sorted(result.allocation.mapping.items())),
                cycles=run.cycles,
                instructions=run.instructions,
                traps=run.traps,
                interrupts=run.interrupts_serviced,
                exit_value=run.exit_value,
                registers=tuple(_resolve_observed(case, result, outcome)),
                flags=tuple(sorted(outcome.flags.items())),
                memory=(
                    tuple(outcome.memory.dump_words(*case.mem_region))
                    if case.mem_region else None
                ),
            ))
        except Exception as error:
            observations.append(
                Observation(error=f"{type(error).__name__}: {error}")
            )
    return observations


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def _render(name: str, left, right) -> str:
    left_text, right_text = repr(left), repr(right)
    if len(left_text) > 120:
        left_text = left_text[:117] + "..."
    if len(right_text) > 120:
        right_text = right_text[:117] + "..."
    return f"{name}: {left_text} != {right_text}"


def diff_observations(
    left: Observation, right: Observation, fields: tuple[str, ...]
) -> list[str]:
    """Rendered mismatches over the named fields (empty = identical).

    When either side errored, only the ``error`` fields are compared —
    a divergence is "one side crashed and the other did not" (or
    different crashes), never a diff of empty observables.
    """
    if left.error is not None or right.error is not None:
        if left.error != right.error:
            return [_render("error", left.error, right.error)]
        return []
    mismatches = []
    for name in fields:
        a, b = getattr(left, name), getattr(right, name)
        if a != b:
            mismatches.append(_render(name, a, b))
    return mismatches


_FULL = (
    "words", "entry", "mapping", "cycles", "instructions", "traps",
    "interrupts", "exit_value", "registers", "flags", "memory", "profile",
)
#: Trap-free semantics only: the restart transform may legitimately
#: change schedules, words and therefore cycle counts.
_SEMANTIC = ("exit_value", "traps", "memory")
#: The batched driver replays peeled lanes on a fresh scalar simulator
#: with no recorder attached, so everything except the profile must
#: match the scalar decoded run observable for observable.
_BATCH_FIELDS = tuple(name for name in _FULL if name != "profile")


# ----------------------------------------------------------------------
# Axes
# ----------------------------------------------------------------------
def _axis_engine(case: GeneratedCase, workdir) -> list[str]:
    paging = case.uses_memory
    left = observe(case, engine="interpretive", paging=paging)
    right = observe(case, engine="decoded", paging=paging)
    return diff_observations(left, right, _FULL)


def _axis_traced(case: GeneratedCase, workdir) -> list[str]:
    paging = case.uses_memory
    left = observe(case, engine="decoded", paging=paging)
    # Threshold 1: the first back edge arms recording, so even the
    # 2-3-trip bounded loops the generators emit get stitched and
    # dispatched instead of never reaching the production default.
    right = observe(
        case, engine="traced", paging=paging, trace_hot_threshold=1,
    )
    return diff_observations(left, right, _FULL)


def _axis_cache(case: GeneratedCase, workdir) -> list[str]:
    fresh = observe(case)
    if workdir is None:
        cached = observe(case, cache=CompileCache())
        return diff_observations(fresh, cached, _FULL)
    disk = workdir / f"cache-{case.lang}-{case.machine}-{case.seed}"
    # Separate instances sharing one directory: the writer's memory
    # tier cannot serve the second probe, forcing the pickle round
    # trip the axis exists to check.
    writer = CompileCache(disk_dir=disk)
    observe(case, cache=writer)
    reader = CompileCache(disk_dir=disk)
    cached = observe(case, cache=reader)
    mismatches = diff_observations(fresh, cached, _FULL)
    if reader.stats.disk_hits != 1:
        mismatches.append(_render("disk_hits", 1, reader.stats.disk_hits))
    return mismatches


def _axis_restart(case: GeneratedCase, workdir) -> list[str]:
    left = observe(case, restart_safe=False)
    right = observe(case, restart_safe=True)
    fields = _SEMANTIC + (("registers",) if case.physical_observe else ())
    return diff_observations(left, right, fields)


def _axis_shards(case: GeneratedCase, workdir) -> list[str]:
    from repro.faults.campaign import run_campaign
    from repro.faults.report import campaign_json

    def campaign(jobs: int) -> str:
        return campaign_json([
            run_campaign(
                case.source, case.lang, build_machine(case.machine),
                n=4, seed=case.seed * 13 + 5, jobs=jobs,
                memory=dict(case.memory) or None,
            )
        ])

    try:
        serial, sharded = campaign(jobs=1), campaign(jobs=2)
    except Exception as error:
        return [f"campaign: {type(error).__name__}: {error}"]
    if serial != sharded:
        lines = [
            f"line {i}: {a!r} != {b!r}"
            for i, (a, b) in enumerate(
                zip(serial.splitlines(), sharded.splitlines())
            )
            if a != b
        ]
        return ["report: serial vs jobs=2 JSON differs"] + lines[:5]
    return []


def _axis_batched(
    case: GeneratedCase, workdir, lanes: int = DEFAULT_LANES
) -> list[str]:
    paging = case.uses_memory
    left = observe(case, engine="decoded", paging=paging)
    mismatches = []
    for lane, right in enumerate(
        observe_batch(case, lanes=lanes, paging=paging)
    ):
        for line in diff_observations(left, right, _BATCH_FIELDS):
            mismatches.append(f"lane {lane} {line}")
    return mismatches


#: axis name -> callable ``(case, workdir) -> list of mismatches``.
AXES = {
    "engine": _axis_engine,
    "traced": _axis_traced,
    "cache": _axis_cache,
    "restart": _axis_restart,
    "shards": _axis_shards,
    "batched": _axis_batched,
}


def run_axis(
    axis: str, case: GeneratedCase, *, workdir=None,
    batch: int = DEFAULT_LANES,
) -> Divergence | None:
    """Run one case under one axis; None when both sides agree.

    ``batch`` sizes the ``batched`` axis's lockstep side and is
    ignored by every other axis.
    """
    if axis == "batched":
        mismatches = _axis_batched(case, workdir, batch)
    else:
        mismatches = AXES[axis](case, workdir)
    if not mismatches:
        return None
    return Divergence(case=case, axis=axis, mismatches=mismatches)
