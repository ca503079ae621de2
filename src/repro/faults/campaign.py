"""Fault campaigns: run a program under N injected faults, classify.

A campaign compiles a program (or takes one precompiled), executes a
fault-free **golden run**, derives the :class:`FaultSpace` from what
that run actually exercised, draws a deterministic
:class:`FaultPlan` from the seed, and re-runs the program once per
scenario with the scenario's injector attached.  Every run is bounded
by a cycle watchdog (simulated time — deterministic), so a campaign
can never hang on a fault that wedges the microprogram.

Outcome taxonomy (classic fault-injection vocabulary):

* ``masked`` — the run completed and macro-visible state matches the
  golden run, with no extra microtraps; the fault had no effect.
* ``recovered`` — the run trapped at least once, restarted per §2.1.5
  and still produced golden-identical macro state: detected and
  recovered.
* ``sdc`` — silent data corruption: the run completed but the exit
  value or a macro-visible register differs from the golden run.
  This is exactly what the survey's ``incread`` bug produces.
* ``detected`` — the toolkit aborted the run with a typed error
  (unserviced trap, illegal control-store encoding, trap-loop limit):
  the fault was detected, nothing was silently corrupted.
* ``hang`` — the cycle or wall-clock watchdog expired.

The §2.1.5 restartability invariant is checked mechanically: any run
that trapped and completed must show golden-identical macro-visible
registers.  ``restart_invariant_violations()`` returns the scenarios
that break it — empty for programs transformed by
``make_restart_safe``, non-empty for the naive ``incread``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
from dataclasses import dataclass, field

from repro.asm.loader import ControlStore
from repro.errors import (
    CampaignWorkerError,
    FaultPlanError,
    ReproError,
    SimulationLimitError,
)
from repro.faults.injectors import build_injector
from repro.faults.plan import FaultPlan, FaultSpace, FaultSpec
from repro.obs.aggregate import CampaignMetrics
from repro.obs.timeline import TraceRecorder
from repro.obs.tracer import NULL_TRACER
from repro.sim.simulator import Simulator

#: All outcome classes, in reporting order.
CLASSIFICATIONS = ("masked", "recovered", "sdc", "detected", "hang")

#: Default simulated-cycle watchdog multiplier over the golden run.
#: Interrupt storms legitimately inflate runs (each serviced interrupt
#: charges service cycles at every poll), so the factor is generous;
#: it only exists to bound genuinely wedged runs.
DEFAULT_CYCLE_FACTOR = 64

#: How many times a ``--jobs`` shard whose worker process *died* is
#: re-run before the campaign gives up with a typed
#: :class:`~repro.errors.CampaignWorkerError`.  Scenario execution is
#: pure, so a re-run is byte-identical — retries only ever turn a
#: transient host failure (OOM kill, stray signal) into a result.
DEFAULT_SHARD_REQUEUES = 2

#: The process's shard pool and its exit-time close, started by the
#: first ``jobs > 1`` call (:func:`_shard_pool`); None before that, and
#: in a forked child until the child shards a campaign of its own.
_pool = None
_pool_lock = threading.Lock()
#: Numbers the sharded calls, so each call keys its own shards.
_calls = itertools.count()


def default_trap_service(state, trap) -> None:
    """Map the faulted page when the trap names an address, else no-op.

    Handles both genuine pagefaults (``page N (address A)``) and
    injected transient faults (``injected transient fault (address
    A)``); the latter need no service at all, and double-mapping a
    mapped page is harmless.
    """
    detail = getattr(trap, "detail", "")
    marker = "address "
    if marker in detail:
        try:
            address = int(detail.split(marker, 1)[1].rstrip(")"))
        except ValueError:
            return
        state.memory.map_address(address)


def _ignore_interrupt(state) -> None:
    """Interrupt handler for campaigns: acknowledge and drop."""


@dataclass
class GoldenRun:
    """The fault-free reference execution a campaign compares against."""

    exit_value: int | None
    cycles: int
    instructions: int
    traps: int
    macro_registers: dict[str, int]
    reads: int
    writes: int

    def to_json(self) -> dict:
        return {
            "exit_value": self.exit_value,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "traps": self.traps,
            "macro_registers": dict(sorted(self.macro_registers.items())),
            "reads": self.reads,
            "writes": self.writes,
        }


@dataclass
class ScenarioOutcome:
    """One injected-fault run, classified."""

    index: int
    spec: str
    classification: str
    fired: list[dict] = field(default_factory=list)
    traps: int = 0
    interrupts: int = 0
    cycles: int = 0
    exit_value: int | None = None
    macro_registers: dict[str, int] = field(default_factory=dict)
    error: str = ""

    def to_json(self) -> dict:
        record = {
            "index": self.index,
            "spec": self.spec,
            "classification": self.classification,
            "fired": [dict(sorted(f.items())) for f in self.fired],
            "traps": self.traps,
            "interrupts": self.interrupts,
            "cycles": self.cycles,
            "exit_value": self.exit_value,
            "macro_registers": dict(sorted(self.macro_registers.items())),
        }
        if self.error:
            record["error"] = self.error
        return record


@dataclass
class CampaignResult:
    """Everything one (program, machine) campaign produced."""

    program: str
    lang: str
    machine: str
    seed: int
    golden: GoldenRun
    outcomes: list[ScenarioOutcome] = field(default_factory=list)
    restart_hazards: list[str] = field(default_factory=list)
    #: Shard-mergeable telemetry rollup; populated only when the
    #: campaign ran with ``collect_metrics=True`` (it costs a
    #: recorder per run), and omitted from the JSON otherwise so
    #: metrics-off reports are unchanged byte for byte.
    metrics: CampaignMetrics | None = None

    def counts(self) -> dict[str, int]:
        tally = {name: 0 for name in CLASSIFICATIONS}
        for outcome in self.outcomes:
            tally[outcome.classification] += 1
        return tally

    def rate(self, classification: str) -> float:
        if not self.outcomes:
            return 0.0
        return self.counts()[classification] / len(self.outcomes)

    def trap_scenarios(self) -> list[ScenarioOutcome]:
        """Scenarios whose run serviced at least one microtrap."""
        return [o for o in self.outcomes if o.traps > 0]

    def restart_invariant_violations(self) -> list[ScenarioOutcome]:
        """§2.1.5 violations: trapped, completed, macro state differs.

        A restart-safe program must never appear here; the survey's
        naive ``incread`` lands here with its double increment.
        """
        completed = ("masked", "recovered", "sdc")
        return [
            o for o in self.outcomes
            if o.traps > 0 and o.classification in completed
            and o.macro_registers != self.golden.macro_registers
        ]

    def to_json(self) -> dict:
        record = {
            "program": self.program,
            "lang": self.lang,
            "machine": self.machine,
            "seed": self.seed,
            "scenarios": len(self.outcomes),
            "golden": self.golden.to_json(),
            "counts": self.counts(),
            "restart_hazards": list(self.restart_hazards),
            "restart_invariant_violations": [
                o.index for o in self.restart_invariant_violations()
            ],
            "outcomes": [o.to_json() for o in self.outcomes],
        }
        if self.metrics is not None:
            record["metrics"] = self.metrics.to_json()
        return record


@dataclass(frozen=True)
class _ScenarioContext:
    """What every scenario run of one campaign shares.

    A ``--jobs`` call pickles it once and ships it with each shard's
    ``(index, FaultSpec)`` list to the long-lived shard pool's workers.
    The program image pickles without its plans
    (:func:`repro.sim.decode.image_tables`), so a worker decodes the
    words its shard runs into the image it received.
    """

    machine: object
    loaded: object
    golden: GoldenRun
    registers: dict | None
    memory: dict | None
    mapping: dict
    watchdog: int
    engine: str
    collect_metrics: bool
    deadline_s: float | None


# ----------------------------------------------------------------------
def _fresh_simulator(
    machine, loaded, *, registers, memory, mapping, tracer,
    engine: str = "interpretive", collect_profile: bool = False,
    deadline_s: float | None = None,
) -> Simulator:
    store = ControlStore(machine)
    store.load(loaded)
    recorder = (
        TraceRecorder(tracer)
        if tracer.enabled or collect_profile else None
    )
    simulator = Simulator(
        machine, store,
        trap_service=default_trap_service,
        interrupt_handler=_ignore_interrupt,
        recorder=recorder,
        engine=engine,
        deadline_s=deadline_s,
    )
    for name, value in (registers or {}).items():
        simulator.state.write_reg(mapping.get(name, name), value)
    for address, value in (memory or {}).items():
        simulator.state.memory.load_words(address, [value])
    return simulator


def _harvest_run(
    metrics: CampaignMetrics, simulator, classification: str | None,
) -> None:
    """Fold one finished (or aborted) run into a metrics rollup.

    A simulator's cache counters count from zero at run start, so they
    are this run's: a plan it took from the program image's shared
    table still counts as its own decode, so the counters are what a
    simulator decoding everything itself reports.  Harvesting
    from the simulator rather than the :class:`RunResult` also covers
    runs that ended in a typed error, where no result object exists
    but the recorder kept counting right up to the abort.
    """
    profile = simulator.recorder.profile
    # Scenario runs carry injectors, which admission bars from the
    # JIT, so under the traced engine they harvest all-zero trace
    # counters; the golden run's compiles, dispatches and bailouts
    # land here.
    plan_counters, trace_counters = simulator.cache_counters(
        profile.instructions
    )
    metrics.add_run(
        profile, classification=classification,
        plan_cache=plan_counters, trace_cache=trace_counters,
    )


def _macro_registers(simulator) -> dict[str, int]:
    return {
        register.name: simulator.state.registers[register.name]
        for register in simulator.machine.registers.macro_visible()
    }


def fault_space_for(machine, loaded, golden: GoldenRun) -> FaultSpace:
    """The scenario envelope for one compiled program + golden run."""
    return FaultSpace(
        n_words=len(loaded),
        word_bits=machine.control.width,
        registers=tuple(
            r.name for r in machine.registers if not r.readonly
        ),
        register_bits=machine.word_size,
        reads=golden.reads,
        writes=golden.writes,
        cycles=golden.cycles,
    )


def run_campaign_loaded(
    loaded,
    machine,
    *,
    n: int = 25,
    seed: int = 7,
    lang: str = "mir",
    plan: FaultPlan | None = None,
    registers: dict[str, int] | None = None,
    memory: dict[int, int] | None = None,
    mapping: dict[str, str] | None = None,
    restart_hazards: list | None = None,
    cycle_factor: int = DEFAULT_CYCLE_FACTOR,
    tracer=NULL_TRACER,
    jobs: int = 1,
    engine: str = "decoded",
    collect_metrics: bool = False,
    deadline_s: float | None = None,
) -> CampaignResult:
    """Run a campaign over an already-assembled program.

    ``plan`` overrides seeded generation with explicit scenarios (the
    CLI's ``--fault`` path and regression tests use this).  Each of its
    specs is checked against ``machine`` before the golden run, so a
    bit outside the control word, an address outside the control
    store or a register the machine lacks raises
    :class:`~repro.errors.FaultPlanError` instead of classifying.

    ``jobs > 1`` shards the scenarios round-robin over ``jobs``
    workers of the toolkit's one process supervisor,
    :class:`repro.supervisor.WorkerPool`, which re-runs a shard whose
    worker died.  Scenario indices are fixed before sharding and
    results are merged back into index order, so the resulting report
    is byte-identical to the serial run regardless of completion
    order.  A recording tracer forces the serial path (its event list
    cannot be meaningfully merged across processes).

    ``engine`` selects the simulator execution engine for golden and
    scenario runs alike (see :class:`repro.sim.simulator.Simulator`);
    every engine classifies identically.  Scenario runs carry fault
    injectors, which :mod:`repro.sim.admission` bars from the trace
    JIT and lockstep; every seeded injector declares what it touches,
    so scenario runs keep the address-keyed plan lookup off the
    addresses a bit flip watches.  The golden run and every serial
    scenario run one program image and share its plans
    (:func:`repro.sim.decode.image_tables`), so a word is lowered once
    per image; a ``--jobs`` shard receives the image without plans and
    lowers the words it runs once more.  Each run's plan-cache
    counters stay its own either way.

    ``collect_metrics`` attaches a profile recorder to the golden run
    and every scenario and folds the results into
    ``CampaignResult.metrics``.  Shard rollups merge with the
    associative/commutative laws of :mod:`repro.obs.aggregate`, so
    the metrics block is byte-identical between serial and ``--jobs``
    runs of the same campaign.

    ``deadline_s`` is a per-run wall-clock budget handed to
    ``Simulator.deadline_s`` for the golden run and every scenario; a
    run that overruns it raises the typed
    :class:`~repro.errors.SimulationLimitError` (``kind="deadline"``)
    — scenarios classify it as ``hang``, a golden-run overrun
    propagates to the caller.  The simulated-cycle watchdog stays the
    deterministic bound; the deadline is the wall-clock backstop the
    serve worker pool leans on.
    """
    mapping = mapping or {}
    metrics = CampaignMetrics() if collect_metrics else None
    if plan is not None:
        for fault_spec in plan.specs:
            build_injector(fault_spec).check(machine)

    with tracer.span("golden", cat="fault", program=loaded.name,
                     machine=machine.name) as span:
        simulator = _fresh_simulator(
            machine, loaded, registers=registers, memory=memory,
            mapping=mapping, tracer=NULL_TRACER, engine=engine,
            collect_profile=collect_metrics, deadline_s=deadline_s,
        )
        result = simulator.run(loaded.name)
        golden = GoldenRun(
            exit_value=result.exit_value,
            cycles=result.cycles,
            instructions=result.instructions,
            traps=result.traps,
            macro_registers=_macro_registers(simulator),
            reads=simulator.state.memory.reads,
            writes=simulator.state.memory.writes,
        )
        if metrics is not None:
            _harvest_run(metrics, simulator, None)
        span.set(cycles=golden.cycles, exit_value=golden.exit_value)

    if plan is None:
        plan = FaultPlan.generate(
            seed, fault_space_for(machine, loaded, golden), n
        )
    watchdog = max(2_000, golden.cycles * cycle_factor)

    campaign = CampaignResult(
        program=loaded.name,
        lang=lang,
        machine=machine.name,
        seed=plan.seed,
        golden=golden,
        restart_hazards=[str(h) for h in (restart_hazards or [])],
    )
    context = _ScenarioContext(
        machine, loaded, golden, registers, memory, mapping, watchdog,
        engine, collect_metrics, deadline_s,
    )
    indexed = list(enumerate(plan.specs))
    if jobs > 1 and len(indexed) > 1 and not tracer.enabled:
        campaign.outcomes, shard_metrics = _run_scenarios_parallel(
            indexed, context, jobs=jobs
        )
        if metrics is not None:
            campaign.metrics = CampaignMetrics.merged(
                [metrics, *shard_metrics]
            )
        return campaign
    for index, fault_spec in indexed:
        campaign.outcomes.append(_run_scenario(
            context, index, fault_spec, tracer=tracer, metrics=metrics,
        ))
    campaign.metrics = metrics
    return campaign


def _shard_worker(context: _ScenarioContext, shard) -> tuple:
    """Run one shard of ``(index, FaultSpec)`` scenarios.

    Returns the shard's outcomes plus its local metrics rollup (or
    ``None`` when metrics are off).  Classification uses no randomness
    and no wall-clock quantities, so outcomes are identical to what
    the serial loop would have produced for the same indices — which
    is also why a *re-run* of a crashed shard is byte-identical to the
    run that died.
    """
    metrics = CampaignMetrics() if context.collect_metrics else None
    outcomes = [
        _run_scenario(context, index, fault_spec, metrics=metrics)
        for index, fault_spec in shard
    ]
    return outcomes, metrics


def _shard_lanes(lanes) -> list[tuple]:
    """Worker handler: one ``(ticket_id, response)`` per shard sent.

    A shard's job is ``(context, shard)``: its campaign's
    :class:`_ScenarioContext`, pickled once by the caller, and the
    shard's ``(index, FaultSpec)`` list.
    """
    return [
        (ticket_id, {"status": "ok",
                     "result": _shard_worker(pickle.loads(context), shard)})
        for ticket_id, (context, shard), _, _ in lanes
    ]


def _shard_pool(workers: int):
    """The process's shard pool, grown to at least ``workers`` workers.

    The first sharded call starts it and later calls reuse it; idle
    workers wait for the next call until the process exits.  It closes
    from a :class:`multiprocessing.util.Finalize` above priority 0, so
    before ``multiprocessing``'s exit handler terminates and joins
    daemonic children: a supervisor still running then would respawn
    the workers being joined.  A forked child forgets its parent's pool
    (:func:`_forget_shard_pool`), whose supervisor thread it lacks.
    The breaker threshold sits above the retry budget and keys are per
    call, so the budget alone decides.
    """
    from multiprocessing.util import Finalize

    from repro.supervisor import CircuitBreakers, WorkerPool

    global _pool
    with _pool_lock:
        if _pool is None:
            pool = WorkerPool(
                workers,
                handler=_shard_lanes,
                max_requeues=DEFAULT_SHARD_REQUEUES,
                breakers=CircuitBreakers(strikes=DEFAULT_SHARD_REQUEUES + 2),
            )
            pool.start()
            _pool = pool, Finalize(
                None, pool.close, kwargs={"drain": False}, exitpriority=10,
            )
        pool = _pool[0]
        pool.grow(workers)
        return pool


def _close_shard_pool() -> None:
    """Abort and reap the shard pool now; the next sharded call starts
    a fresh one (tests that patch worker-side code need that)."""
    global _pool
    with _pool_lock:
        owned, _pool = _pool, None
    if owned is not None:
        owned[1]()  # runs the pool's close once and unregisters it


def _forget_shard_pool() -> None:
    """In a forked child: the parent's pool, and its lock, which another
    thread may have held at the fork, are not the child's."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_shard_pool)


def _run_scenarios_parallel(
    indexed, context: _ScenarioContext, *, jobs: int,
) -> tuple[list[ScenarioOutcome], list[CampaignMetrics]]:
    """Shard scenarios over the process's shard pool, merge to index order.

    Each shard is one job on the long-lived
    :class:`repro.supervisor.WorkerPool` of :func:`_shard_pool`,
    keyed by its call, and carries the context pickled once here.  So
    worker death is an *observed event*: a SIGKILLed worker (OOM,
    segfault, a ``kill:`` chaos injector) is detected, the shard is
    re-run up to :data:`DEFAULT_SHARD_REQUEUES` times, and persistent
    death surfaces as a typed :class:`~repro.errors.CampaignWorkerError`
    naming the shard, its re-queue count and the worker's exit code —
    never a hang on a result that cannot come.  Every shard is waited
    for before that error is raised, so a failed call leaves no work
    on the pool.
    """
    jobs = min(jobs, len(indexed))
    blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    call = next(_calls)
    pool = _shard_pool(jobs)
    futures = [
        pool.submit((blob, indexed[offset::jobs]),
                    key=f"campaign-{call}-shard-{offset}")
        for offset in range(jobs)
    ]
    responses = [future.result() for future in futures]
    for shard_index, response in enumerate(responses):
        if response["status"] == "shutdown":
            raise CampaignWorkerError(
                f"campaign shard {shard_index} was aborted: the shard "
                f"pool closed",
                shard_index=shard_index, requeues=0,
            )
        if response["status"] != "ok":  # crashed or quarantined
            raise CampaignWorkerError(
                f"campaign shard {shard_index} worker died "
                f"(exit code {response['exitcode']}) and stayed dead "
                f"through {DEFAULT_SHARD_REQUEUES} re-queues",
                shard_index=shard_index,
                requeues=response["attempts"] - 1,
                exitcode=response["exitcode"],
            )
    results = [response["result"] for response in responses]
    merged = sorted(
        (outcome for outcomes, _ in results for outcome in outcomes),
        key=lambda outcome: outcome.index,
    )
    return merged, [m for _, m in results if m is not None]


def _run_scenario(
    context: _ScenarioContext,
    index: int,
    fault_spec: FaultSpec,
    *,
    tracer=NULL_TRACER,
    metrics: CampaignMetrics | None = None,
) -> ScenarioOutcome:
    """Run one scenario of ``context``."""
    loaded = context.loaded
    golden = context.golden
    rendered = fault_spec.render()
    with tracer.span(f"scenario {index:03d}", cat="fault",
                     spec=rendered) as span:
        simulator = _fresh_simulator(
            context.machine, loaded, registers=context.registers,
            memory=context.memory, mapping=context.mapping,
            tracer=tracer, engine=context.engine,
            collect_profile=metrics is not None,
            deadline_s=context.deadline_s,
        )
        injector = build_injector(fault_spec).attach(simulator)
        outcome = ScenarioOutcome(index=index, spec=rendered,
                                  classification="masked")
        try:
            result = simulator.run(loaded.name,
                                   max_cycles=context.watchdog)
        except SimulationLimitError as error:
            outcome.classification = (
                "hang" if error.kind in ("cycles", "deadline") else "detected"
            )
            outcome.error = str(error)
        except ReproError as error:
            outcome.classification = "detected"
            outcome.error = str(error)
        else:
            outcome.traps = result.traps
            outcome.interrupts = result.interrupts_serviced
            outcome.cycles = result.cycles
            outcome.exit_value = result.exit_value
            outcome.macro_registers = _macro_registers(simulator)
            identical = (
                result.exit_value == golden.exit_value
                and outcome.macro_registers == golden.macro_registers
            )
            if not identical:
                outcome.classification = "sdc"
            elif result.traps > golden.traps:
                outcome.classification = "recovered"
            else:
                outcome.classification = "masked"
        outcome.fired = list(injector.fired)
        if metrics is not None:
            _harvest_run(metrics, simulator, outcome.classification)
        span.set(classification=outcome.classification,
                 fired=len(outcome.fired))
    return outcome


# ----------------------------------------------------------------------
def run_campaign(
    source: str,
    lang: str,
    machine,
    *,
    n: int = 25,
    seed: int = 7,
    restart_safe: bool = False,
    plan: FaultPlan | None = None,
    registers: dict[str, int] | None = None,
    memory: dict[int, int] | None = None,
    cycle_factor: int = DEFAULT_CYCLE_FACTOR,
    tracer=NULL_TRACER,
    jobs: int = 1,
    engine: str = "decoded",
    cache=None,
    collect_metrics: bool = False,
    deadline_s: float | None = None,
) -> CampaignResult:
    """Compile ``source`` in ``lang`` for ``machine`` and campaign it.

    With a :class:`repro.cache.CompileCache` in ``cache`` the program
    is compiled through the cache: one probe per campaign, and every
    scenario runs that one compiled program.

    With ``collect_metrics`` the result carries a
    :class:`CampaignMetrics` rollup whose compile-cache family holds
    that probe.
    """
    from repro.registry import RegistryError, get_language, language_names

    try:
        spec = get_language(lang)
    except RegistryError:
        raise FaultPlanError(
            f"unknown language {lang!r}; expected one of "
            f"{', '.join(language_names())}"
        ) from None
    cache_before = (
        cache.stats.copy() if cache is not None and collect_metrics
        else None
    )
    result = spec.compile(
        source, machine, tracer=tracer, restart_safe=restart_safe,
        cache=cache,
    )
    campaign = run_campaign_loaded(
        result.loaded, machine,
        n=n, seed=seed, lang=lang, plan=plan,
        registers=registers, memory=memory,
        mapping=result.allocation.mapping,
        restart_hazards=result.restart_hazards,
        cycle_factor=cycle_factor, tracer=tracer,
        jobs=jobs, engine=engine,
        collect_metrics=collect_metrics, deadline_s=deadline_s,
    )
    if cache_before is not None and campaign.metrics is not None:
        campaign.metrics.cache += cache.stats - cache_before
    return campaign


def run_matrix(
    sources: dict[str, str],
    machines: list,
    *,
    n: int = 25,
    seed: int = 7,
    restart_safe: bool = False,
    registers: dict[str, int] | None = None,
    memory: dict[int, int] | None = None,
    tracer=NULL_TRACER,
    jobs: int = 1,
    engine: str = "decoded",
    cache=None,
    collect_metrics: bool = False,
) -> list[CampaignResult]:
    """Campaign every (language, machine) pair of the matrix.

    ``sources`` maps language name -> source text (the same program
    expressed per language, as in the cross-language test suite);
    ``machines`` holds :class:`MicroArchitecture` instances.  Each
    cell draws its own plan from the shared seed.  ``jobs``/``engine``
    and the compile ``cache`` pass through to every cell's campaign.
    """
    results = []
    for lang in sorted(sources):
        for machine in machines:
            results.append(
                run_campaign(
                    sources[lang], lang, machine,
                    n=n, seed=seed, restart_safe=restart_safe,
                    registers=registers, memory=memory, tracer=tracer,
                    jobs=jobs, engine=engine, cache=cache,
                    collect_metrics=collect_metrics,
                )
            )
    return results
