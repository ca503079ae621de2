"""Phase-accurate microarchitecture simulator (survey substrate S7).

Executes assembled microprograms from a control store.  Within one
microinstruction, operations are grouped by microcycle phase; all
operands of a phase are read against the state as it stood when the
phase began, and writes commit at phase end — so phase chaining
(S*'s ``cocycle``) and same-phase parallel semantics (reads before
writes) both behave the way the composition layer assumes.

Microtraps follow the survey's §2.1.5 model: the trap aborts the
microprogram, the service routine runs (e.g. mapping the faulted
page), *macro-visible* registers are saved and restored — i.e. they
keep their values — while microregisters revert to their values at
microprogram entry, and the program restarts from its entry point.
Interrupts are only honoured at explicit ``poll`` micro-operations,
and the time a pending interrupt waits for the next poll is recorded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.asm.loader import ControlStore, ResidentProgram
from repro.compose.base import MicroInstruction
from repro.errors import MicroTrap, SimulationError, SimulationLimitError
from repro.machine.machine import MicroArchitecture
from repro.mir.block import (
    Branch,
    Call,
    Exit,
    Fallthrough,
    Jump,
    Multiway,
    Ret,
)
from repro.mir.operands import Reg
from repro.obs.events import PH_INSTANT, TRACK_SIM, Event
from repro.obs.timeline import SimProfile, TraceRecorder
from repro.sim.admission import (
    ENGINES,
    PLAN_LOOKUP,
    TRACE_JIT,
    fast_path_refusal,
)
from repro.sim.decode import PlanCache, decode_word
from repro.sim.trace import TraceJIT
from repro.sim.semantics import STATEFUL_OPS, condition_holds, evaluate
from repro.sim.state import MachineState, StateBackend

#: Signature of an interrupt handler: receives the machine state.
#: Handlers are written against the :class:`StateBackend` protocol, so
#: the same handler serves scalar and (peeled) batched executions.
InterruptHandler = Callable[[StateBackend], None]
#: Signature of a trap service routine: receives state and the trap.
TrapService = Callable[[StateBackend, MicroTrap], None]


@dataclass
class RunResult:
    """Outcome of one simulated run.

    ``profile`` is populated when the simulator had a
    :class:`~repro.obs.timeline.TraceRecorder` attached; it holds the
    per-address execution counts and field utilisation behind the
    hot-spot report.

    ``plan_cache`` holds this run's pre-decoded plan-cache counters
    (``hits``/``misses``/``invalidations``) under the decoded and
    traced engines and is None under the interpretive one.  A miss is
    a word this simulator's cache did not hold yet — including the
    decodes forced by fault injectors substituting mutated words, and
    plans taken from the program image's shared table
    (:func:`repro.sim.decode.image_tables`), which count as this
    simulator's decodes exactly as if it had lowered them itself.
    ``invalidations`` counts the drop when the simulator's control
    store was replaced since its last run.

    ``trace_cache`` holds this run's trace-JIT counters under the
    traced engine (``hits``/``misses``/``invalidations``/
    ``bailouts`` — dispatches that made progress, traces installed,
    wholesale drops, guard bailouts) and is None otherwise.  A trace
    installed from the image's shared table counts as a miss, as one
    stitched afresh does.  All zeros when :mod:`repro.sim.admission`
    refused the JIT.
    """

    cycles: int
    instructions: int
    traps: int
    interrupts_serviced: int
    interrupt_wait_cycles: int
    exit_value: int | None
    profile: SimProfile | None = None
    plan_cache: dict[str, int] | None = None
    trace_cache: dict[str, int] | None = None

    def __str__(self) -> str:
        return (
            f"{self.instructions} MIs in {self.cycles} cycles"
            f" ({self.traps} traps, {self.interrupts_serviced} interrupts, "
            f"{self.interrupt_wait_cycles} interrupt-wait cycles)"
        )


@dataclass
class Simulator:
    """Drives a :class:`MachineState` over a :class:`ControlStore`.

    Attributes:
        trap_service_cycles: Cycle cost charged per serviced microtrap.
        interrupt_service_cycles: Cycle cost charged per serviced
            interrupt.
        interrupt_every: If set, an external interrupt is raised every
            N cycles (a crude I/O device model for experiment E9/E10).
        max_traps: Abort threshold against non-converging fault loops.
    """

    machine: MicroArchitecture
    store: ControlStore
    state: MachineState = None  # type: ignore[assignment]
    interrupt_handler: InterruptHandler | None = None
    trap_service: TrapService | None = None
    trap_service_cycles: int = 50
    interrupt_service_cycles: int = 20
    interrupt_every: int | None = None
    max_traps: int = 1000
    trace: list[str] | None = None
    #: Observability hook; None keeps the loop on the uninstrumented
    #: fast path (one ``is not None`` test per microinstruction).
    recorder: TraceRecorder | None = None
    #: Fault-injection hook (see :mod:`repro.faults.injectors`); any
    #: object with ``on_instruction``/``after_sequence`` methods.  None
    #: costs the loop one ``is not None`` test, same contract as
    #: ``recorder``.  An injector that declares ``watched`` (the
    #: addresses whose fetched word it may replace) keeps the decoded
    #: engine's address-keyed plan lookup off those addresses.  A step
    #: run from the map calls its ``on_instruction`` with ``None``, and
    #: only if it declares ``boundary_hook``; it skips
    #: ``after_sequence``.  One that declares nothing runs every
    #: microinstruction on the fetching path.
    injector: object | None = None
    #: Wall-clock watchdog in seconds; None disables the deadline.
    #: Checked every 1024 microinstructions so the budget costs one
    #: ``is not None`` test per loop when unset.
    deadline_s: float | None = None
    #: Execution engine: ``"interpretive"`` walks each microinstruction
    #: structurally every time; ``"decoded"`` lowers each control-store
    #: word once into an execution plan (:mod:`repro.sim.decode`) and
    #: runs the plan thereafter.  ``"traced"`` layers a profile-guided
    #: trace JIT on the decoded engine (:mod:`repro.sim.trace`): hot
    #: loop bodies are stitched into single compiled
    #: superinstructions, with guards bailing out to the decoded path
    #: mid-loop with exact architectural state.  All engines are
    #: observably identical (the parity suites in
    #: ``tests/sim/test_decode.py`` / ``tests/sim/test_trace.py``
    #: enforce it); decoded is several times faster on hot loops and
    #: traced another several times beyond that.
    engine: str = "interpretive"
    #: Back-edge executions of one loop head before the traced engine
    #: records and stitches a trace for it.
    trace_hot_threshold: int = 8

    def __post_init__(self) -> None:
        if self.state is None:
            self.state = MachineState(self.machine)
        if self.engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {self.engine!r} "
                f"(expected 'interpretive', 'decoded' or 'traced')"
            )
        #: Lazily built plan store for the decoded engine; plans are
        #: keyed per encoded word so fault injectors that substitute
        #: mutated words can never hit a stale plan.
        self._plan_cache = None
        #: The control store whose words ``_plan_cache`` holds.
        self._plan_store = None
        #: Lazily built trace JIT for the traced engine.
        self._trace_jit = None

    # ------------------------------------------------------------------
    def load_constants(self, resident: ResidentProgram) -> None:
        """Poke a resident program's constant pool into the ROM slots."""
        for name, value in resident.program.constants.items():
            self.state.poke_reg(name, value)

    def run(
        self,
        program_name: str,
        max_cycles: int = 1_000_000,
    ) -> RunResult:
        """Run a resident program from its entry until EXIT.

        Returns a :class:`RunResult`; raises on runaway executions and
        unserviceable traps.
        """
        resident = self.store.find(program_name)
        self.load_constants(resident)
        state = self.state
        state.upc = resident.entry
        state.halted = False
        state.exit_value = None
        state.micro_stack.clear()
        state.interrupt_handler = self.interrupt_handler

        entry_snapshot = state.snapshot_registers()
        instructions = 0
        traps = 0
        interrupts = 0
        wait_cycles = 0
        pending_since: int | None = None
        start_cycles = state.cycles
        recorder = self.recorder
        injector = self.injector
        deadline = (
            time.monotonic() + self.deadline_s
            if self.deadline_s is not None else None
        )
        decoded = self.engine in ("decoded", "traced")
        plans = None
        fast_plans = None
        plan_stats_before = None
        jit = None
        trace_stats_before = None
        # Addresses whose fetched word the injector may replace stay
        # off the address-keyed map, and a step run from the map calls
        # the injector only if it asks for every boundary
        # (repro.faults.injectors).
        watched, boundary = frozenset(), False
        if injector is not None:
            watched = getattr(injector, "watched", None)
            boundary = getattr(injector, "boundary_hook", True)
        # Which fast paths this run may take: repro.sim.admission.
        shape = dict(
            engine=self.engine,
            injector=(
                None if injector is None
                else "undeclared" if watched is None else "declared"
            ),
            trace=self.trace is not None,
            recorder=recorder is not None,
            interrupt_every=bool(self.interrupt_every),
            deadline=deadline is not None,
        )
        if self.engine == "traced" and self._trace_jit is not None:
            # Snapshot before begin_run: a store swap detected there
            # invalidates on behalf of *this* run, so the drop belongs
            # in this run's trace_cache delta.
            trace_stats_before = self._trace_jit.stats.snapshot()
        if fast_path_refusal(TRACE_JIT, **shape) is None:
            if self._trace_jit is None:
                self._trace_jit = TraceJIT(self)
            jit = self._trace_jit
            jit.begin_run(resident)
        if decoded:
            if self._plan_cache is None:
                self._plan_cache = PlanCache()
                self._plan_store = self.store
            plans = self._plan_cache
            plan_stats_before = (
                plans.stats.decodes, plans.stats.invalidations,
            )
            if self._plan_store is not self.store:
                # The control store was replaced: its words may not be
                # the ones these plans were lowered from.  Dropped after
                # the snapshot, so the drop counts in this run.
                plans.invalidate()
                self._plan_store = self.store
            if fast_path_refusal(PLAN_LOOKUP, **shape) is None:
                fast_plans = plans.addr_plans(resident)
                # A plan a run without this injector left at a watched
                # address would skip the injector there.
                for address in watched:
                    fast_plans.pop(address, None)
        if recorder is not None:
            recorder.begin_run(program_name, self.machine.name, state.cycles)

        while not state.halted:
            if state.cycles - start_cycles > max_cycles:
                raise SimulationLimitError(
                    f"{program_name}: exceeded {max_cycles} cycles "
                    f"at address {state.upc:04d}",
                    kind="cycles", limit=max_cycles,
                )
            if (
                deadline is not None
                and (instructions & 1023) == 0
                and time.monotonic() > deadline
            ):
                raise SimulationLimitError(
                    f"{program_name}: wall-clock deadline of "
                    f"{self.deadline_s}s exceeded after {instructions} "
                    f"microinstructions (address {state.upc:04d})",
                    kind="deadline", limit=self.deadline_s,
                )
            if (
                self.interrupt_every
                and not state.interrupt_pending
                and state.cycles > 0
                and (state.cycles // self.interrupt_every)
                > ((state.cycles - 1) // self.interrupt_every)
            ):
                state.interrupt_pending = True
            if state.interrupt_pending and pending_since is None:
                pending_since = state.cycles

            loaded = None
            instruction = None
            plan = (
                fast_plans.get(state.upc) if fast_plans is not None else None
            )
            if plan is None:
                loaded = self.store.fetch(state.upc)
                instruction = loaded.instruction
                if self.trace is not None:
                    self.trace.append(
                        f"{state.cycles:6d} {state.upc:04d} {instruction}"
                    )
            try:
                if jit is not None and not state.interrupt_pending:
                    compiled = jit.traces.get(state.upc)
                    if compiled is not None and jit.recording is None:
                        executed = jit.execute(
                            compiled, state, start_cycles + max_cycles
                        )
                        if executed:
                            instructions += executed
                            continue
                        # A guard refused the very first MI: fall
                        # through to the decoded path for progress.
                if injector is not None:
                    if loaded is not None:
                        loaded = injector.on_instruction(self, loaded)
                        instruction = loaded.instruction
                    elif boundary:
                        # No word was fetched, and none can be replaced.
                        injector.on_instruction(self, None)
                if decoded:
                    if plan is None:
                        plan = plans.lookup(resident, state.upc, loaded)
                        if plan is None:
                            plan = decode_word(
                                self, loaded, resident, state.upc
                            )
                            plans.insert(
                                resident, state.upc, loaded, plan,
                                direct=fast_plans is not None
                                and state.upc not in watched,
                            )
                            if recorder is not None:
                                recorder.record_decode(
                                    state.upc, state.cycles
                                )
                    serviced = plan.execute(state)
                else:
                    serviced = self._execute_instruction(instruction)
            except MicroTrap as trap:
                traps += 1
                if jit is not None:
                    # A trap inside a trace already flushed cycles and
                    # upc; account its completed MIs and abandon any
                    # in-progress recording (the path just diverged).
                    instructions += jit.consume_completed()
                    jit.abort_recording()
                if traps > self.max_traps:
                    raise SimulationLimitError(
                        f"{program_name}: more than {self.max_traps} traps"
                        f" (last trap at address {state.upc:04d}: {trap})",
                        kind="traps", limit=self.max_traps,
                    ) from trap
                self._service_trap(trap, entry_snapshot)
                if recorder is not None:
                    recorder.record_trap(
                        trap, state.upc, state.cycles, self.trap_service_cycles
                    )
                state.upc = resident.entry
                state.micro_stack.clear()
                state.cycles += self.trap_service_cycles
                continue
            if serviced:
                interrupts += 1
                waited = 0
                if pending_since is not None:
                    waited = state.cycles - pending_since
                    wait_cycles += waited
                    pending_since = None
                if recorder is not None:
                    recorder.record_interrupt(
                        state.cycles, waited, self.interrupt_service_cycles
                    )
                state.cycles += self.interrupt_service_cycles
            mi_cycles = (
                plan.cycles if decoded
                else instruction.cached_cycles(self.machine)
            )
            if recorder is not None:
                recorder.record_mi(state.upc, loaded, state.cycles, mi_cycles)
            state.cycles += mi_cycles
            instructions += 1
            # Sequencing needs the *absolute* control-store address:
            # loaded.address is relative to the program's base.
            current = state.upc
            if decoded:
                plan.sequence(state)
            else:
                self._sequence(instruction, current, resident)
            # Only a fetched step can redirect: a declared injector
            # replaces nothing off its watched addresses.
            if injector is not None and loaded is not None:
                override = injector.after_sequence(self, current, resident)
                if override is not None:
                    state.upc = override
            if jit is not None:
                if jit.recording is not None:
                    jit.record_step(current, loaded, state)
                elif state.upc <= current and not state.halted:
                    # A back edge: the candidate loop head is the
                    # sequencing target.  Heat it; at threshold the
                    # JIT arms recording for the next iteration.
                    jit.note_back_edge(state.upc)

        plan_counters = None
        if decoded:
            plan_counters = self.plan_cache_counters(
                instructions, plan_stats_before
            )
            if recorder is not None and recorder.tracer.enabled:
                recorder.tracer.emit(
                    Event(name="sim.plan_cache", cat="sim", ph=PH_INSTANT,
                          ts=state.cycles, track=TRACK_SIM,
                          args=dict(plan_counters))
                )
        trace_counters = None
        if self.engine == "traced":
            trace_counters = self.trace_cache_counters(trace_stats_before)
            if recorder is not None and recorder.tracer.enabled:
                recorder.tracer.emit(
                    Event(name="sim.trace_cache", cat="sim", ph=PH_INSTANT,
                          ts=state.cycles, track=TRACK_SIM,
                          args=dict(trace_counters))
                )
        return RunResult(
            cycles=state.cycles - start_cycles,
            instructions=instructions,
            traps=traps,
            interrupts_serviced=interrupts,
            interrupt_wait_cycles=wait_cycles,
            exit_value=state.exit_value,
            profile=recorder.profile if recorder is not None else None,
            plan_cache=plan_counters,
            trace_cache=trace_counters,
        )

    # ------------------------------------------------------------------
    def plan_cache_counters(
        self, instructions: int, before: tuple[int, int] | None
    ) -> dict[str, int]:
        """This run's plan-cache counters from the lifetime stats.

        Under the decoded engine every executed microinstruction runs
        exactly one plan, so per-run hits are executed instructions
        minus the decodes the run added — derived on the cold path
        instead of counted in the hot loop.
        """
        stats = self._plan_cache.stats if self._plan_cache else None
        decodes_before, invalidations_before = before or (0, 0)
        misses = (stats.decodes - decodes_before) if stats else 0
        invalidations = (
            (stats.invalidations - invalidations_before) if stats else 0
        )
        return {
            "hits": max(0, instructions - misses),
            "misses": misses,
            "invalidations": invalidations,
        }

    # ------------------------------------------------------------------
    def trace_cache_counters(
        self, before: tuple[int, int, int, int] | None
    ) -> dict[str, int]:
        """This run's trace-JIT counters from the lifetime stats.

        Plan-cache style: ``hits`` are trace dispatches that made
        progress, ``misses`` are traces stitched (compiles),
        ``invalidations`` wholesale drops, ``bailouts`` guard exits
        that abandoned a loop body mid-iteration.  All zeros when the
        JIT never engaged (see :mod:`repro.sim.admission`).
        """
        jit = self._trace_jit
        if jit is None:
            return {"hits": 0, "misses": 0, "invalidations": 0,
                    "bailouts": 0}
        compiles, enters, bailouts, invalidations = before or (0, 0, 0, 0)
        stats = jit.stats
        return {
            "hits": stats.enters - enters,
            "misses": stats.compiles - compiles,
            "invalidations": stats.invalidations - invalidations,
            "bailouts": stats.bailouts - bailouts,
        }

    # ------------------------------------------------------------------
    def _service_trap(
        self, trap: MicroTrap, entry_snapshot: dict[str, int]
    ) -> None:
        """§2.1.5 restart semantics: macro-visible registers survive,
        microregisters revert to their values at microprogram entry."""
        state = self.state
        macro_values = {
            register.name: state.registers[register.name]
            for register in self.machine.registers.macro_visible()
        }
        state.restore_registers(entry_snapshot)
        state.registers.update(macro_values)
        if self.trap_service is None:
            raise SimulationError(
                f"unserviced {trap}"
            ) from trap
        self.trap_service(state, trap)

    # ------------------------------------------------------------------
    def _execute_instruction(self, instruction: MicroInstruction) -> bool:
        """Execute all placed ops phase by phase.

        Returns True if a pending interrupt was serviced by a ``poll``.
        """
        state = self.state
        serviced = False
        for group in instruction.phase_groups(self.machine):
            reg_writes: list[tuple[str, int]] = []
            flag_writes: dict[str, int] = {}
            memory_ops: list[Callable[[], None]] = []
            for placed in group:
                op = placed.op
                name = op.op
                src_values = [
                    state.read_reg(s.name) if isinstance(s, Reg) else s.value
                    for s in op.srcs
                ]
                if name == "nop":
                    continue
                if name == "poll":
                    if state.interrupt_pending and self.interrupt_handler:
                        self.interrupt_handler(state)
                        state.interrupt_pending = False
                        serviced = True
                    continue
                if name == "read":
                    value = state.memory.read(src_values[0])
                    reg_writes.append((op.dest.name, value))
                    continue
                if name == "write":
                    address, data = src_values[0], src_values[1]
                    memory_ops.append(
                        lambda a=address, d=data: state.memory.write(a, d)
                    )
                    # Touch now so pagefaults surface at the op, not at
                    # commit (write-allocate check).
                    if not state.memory.is_mapped(address):
                        state.memory.write(address, data)
                    continue
                if name == "ldscr":
                    value = state.scratchpad.read(src_values[0])
                    reg_writes.append((op.dest.name, value))
                    continue
                if name == "stscr":
                    value, address = src_values[0], src_values[1]
                    memory_ops.append(
                        lambda a=address, v=value: state.scratchpad.write(a, v)
                    )
                    continue
                if name == "setblk":
                    pointer = self.machine.registers.bank_pointer
                    if pointer is None:
                        raise SimulationError("setblk on unbanked machine")
                    reg_writes.append((pointer, src_values[0]))
                    continue
                dest_old = state.read_reg(op.dest.name) if op.dest else 0
                result = evaluate(
                    name,
                    src_values,
                    self.machine.word_size,
                    dest_old=dest_old,
                    carry_in=state.flags.get("C", 0),
                )
                if result.value is not None and op.dest is not None:
                    reg_writes.append((op.dest.name, result.value))
                flag_writes.update(result.flags)
            # Commit phase: all reads above saw the phase-entry state.
            for name, value in reg_writes:
                state.write_reg(name, value)
            for action in memory_ops:
                action()
            state.flags.update(flag_writes)
        return serviced

    # ------------------------------------------------------------------
    def _sequence(
        self,
        instruction: MicroInstruction,
        address: int,
        resident: ResidentProgram,
    ) -> None:
        """Advance the microprogram counter per the terminator."""
        state = self.state
        terminator = instruction.terminator

        def resolve(label: str) -> int:
            return resident.base + resident.program.labels[label]

        if terminator is None:
            state.upc = address + 1
            return
        if isinstance(terminator, Fallthrough) or isinstance(terminator, Jump):
            state.upc = resolve(terminator.target)
            return
        if isinstance(terminator, Branch):
            taken = condition_holds(terminator.cond, state.flags)
            state.upc = resolve(terminator.target if taken else terminator.otherwise)
            return
        if isinstance(terminator, Multiway):
            value = state.read_reg(terminator.reg.name)
            for case in terminator.cases:
                if case.matches(value):
                    state.upc = resolve(case.target)
                    return
            state.upc = resolve(terminator.default)
            return
        if isinstance(terminator, Call):
            state.push_return(resolve(terminator.next))
            state.upc = resident.base + resident.program.procedures[terminator.proc]
            return
        if isinstance(terminator, Ret):
            state.upc = state.pop_return()
            return
        if isinstance(terminator, Exit):
            state.halted = True
            if terminator.value is not None:
                state.exit_value = state.read_reg(terminator.value.name)
            return
        raise SimulationError(f"unknown terminator {terminator!r}")
