"""Profile-guided trace JIT for the decoded engine (survey substrate S22).

The decoded engine (:mod:`repro.sim.decode`) still dispatches one
generated word function at a time: every microinstruction pays the
run loop's bookkeeping — limit checks, plan lookup, a function call
and a sequencing closure — even when control sits in a tight loop
executing the same few words thousands of times.  The workloads that
dominate the survey's reconstructions are exactly such loops (emulator
dispatch, block moves, counting scans), so the next order of magnitude
comes from compiling *traces*: record the linear path a hot loop
actually takes, stitch it into one Python function with operand slots
pre-resolved, phase commits unrolled and sequencing reduced to guards,
``compile()`` it once, and run whole loop iterations per dispatch.

Mechanics (a NET-style trace JIT):

* **Detection** — the run loop reports back edges (a sequencing step
  whose target does not advance past the current address); a head
  crossing ``trace_hot_threshold`` arms recording.  A saved
  :class:`~repro.obs.timeline.SimProfile` can seed the same heat
  counters up front (:meth:`TraceJIT.seed_from_profile`) — the
  explicitly profile-guided path, built on
  :func:`repro.obs.hotpath.analyze_profile`'s loop detection.
* **Recording** — subsequent executed MIs are captured (address,
  loaded word, actual successor) until the path returns to the head;
  traps, ``EXIT`` and over-long paths abort the attempt.
* **Stitching** — :func:`stitch_trace` generates Python source: one
  ``while True`` loop whose body is the whole recorded path.  Each
  phase is written by the decoded engine's own phase emitter
  (:func:`repro.sim.decode._emit_phase`: register reads as direct
  dict access, the commit discipline unrolled, flags assigned
  last-writer-wins), and sequencing comes from the same
  :func:`~repro.sim.decode.terminator_metadata` — so parity with the
  decoded engine, including the cases that stay dynamic there (banked
  windows, generic ``evaluate`` ops), is structural, not incidental.
  Only ``poll`` is dropped: a trace is never entered with an
  interrupt pending.
* **Guards** — every recorded branch direction, multiway target and
  return address is checked; a mismatch side-exits with the exact
  architectural state the decoded engine would have at that point
  (cycles flushed from static prefix sums, ``upc`` set to the road
  not recorded).  A trap inside a trace flushes the same way and
  re-raises, so §2.1.5 restart semantics, fault classification and
  ``max_traps`` accounting observe nothing unusual.  A cycle-budget
  guard refuses any iteration that could overrun ``max_cycles``,
  keeping the run loop's limit error byte-identical.
* **Sharing and invalidation** — a compiled trace depends only on the
  machine, the resident program and the recorded path, so it is kept
  in the program image's trace table
  (:func:`repro.sim.decode.image_tables`) under ``(resident base,
  PLANT_RESULT_XOR, recorded (address, word, successor) path)``: a later
  simulator running the same image on the same machine installs it
  without stitching or compiling, though its JIT still detects and
  records the loop and counts the install as its own compile.  The
  JIT never runs beside a fault injector (:mod:`repro.sim.admission`:
  an injector can substitute mutated control-store words at fetch and
  hooks every microinstruction, so the traced engine then degrades to
  the decoded path); :meth:`TraceJIT.invalidate` drops every
  installed trace — ``PlanCache.invalidate``-style — and is fired
  automatically when the simulator's control store changes identity.

Not traced (exact decoded fallback): any run
:func:`repro.sim.admission.fast_path_refusal` refuses
:data:`~repro.sim.admission.TRACE_JIT` — a fault injector, a text
trace sink or periodic interrupt generation.
A :class:`~repro.obs.timeline.TraceRecorder` *is* supported: trace-
executed MIs are replayed into it afterwards with exact cycle
stamps, so profiles and difftest observations match the decoded
engine bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.loader import ResidentProgram
from repro.errors import MicroTrap, SimulationError
from repro.mir.block import Multiway
from repro.obs.events import PH_INSTANT, TRACK_SIM, Event
from repro.obs.metrics import CounterBlock
from repro.sim.decode import (
    _BINDINGS,
    _COND_TESTS,
    ScalarSteps,
    _Emitter,
    _emit_phase,
    image_tables,
    sequencer,
    terminator_metadata,
)
from repro.sim.semantics import condition_holds, evaluate

#: XOR mask stitched into every inlined ALU result when nonzero.
#: This is the difftest harness's planted-bug hook (`--self-check`):
#: setting it to 1 miscompiles every trace by exactly one bit, which
#: the ``traced`` oracle axis must catch.  Normal operation: 0, and
#: the stitcher emits the plain expression (zero runtime cost).
PLANT_RESULT_XOR = 0

#: Back-edge executions of one loop head before recording arms.
DEFAULT_HOT_THRESHOLD = 8
#: Longest recordable path, in microinstructions; loops bigger than
#: this (typically an outer loop swallowing an inner one) are
#: blacklisted — their inner loops trace on their own.
DEFAULT_MAX_TRACE_LEN = 64


class TraceUnsupported(Exception):
    """Raised at stitch time for paths the JIT refuses to compile
    (the head is blacklisted and execution stays on the decoded
    path — never an error surfaced to the run)."""


@dataclass
class TraceStats(CounterBlock):
    """The current run's counters of one :class:`TraceJIT`, exported
    field for field as ``RunResult.trace_cache``.

    Like :class:`~repro.sim.decode.PlanCacheStats`, ``Simulator.run``
    starts a fresh block at every run start, and every bump is one
    attribute add off the per-microinstruction path (a dispatch, a
    compile, an invalidation).
    """

    #: Trace dispatches, including one whose guard refuses the very
    #: first microinstruction (that one is also a bailout).
    hits: int = 0
    #: Traces installed: stitched afresh or taken from the program
    #: image's shared table.
    misses: int = 0
    #: Wholesale :meth:`TraceJIT.invalidate` calls.
    invalidations: int = 0
    #: Guard bailouts: trap exits, zero-progress dispatches, and
    #: mid-body side exits (a full-iteration loop exit is a normal
    #: return, not a bailout).
    bailouts: int = 0


class _TraceExit:
    """Mutable out-params of one generated-trace call."""

    __slots__ = ("completed", "reason")

    def __init__(self) -> None:
        self.completed = -1
        self.reason = ""


class CompiledTrace:
    """One stitched loop: the compiled function plus replay metadata."""

    __slots__ = ("head", "path", "loadeds", "mi_cycles", "iter_cycles",
                 "n", "fn", "source")

    def __init__(self, head, path, loadeds, mi_cycles, iter_cycles,
                 n, fn, source):
        self.head = head
        self.path = path
        self.loadeds = loadeds
        self.mi_cycles = mi_cycles
        self.iter_cycles = iter_cycles
        self.n = n
        self.fn = fn
        self.source = source


class _Recording:
    __slots__ = ("head", "resident", "elements")

    def __init__(self, head: int, resident: ResidentProgram) -> None:
        self.head = head
        self.resident = resident
        #: ``(address, loaded, successor)`` per executed MI.
        self.elements: list[tuple] = []


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
class _Stitcher:
    """Generates the superinstruction source for one recorded path."""

    def __init__(self, simulator, resident, elements):
        self.machine = simulator.machine
        self.resident = resident
        self.elements = elements
        self.n = len(elements)
        self.mi_cycles = [
            loaded.instruction.cached_cycles(self.machine)
            for _, loaded, _ in elements
        ]
        self.iter_cycles = sum(self.mi_cycles)
        #: pre[k]: cycles of the iteration's MIs before element k.
        self.pre = [0] * self.n
        for k in range(1, self.n):
            self.pre[k] = self.pre[k - 1] + self.mi_cycles[k - 1]
        self.head = elements[0][0]
        self.em = _Emitter()

    # ------------------------------------------------------------------
    def stitch(self) -> str:
        if self.iter_cycles <= 0:
            raise TraceUnsupported("zero-cycle loop body")
        em = self.em
        em.emit(f"# trace @ {self.head:04d}, {self.n} MIs, "
                f"{self.iter_cycles} cycles/iteration")
        em.emit("def run_trace(state, rt, ceiling):")
        em.indent()
        for local, attribute in _BINDINGS:
            em.emit(f"{local} = state.{attribute}")
        em.emit("iters = 0")
        em.emit("_k = 0")
        em.emit("cycles0 = state.cycles")
        em.emit("try:")
        em.indent()
        em.emit("while True:")
        em.indent()
        # Budget guard: refuse any iteration whose worst in-iteration
        # prefix would cross the run's cycle ceiling; the decoded loop
        # then replays the tail one MI at a time and raises the limit
        # error at the identical instruction.
        em.emit(f"if cycles0 + iters * {self.iter_cycles} + "
                f"{self.pre[self.n - 1]} > ceiling:")
        em.indent()
        em.emit(f"state.upc = {self.head}")
        em.emit(f"state.cycles += iters * {self.iter_cycles}")
        em.emit("rt.reason = 'budget'")
        em.emit(f"return iters * {self.n}")
        em.dedent()
        for k, element in enumerate(self.elements):
            self._emit_mi(k, element)
        em.emit("iters += 1")
        em.dedent()
        em.dedent()
        # Trap (or any error) mid-iteration: flush the cycles of the
        # completed MIs, point upc at the faulting word (the run
        # loop's trap bookkeeping reads it), report the completed MI
        # count, and let the run loop's handler take over.
        em.emit("except BaseException:")
        em.indent()
        em.emit(f"state.cycles += iters * {self.iter_cycles} + _PRE[_k]")
        em.emit("state.upc = _ADDR[_k]")
        em.emit(f"rt.completed = iters * {self.n} + _k")
        em.emit("raise")
        em.dedent()
        em.dedent()
        return em.source()

    # ------------------------------------------------------------------
    def _emit_mi(self, k: int, element) -> None:
        address, loaded, successor = element
        em = self.em
        text = str(loaded.instruction).replace("\n", " ")[:72]
        em.emit(f"_k = {k}")
        em.emit(f"# {address:04d}: {text}")
        for group in loaded.instruction.phase_groups(self.machine):
            # poll is a no-op here: a trace is only entered with no
            # interrupt pending, and nothing inside one can raise it.
            live = [placed for placed in group if placed.op.op != "poll"]
            if live:
                _emit_phase(self.em, self.machine, live, PLANT_RESULT_XOR)
        self._emit_terminator(k, loaded.instruction.terminator,
                              address, successor)

    # -- sequencing guards ---------------------------------------------
    def _emit_exit(self, k: int, reason: str, upc: int | str | None
                   ) -> None:
        em = self.em
        if upc is not None:
            em.emit(f"state.upc = {upc}")
        em.emit(f"state.cycles += iters * {self.iter_cycles} + "
                f"{self.pre[k] + self.mi_cycles[k]}")
        em.emit(f"rt.reason = {reason!r}")
        em.emit(f"return iters * {self.n} + {k + 1}")

    def _emit_terminator(self, k: int, terminator, address: int,
                         successor: int) -> None:
        em = self.em
        meta = terminator_metadata(terminator, address, self.resident)
        kind = meta["kind"]
        if kind == "jump":
            if meta["target"] != successor:
                raise TraceUnsupported("recorded successor mismatch")
            return
        if kind == "call":
            if meta["target"] != successor:
                raise TraceUnsupported("recorded successor mismatch")
            em.emit(f"state.push_return({meta['return_to']})")
            return
        if kind == "branch":
            cond = meta["cond"]
            taken, not_taken = meta["taken"], meta["not_taken"]
            test = _COND_TESTS.get(cond)
            if test is not None and taken == not_taken:
                if taken != successor:
                    raise TraceUnsupported("recorded successor mismatch")
                return
            if test is None:
                # Unknown conditions must keep raising through
                # condition_holds, exactly like the decoded closure.
                em.emit(f"_c = condition_holds({cond!r}, flags)")
            else:
                em.emit(f"_c = flags.get({test[0]!r}, 0) == {test[1]}")
            if taken == not_taken:
                if taken != successor:
                    raise TraceUnsupported("recorded successor mismatch")
                return
            if successor == taken:
                em.emit("if not _c:")
                other = not_taken
            elif successor == not_taken:
                em.emit("if _c:")
                other = taken
            else:
                raise TraceUnsupported("successor matches neither arm")
            em.indent()
            self._emit_exit(k, "branch", other)
            em.dedent()
            return
        if kind == "ret":
            em.emit("_r = state.pop_return()")
            em.emit(f"if _r != {successor}:")
            em.indent()
            self._emit_exit(k, "ret", "_r")
            em.dedent()
            return
        if kind == "multiway":
            em.emit(f"_seq{k}(state)")
            em.emit(f"if state.upc != {successor}:")
            em.indent()
            self._emit_exit(k, "multiway", None)
            em.dedent()
            return
        raise TraceUnsupported(f"terminator kind {kind!r} not traceable")


def stitch_trace(simulator, resident: ResidentProgram, elements) -> str:
    """Generate the superinstruction source for one recorded path."""
    return _Stitcher(simulator, resident, elements).stitch()


def build_namespace(simulator, resident: ResidentProgram,
                    elements) -> dict:
    """The globals a stitched source compiles against: shared
    semantics helpers, the trap-flush prefix tables, and one
    pre-decoded sequencer closure per multiway element."""
    machine = simulator.machine
    steps = ScalarSteps(machine)
    pre = 0
    pres, addrs = [], []
    ns = {
        "evaluate": evaluate,
        "condition_holds": condition_holds,
        "MicroTrap": MicroTrap,
        "SimulationError": SimulationError,
    }
    for k, (address, loaded, _) in enumerate(elements):
        addrs.append(address)
        pres.append(pre)
        pre += loaded.instruction.cached_cycles(machine)
        terminator = loaded.instruction.terminator
        if isinstance(terminator, Multiway):
            ns[f"_seq{k}"] = sequencer(steps, terminator_metadata(
                terminator, address, resident
            ))
    ns["_PRE"] = tuple(pres)
    ns["_ADDR"] = tuple(addrs)
    return ns


# ----------------------------------------------------------------------
class TraceJIT:
    """Per-simulator trace detection, recording and dispatch.

    Heat, blacklist, recording and the installed traces are this
    simulator's own; the compiled traces come from, and go to, the
    program image's shared table (:meth:`_build`).  Owned lazily by
    :class:`~repro.sim.simulator.Simulator` when
    :func:`repro.sim.admission.fast_path_refusal` admits the run.
    """

    def __init__(self, simulator) -> None:
        self.sim = simulator
        self.hot_threshold = max(1, simulator.trace_hot_threshold)
        self.max_trace_len = DEFAULT_MAX_TRACE_LEN
        self.traces: dict[int, CompiledTrace] = {}
        self.heat: dict[int, int] = {}
        self.blacklist: set[int] = set()
        self.recording: _Recording | None = None
        #: This run's counters; ``Simulator.run`` replaces the block at
        #: every run start.
        self.stats = TraceStats()
        #: Recordings abandoned over the JIT's lifetime (trap or EXIT
        #: mid-path, over-long path, unsupported construct).
        self.aborts = 0
        self.store = simulator.store
        self.resident: ResidentProgram | None = None
        self._rt = _TraceExit()
        self._pending = 0

    # ------------------------------------------------------------------
    def begin_run(self, resident: ResidentProgram) -> None:
        if self.store is not self.sim.store:
            # The control store was swapped out from under us: every
            # covered word may have mutated, so drop all traces.
            self.invalidate()
            self.store = self.sim.store
        self.resident = resident
        self.recording = None

    def invalidate(self) -> None:
        """Drop every compiled trace (and all detection state)."""
        self.stats.invalidations += 1
        self.traces.clear()
        self.heat.clear()
        self.blacklist.clear()
        self.recording = None

    def seed_from_profile(self, profile) -> list[int]:
        """Profile-guided seeding: mark a saved profile's loop heads
        as already hot, so the first back edge at each arms recording
        immediately.  Returns the seeded heads."""
        from repro.obs.hotpath import analyze_profile

        analysis = analyze_profile(profile)
        seeded = []
        for loop in analysis.loops:
            header = loop.header
            if self.heat.get(header, 0) < self.hot_threshold:
                self.heat[header] = self.hot_threshold
            seeded.append(header)
        return seeded

    # ------------------------------------------------------------------
    def note_back_edge(self, head: int) -> None:
        if head in self.traces or head in self.blacklist:
            return
        heat = self.heat.get(head, 0) + 1
        self.heat[head] = heat
        if heat >= self.hot_threshold and self.resident is not None:
            self.recording = _Recording(head, self.resident)

    def record_step(self, current: int, loaded, state) -> None:
        recording = self.recording
        if state.halted:
            self.recording = None
            self.aborts += 1
            return
        if loaded is None:
            loaded = self.store.fetch(current)
        recording.elements.append((current, loaded, state.upc))
        if state.upc == recording.head:
            self.recording = None
            self._finalize(recording)
        elif len(recording.elements) > self.max_trace_len:
            self.recording = None
            self.blacklist.add(recording.head)
            self.aborts += 1

    def abort_recording(self) -> None:
        """Trap or error mid-recording: abandon the attempt (the head
        stays eligible — a transient pagefault should not blacklist a
        loop that runs clean once its pages are mapped)."""
        if self.recording is not None:
            self.recording = None
            self.aborts += 1

    # ------------------------------------------------------------------
    def _finalize(self, recording: _Recording) -> None:
        try:
            trace = self._build(recording)
        except TraceUnsupported:
            self.blacklist.add(recording.head)
            self.aborts += 1
            return
        self.traces[recording.head] = trace
        self.heat.pop(recording.head, None)
        self.stats.misses += 1
        self._emit_event(
            "sim.trace.compile", head=recording.head,
            mis=trace.n, cycles=trace.iter_cycles,
        )

    def _build(self, recording: _Recording) -> CompiledTrace:
        """The trace for one recorded path: from the image's trace
        table when a simulator of this machine already compiled it,
        else stitched, compiled and shared there."""
        elements = recording.elements
        resident = recording.resident
        path = tuple(address for address, _, _ in elements)
        key = (resident.base, PLANT_RESULT_XOR, tuple(
            (address, loaded.word, successor)
            for address, loaded, successor in elements
        ))
        _, traces = image_tables(resident.program, self.sim.machine)
        trace = traces.get(key)
        if trace is None:
            trace = traces[key] = self._compile(resident, elements, path)
        return trace

    def _compile(self, resident, elements, path) -> CompiledTrace:
        machine = self.sim.machine
        mi_cycles = tuple(
            loaded.instruction.cached_cycles(machine)
            for _, loaded, _ in elements
        )
        iter_cycles = sum(mi_cycles)
        if iter_cycles <= 0:
            raise TraceUnsupported("zero-cycle loop body")
        source = stitch_trace(self.sim, resident, elements)
        namespace = build_namespace(self.sim, resident, elements)
        code = compile(source, f"<trace@{path[0]:04d}>", "exec")
        exec(code, namespace)
        return CompiledTrace(
            head=path[0],
            path=path,
            loadeds=tuple(loaded for _, loaded, _ in elements),
            mi_cycles=mi_cycles,
            iter_cycles=iter_cycles,
            n=len(elements),
            fn=namespace["run_trace"],
            source=source,
        )

    # ------------------------------------------------------------------
    def execute(self, trace: CompiledTrace, state, ceiling: int) -> int:
        """Run one compiled trace; returns microinstructions executed
        (0 when a guard refused the very first one — the caller then
        falls through to the decoded path for forward progress)."""
        stats = self.stats
        stats.hits += 1
        rt = self._rt
        rt.completed = -1
        rt.reason = ""
        self._pending = 0
        cycles_entry = state.cycles
        recorder = self.sim.recorder
        try:
            executed = trace.fn(state, rt, ceiling)
        except MicroTrap:
            executed = max(rt.completed, 0)
            self._pending = executed
            stats.bailouts += 1
            if recorder is not None and executed:
                self._replay(trace, executed, cycles_entry, recorder)
            self._emit_event(
                "sim.trace.exit", head=trace.head,
                executed=executed, reason="trap",
            )
            raise
        if executed == 0 or executed % trace.n:
            stats.bailouts += 1
        if recorder is not None and executed:
            self._replay(trace, executed, cycles_entry, recorder)
            self._emit_event(
                "sim.trace.exit", head=trace.head,
                executed=executed, reason=rt.reason,
            )
        return executed

    def consume_completed(self) -> int:
        """MIs the last trap-exited trace completed (once)."""
        pending, self._pending = self._pending, 0
        return pending

    def _replay(self, trace: CompiledTrace, executed: int,
                cycles_entry: int, recorder) -> None:
        """Feed trace-executed MIs to the recorder after the fact,
        with the cycle stamps the decoded loop would have used — no
        interrupt or decode can occur mid-trace, so the replayed
        stream is exact."""
        record = recorder.record_mi
        path = trace.path
        loadeds = trace.loadeds
        mi_cycles = trace.mi_cycles
        n = trace.n
        cycles = cycles_entry
        for index in range(executed):
            k = index % n
            record(path[k], loadeds[k], cycles, mi_cycles[k])
            cycles += mi_cycles[k]

    def _emit_event(self, name: str, **args) -> None:
        recorder = self.sim.recorder
        if recorder is None or not recorder.tracer.enabled:
            return
        recorder.tracer.emit(Event(
            name=name, cat="sim", ph=PH_INSTANT,
            ts=self.sim.state.cycles, track=TRACK_SIM, args=args,
        ))
