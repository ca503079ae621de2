"""Fault injectors: adversarial hardware-fault models for the simulator.

Each injector plugs into the two hooks :class:`repro.sim.Simulator`
exposes (``on_instruction`` before execution, ``after_sequence`` after
the microsequencer advanced) plus an ``attach`` step that may wrap
parts of the machine state.  A detached simulator pays one
``is not None`` test per hook, mirroring the observability recorder's
zero-overhead contract (checked by ``bench_fault_overhead``).

Each injector also declares what it touches, and
:mod:`repro.sim.admission` admits it to the decoded engine's
address-keyed plan lookup by that:

* ``watched`` — the absolute addresses whose fetched word it may
  replace: the bit flip's one address, none for the others.  Visits
  to a watched address fetch the word, call ``on_instruction`` with it
  and ``after_sequence`` after it, exactly as without the lookup;
  every other address runs its plan straight from the map.  ``None``
  (the base class, and any injector that does not declare it) means
  any address, and keeps every run on the fetching path.
* ``boundary_hook`` — whether ``on_instruction`` must run at every
  microinstruction boundary (the stuck-at register, the interrupt
  storm and the chaos kill).  On a step run from the map it is called
  with ``loaded=None``: no word was fetched, and its return value is
  ignored.  The memory fault works through its memory wrapper and the
  bit flip only at its watched address, so neither asks for it.

Four fault models, one per classic microlevel failure mode:

* :class:`ControlStoreBitFlip` — a single-event upset in the writable
  control store.  The flip is applied to the *encoded* word; the bit's
  field is located in the machine's control-word format, the new field
  code is decoded, and the structured microinstruction is mutated to
  match (operand swap, micro-order change, immediate change, branch
  condition/target change).  Codes with no decoding raise an
  illegal-encoding :class:`~repro.errors.MicroTrap`, modelling a
  control-store parity trap; flips landing in fields the word does not
  drive are *latent* (architecturally masked).
* :class:`StuckAtRegister` — a datapath register stuck at a value;
  re-asserted at every microinstruction boundary.
* :class:`TransientMemoryFault` — a forced pagefault on the Nth main
  memory read or write, transient (gone on retry), exercising the
  §2.1.5 trap-and-restart path on demand.
* :class:`InterruptStorm` — an external interrupt raised every
  ``period`` cycles, stressing ``poll`` latency and service charges.

Every firing is appended to ``injector.fired`` and, when the simulator
carries a recording tracer, emitted as a span on the ``faults`` track
of the Chrome trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.asm.assembler import LoadedWord
from repro.errors import FaultPlanError, MicroTrap
from repro.mir.block import Branch, Jump
from repro.mir.operands import Imm, Reg
from repro.obs.events import PH_COMPLETE, TRACK_FAULTS, Event

#: Micro-order names (lowercased) with pure datapath semantics the
#: simulator can evaluate, by minimum source arity.  A bit flip that
#: retargets an order field may only substitute one of these; anything
#: else is treated as an illegal encoding (detected, not simulated).
_PURE_OPS_ARITY = {
    "add": 2, "sub": 2, "adc": 2, "and": 2, "or": 2, "xor": 2,
    "nand": 2, "nor": 2, "cmp": 2, "mul": 2,
    "inc": 1, "dec": 1, "not": 1, "neg": 1,
    "shl": 1, "shr": 1, "sar": 1, "rol": 1, "ror": 1,
    "mov": 1,
}


class FaultInjector:
    """Base injector: attaches to a simulator, hooks do nothing.

    It declares nothing, so a subclass that does not declare
    ``watched`` keeps every run on the fetching path.
    """

    #: Absolute addresses whose fetched word the injector may replace;
    #: None for any address.
    watched: frozenset[int] | None = None
    #: Whether ``on_instruction`` must run at every microinstruction.
    boundary_hook: bool = True

    def __init__(self) -> None:
        #: Chronological record of every firing (dicts, JSON-safe).
        self.fired: list[dict] = []

    # -- lifecycle -----------------------------------------------------
    def check(self, machine) -> None:
        """Raise :class:`FaultPlanError` if ``machine`` cannot host this
        fault (a campaign asks before its golden run)."""

    def attach(self, simulator) -> "FaultInjector":
        """Install this injector on a simulator (chainable)."""
        simulator.injector = self
        return self

    # -- simulator hooks ----------------------------------------------
    def on_instruction(
        self, simulator, loaded: LoadedWord | None
    ) -> LoadedWord | None:
        """Called before each microinstruction executes; may mutate
        state, raise a :class:`MicroTrap`, or substitute the word.

        ``loaded`` is None on a step the simulator ran without a fetch
        (only outside ``watched``, and only for a ``boundary_hook``
        injector); the return value is then ignored."""
        return loaded

    def after_sequence(self, simulator, address: int, resident):
        """Called after the sequencer advanced; a non-None return
        overrides the next microprogram counter value."""
        return None

    # -- bookkeeping ---------------------------------------------------
    def record(self, simulator, name: str, **args) -> None:
        """Log a firing and mirror it onto the fault trace track."""
        cycle = simulator.state.cycles
        self.fired.append({"name": name, "cycle": cycle, **args})
        recorder = simulator.recorder
        if recorder is not None and recorder.tracer.enabled:
            recorder.tracer.emit(
                Event(name=name, cat="fault", ph=PH_COMPLETE, ts=cycle,
                      dur=1, track=TRACK_FAULTS, args=args)
            )


class CompositeInjector(FaultInjector):
    """Fans the simulator hooks out to several injectors.

    ``fired`` aggregates the members' records in hook order.  It
    watches the union of its members' addresses (any address if one
    member declares nothing) and needs the boundary hook if any member
    does.
    """

    def __init__(self, members: list[FaultInjector]):
        super().__init__()
        self.members = list(members)
        watched = [getattr(m, "watched", None) for m in self.members]
        self.watched = (
            None if None in watched else frozenset().union(*watched)
        )
        self.boundary_hook = any(
            getattr(m, "boundary_hook", True) for m in self.members
        )

    def attach(self, simulator) -> "CompositeInjector":
        simulator.injector = self
        for member in self.members:
            member.attach(simulator)
        simulator.injector = self  # members' attach reset the hook
        return self

    def on_instruction(self, simulator, loaded):
        for member in self.members:
            loaded = member.on_instruction(simulator, loaded)
        return loaded

    def after_sequence(self, simulator, address: int, resident):
        override = None
        for member in self.members:
            result = member.after_sequence(simulator, address, resident)
            if result is not None:
                override = result
        return override

    @property  # type: ignore[override]
    def fired(self) -> list[dict]:
        records: list[dict] = list(self._own_fired)
        for member in self.members:
            records.extend(member.fired)
        return records

    @fired.setter
    def fired(self, value: list[dict]) -> None:
        self._own_fired = value


# ----------------------------------------------------------------------
class StuckAtRegister(FaultInjector):
    """A datapath register stuck at ``value`` from ``from_cycle`` on.

    The stuck value is re-asserted at every microinstruction boundary
    (the granularity at which the structured simulator can model a
    permanently-shorted latch input): the first firing masks it to
    the register as ``poke_reg`` does, and every boundary stores that
    masked value.
    """

    watched = frozenset()

    def __init__(self, register: str, value: int, from_cycle: int = 0):
        super().__init__()
        self.register = register
        self.value = value
        self.from_cycle = from_cycle
        #: ``value`` masked to the register, once it first fired.
        self._masked: int | None = None

    def check(self, machine) -> None:
        if self.register not in machine.registers:
            raise FaultPlanError(
                f"stuck register {self.register!r} is not a register "
                f"of {machine.name}"
            )

    def on_instruction(self, simulator, loaded):
        state = simulator.state
        if state.cycles >= self.from_cycle:
            if self._masked is None:
                register = state.machine.registers[self.register]
                self._masked = self.value & register.mask
                self.record(simulator, "fault.stuck",
                            register=self.register, value=self.value)
            state.registers[self.register] = self._masked
        return loaded


class TransientMemoryFault(FaultInjector):
    """Force a pagefault on the Nth main-memory access of ``op``.

    One-shot and transient: the retried access after the §2.1.5
    restart succeeds, so well-formed trap services converge.  It works
    through a wrapper around ``state.memory`` and needs no hook.
    """

    watched = frozenset()
    boundary_hook = False

    def __init__(self, op: str = "read", nth: int = 1):
        super().__init__()
        if op not in ("read", "write"):
            raise FaultPlanError(f"memfault op must be read/write, got {op!r}")
        if nth < 1:
            raise FaultPlanError(f"memfault nth must be >= 1, got {nth}")
        self.op = op
        self.nth = nth
        self._seen = 0
        self._spent = False

    def attach(self, simulator) -> "TransientMemoryFault":
        simulator.injector = self
        simulator.state.memory = _FaultingMemory(
            simulator.state.memory, self, simulator
        )
        return self

    def _should_fire(self, op: str) -> bool:
        if self._spent or op != self.op:
            return False
        self._seen += 1
        if self._seen == self.nth:
            self._spent = True
            return True
        return False


class _FaultingMemory:
    """Proxy around :class:`~repro.sim.memory.MainMemory` that raises
    one injected pagefault, then becomes transparent."""

    def __init__(self, inner, fault: TransientMemoryFault, simulator):
        self._inner = inner
        self._fault = fault
        self._simulator = simulator

    def read(self, address: int) -> int:
        if self._fault._should_fire("read"):
            self._fault.record(self._simulator, "fault.memread",
                               address=address, nth=self._fault.nth)
            raise MicroTrap(
                "pagefault", f"injected transient fault (address {address})"
            )
        return self._inner.read(address)

    def write(self, address: int, value: int) -> None:
        if self._fault._should_fire("write"):
            self._fault.record(self._simulator, "fault.memwrite",
                               address=address, nth=self._fault.nth)
            raise MicroTrap(
                "pagefault", f"injected transient fault (address {address})"
            )
        self._inner.write(address, value)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class InterruptStorm(FaultInjector):
    """Raise an external interrupt every ``period`` cycles.

    Unlike the simulator's own ``interrupt_every`` device model, the
    storm is an adversarial injector: it can start mid-run and its
    firings land on the fault track for trace inspection.
    """

    watched = frozenset()

    def __init__(self, period: int, from_cycle: int = 0):
        super().__init__()
        if period < 1:
            raise FaultPlanError(f"storm period must be >= 1, got {period}")
        self.period = period
        self.from_cycle = from_cycle
        self._next = None

    def on_instruction(self, simulator, loaded):
        state = simulator.state
        if self._next is None:
            self._next = max(self.from_cycle, state.cycles) + self.period
        if state.cycles >= self._next:
            self._next = state.cycles + self.period
            if not state.interrupt_pending:
                state.interrupt_pending = True
                self.record(simulator, "fault.interrupt", period=self.period)
        return loaded


# ----------------------------------------------------------------------
@dataclass
class FlipEffect:
    """What a control-store bit flip does, architecturally.

    ``kind`` is one of ``latent`` (field not driven by the word, or
    the flipped code is indistinguishable in the structured model),
    ``operand`` (a register selector now picks another register),
    ``order`` (a function code now selects another micro-order),
    ``immediate`` (a literal/count changed), ``condition`` (a branch
    tests another flag), ``sequencer`` (the branch target address
    changed) or ``illegal`` (no valid decoding — executing the word
    traps).
    """

    kind: str
    fieldname: str
    old_code: int
    new_code: int
    detail: str = ""
    loaded: LoadedWord | None = None
    new_target: int | None = None


def compute_flip_effect(
    machine, loaded: LoadedWord, bit: int
) -> FlipEffect:
    """Decode the architectural effect of flipping ``bit`` of a word."""
    control = machine.control
    if not 0 <= bit < control.width:
        raise FaultPlanError(
            f"bit {bit} outside the {control.width}-bit control word"
        )
    fld = None
    offset = 0
    for candidate in control:
        start = control.offset(candidate.name)
        if start <= bit < start + candidate.width:
            fld, offset = candidate, start
            break
    assert fld is not None  # fields tile the word
    old_code = (loaded.word >> offset) & fld.mask
    new_code = old_code ^ (1 << (bit - offset))

    def effect(kind: str, detail: str = "", **extra) -> FlipEffect:
        return FlipEffect(kind, fld.name, old_code, new_code,
                          detail=detail, **extra)

    if fld.name not in loaded.settings:
        return effect("latent", "field not driven by this word")

    mutated_word = loaded.word ^ (1 << bit)
    instruction = loaded.instruction

    # Sequencer fields first: they are not owned by any placed op.
    if fld.name == "br_addr":
        return effect("sequencer", f"branch target -> {new_code:04d}",
                      new_target=new_code)
    if fld.name == "br_cond":
        decoded = fld.decode(new_code)
        terminator = instruction.terminator
        if decoded == "NOP" or not isinstance(decoded, str) \
                or not isinstance(terminator, Branch):
            return effect("illegal", f"br_cond code {new_code} undecodable")
        # The word branches to its br_addr label when the condition
        # holds and falls through otherwise.  When the target is the
        # next word the assembler stores the inverse condition and
        # points br_addr at ``otherwise``.
        taken, fallen = terminator.target, terminator.otherwise
        if fld.decode(old_code) != terminator.cond:
            taken, fallen = fallen, taken
        new_terminator = (
            Jump(taken) if decoded == "TRUE"
            else Branch(decoded, taken, fallen)
        )
        return effect(
            "condition", f"branch condition -> {decoded}",
            loaded=_reword(loaded, replace_instruction(
                instruction, terminator=new_terminator
            ), fld.name, new_code, mutated_word),
        )
    if fld.name == "br_mode":
        return effect("illegal", f"br_mode code {new_code}")

    # Datapath fields: find the placed op that drives the field.
    for index, placed in enumerate(instruction.placed):
        settings = placed.settings(machine)
        if fld.name in settings:
            break
    else:
        return effect("latent", "field driven only by sequencing fixup")

    op = placed.op
    if fld.is_immediate:
        for src_index, src in enumerate(op.srcs):
            if isinstance(src, Imm) and (src.value & fld.mask) == old_code:
                new_srcs = tuple(
                    Imm(new_code) if i == src_index else s
                    for i, s in enumerate(op.srcs)
                )
                new_op = op.with_operands(op.dest, new_srcs)
                return effect(
                    "immediate", f"{op.op} literal {old_code} -> {new_code}",
                    loaded=_reword(loaded, _replace_op(
                        instruction, index, new_op, placed.spec
                    ), fld.name, new_code, mutated_word),
                )
        return effect("latent", "immediate not traceable to an operand")

    decoded = fld.decode(new_code)
    if not isinstance(decoded, str):
        return effect("illegal", f"{fld.name} code {new_code} undecodable")
    old_decoded = fld.decode(old_code)

    if decoded in machine.registers:
        # Register selector: retarget the matching operand.
        if op.dest is not None and op.dest.name == old_decoded:
            new_op = op.with_operands(Reg(decoded), op.srcs)
        else:
            for src_index, src in enumerate(op.srcs):
                if isinstance(src, Reg) and src.name == old_decoded:
                    new_srcs = tuple(
                        Reg(decoded) if i == src_index else s
                        for i, s in enumerate(op.srcs)
                    )
                    new_op = op.with_operands(op.dest, new_srcs)
                    break
            else:
                return effect("latent", "selector not traceable to operand")
        return effect(
            "operand", f"{op.op} {old_decoded} -> {decoded}",
            loaded=_reword(loaded, _replace_op(
                instruction, index, new_op, placed.spec
            ), fld.name, new_code, mutated_word),
        )

    # Micro-order change (e.g. alu_op ADD -> SUB).  Order fields
    # reserve code 0 / NOP for "unit not driven": flipping into it
    # silently drops the micro-order from the word.
    new_name = decoded.lower()
    if new_name == "nop":
        remaining = [
            p for position, p in enumerate(instruction.placed)
            if position != index
        ]
        from repro.compose.base import MicroInstruction

        dropped = MicroInstruction(
            placed=remaining, terminator=instruction.terminator
        )
        return effect(
            "order", f"{op.op} -> nop (micro-order dropped)",
            loaded=_reword(loaded, dropped, fld.name, new_code,
                           mutated_word),
        )
    arity = _PURE_OPS_ARITY.get(new_name)
    if arity is None or len(op.srcs) < arity or op.dest is None:
        return effect("illegal", f"{fld.name} -> {decoded} not executable")
    new_op = replace(op, op=new_name)
    return effect(
        "order", f"{op.op} -> {new_name}",
        loaded=_reword(loaded, _replace_op(
            instruction, index, new_op, placed.spec
        ), fld.name, new_code, mutated_word),
    )


def _replace_op(instruction, index: int, new_op, spec):
    from repro.compose.base import MicroInstruction, PlacedOp

    placed = list(instruction.placed)
    placed[index] = PlacedOp(new_op, spec)
    return MicroInstruction(placed=placed, terminator=instruction.terminator)


def replace_instruction(instruction, *, terminator):
    from repro.compose.base import MicroInstruction

    return MicroInstruction(
        placed=list(instruction.placed), terminator=terminator
    )


def _reword(
    loaded: LoadedWord, instruction, fieldname: str, new_code: int,
    mutated_word: int,
) -> LoadedWord:
    settings = dict(loaded.settings)
    settings[fieldname] = new_code
    return LoadedWord(loaded.address, instruction, settings, mutated_word)


class ProcessKill(FaultInjector):
    """Chaos injector: SIGKILL the simulating process mid-run.

    This models the failure the other injectors cannot — the *host*
    process dying under a scenario (segfault, OOM-kill) — and is the
    deterministic trigger behind the crash-safety tests of the
    ``--jobs`` shard supervisor and the serve worker pool.  At the
    ``nth`` executed microinstruction the process SIGKILLs itself:
    no exception, no cleanup, exactly like the real thing.

    Never drawn by seeded plan generation; only explicit
    ``kill:nth=N`` specs build it.  Attaching it in the parent
    process of a test suite would kill the suite, which is the
    point — use it inside sacrificial worker processes.
    """

    watched = frozenset()

    def __init__(self, nth: int = 1):
        super().__init__()
        if nth < 1:
            raise FaultPlanError(f"kill nth must be >= 1, got {nth}")
        self.nth = nth
        self._seen = 0

    def on_instruction(self, simulator, loaded):
        self._seen += 1
        if self._seen >= self.nth:
            import os
            import signal

            os.kill(os.getpid(), signal.SIGKILL)
        return loaded


class ControlStoreBitFlip(FaultInjector):
    """Flip one encoded control-store bit at an absolute address.

    The mutation is computed lazily on first fetch of the word (the
    machine's field layout is needed) and cached; from ``from_cycle``
    on, every fetch of the address sees the flipped word — the fault
    is persistent, as a genuine control-store upset would be.  It
    watches that one address and needs no other hook.
    """

    boundary_hook = False

    def __init__(self, address: int, bit: int, from_cycle: int = 0):
        super().__init__()
        self.watched = frozenset({address})
        self.address = address
        self.bit = bit
        self.from_cycle = from_cycle
        self.effect: FlipEffect | None = None
        self._announced = False

    def _effect_for(self, simulator, loaded: LoadedWord) -> FlipEffect:
        if self.effect is None:
            self.effect = compute_flip_effect(
                simulator.machine, loaded, self.bit
            )
        return self.effect

    def check(self, machine) -> None:
        width = machine.control.width
        if not 0 <= self.bit < width:
            raise FaultPlanError(
                f"bit {self.bit} outside the {width}-bit control word"
            )
        size = machine.control_store_size
        if not 0 <= self.address < size:
            raise FaultPlanError(
                f"address {self.address} outside the {size}-word "
                f"control store"
            )

    def on_instruction(self, simulator, loaded):
        state = simulator.state
        if state.upc != self.address or state.cycles < self.from_cycle:
            return loaded
        effect = self._effect_for(simulator, loaded)
        if not self._announced:
            self._announced = True
            self.record(simulator, "fault.bitflip", address=self.address,
                        bit=self.bit, field=effect.fieldname,
                        effect=effect.kind, detail=effect.detail)
        if effect.kind == "illegal":
            raise MicroTrap(
                "illegal-encoding",
                f"control word {self.address:04d} {effect.fieldname} "
                f"code {effect.new_code} ({effect.detail})",
            )
        if effect.loaded is not None:
            return effect.loaded
        return loaded

    def after_sequence(self, simulator, address: int, resident):
        if address != self.address or self.effect is None:
            return None
        if self.effect.kind != "sequencer":
            return None
        # Redirect only when the sequencer actually drove the encoded
        # target onto the µPC (a not-taken branch never reads br_addr).
        if simulator.state.upc != resident.base + self.effect.old_code:
            return None
        # A target outside the program is a wild branch; the following
        # fetch fails, which the campaign classifies as detected.
        return resident.base + (self.effect.new_target or 0)


# ----------------------------------------------------------------------
def build_injector(fault_spec) -> FaultInjector:
    """Instantiate the injector a :class:`~repro.faults.plan.FaultSpec`
    (or spec string) describes."""
    from repro.faults.plan import FaultSpec, parse_fault_spec

    if isinstance(fault_spec, str):
        fault_spec = parse_fault_spec(fault_spec)
    assert isinstance(fault_spec, FaultSpec)
    kind = fault_spec.kind
    if kind == "bitflip":
        return ControlStoreBitFlip(
            address=int(fault_spec.require("addr")),
            bit=int(fault_spec.require("bit")),
            from_cycle=int(fault_spec.get("cycle", 0)),
        )
    if kind == "memfault":
        return TransientMemoryFault(
            op=str(fault_spec.get("op", "read")),
            nth=int(fault_spec.get("nth", 1)),
        )
    if kind == "stuck":
        return StuckAtRegister(
            register=str(fault_spec.require("reg")),
            value=int(fault_spec.get("value", 0)),
            from_cycle=int(fault_spec.get("cycle", 0)),
        )
    if kind == "storm":
        return InterruptStorm(
            period=int(fault_spec.require("period")),
            from_cycle=int(fault_spec.get("cycle", 0)),
        )
    if kind == "kill":
        return ProcessKill(nth=int(fault_spec.get("nth", 1)))
    raise FaultPlanError(f"unknown fault kind {kind!r}")
