"""Pre-decoded execution engine (the simulator's fast path).

The interpretive :meth:`Simulator._execute_instruction` re-derives
everything about a control-store word on every execution: it groups
placed ops by phase, string-matches the micro-order name, isinstance-
tests every operand, resolves register names through the register
file, and walks the terminator's isinstance chain to sequence.  None
of that depends on machine state — only the *operand values* do — so
it can all be done once per word.

This module lowers a :class:`~repro.asm.assembler.LoadedWord` into an
:class:`ExecutionPlan`: phase-grouped tuples of *step closures* with
operand readers pre-bound (immediates inlined as constants, registers
resolved to direct slot lookups where the machine's banking allows),
semantics pre-dispatched (the hot ALU orders are inlined from the op
table in :mod:`repro.sim.ops`; the rest pre-bind
:func:`repro.sim.semantics.evaluate`), the microinstruction's cycle
count pre-computed, and the terminator compiled to a single
sequencing closure with label lookups already resolved to absolute
control-store addresses (:func:`terminator_metadata`).  The hot loop
then becomes "fetch plan, run closures" — the regime VADL-style
generated simulators live in.

The lowering is written once over a *decode backend*:
:class:`ScalarSteps` here, and the lane-vector backend of
:mod:`repro.sim.batch`.  A backend supplies operand readers,
destination slots, the steps whose semantics differ per lane (``poll``,
the write-allocate check of ``write``, ``setblk``), the ``evaluate``
datapath and the data-dependent sequencers; the table ops, the other
memory and scratchpad steps, the plan and its commit loop are shared.

**Fault-injection correctness.**  Plans are cached per absolute
address *and per encoded word* (:class:`PlanCache`): when a
:class:`~repro.faults.injectors.ControlStoreBitFlip` substitutes a
mutated word at fetch, its ``word`` differs from the pristine
encoding, so the cache misses and the flipped behaviour is decoded
fresh — a stale plan can never execute a bit-flipped word, and the
un-flipped plan is reused again if the injector is cycle-gated.  The
address a flip watches never enters the fetch-free address map, so
every visit to it is fetched and looked up by word.  Campaigns
therefore stay bit-accurate under the decoded engine (the parity
suite in ``tests/sim/test_decode.py`` checks this instruction for
instruction).

A plan captures only the machine: operands, destinations and
sequencing targets are resolved against its register file and the
resident program, and a ``poll`` calls the handler the running state
carries (``state.interrupt_handler``).  So every simulator of one
machine running one program image may share plans: they live in the
image's plan table (:func:`image_tables`), which :func:`decode_word`
consults before it lowers a word — a fault campaign's golden run and
scenarios, the runs of a cached compile result and fresh simulators
over the same image all find them there.  The table is scoped by image
because a word does not encode everything its plan resolves: an EXIT,
a DISP and a branch followed by a fixup word carry neither their exit
register, their dispatch table nor their fall-through target.

Exact-parity contract: a decoded run must match the interpretive run
in every observable — executed addresses, cycle accounting, register
and memory state, flags, traps raised and their order — for every
program the toolkit can assemble.  Where the interpretive path reads
state dynamically (banked register windows, the swappable
``state.memory``, the interrupt handler), the closures here do too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.asm.assembler import LoadedWord
from repro.asm.loader import ResidentProgram
from repro.errors import SimulationError
from repro.mir.block import (
    Branch,
    Call,
    Exit,
    Fallthrough,
    Jump,
    Multiway,
    Ret,
)
from repro.mir.operands import Imm, Reg
from repro.obs.metrics import CounterBlock
from repro.sim import ops
from repro.sim.ops import OPS, Op, step_factory
from repro.sim.semantics import condition_holds, evaluate
from repro.sim.state import StateBackend

#: A step runs one placed op against the live state.  It may append
#: pending commits to ``reg_writes`` / ``memory_ops``, update
#: ``flag_writes``, raise a :class:`~repro.errors.MicroTrap`, and
#: returns truthy iff it serviced a pending interrupt (``poll``).
Step = Callable[..., object]

#: Branch conditions compiled to a direct flag test; anything else
#: falls back to :func:`condition_holds` (and raises identically for
#: unknown conditions).
_COND_TESTS = {
    "Z": ("Z", 1), "NZ": ("Z", 0),
    "N": ("N", 1), "NN": ("N", 0),
    "C": ("C", 1), "NC": ("C", 0),
    "UF": ("UF", 1), "NUF": ("UF", 0),
}


class ExecutionPlan:
    """One control-store word, lowered for repeated execution.

    ``phases`` holds one tuple of steps per occupied phase, in phase
    order; ``cycles`` is the pre-computed microinstruction latency;
    ``sequence`` advances the microprogram counter (labels already
    resolved against the resident program the plan was decoded for).
    The same plan runs scalar and batched states.
    """

    __slots__ = ("phases", "cycles", "sequence")

    def __init__(
        self,
        phases: tuple[tuple[Step, ...], ...],
        cycles: int,
        sequence: Callable[[StateBackend], None],
    ):
        self.phases = phases
        self.cycles = cycles
        self.sequence = sequence

    def execute(self, state: StateBackend) -> bool:
        """Run all phases; same commit discipline as the interpreter:
        within a phase all reads see phase-entry state, then register
        writes commit, then memory actions, then flag updates.  A
        ``None`` mask routes a register commit through
        ``state.write_reg``.

        Returns True if a pending interrupt was serviced by a ``poll``.
        """
        serviced = False
        for steps in self.phases:
            reg_writes: list[tuple[str, int | None, int]] = []
            flag_writes: dict[str, int] = {}
            memory_ops: list[Callable[[], None]] = []
            for step in steps:
                if step(state, reg_writes, flag_writes, memory_ops):
                    serviced = True
            if reg_writes:
                registers = state.registers
                for target, mask, value in reg_writes:
                    if mask is None:
                        state.write_reg(target, value)
                    else:
                        registers[target] = value & mask
            for action in memory_ops:
                action()
            if flag_writes:
                state.flags.update(flag_writes)
        return serviced


@dataclass
class PlanCacheStats(CounterBlock):
    """The current run's counters of one :class:`PlanCache`.

    ``Simulator.run`` starts a fresh block at every run start, so the
    block *is* that run's counts (``RunResult.plan_cache`` adds the
    derived ``hits``: executed microinstructions minus ``misses`` —
    under the decoded engine every executed microinstruction runs
    exactly one plan).  Both counters are bumped on cold paths only
    (a decode, a wholesale invalidation), so the hot
    fetch-plan-execute loop never pays for them.

    Attributes:
        misses: Plans decoded and inserted — including re-decodes
            forced by a fault injector substituting a mutated word,
            and plans taken from the program image's shared table.
        invalidations: Wholesale :meth:`PlanCache.invalidate` calls.
    """

    misses: int = 0
    invalidations: int = 0


class PlanCache:
    """Per-simulator plan store with bit-flip-safe keying.

    Two tiers:

    * ``_by_word`` — keyed ``(resident base, address, encoded word)``;
      always consulted, so a fault injector substituting a mutated
      word gets a fresh decode (and flipping back reuses the pristine
      plan).
    * per-resident address maps (``addr_plans``) — the direct path the
      run loop uses when no trace or recorder is attached and no
      injector can substitute the fetched word at that address (an
      injector's ``watched`` addresses are never inserted); skips the
      control-store fetch entirely.
    """

    __slots__ = ("_by_word", "_by_addr", "stats")

    def __init__(self) -> None:
        self._by_word: dict[tuple[int, int, int], ExecutionPlan] = {}
        self._by_addr: dict[int, dict[int, ExecutionPlan]] = {}
        self.stats = PlanCacheStats()

    def __len__(self) -> int:
        return len(self._by_word)

    def addr_plans(self, resident: ResidentProgram) -> dict[int, ExecutionPlan]:
        """The fetch-free address map for one resident program."""
        return self._by_addr.setdefault(resident.base, {})

    def lookup(
        self, resident: ResidentProgram, address: int, loaded: LoadedWord
    ) -> ExecutionPlan | None:
        return self._by_word.get((resident.base, address, loaded.word))

    def insert(
        self,
        resident: ResidentProgram,
        address: int,
        loaded: LoadedWord,
        plan: ExecutionPlan,
        *,
        direct: bool,
    ) -> None:
        """Store a plan; ``direct=True`` additionally registers it on
        the fetch-free path (only legal when no injector can substitute
        the word at ``address``)."""
        self.stats.misses += 1
        self._by_word[(resident.base, address, loaded.word)] = plan
        if direct:
            self.addr_plans(resident)[address] = plan

    def invalidate(self) -> None:
        """Drop every cached plan (e.g. after reloading the store)."""
        self.stats.invalidations += 1
        self._by_word.clear()
        self._by_addr.clear()


# ----------------------------------------------------------------------
# Scalar decode backend
# ----------------------------------------------------------------------
def _dest_slot(files, name: str) -> tuple[str, int | None]:
    """Pre-resolve a destination register to ``(target, mask)``.

    ``mask is None`` routes the commit through ``state.write_reg``
    (banked windows resolve against the bank pointer *at commit time*,
    and read-only/unknown registers raise exactly as the interpreter
    does); otherwise the commit is a direct masked slot store.
    """
    if files.is_window(name) or name not in files.registers:
        return (name, None)
    register = files.registers[name]
    if register.readonly:
        return (name, None)
    return (name, register.mask)


def inline_spec(files, op, width: int) -> Op | None:
    """The table entry ``op`` is inlined with, or None for ``evaluate``.

    A shift (an entry marked ``count``) is inlined only when its count
    is an immediate in 1..``width``: ``evaluate`` clamps and rejects
    every other count.  An op that writes a register is inlined only
    when the destination is a plain writable register (direct slot
    commit); anything trickier — windows, read-only, a missing dest —
    takes the generic path so error behaviour stays identical to the
    interpreter.  Every fast engine decides with this one predicate.
    """
    spec = OPS.get(op.op)
    if spec is None:
        return None
    if spec.count and not (
        len(op.srcs) == 2
        and isinstance(op.srcs[1], Imm)
        and 1 <= op.srcs[1].value <= width
    ):
        return None
    if not spec.writes:
        return spec
    if op.dest is None or _dest_slot(files, op.dest.name)[1] is None:
        return None
    return spec


class ScalarSteps:
    """Decode backend for one scalar :class:`StateBackend`.

    :func:`build_plan` asks a backend for operand readers, destination
    slots, the ``poll``, ``write`` and ``setblk`` steps, the datapath of
    the ``evaluate`` fallback and the two data-dependent sequencers.
    Everything else — the table ops, the memory and scratchpad loads
    and stores, the plan and the rest of sequencing — is shared with
    the batched backend in :mod:`repro.sim.batch`.
    """

    def __init__(self, machine):
        self.machine = machine
        self.files = machine.registers

    def reader(self, operand) -> Callable[[StateBackend], int]:
        """A reader closure for one source operand.

        Immediates become constants; plain registers become direct slot
        lookups; banked windows (and names the register file does not
        know, which must keep raising through ``read_reg``) stay
        dynamic.
        """
        if not isinstance(operand, Reg):
            value = operand.value
            return lambda state: value
        name = operand.name
        if self.files.is_window(name) or name not in self.files.registers:
            return lambda state: state.read_reg(name)
        return lambda state: state.registers[name]

    def dest(self, name: str) -> tuple[str, int | None]:
        return _dest_slot(self.files, name)

    def poll(self) -> Step:
        # The handler is read from the state at run time, so the plan
        # serves any simulator of the machine.
        def step(state, reg_writes, flag_writes, memory_ops):
            if state.interrupt_pending and state.interrupt_handler:
                state.interrupt_handler(state)
                state.interrupt_pending = False
                return True
            return False

        return step

    def write(self, read_addr, read_data) -> Step:
        def step(state, reg_writes, flag_writes, memory_ops):
            address = read_addr(state)
            data = read_data(state)
            memory_ops.append(
                lambda a=address, d=data: state.memory.write(a, d)
            )
            # Touch now so pagefaults surface at the op, not at commit
            # (write-allocate check) — same as the interpretive path.
            if not state.memory.is_mapped(address):
                state.memory.write(address, data)

        return step

    def setblk(self, read_value) -> Step:
        pointer = self.files.bank_pointer
        target, mask = (
            (None, None) if pointer is None else self.dest(pointer)
        )

        def step(state, reg_writes, flag_writes, memory_ops):
            value = read_value(state)
            if target is None:
                raise SimulationError("setblk on unbanked machine")
            reg_writes.append((target, mask, value))

        return step

    #: The ``evaluate`` fallback's datapath: the reference itself.
    evaluate = staticmethod(evaluate)

    def branch(self, flag, expected, taken, not_taken):
        def seq_branch(state):
            state.upc = (
                taken if state.flags.get(flag, 0) == expected else not_taken
            )

        return seq_branch

    def multiway(self, read_value, cases, default):
        def seq_multiway(state):
            value = read_value(state)
            for care, bits, target in cases:
                if value & care == bits:
                    state.upc = target
                    return
            state.upc = default

        return seq_multiway


# ----------------------------------------------------------------------
# Shared lowering
# ----------------------------------------------------------------------
def decode_op(steps, op) -> Step | None:
    """Lower one micro-op through a decode backend (None for ``nop``)."""
    name = op.op
    if name == "nop":
        return None
    if name == "poll":
        return steps.poll()
    readers = tuple(steps.reader(src) for src in op.srcs)
    if name == "read":
        return _read_step(readers[0], *steps.dest(op.dest.name))
    if name == "write":
        return steps.write(readers[0], readers[1])
    if name == "ldscr":
        return _ldscr_step(readers[0], *steps.dest(op.dest.name))
    if name == "stscr":
        return _stscr_step(readers[0], readers[1])
    if name == "setblk":
        return steps.setblk(readers[0])

    machine = steps.machine
    spec = inline_spec(machine.registers, op, machine.word_size)
    if spec is not None:
        target, mask = steps.dest(op.dest.name) if spec.writes else ("", None)
        return step_factory(name)(
            readers[0], readers[1] if spec.arity == 2 else None,
            target, mask, machine.mask(), machine.word_size - 1,
        )
    if op.dest is not None:
        commit = steps.dest(op.dest.name)
        read_old = steps.reader(op.dest)
    else:
        commit = None
        read_old = None
    return _generic_step(
        steps.evaluate, name, readers, commit, read_old, machine.word_size
    )


def _read_step(read_addr, target, mask) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        reg_writes.append((target, mask, state.memory.read(read_addr(state))))

    return step


def _ldscr_step(read_addr, target, mask) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        reg_writes.append(
            (target, mask, state.scratchpad.read(read_addr(state)))
        )

    return step


def _stscr_step(read_value, read_addr) -> Step:
    def step(state, reg_writes, flag_writes, memory_ops):
        value = read_value(state)
        address = read_addr(state)
        memory_ops.append(
            lambda a=address, v=value: state.scratchpad.write(a, v)
        )

    return step


def _generic_step(evaluate, name, readers, commit, read_old, width) -> Step:
    """Fallback for ops without a table entry: a pre-bound call of the
    backend's ``evaluate`` with the interpreter's exact argument set."""

    def step(state, reg_writes, flag_writes, memory_ops):
        result = evaluate(
            name,
            [read(state) for read in readers],
            width,
            dest_old=read_old(state) if read_old is not None else 0,
            carry_in=state.flags.get("C", 0),
        )
        if result.value is not None and commit is not None:
            reg_writes.append((commit[0], commit[1], result.value))
        if result.flags:
            flag_writes.update(result.flags)

    return step


def mask_bits(mask: str) -> tuple[int, int]:
    """A multiway arm's mask as ``(care, bits)``: a value matches the
    arm iff ``value & care == bits`` — :meth:`MaskCase.matches
    <repro.mir.block.MaskCase.matches>`, compiled once."""
    care = int(mask.replace("0", "1").replace("x", "0"), 2)
    return care, int(mask.replace("x", "0"), 2)


def terminator_metadata(
    terminator, address: int, resident: ResidentProgram
) -> dict:
    """Static sequencing facts about one word's terminator.

    The one description of sequencing: labels are resolved to absolute
    control-store addresses here, multiway arms are compiled to
    ``(care, bits, target)`` in first-match order (:func:`mask_bits`),
    and :func:`sequencer` (decoded and batched plans) and the trace
    stitcher (:mod:`repro.sim.trace`) build their sequencing from the
    result.  An unconditional branch is reported as a jump.
    """
    base = resident.base
    labels = resident.program.labels
    if terminator is None:
        return {"kind": "jump", "target": address + 1}
    if isinstance(terminator, (Fallthrough, Jump)):
        return {"kind": "jump", "target": base + labels[terminator.target]}
    if isinstance(terminator, Branch):
        taken = base + labels[terminator.target]
        if terminator.cond == "TRUE":
            return {"kind": "jump", "target": taken}
        return {
            "kind": "branch",
            "cond": terminator.cond,
            "taken": taken,
            "not_taken": base + labels[terminator.otherwise],
        }
    if isinstance(terminator, Multiway):
        return {
            "kind": "multiway",
            "reg": terminator.reg,
            "cases": tuple(
                (*mask_bits(case.mask), base + labels[case.target])
                for case in terminator.cases
            ),
            "default": base + labels[terminator.default],
        }
    if isinstance(terminator, Call):
        return {
            "kind": "call",
            "target": base + resident.program.procedures[terminator.proc],
            "return_to": base + labels[terminator.next],
        }
    if isinstance(terminator, Ret):
        return {"kind": "ret"}
    if isinstance(terminator, Exit):
        return {"kind": "exit", "value": terminator.value}
    raise SimulationError(f"unknown terminator {terminator!r}")


def sequencer(steps, meta: dict) -> Callable[[StateBackend], None]:
    """Compile one :func:`terminator_metadata` to a sequencing closure.

    Branch tests and multiway selection go through the backend; jumps,
    calls, returns and exits are the same closure on every state (where
    the scalar return stack raises on overflow or underflow, the
    batched state's peels only the lane that hit it).
    """
    kind = meta["kind"]
    if kind == "jump":
        target = meta["target"]

        def seq_jump(state):
            state.upc = target

        return seq_jump

    if kind == "branch":
        cond = meta["cond"]
        taken, not_taken = meta["taken"], meta["not_taken"]
        test = _COND_TESTS.get(cond)
        if test is None:
            def seq_cond_generic(state):
                state.upc = (
                    taken if condition_holds(cond, state.flags) else not_taken
                )

            return seq_cond_generic
        return steps.branch(*test, taken, not_taken)

    if kind == "multiway":
        return steps.multiway(
            steps.reader(meta["reg"]), meta["cases"], meta["default"]
        )

    if kind == "call":
        target, return_to = meta["target"], meta["return_to"]

        def seq_call(state):
            state.push_return(return_to)
            state.upc = target

        return seq_call

    if kind == "ret":
        def seq_ret(state):
            state.upc = state.pop_return()

        return seq_ret

    if meta["value"] is None:
        def seq_exit(state):
            state.halted = True

        return seq_exit
    read_value = steps.reader(meta["value"])

    def seq_exit_value(state):
        state.halted = True
        state.exit_value = read_value(state)

    return seq_exit_value


def build_plan(
    steps, loaded: LoadedWord, resident: ResidentProgram, address: int
) -> ExecutionPlan:
    """Lower one loaded control-store word through a decode backend."""
    machine = steps.machine
    instruction = loaded.instruction
    phases = []
    for group in instruction.phase_groups(machine):
        phase = tuple(
            step
            for step in (decode_op(steps, placed.op) for placed in group)
            if step is not None
        )
        if phase:
            phases.append(phase)
    return ExecutionPlan(
        phases=tuple(phases),
        cycles=instruction.cached_cycles(machine),
        sequence=sequencer(
            steps,
            terminator_metadata(instruction.terminator, address, resident),
        ),
    )


def image_tables(program, machine) -> tuple[dict, dict]:
    """The plan and trace tables ``program`` keeps for ``machine``.

    Held in the image's one slot (``LoadedProgram._sim_tables``) as
    ``(machine, op-table epoch, plans, traces)``.  A run on another
    machine object, or under another op table
    (:func:`repro.sim.ops.planted`), replaces the whole slot.  The slot
    holds the machine itself, so its id is never reused against it.
    Plans are keyed like :class:`PlanCache`'s word tier; traces as
    :meth:`repro.sim.trace.TraceJIT._build` says.
    """
    slot = program._sim_tables
    if slot is None or slot[0] is not machine or slot[1] is not ops.epoch:
        slot = program._sim_tables = (machine, ops.epoch, {}, {})
    return slot[2], slot[3]


def decode_word(
    simulator, loaded: LoadedWord, resident: ResidentProgram, address: int
) -> ExecutionPlan:
    """Lower one loaded control-store word into a scalar execution plan.

    The plan comes from the image's plan table (:func:`image_tables`)
    when any simulator of the same machine already lowered the same
    ``(resident base, address, encoded word)`` there, and goes into it
    otherwise.  A word fetched from outside the image (a wild branch
    into another resident) is lowered for this caller alone.
    """
    plans = {}
    if resident.contains(address):
        plans, _ = image_tables(resident.program, simulator.machine)
    key = (resident.base, address, loaded.word)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = build_plan(
            ScalarSteps(simulator.machine), loaded, resident, address
        )
    return plan
