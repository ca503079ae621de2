"""Pre-decoded execution engine (the simulator's fast path).

The interpretive :meth:`Simulator._execute_instruction` re-derives
everything about a control-store word on every execution: it groups
placed ops by phase, string-matches the micro-order name, isinstance-
tests every operand, resolves register names through the register
file, and walks the terminator's isinstance chain to sequence.  None
of that depends on machine state — only the *operand values* do — so
it can all be done once per word.

This module lowers a :class:`~repro.asm.assembler.LoadedWord` into an
:class:`ExecutionPlan`: the word's phases as one generated Python
function, the microinstruction's cycle count pre-computed, and the
terminator compiled to a single sequencing closure with label lookups
already resolved to absolute control-store addresses
(:func:`terminator_metadata`).  The function (:func:`lower_word`)
reads immediates as constants and plain registers as direct slot
lookups (banked windows and names the register file does not know
stay dynamic through ``read_reg``), inlines the hot ALU orders from
the op table in :mod:`repro.sim.ops`, calls
:func:`repro.sim.semantics.evaluate` for the rest, and unrolls each
phase's commit discipline.  Its text comes from the phase emitter
(:func:`_emit_phase`) the trace JIT's stitcher (:mod:`repro.sim.trace`)
writes whole loops with, so a word and a trace through it run the same
code.  The hot loop then becomes "fetch plan, call its function" — the
regime VADL-style generated simulators live in.  A function depends
only on its source text, so each distinct text is compiled once per
process (:func:`_word_function`) and identical words share it.

The batched engine (:mod:`repro.sim.batch`) runs the same words as
one closure per placed op over lane vectors instead: :func:`build_plan`
lowers them through its decode backend, which supplies operand readers,
destination slots, the steps whose semantics differ per lane
(``poll``, the write-allocate check of ``write``, ``setblk``), the
``evaluate`` datapath and the data-dependent sequencers; the table
ops, the other memory and scratchpad steps and the rest of sequencing
are written here.  :class:`ScalarSteps` is the scalar backend of
sequencing (:func:`sequencer`).

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
``state.memory``, the interrupt handler), the generated functions do
too: a ``poll`` that services an interrupt re-reads the state's
stores, which the handler may replace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
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
from repro.sim.ops import OPS, Op, inline, step_factory
from repro.sim.semantics import condition_holds, evaluate
from repro.sim.state import StateBackend

#: A batched step runs one placed op against a lane-vector state.  It
#: may append pending commits to ``reg_writes`` / ``memory_ops``,
#: update ``flag_writes``, raise a :class:`~repro.errors.MicroTrap`,
#: and returns truthy iff it serviced a pending interrupt (``poll``).
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

    ``execute(state)`` runs the word's phases and returns True iff a
    ``poll`` serviced a pending interrupt — a generated function for a
    scalar state (:func:`lower_word`), step closures over lane vectors
    for a batched one (:func:`build_plan`); ``cycles`` is the
    pre-computed microinstruction latency; ``sequence`` advances the
    microprogram counter (labels already resolved against the resident
    program the plan was decoded for).
    """

    __slots__ = ("execute", "cycles", "sequence")

    def __init__(
        self,
        execute: Callable[[StateBackend], bool],
        cycles: int,
        sequence: Callable[[StateBackend], None],
    ):
        self.execute = execute
        self.cycles = cycles
        self.sequence = sequence


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
# Operands and destinations
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


# ----------------------------------------------------------------------
# Generated code: the word lowering and the trace stitcher's phases
# ----------------------------------------------------------------------
class _Emitter:
    """Python source, one indented line at a time, with fresh temps."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._depth = 0
        self._uid = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self._depth + line if line else "")

    def indent(self) -> None:
        self._depth += 1

    def dedent(self) -> None:
        self._depth -= 1

    def tmp(self) -> str:
        self._uid += 1
        return f"_t{self._uid}"

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _src_expr(files, operand) -> str:
    """The read expression for one source operand: immediates become
    literals, plain registers direct dict lookups, banked windows and
    unknown names stay dynamic through ``read_reg``."""
    if not isinstance(operand, Reg):
        return repr(operand.value)
    name = operand.name
    if files.is_window(name) or name not in files.registers:
        return f"state.read_reg({name!r})"
    return f"regs[{name!r}]"


#: The state's stores a generated function holds in locals.
_BINDINGS = (
    ("regs", "registers"),
    ("flags", "flags"),
    ("memory", "memory"),
    ("scratch", "scratchpad"),
)


def _emit_phase(em: _Emitter, machine, placed_ops, plant: int = 0) -> None:
    """Emit one phase the way the interpreter runs it: every op reads
    into temporaries at step time, then the commit discipline unrolled —
    register writes in step order, then memory actions, then flag
    writes (last writer wins).

    The source reads the locals ``regs``, ``flags``, ``memory`` and
    ``scratch`` (:data:`_BINDINGS`), and a ``poll`` sets ``serviced``.
    ``plant`` is XORed into every inlined ALU result that sets flags
    (the trace stitcher's self-check hook; 0 emits the plain
    expression).
    """
    files = machine.registers
    reg_commits: list[tuple[str, int | None, str, str]] = []
    mem_commits: list[str] = []
    flag_commits: list[str] = []
    for placed in placed_ops:
        op = placed.op
        name = op.op
        if name == "nop":
            continue
        if name == "poll":
            # At its step position: the handler sees the reads and
            # commits so far, and may replace the state's stores.
            em.emit("if state.interrupt_pending "
                    "and state.interrupt_handler:")
            em.indent()
            em.emit("state.interrupt_handler(state)")
            em.emit("state.interrupt_pending = False")
            em.emit("serviced = True")
            for local, attribute in _BINDINGS:
                em.emit(f"{local} = state.{attribute}")
            em.dedent()
            continue
        srcs = [_src_expr(files, s) for s in op.srcs]
        spec = inline_spec(files, op, machine.word_size)
        if name in ("read", "ldscr"):
            t = em.tmp()
            store = "memory" if name == "read" else "scratch"
            em.emit(f"{t} = {store}.read({srcs[0]})")
            reg_commits.append((*_dest_slot(files, op.dest.name), t, ""))
        elif name == "write":
            ta, td = em.tmp(), em.tmp()
            em.emit(f"{ta} = {srcs[0]}")
            em.emit(f"{td} = {srcs[1]}")
            # Touch now so pagefaults surface at the op, not at commit
            # (write-allocate check) — same as the interpretive path.
            em.emit(f"if not memory.is_mapped({ta}):")
            em.indent()
            em.emit(f"memory.write({ta}, {td})")
            em.dedent()
            mem_commits.append(f"memory.write({ta}, {td})")
        elif name == "stscr":
            tv, ta = em.tmp(), em.tmp()
            em.emit(f"{tv} = {srcs[0]}")
            em.emit(f"{ta} = {srcs[1]}")
            mem_commits.append(f"scratch.write({ta}, {tv})")
        elif name == "setblk":
            t = em.tmp()
            em.emit(f"{t} = {srcs[0]}")
            if files.bank_pointer is None:
                em.emit("raise SimulationError("
                        "'setblk on unbanked machine')")
            else:
                reg_commits.append(
                    (*_dest_slot(files, files.bank_pointer), t, "")
                )
        elif spec is not None:
            total, value = em.tmp(), em.tmp()
            statements, flags = inline(
                name, srcs, str(machine.mask()),
                str(machine.word_size - 1), total, value,
            )
            for line in statements:
                em.emit(line)
            if spec.writes:
                if spec.flags and plant:
                    value = f"(({value}) ^ {plant})"
                reg_commits.append(
                    (*_dest_slot(files, op.dest.name), value, "")
                )
            flag_commits.extend(
                f"flags[{flag!r}] = {expr}" for flag, expr in flags
            )
        else:
            # Generic evaluate fallback — the interpreter's exact
            # argument set, pre-bound at lowering time.  Like the
            # interpreter it commits a value only when there is one and
            # flags only when the op set some.
            t = em.tmp()
            dest_old = (
                _src_expr(files, op.dest) if op.dest is not None else "0"
            )
            em.emit(f"{t} = evaluate({name!r}, [{', '.join(srcs)}], "
                    f"{machine.word_size}, dest_old={dest_old}, "
                    f"carry_in=flags.get('C', 0))")
            if op.dest is not None:
                reg_commits.append((
                    *_dest_slot(files, op.dest.name), f"{t}.value",
                    f"if {t}.value is not None: ",
                ))
            flag_commits.append(f"if {t}.flags: flags.update({t}.flags)")
    for target, mask, value, guard in reg_commits:
        if mask is None:
            em.emit(f"{guard}state.write_reg({target!r}, {value})")
        else:
            em.emit(f"{guard}regs[{target!r}] = {value} & {mask}")
    for line in mem_commits + flag_commits:
        em.emit(line)


#: The locals a phase's source may name.
_BOUND = re.compile(r"\b(regs|flags|memory|scratch|serviced)\b")


def _word_source(machine, instruction) -> str:
    """The source of one word's ``execute(state) -> serviced``: its
    phases in order, each through :func:`_emit_phase`, after binding
    the stores the body names (an identifier that only appears inside
    a register name's quotes binds one more local, nothing worse)."""
    em = _Emitter()
    em.indent()
    for group in instruction.phase_groups(machine):
        _emit_phase(em, machine, group)
    body = em.source()
    used = set(_BOUND.findall(body))
    head = "def execute(state):\n" + "".join(
        f"    {local} = state.{attribute}\n"
        for local, attribute in _BINDINGS if local in used
    )
    if "serviced" in used:
        head += "    serviced = False\n"
        return head + body + "    return serviced\n"
    return head + body + "    return False\n"


#: Distinct word functions kept compiled, least recently used first out.
WORD_FUNCTIONS = 4096


@lru_cache(maxsize=WORD_FUNCTIONS)
def _word_function(source: str) -> Callable[[StateBackend], bool]:
    """The compiled function of one :func:`_word_source` text.

    It depends only on its text and the fixed globals below, so every
    word with the same text, in any image, may share it; lowering a
    word costs a fraction of a ``compile()``.
    """
    namespace = {"evaluate": evaluate, "SimulationError": SimulationError}
    exec(compile(source, "<word>", "exec"), namespace)
    return namespace["execute"]


def lower_word(
    machine, loaded: LoadedWord, resident: ResidentProgram, address: int
) -> ExecutionPlan:
    """Lower one loaded control-store word to a scalar plan: its
    generated function, its cycles and its sequencing closure."""
    instruction = loaded.instruction
    return ExecutionPlan(
        execute=_word_function(_word_source(machine, instruction)),
        cycles=instruction.cached_cycles(machine),
        sequence=sequencer(
            ScalarSteps(machine),
            terminator_metadata(instruction.terminator, address, resident),
        ),
    )


class ScalarSteps:
    """Sequencing backend for one scalar :class:`StateBackend`.

    :func:`sequencer` asks a backend for operand readers and the two
    data-dependent sequencers; the batched backend in
    :mod:`repro.sim.batch` supplies lane-vector ones, and the rest of
    its operations.
    """

    def __init__(self, machine):
        self.machine = machine
        self.files = machine.registers

    def reader(self, operand) -> Callable[[StateBackend], int]:
        """A reader closure for one source operand, as
        :func:`_src_expr` reads it."""
        if not isinstance(operand, Reg):
            value = operand.value
            return lambda state: value
        name = operand.name
        if self.files.is_window(name) or name not in self.files.registers:
            return lambda state: state.read_reg(name)
        return lambda state: state.registers[name]

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
# Step closures: the batched engine's lowering
# ----------------------------------------------------------------------
def decode_op(steps, op) -> Step | None:
    """Lower one micro-op to a step through a decode backend (None for
    ``nop``)."""
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


def _run_phases(phases: tuple[tuple[Step, ...], ...]):
    """``execute`` for a plan of steps, with the interpreter's commit
    discipline: within a phase all reads see phase-entry state, then
    register writes commit, then memory actions, then flag updates.  A
    ``None`` mask routes a register commit through ``state.write_reg``.
    """

    def execute(state: StateBackend) -> bool:
        serviced = False
        for steps in phases:
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

    return execute


def build_plan(
    steps, loaded: LoadedWord, resident: ResidentProgram, address: int
) -> ExecutionPlan:
    """Lower one loaded control-store word to step closures through a
    decode backend."""
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
        execute=_run_phases(tuple(phases)),
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
        plan = plans[key] = lower_word(
            simulator.machine, loaded, resident, address
        )
    return plan
