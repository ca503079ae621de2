"""Micro-programs: CFGs of basic blocks, procedures, constant pool.

The :class:`ProgramBuilder` is the interface all code generators use:
it manages label generation, block sequencing, the machine's loadable
constant ROM (programs carry a ``constants`` pool the loader pokes into
``C0``… before execution) and virtual-register creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MIRError
from repro.machine.machine import MicroArchitecture
from repro.machine.registers import CONST
from repro.mir.block import (
    BasicBlock,
    Call,
    Exit,
    Fallthrough,
    Ret,
    Terminator,
)
from repro.mir.operands import Imm, Operand, Reg, preg, vreg
from repro.mir.ops import MicroOp


def terminator_regs(terminator: Terminator | None) -> tuple[Reg, ...]:
    """Register operands referenced by a terminator, if any."""
    from repro.mir.block import Exit as _Exit, Multiway as _Multiway

    if isinstance(terminator, _Exit) and terminator.value is not None:
        return (terminator.value,)
    if isinstance(terminator, _Multiway):
        return (terminator.reg,)
    return ()


@dataclass
class Procedure:
    """A named entry point: its entry block plus all reachable blocks."""

    name: str
    entry: str


@dataclass
class MicroProgram:
    """A complete microprogram: blocks, procedures and constants.

    Attributes:
        name: Program name (used by the loader and in listings).
        blocks: Basic blocks by label, in insertion order.
        entry: Label of the program's entry block.
        procedures: Microsubroutines by name.
        constants: Constant-ROM assignment (register name -> value),
            poked by the loader before execution.
    """

    name: str
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    entry: str = ""
    procedures: dict[str, Procedure] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    #: Resource names (``%v`` for virtuals) considered live when the
    #: program exits — EMPL-style global variables are observable state
    #: and must survive to the end (liveness honours this set).
    live_at_exit: set[str] = field(default_factory=set)

    def block(self, label: str) -> BasicBlock:
        try:
            return self.blocks[label]
        except KeyError:
            raise MIRError(f"{self.name}: unknown block {label!r}") from None

    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self.blocks:
            raise MIRError(f"{self.name}: duplicate block {block.label!r}")
        self.blocks[block.label] = block
        return block

    def n_ops(self) -> int:
        """Total micro-operation count over all blocks."""
        return sum(len(block.ops) for block in self.blocks.values())

    def validate(self) -> None:
        """Check CFG integrity: all blocks terminated, edges resolve."""
        if self.entry not in self.blocks:
            raise MIRError(f"{self.name}: entry block {self.entry!r} missing")
        for block in self.blocks.values():
            if not block.terminated:
                raise MIRError(f"{self.name}: block {block.label!r} not terminated")
            for successor in block.successors():
                if successor not in self.blocks:
                    raise MIRError(
                        f"{self.name}: block {block.label!r} targets unknown "
                        f"block {successor!r}"
                    )
            if isinstance(block.terminator, Call):
                if block.terminator.proc not in self.procedures:
                    raise MIRError(
                        f"{self.name}: call to unknown procedure "
                        f"{block.terminator.proc!r}"
                    )
        for procedure in self.procedures.values():
            if procedure.entry not in self.blocks:
                raise MIRError(
                    f"{self.name}: procedure {procedure.name!r} entry "
                    f"{procedure.entry!r} missing"
                )

    def virtual_regs(self) -> set[Reg]:
        """All virtual registers appearing anywhere in the program."""
        found: set[Reg] = set()
        for block in self.blocks.values():
            for op in block.ops:
                found.update(r for r in op.regs() if r.virtual)
            for reg in terminator_regs(block.terminator):
                if reg.virtual:
                    found.add(reg)
        return found

    def rename_regs(self, mapping: dict[Reg, Reg]) -> None:
        """Substitute registers across the whole program (in place)."""
        from dataclasses import replace as _replace

        from repro.mir.block import Exit as _Exit, Multiway as _Multiway

        for block in self.blocks.values():
            block.ops = [op.rename(mapping) for op in block.ops]
            terminator = block.terminator
            if isinstance(terminator, _Exit) and terminator.value in mapping:
                block.terminator = _replace(
                    terminator, value=mapping[terminator.value]
                )
            elif isinstance(terminator, _Multiway) and terminator.reg in mapping:
                block.terminator = _replace(terminator, reg=mapping[terminator.reg])

    def __str__(self) -> str:
        parts = [f"program {self.name} (entry {self.entry})"]
        if self.constants:
            pool = ", ".join(f"{k}={v:#x}" for k, v in self.constants.items())
            parts.append(f"  constants: {pool}")
        parts.extend(str(block) for block in self.blocks.values())
        return "\n".join(parts)


class ProgramBuilder:
    """Incremental construction of a :class:`MicroProgram`.

    The builder tracks a *current block*; ``emit`` appends to it and
    the ``branch``/``jump``/… helpers terminate it.  Starting a new
    block while the current one is unterminated inserts a fallthrough.
    """

    def __init__(self, name: str, machine: MicroArchitecture | None = None):
        self.program = MicroProgram(name)
        self.machine = machine
        self._current: BasicBlock | None = None
        self._label_counter = 0
        self._vreg_counter = 0
        self._const_slots: dict[int, str] = {}

    # -- labels and registers -------------------------------------------
    def fresh_label(self, hint: str = "L") -> str:
        self._label_counter += 1
        return f"{hint}{self._label_counter}"

    def fresh_vreg(self, hint: str = "t") -> Reg:
        self._vreg_counter += 1
        return vreg(f"{hint}{self._vreg_counter}")

    # -- blocks -----------------------------------------------------------
    def start_block(self, label: str | None = None) -> BasicBlock:
        """Open a new current block, falling through from the old one."""
        label = label or self.fresh_label()
        block = BasicBlock(label)
        if self._current is not None and not self._current.terminated:
            self._current.terminate(Fallthrough(label))
        self.program.add_block(block)
        if not self.program.entry:
            self.program.entry = label
        self._current = block
        return block

    @property
    def current(self) -> BasicBlock:
        if self._current is None:
            self.start_block()
        assert self._current is not None
        return self._current

    @property
    def has_open_block(self) -> bool:
        """Whether an unterminated block is under construction.

        Unlike :attr:`current`, this never opens a fresh block — use it
        to decide whether control can fall off the end of what has been
        generated so far.
        """
        return self._current is not None and not self._current.terminated

    def emit(self, op: MicroOp) -> MicroOp:
        self.current.append(op)
        return op

    def terminate(self, terminator: Terminator) -> None:
        self.current.terminate(terminator)

    # -- constants ----------------------------------------------------------
    def constant(self, value: int) -> Operand:
        """Materialize a constant as an operand.

        Small non-negative constants that machines can always inject as
        literals stay immediates; other values get a constant-ROM slot
        (re-used per distinct value).  Falls back to an immediate when
        the ROM is exhausted — back ends must then expand oversized
        literals themselves.
        """
        if self.machine is None:
            return Imm(value)
        value &= self.machine.mask()
        if value in self._const_slots:
            return preg(self._const_slots[value])
        for special, register in (
            (0, "ZERO"), (0, "R0"), (1, "ONE"),
            (self.machine.mask(), "MINUS1"),
        ):
            if value == special and register in self.machine.registers:
                return preg(register)
        slots = [
            r.name
            for r in self.machine.registers.in_class(CONST)
            if r.name.startswith("C")
        ]
        used = set(self._const_slots.values())
        free = [s for s in slots if s not in used]
        if not free:
            return Imm(value)
        slot = free[0]
        self._const_slots[value] = slot
        self.program.constants[slot] = value
        return preg(slot)

    # -- procedures -----------------------------------------------------------
    def declare_procedure(self, name: str, entry: str) -> None:
        if name in self.program.procedures:
            raise MIRError(f"duplicate procedure {name!r}")
        self.program.procedures[name] = Procedure(name, entry)

    def call(self, proc: str, next_label: str | None = None) -> str:
        """Terminate the current block with a call; returns the label
        of the continuation block, which becomes current."""
        next_label = next_label or self.fresh_label("ret")
        self.current.terminate(Call(proc, next_label))
        self._current = None
        self.start_block(next_label)
        return next_label

    def ret(self) -> None:
        self.terminate(Ret())
        self._current = None

    def exit(self, value: Reg | None = None) -> None:
        self.terminate(Exit(value))
        self._current = None

    # -- finish ------------------------------------------------------------------
    def finish(self) -> MicroProgram:
        """Validate and return the built program."""
        if self._current is not None and not self._current.terminated:
            self._current.terminate(Exit())
        self.program.validate()
        return self.program
