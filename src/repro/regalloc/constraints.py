"""Register-class constraints on virtual registers (survey §2.1.3).

"The microregister set is generally not homogeneous.  Allocating a
variable to a certain register … determines which subset of
microoperations can be applied to that variable."  This module collects,
for every virtual register, the set of physical registers that satisfy
*all* the class constraints imposed by the operations touching it.
An allocation round derives all of its register facts from one walk of
the program (:func:`allowed_registers`).
"""

from __future__ import annotations

from repro.errors import AllocationError
from repro.machine.machine import MicroArchitecture
from repro.machine.registers import GPR
from repro.mir.operands import Reg
from repro.mir.program import MicroProgram, terminator_regs


def _walk(
    program: MicroProgram, machine: MicroArchitecture
) -> tuple[dict[Reg, set[str]], set[str], list[Reg]]:
    """One pass over every register operand of the program.

    Returns the class tags of each virtual an op touches (possibly
    empty), the physical registers ops name, and the virtuals
    terminators read.
    """
    constraints: dict[Reg, set[str]] = {}
    named: set[str] = set()
    in_terminators: list[Reg] = []

    def require(virtual: Reg, classes: set[str | None]) -> None:
        # Use the intersection over variants: a constraint matters only
        # if *every* variant imposes it, otherwise the composer can pick
        # an unconstrained variant.
        tags = constraints.setdefault(virtual, set())
        if None not in classes:
            tags.update(c for c in classes if c)

    for block in program.blocks.values():
        for op in block.ops:
            variants = machine.op_variants(op.op)
            # ``regs()`` lists the register sources, then the destination.
            # The destination is recorded first: first-seen order decides
            # which variable an AllocationError names.
            srcs = op.regs()
            if op.dest is not None:
                dest, srcs = srcs[-1], srcs[:-1]
                if dest.virtual:
                    require(dest, {v.dest_class for v in variants})
                else:
                    named.add(dest.name)
            for index, src in enumerate(srcs):
                if src.virtual:
                    require(src, {v.src_class(index) for v in variants})
                else:
                    named.add(src.name)
        in_terminators.extend(
            r for r in terminator_regs(block.terminator) if r.virtual
        )
    return constraints, named, in_terminators


def collect_class_constraints(
    program: MicroProgram, machine: MicroArchitecture
) -> dict[Reg, set[str]]:
    """Class tags each virtual register an op touches must satisfy."""
    return _walk(program, machine)[0]


def allowed_registers(
    program: MicroProgram, machine: MicroArchitecture
) -> tuple[dict[Reg, list[str]], list[str]]:
    """Physical candidates per virtual register, constraint-filtered.

    Returns the candidates of every virtual register and the class-free
    pool: the allocatable GPRs the program does not name.  Programs
    mixing symbolic variables with explicit physical registers
    (hand-written kernels, legalization temps inside bound programs)
    must not have those registers handed out to virtuals, so the pool
    excludes them wholesale — coarse but sound.  Virtuals only a
    terminator reads get the whole pool.

    Raises :class:`AllocationError` if some virtual register an op
    touches has no satisfying physical register at all.
    """
    constraints, named, in_terminators = _walk(program, machine)
    pool = [
        r for r in machine.registers.allocatable(GPR) if r.name not in named
    ]
    allowed: dict[Reg, list[str]] = {}
    for virtual, classes in constraints.items():
        candidates = [
            r.name for r in pool
            if all(r.is_in(cls) for cls in classes)
        ]
        # Restart-safety temporaries (see repro.lang.common.restart)
        # must live in microregisters: a macro-visible register would
        # survive the trap and defeat the idempotence transform.
        if virtual.name.startswith("_rs"):
            candidates = [
                name for name in candidates
                if not machine.registers[name].macro_visible
            ]
        if not candidates:
            raise AllocationError(
                f"no physical register satisfies classes {sorted(classes)} "
                f"for variable {virtual}"
            )
        allowed[virtual] = candidates
    names = [r.name for r in pool]
    for virtual in in_terminators:
        allowed.setdefault(virtual, list(names))
    return allowed, names
