"""The inlined micro-op table: one description for the fast engines.

:func:`repro.sim.semantics.evaluate` is the hand-written reference
every engine is checked against.  The fast engines (decoded, batched,
traced) do not call it for the hot ALU orders; they inline them from
this table.  Each entry is Python expression text over the operands
``a`` and ``b``, the word mask ``M`` and the sign shift ``S``:
``total`` is the intermediate ``t`` some flags need besides the result
(the carry total, or a shift's value before its masking or last step),
``value`` the result ``v``, and ``flags`` the flag expressions, which
name only ``t`` and ``v`` — the stitcher evaluates them after the
phase's register commits, when an operand register may already hold
the result.  Every expression is vector-safe —
comparisons are written ``(x == 0) * 1`` — so one text runs on Python
ints and on the batched engine's numpy int64 lane vectors.  Which
engine runs for a given run is decided elsewhere, once
(:mod:`repro.sim.admission`).

:func:`inline` renders an entry as statements with the operands and
constants substituted.  The decoded engine's word functions and the
trace stitcher write them into their generated source
(:func:`repro.sim.decode._emit_phase`); :func:`step_factory` compiles
them into the step closure the batched engine runs, once per op, so
every hot path executes the inlined expressions rather than a call per
operator.

``shl`` and ``shr`` are entries marked ``count``: their ``b`` is a
shift count, and :func:`repro.sim.decode.inline_spec` inlines them
only for an immediate count in 1..W (the word size).  Any other count
(a register, 0, past the word, negative) keeps ``evaluate``'s clamping
and errors, as do the ops without an entry (``sar``, ``rol``, ``ror``,
``ext``, ``dep``, ``mul``, ``adc``, ``nand``, ``nor``, ``not``,
``neg``) on every engine.  ``tests/sim/test_ops.py`` pins every entry
to ``evaluate``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterator


@dataclass(frozen=True)
class Op:
    """One inlined micro-op.

    Attributes:
        arity: Source operands read: ``a``, or ``a`` and ``b``.
        value: The result ``v``.
        total: The intermediate ``t``; None when the flags need only
            ``v``.
        flags: ``(flag, expression)`` pairs, in write order.
        writes: False for ops that only set flags (``cmp``).
        count: True when ``b`` is a shift count, which the expressions
            hold for only in 1..W.
    """

    arity: int
    value: str
    total: str | None = None
    flags: tuple[tuple[str, str], ...] = ()
    writes: bool = True
    count: bool = False


_ZN = (("Z", "(v == 0) * 1"), ("N", "(v >> S) & 1"))
_ZNC = (*_ZN, ("C", "(t > M) * 1"))
_MOV = Op(1, "a & M")
_SUB = Op(2, "t & M", "(a & M) + ((b ^ M) & M) + 1", _ZNC)

#: Op name -> its inlined semantics.
OPS: dict[str, Op] = {
    "mov": _MOV,
    "movi": _MOV,
    "add": Op(2, "t & M", "(a & M) + (b & M)", _ZNC),
    "sub": _SUB,
    "cmp": replace(_SUB, writes=False),
    "inc": Op(1, "t & M", "(a & M) + 1", _ZNC),
    "dec": Op(1, "t & M", "(a & M) + M", _ZNC),
    "and": Op(2, "(a & M) & (b & M)", flags=_ZN),
    "or": Op(2, "(a & M) | (b & M)", flags=_ZN),
    "xor": Op(2, "(a & M) ^ (b & M)", flags=_ZN),
    # UF is the last bit shifted out: bit W of the unmasked left shift,
    # bit 0 of the right shift one step short.
    "shl": Op(2, "t & M", "(a & M) << b",
              (*_ZN, ("UF", "(t >> (S + 1)) & 1")), count=True),
    "shr": Op(2, "t >> 1", "(a & M) >> (b - 1)",
              (*_ZN, ("UF", "t & 1")), count=True),
}

_NAMES = re.compile(r"\b[abtvMS]\b")


def inline(
    name: str,
    operands: list[str],
    mask: str,
    shift: str,
    total: str,
    value: str,
) -> tuple[list[str], list[tuple[str, str]]]:
    """One table op as source text.

    ``operands`` are the expressions for ``a`` and ``b`` (every entry
    names each operand once, so each is evaluated once), ``mask`` and
    ``shift`` the text for ``M`` and ``S``, and
    ``total`` and ``value`` the names that hold ``t`` and ``v``.
    Returns the assignments to run at step time and the
    ``(flag, expression)`` pairs to run at commit time.
    """
    spec = OPS[name]
    names = {"M": mask, "S": shift, "t": total, "v": value}
    for key, operand in zip("ab", operands):
        names[key] = f"({operand})"

    def render(expr: str) -> str:
        return _NAMES.sub(lambda match: names[match.group()], expr)

    statements = []
    if spec.total is not None:
        statements.append(f"{total} = {render(spec.total)}")
    statements.append(f"{value} = {render(spec.value)}")
    return statements, [(flag, render(expr)) for flag, expr in spec.flags]


_FACTORIES: dict[str, Callable] = {}

#: Replaced whenever the table changes (:func:`planted`), so plans and
#: traces a program image keeps (:func:`repro.sim.decode.image_tables`)
#: are never served across a change.
epoch = object()


def step_factory(name: str) -> Callable:
    """The closure factory for one table op, rendered once and cached.

    ``factory(read_a, read_b, target, mask, M, S)`` returns a step
    ``step(state, reg_writes, flag_writes, memory_ops)`` that reads its
    operands through the readers, appends ``(target, mask, v)`` to
    ``reg_writes`` (unless the op only sets flags) and stores its
    flags into ``flag_writes``.  The step never looks at what kind of
    state it runs on: the batched engine's lane-vector readers and
    destination slots make it a whole-batch step.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        statements, flags = inline(
            name, ["read_a(state)", "read_b(state)"], "M", "S", "t", "v"
        )
        if OPS[name].writes:
            statements.append("reg_writes.append((target, mask, v))")
        statements += [f"flag_writes[{flag!r}] = {expr}"
                       for flag, expr in flags]
        source = (
            "def factory(read_a, read_b, target, mask, M, S):\n"
            "    def step(state, reg_writes, flag_writes, memory_ops):\n"
            + "".join(f"        {line}\n" for line in statements)
            + "    return step\n"
        )
        namespace: dict = {}
        exec(compile(source, f"<op {name}>", "exec"), namespace)
        factory = _FACTORIES[name] = namespace["factory"]
    return factory


@contextmanager
def planted(name: str, value: str) -> Iterator[None]:
    """Run with one op's result expression replaced.

    The difftest self-check plants a miscompile here: every fast engine
    decodes the planted text while the interpretive engine, which calls
    :func:`~repro.sim.semantics.evaluate`, does not.
    """
    global epoch
    pristine = OPS[name]
    OPS[name] = replace(pristine, value=value)
    _FACTORIES.clear()
    epoch = object()
    try:
        yield
    finally:
        OPS[name] = pristine
        _FACTORIES.clear()
        epoch = object()
