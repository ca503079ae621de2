"""The op table against the reference semantics, in every rendering.

Every fast engine inlines the table in :mod:`repro.sim.ops`; the
interpretive engine calls :func:`repro.sim.semantics.evaluate`.  These
properties pin each table op to ``evaluate`` directly — result value
and every flag — as the decoded closure on ints, the batched closure
on numpy int64 lanes, and the stitcher's source text, at the word
size of every registered machine.  Operands range
well outside the word, negative included, as immediates may.

Shift entries (marked ``count``) hold only for an immediate count in
1..W, so their counts are drawn from that range.  The guard that keeps
every other count on ``evaluate`` —
:func:`repro.sim.decode.inline_spec` — is pinned on its own, and words
with such counts run identically on all three engines.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compose import MicroInstruction, PlacedOp
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.mir.operands import Imm, preg
from repro.mir.ops import mop
from repro.registry import build_machine, machine_names
from repro.sim.batch import HAVE_NUMPY
from repro.sim.decode import inline_spec
from repro.sim.ops import OPS, inline, step_factory
from repro.sim.semantics import evaluate
from tests.sim.test_trace import assert_parity, run_engine

WORD_SIZES = sorted({build_machine(name).word_size
                     for name in machine_names()})
#: Wide random values plus the carry, sign and zero boundaries.
OPERANDS = st.one_of(
    st.integers(-(1 << 40), 1 << 40),
    st.integers(-3, 3),
    st.sampled_from([sign * ((1 << bit) + offset)
                     for width in WORD_SIZES
                     for bit in (width - 1, width)
                     for offset in (-2, -1, 0, 1)
                     for sign in (1, -1)]),
)
COUNT_OPS = sorted(name for name, spec in OPS.items() if spec.count)

WIDTHS = pytest.mark.parametrize("width", WORD_SIZES)


def operand_pairs(name, width):
    """``(a, b)`` for one op: ``b`` is a count in 1..W for shifts."""
    count = st.integers(1, width) if OPS[name].count else OPERANDS
    return st.tuples(OPERANDS, count)


def reference(name, a, b, width):
    result = evaluate(name, [a, b][:OPS[name].arity], width)
    return result.value, result.flags


def run_step(name, a, b, width):
    """One table step on whatever ``a``/``b`` are (ints or vectors)."""
    reg_writes, flag_writes = [], {}
    step = step_factory(name)(
        lambda state: a, lambda state: b, "r", None,
        (1 << width) - 1, width - 1,
    )
    step(None, reg_writes, flag_writes, [])
    value = reg_writes[0][2] if reg_writes else None
    return value, flag_writes


@WIDTHS
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_decoded_closure_matches_evaluate(name, width, data):
    a, b = data.draw(operand_pairs(name, width))
    assert run_step(name, a, b, width) == reference(name, a, b, width)


@WIDTHS
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stitched_text_matches_evaluate(name, width, data):
    a, b = data.draw(operand_pairs(name, width))
    statements, flags = inline(
        name, [repr(a), repr(b)], str((1 << width) - 1), str(width - 1),
        "_t", "_v",
    )
    namespace = {}
    exec("\n".join(statements), namespace)
    value = namespace["_v"] if OPS[name].writes else None
    got = {flag: eval(expr, namespace) for flag, expr in flags}
    assert (value, got) == reference(name, a, b, width)


def check_lanes(name, width, lanes, vector):
    value, flags = run_step(
        name, vector([a for a, _ in lanes]), vector([b for _, b in lanes]),
        width,
    )
    for lane, (a, b) in enumerate(lanes):
        want_value, want_flags = reference(name, a, b, width)
        assert (None if value is None else int(value[lane])) == want_value
        assert {f: int(v[lane]) for f, v in flags.items()} == want_flags


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@WIDTHS
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_numpy_lanes_match_evaluate(name, width, data):
    import numpy as np

    lanes = data.draw(
        st.lists(operand_pairs(name, width), min_size=1, max_size=8)
    )
    check_lanes(name, width, lanes,
                lambda values: np.array(values, dtype=np.int64))


# ----------------------------------------------------------------------
# The count guard
# ----------------------------------------------------------------------
#: A plain writable destination and sources on HM1.
HM1_FILES = build_machine("HM1").registers


def shift(name, *srcs):
    return mop(name, preg("R2"), *srcs)


@WIDTHS
@pytest.mark.parametrize("name", COUNT_OPS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_inline_spec_takes_only_immediate_counts_in_the_word(
    name, width, data
):
    inside = data.draw(st.integers(1, width))
    outside = data.draw(st.one_of(
        st.sampled_from([0, width + 1, -1]),
        st.integers(max_value=0),
        st.integers(min_value=width + 1),
    ))
    source = preg("R1")
    assert inline_spec(HM1_FILES, shift(name, source, Imm(inside)),
                       width) is OPS[name]
    assert inline_spec(HM1_FILES, shift(name, source, Imm(outside)),
                       width) is None
    assert inline_spec(HM1_FILES, shift(name, source, preg("R3")),
                       width) is None
    assert inline_spec(HM1_FILES, shift(name, source), width) is None


#: A hot loop around one shift (so the traced engine stitches it) whose
#: result and flags feed the exit value.
SHIFT_LOOP = """
    put x,0x8001
    put n,20
    put acc,0
loop:
    {op} r,x,1
    add acc,acc,r
    add x,x,n
    sub n,n,1
    jump loop if nonzero
    exit acc
"""


def with_count(loaded, name, count):
    """``loaded`` with every ``name`` op's count replaced by ``count``
    — a word no front end emits, as a fault injector may fetch one."""
    words = []
    for word in loaded.words:
        instruction = word.instruction
        placed = [
            PlacedOp(replace(p.op, srcs=(p.op.srcs[0], count)), p.spec)
            if p.op.op == name else p
            for p in instruction.placed
        ]
        words.append(replace(word, instruction=MicroInstruction(
            placed=placed, terminator=instruction.terminator,
        )))
    return replace(loaded, words=words)


@pytest.mark.parametrize("name", COUNT_OPS)
@pytest.mark.parametrize("count", ["zero", "past-word", "register"])
def test_out_of_range_counts_run_identically_on_every_engine(name, count):
    machine = get_machine("HM1")
    result = compile_yalll(SHIFT_LOOP.format(op=name), machine, name="s")
    counter = preg(result.allocation.mapping["n"])
    odd = {
        "zero": Imm(0),
        "past-word": Imm(machine.word_size + 1),
        # n runs 20..1: counts past the word clamp, the rest shift.
        "register": counter,
    }[count]
    loaded = with_count(result.loaded, name, odd)
    res, _ = assert_parity(machine, loaded)
    assert res.trace_cache["hits"] >= 1, "the odd word never ran traced"


#: Popcount by shifting a register into itself: UF must be the bit
#: shifted out of the old value, though the stitcher writes flags
#: after the phase's register commits.
POPCOUNT = """
    put x,0xB5A3
    put n,16
    put ones,0
loop:
    {op} x,x,1
    jump one if uf
    jump next
one:
    add ones,ones,1
next:
    sub n,n,1
    jump loop if nonzero
    exit ones
"""


@pytest.mark.parametrize("name", COUNT_OPS)
def test_shift_into_its_source_flags_the_bit_shifted_out(name):
    machine = get_machine("HM1")
    result = compile_yalll(POPCOUNT.format(op=name), machine, name="p")
    res, _ = assert_parity(machine, result.loaded)
    assert res.exit_value == bin(0xB5A3).count("1")
    assert res.trace_cache["hits"] >= 1


@pytest.mark.parametrize("name", COUNT_OPS)
def test_negative_count_raises_identically_on_every_engine(name):
    machine = get_machine("HM1")
    result = compile_yalll(SHIFT_LOOP.format(op=name), machine, name="s")
    loaded = with_count(result.loaded, name, Imm(-1))
    errors = set()
    for engine in ("interpretive", "decoded", "traced"):
        with pytest.raises(Exception) as raised:
            run_engine(engine, machine, loaded)
        errors.add((type(raised.value), str(raised.value)))
    assert len(errors) == 1
    assert "negative shift count" in errors.pop()[1]
