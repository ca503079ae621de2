"""The op table against the reference semantics, in every rendering.

Every fast engine inlines the table in :mod:`repro.sim.ops`; the
interpretive engine calls :func:`repro.sim.semantics.evaluate`.  These
properties pin each table op to ``evaluate`` directly — result value
and every flag — as the decoded closure on ints, the batched closure
on numpy int64 lanes, and the stitcher's source text, at the word
size of every registered machine.  Operands range
well outside the word, negative included, as immediates may.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry import build_machine, machine_names
from repro.sim.batch import HAVE_NUMPY
from repro.sim.ops import OPS, inline, step_factory
from repro.sim.semantics import evaluate

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
LANES = st.lists(st.tuples(OPERANDS, OPERANDS), min_size=1, max_size=8)

pytestmark = pytest.mark.parametrize("width", WORD_SIZES)


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


@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=100, deadline=None)
@given(a=OPERANDS, b=OPERANDS)
def test_decoded_closure_matches_evaluate(name, width, a, b):
    assert run_step(name, a, b, width) == reference(name, a, b, width)


@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=100, deadline=None)
@given(a=OPERANDS, b=OPERANDS)
def test_stitched_text_matches_evaluate(name, width, a, b):
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
@pytest.mark.parametrize("name", sorted(OPS))
@settings(max_examples=50, deadline=None)
@given(lanes=LANES)
def test_numpy_lanes_match_evaluate(name, width, lanes):
    import numpy as np

    check_lanes(name, width, lanes,
                lambda values: np.array(values, dtype=np.int64))
