"""The M1 dispatch word on every fast path.

The microcoded M1 interpreter (:mod:`repro.bench.macrosys`) decodes
each macro instruction with ``shr op,inst,12`` and a nine-arm mask
``mjump``.  The fast engines run the shift from the op table
(:mod:`repro.sim.ops`) and the multiway from arms that
:func:`repro.sim.decode.terminator_metadata` compiles once to
``(care, bits)``; :meth:`MaskCase.matches
<repro.mir.block.MaskCase.matches>` stays the reference.  These tests
pin the compiled arms to it — one value at a time and across lockstep
lanes, where every lane's target is computed at once — and pin that
the dispatch word's verified traffic never reaches
``semantics.evaluate``.
"""

import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import ControlStore
from repro.bench import assemble_macro, build_macro_system
from repro.machine.machines import get_machine
from repro.mir.block import MaskCase, Multiway
from repro.registry import build_machine, machine_names
from repro.sim import BatchCase, Simulator, run_cases, semantics
from repro.sim.batch import HAVE_NUMPY, BatchedState, _LaneSteps, _vector
from repro.sim.decode import (
    ScalarSteps,
    mask_bits,
    sequencer,
    terminator_metadata,
)

WORD = max(build_machine(name).word_size for name in machine_names())
MASKS = st.text(alphabet="01x", min_size=1, max_size=WORD)
#: Values wider than any mask, and negative ones.
VALUES = st.one_of(
    st.integers(-(1 << 40), 1 << 40),
    st.integers(-4, (1 << WORD) + 4),
)
DEFAULT = 999

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")


def compiled_arms(masks):
    """Arm ``i`` targets ``100 + i``, as ``terminator_metadata`` emits."""
    return tuple((*mask_bits(mask), 100 + i) for i, mask in enumerate(masks))


def first_match(masks, value):
    """The reference: the first arm ``MaskCase.matches``, else default."""
    for i, mask in enumerate(masks):
        if MaskCase(mask, "t").matches(value):
            return 100 + i
    return DEFAULT


@settings(max_examples=300, deadline=None)
@given(mask=MASKS, value=VALUES)
def test_care_bits_match_like_mask_case(mask, value):
    care, bits = mask_bits(mask)
    assert (value & care == bits) == MaskCase(mask, "t").matches(value)


@pytest.fixture(scope="module")
def scalar_steps():
    machine = get_machine("HM1")
    return ScalarSteps(machine)


@settings(max_examples=200, deadline=None)
@given(masks=st.lists(MASKS, max_size=10), value=VALUES)
def test_scalar_multiway_takes_the_first_matching_arm(
    scalar_steps, masks, value
):
    seq = scalar_steps.multiway(
        lambda state: value, compiled_arms(masks), DEFAULT
    )
    state = SimpleNamespace(upc=None)
    seq(state)
    assert state.upc == first_match(masks, value)


# ----------------------------------------------------------------------
# The M1 interpreter's dispatch word
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def m1():
    return build_macro_system(get_machine("HM1"))


def dispatch_word(m1):
    """``(address, Multiway)`` of the interpreter's mjump."""
    for address, word in enumerate(m1.interpreter.loaded.words):
        if isinstance(word.instruction.terminator, Multiway):
            return address, word.instruction.terminator
    raise AssertionError("the M1 interpreter has no multiway")


def test_metadata_keeps_arm_order_and_targets(m1):
    """Every opcode and wider values sequence to the arm the walker's
    ``MaskCase.matches`` picks."""
    machine = m1.machine
    store = ControlStore(machine)
    resident = store.load(m1.interpreter.loaded, base=16)
    address, multiway = dispatch_word(m1)
    labels = m1.interpreter.loaded.labels
    meta = terminator_metadata(multiway, 16 + address, resident)
    assert len(meta["cases"]) == len(multiway.cases) == 9
    simulator = Simulator(machine, store)
    seq = sequencer(ScalarSteps(machine), meta)
    state = simulator.state
    for value in [*range(16), 0x1234, 0x8000, 0xFFFF]:
        state.write_reg(multiway.reg.name, value)
        seq(state)
        want = next(
            (case.target for case in multiway.cases if case.matches(value)),
            multiway.default,
        )
        assert state.upc == 16 + labels[want], value


# ----------------------------------------------------------------------
# Lockstep: every lane's target at once
# ----------------------------------------------------------------------
#: Overlapping arms, so first-match order decides some lanes.
LANE_MASKS = ("0000", "0001", "001x", "0x1x", "1xx1")
#: Every arm is some value's first match and two values take the
#: default; each value sits on two lanes, so peeling lanes 0 and 4
#: leaves every arm a live lane.
ROTATIONS = 10
LANE_VALUES = (0b0000, 0b0001, 0b0011, 0b0110, 0b1001, 0b1000,
               0b0100, 0b1111, 0b0010, 0x7FF0) * 2


def lane_state(values, dead):
    """A batch at one address whose group is its live lanes."""
    b = BatchedState(get_machine("HM1"), len(values))
    b.registers["R1"] = _vector(values)
    for lane in dead:
        b.peel(lane, "init")
    assert b.schedule()
    return b


@needs_numpy
@pytest.mark.parametrize("masks", [LANE_MASKS, ()], ids=["arms", "no-arms"])
@pytest.mark.parametrize("rotate", range(ROTATIONS))
@pytest.mark.parametrize("dead", [(), (0, 4)], ids=["all-live", "peeled"])
def test_lockstep_multiway_equals_the_per_lane_loop(masks, rotate, dead):
    """Each live lane's next address is its own first-match arm, no
    lane peels, and the next step runs the arm most lanes took, with
    exactly those lanes."""
    values = LANE_VALUES[rotate:] + LANE_VALUES[:rotate]
    b = lane_state(values, dead)
    live = b.live_lanes()
    seq = _LaneSteps(b).multiway(
        lambda b: b.registers["R1"], compiled_arms(masks), DEFAULT
    )
    seq(b)

    want = {lane: first_match(masks, values[lane]) for lane in live}
    assert {lane: int(b.upcs[lane]) for lane in live} == want
    assert b.peeled == dict.fromkeys(dead, "init")
    assert b.live_lanes() == live
    assert b.schedule()
    taken = sorted(want.values())
    top = max(map(taken.count, taken))
    assert b.pc == min(t for t in taken if taken.count(t) == top)
    assert b.group.tolist() == [lane for lane in live if want[lane] == b.pc]
    if masks:
        assert set(taken) == {100 + i for i in range(len(masks))} | {DEFAULT}
        assert b.masked and b.waiting == len(live) - top
    else:
        assert b.pc == DEFAULT and not b.masked and b.waiting == 0


# ----------------------------------------------------------------------
# Structural pin: the verified traffic never calls evaluate
# ----------------------------------------------------------------------
STRING, TABLE = 0x400, 0x900

#: The E10 transliteration as an M1 macro program: rewrite the
#: zero-terminated string at STRING through the table at TABLE, building
#: each indexed LDA/STA word with ADD (M1 has no indexed addressing).
TRANSLIT = f"""
loop:   LDA ptr
        ADD op_lda
        STA fetch
fetch:  .word 0
        JZ  done
        ADD op_tbl
        STA lookup
lookup: .word 0
        STA newch
        LDA ptr
        ADD op_sta
        STA store
        LDA newch
store:  .word 0
        LDA ptr
        ADD one
        STA ptr
        JMP loop
done:   HALT
one:    .word 1
ptr:    .word {STRING}
newch:  .word 0
op_lda: .word 0x1000
op_tbl: .word {0x1000 + TABLE}
op_sta: .word 0x2000
"""


def translit_case(m1, text):
    base = 0x100
    words, symbols = assemble_macro(TRANSLIT, base)
    memory = {base + i: word for i, word in enumerate(words)}
    for i, char in enumerate(text):
        memory[STRING + i] = char
    memory[STRING + len(text)] = 0
    for char in range(64):
        memory[TABLE + char] = (char * 7 + 3) & 0x3F or 1
    registers = {m1._register("pc"): base + symbols["loop"],
                 m1._register("acc"): 0}
    return BatchCase(registers=registers, memory=memory)


def evaluate_calls(run):
    """``run()``'s result and how often it entered ``evaluate``, however
    the caller bound the function."""
    code = semantics.evaluate.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def run_scalar(m1, case, engine):
    machine = m1.machine
    store = ControlStore(machine)
    store.load(m1.interpreter.loaded)
    simulator = Simulator(machine, store, engine=engine)
    for address, value in case.memory.items():
        simulator.state.memory.load_words(address, [value])
    for name, value in case.registers.items():
        simulator.state.write_reg(name, value)
    return simulator.run("m1-interp")


def test_evaluate_counter_sees_the_interpretive_engine(m1):
    """The probe is live: the reference walker calls evaluate."""
    case = translit_case(m1, [5, 9, 33])
    _, calls = evaluate_calls(lambda: run_scalar(m1, case, "interpretive"))
    assert calls > 0


@pytest.mark.parametrize("engine", ["decoded", "traced"])
def test_m1_translit_never_calls_evaluate(m1, engine):
    case = translit_case(m1, list(range(1, 40)))
    result, calls = evaluate_calls(lambda: run_scalar(m1, case, engine))
    assert result.exit_value == 0
    if engine == "traced":
        assert result.trace_cache["hits"] >= 1
    assert calls == 0


@needs_numpy
def test_m1_translit_lockstep_batch_never_calls_evaluate(m1):
    cases = [translit_case(m1, [(lane + i) % 63 + 1 for i in range(12)])
             for lane in range(64)]
    outcomes, calls = evaluate_calls(lambda: run_cases(
        m1.machine, m1.interpreter.loaded, cases, batch=64,
    ))
    assert not any(outcome.peeled for outcome in outcomes)
    assert calls == 0
    for lane in (0, 37):
        scalar = run_scalar(m1, cases[lane], "decoded")
        assert outcomes[lane].result.cycles == scalar.cycles
        assert outcomes[lane].result.exit_value == scalar.exit_value
