"""Lockstep batched execution: parity, reconvergence and peel-off.

The golden rule mirrors the decoded engine's: for any homogeneous
sweep, ``run_cases`` must be observably identical to running each
case on a fresh scalar decoded simulator — result fields, plan-cache
counters, every register and flag, memory contents, and even the
error *text* a failing lane reports.  Lanes whose branches or
multiways disagree keep their own microprogram counters and
reconverge inside the batch; a trap, a datapath fault, a return-stack
overflow or underflow and budget exhaustion peel the lane onto the
scalar engine, so identity holds by construction there.  These tests
pin both down on HM1 and CM1.  Admission has its own table test in
``test_admission.py``.
"""

import functools
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch
from repro.asm import ControlStore
from repro.faults.campaign import default_trap_service
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.sim import BatchCase, Simulator, run_cases
from repro.sim.batch import HAVE_NUMPY, _vector, resolve_backend

MUL_SRC = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

#: stor into unmapped pages pagefaults on every lane eventually.
MEM_SRC = """
    put base,0x40
loop:
    add addr,base,counter
    stor counter,addr
    load back,addr
    sub counter,counter,1
    jump loop if nonzero
    exit back
"""

MULTIWAY_SRC = """
    mjump x (0000 -> zero, 00x1 -> oddish, default -> other)
zero:  put r,1
       exit r
oddish: put r,2
       exit r
other: put r,3
       exit r
"""

WEDGE_SRC = """
    put a,1
loop:
    add a,a,1
    jump loop
"""

STRAIGHT_SRC = """
    put a,2
    add a,a,3
    exit a
"""

#: Recursion ``n`` calls deep, so lanes nest to different depths: past
#: the 16-entry return stack a lane overflows, and unless ``r`` ends at
#: 5 the extra ``ret`` underflows it.
CALL_SRC = """
    put r,0
    call down
    jump out if r = 5
    ret
out:
    exit r
proc down:
    jump back if n = 0
    sub n,n,1
    add r,r,1
    call down
back:
    ret
"""

#: Lanes split on ``x``: one path stores ``v`` and exits with ``a``,
#: the other loads what is there and exits with it, so a store or an
#: exit value that leaks to lanes outside its group shows.
SPLIT_SRC = """
    jump other if x = 0
    stor v,addr
    exit a
other:
    load b,addr
    exit b
"""

#: Two paths of different lengths that meet again at ``join``.
MERGE_SRC = """
    jump b if x = 0
    add a,a,1
    add a,a,2
    add a,a,3
    jump join
b:
    sub a,a,1
join:
    add a,a,a
    exit a
"""

#: Stores at the last word of memory, over an image that sets word 0.
EDGE_SRC = """
    put addr,0xFFFF
    put v,7
    stor v,addr
    exit v
"""

#: For tests that only mean something while lanes run in lockstep.
needs_lockstep = pytest.mark.skipif(
    not HAVE_NUMPY, reason="numpy missing: admission refuses lockstep"
)


def compiled(source, machine, name="prog"):
    return compile_yalll(source, machine, name=name)


def scalar_reference(machine, loaded, case, *, paging=False,
                     trap_service=None, max_cycles=200_000):
    """One case on a fresh scalar decoded simulator — the oracle."""
    store = ControlStore(machine)
    store.load(loaded)
    simulator = Simulator(machine, store, engine="decoded",
                          trap_service=trap_service)
    simulator.state.memory.paging_enabled = paging
    for name, value in case.registers.items():
        simulator.state.write_reg(name, value)
    for address, value in case.memory.items():
        simulator.state.memory.load_words(address, [value])
    result = error = None
    try:
        result = simulator.run(loaded.name, max_cycles=max_cycles)
    except Exception as exc:
        error = exc
    return result, error, simulator


def assert_lane_matches(outcome, reference, *, mem_region=None):
    result, error, simulator = reference
    if error is not None:
        assert outcome.result is None
        assert outcome.error is not None
        assert type(outcome.error) is type(error)
        assert str(outcome.error) == str(error)
    else:
        assert outcome.error is None
        got = outcome.result
        assert got.cycles == result.cycles
        assert got.instructions == result.instructions
        assert got.traps == result.traps
        assert got.interrupts_serviced == result.interrupts_serviced
        assert got.interrupt_wait_cycles == result.interrupt_wait_cycles
        assert got.exit_value == result.exit_value
        assert got.plan_cache == result.plan_cache
    assert outcome.registers == dict(simulator.state.registers)
    assert outcome.flags == dict(simulator.state.flags)
    if mem_region is not None:
        base, count = mem_region
        assert (outcome.memory.dump_words(base, count)
                == simulator.state.memory.dump_words(base, count))


def sweep(machine, loaded, cases, *, batches=(1, 4, 64), paging=False,
          trap_service=None, max_cycles=200_000, mem_region=None):
    """Every batch size against the scalar oracle."""
    references = [
        scalar_reference(machine, loaded, case, paging=paging,
                         trap_service=trap_service, max_cycles=max_cycles)
        for case in cases
    ]
    for size in batches:
        outcomes = run_cases(
            machine, loaded, cases, batch=size, paging=paging,
            trap_service=trap_service, max_cycles=max_cycles,
        )
        assert len(outcomes) == len(cases)
        for outcome, reference in zip(outcomes, references):
            assert_lane_matches(outcome, reference, mem_region=mem_region)
    return references


class TestBackends:
    def test_resolve_backend_auto_prefers_numpy(self):
        expected = "numpy" if HAVE_NUMPY else "scalar"
        assert resolve_backend("auto") == expected

    def test_unknown_backend_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            resolve_backend("python")

    def test_import_without_numpy_is_clean(self, tmp_path):
        """The module import survives an unimportable numpy, and
        admission then refuses lockstep with reason ``numpy``."""
        (tmp_path / "numpy.py").write_text("raise ImportError('absent')\n")
        src = str(batch.__file__).rsplit("/repro/", 1)[0]
        probe = subprocess.run(
            [sys.executable, "-c",
             "import repro.sim.batch as b;"
             "from repro.sim.admission import LOCKSTEP, fast_path_refusal;"
             "print(b.HAVE_NUMPY, b.resolve_backend(),"
             " fast_path_refusal(LOCKSTEP, lanes=4))"],
            capture_output=True, text=True,
            env={"PYTHONPATH": f"{tmp_path}:{src}"},
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.split() == ["False", "scalar", "numpy"]


class TestLockstepParity:
    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_heterogeneous_branch_counts(self, machine_name):
        """Different loop trip counts split the lanes at the loop test."""
        machine = get_machine(machine_name)
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 3, mapping["n"]: n})
            for n in (0, 1, 5, 5, 12, 2, 7, 5)
        ]
        sweep(machine, result.loaded, cases)

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_identical_lanes_stay_batched(self, machine_name):
        machine = get_machine(machine_name)
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 5, mapping["n"]: 7})
            for _ in range(8)
        ]
        references = sweep(machine, result.loaded, cases)
        assert references[0][0].exit_value == 35
        # Nothing diverges, so the whole batch finishes in lockstep.
        outcomes = run_cases(machine, result.loaded, cases, batch=8)
        assert all(not o.peeled for o in outcomes)

    @needs_lockstep
    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_trap_divergence_peels(self, machine_name):
        """Pagefaulting lanes peel to the scalar engine + trap service."""
        machine = get_machine(machine_name)
        result = compiled(MEM_SRC, machine, name="mem")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["counter"]: counter})
            for counter in (8, 3, 8, 1)
        ]
        references = sweep(
            machine, result.loaded, cases, paging=True,
            trap_service=default_trap_service,
            mem_region=(0x40, 16),
        )
        assert references[0][0].traps > 0
        outcomes = run_cases(
            machine, result.loaded, cases, batch=4, paging=True,
            trap_service=default_trap_service,
        )
        assert all(o.peeled for o in outcomes)

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_fault_divergence_unserviced_trap(self, machine_name):
        """No trap service: lanes peel and the scalar replay's error
        text is reported verbatim per lane."""
        machine = get_machine(machine_name)
        result = compiled(MEM_SRC, machine, name="mem")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["counter"]: counter})
            for counter in (4, 2)
        ]
        references = sweep(machine, result.loaded, cases, paging=True)
        assert all(error is not None for _, error, _ in references)

    def test_multiway_divergence_peels(self):
        """Lanes take different multiway arms (they split, not peel)."""
        machine = get_machine("HM1")
        result = compiled(MULTIWAY_SRC, machine, name="disp")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["x"]: x})
            for x in (0, 1, 2, 3, 8, 0)
        ]
        references = sweep(machine, result.loaded, cases)
        assert {r.exit_value for r, _, _ in references} == {1, 2, 3}

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_budget_exhaustion_matches_scalar_error(self, machine_name):
        machine = get_machine(machine_name)
        result = compiled(WEDGE_SRC, machine, name="wedge")
        cases = [BatchCase() for _ in range(3)]
        references = sweep(machine, result.loaded, cases,
                           max_cycles=500)
        from repro.errors import SimulationLimitError

        assert all(isinstance(error, SimulationLimitError)
                   for _, error, _ in references)

    def test_ragged_tail_chunking(self):
        """A case count that does not divide the batch size still
        merges back in case order."""
        machine = get_machine("HM1")
        result = compiled(MUL_SRC, machine, name="mul")
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 2, mapping["n"]: n})
            for n in range(7)
        ]
        outcomes = run_cases(machine, result.loaded, cases, batch=3)
        assert [o.result.exit_value for o in outcomes] == [
            2 * n for n in range(7)
        ]


#: Programs whose lanes take data-dependent paths, with the registers
#: each lane draws and the top of their ranges.
RECONVERGING = {
    "mul": (MUL_SRC, {"a": 0xFFFF, "n": 40}),
    "multiway": (MULTIWAY_SRC, {"x": 0xF}),
    "calls": (CALL_SRC, {"n": 20}),
    "split": (SPLIT_SRC, {"x": 1, "v": 0xFFFF, "addr": 15, "a": 0xFFFF}),
    "wedge": (WEDGE_SRC, {"a": 0xFFFF}),
}


def lane_trace(machine, loaded, case):
    """The control-store addresses one case's scalar run executes."""
    store = ControlStore(machine)
    store.load(loaded)
    simulator = Simulator(machine, store, engine="decoded", trace=[])
    for name, value in case.registers.items():
        simulator.state.write_reg(name, value)
    simulator.run(loaded.name)
    return [int(line.split()[1]) for line in simulator.trace]


def majority_schedule(traces):
    """``(address, lanes)`` per step when every step runs the address
    most unfinished lanes are at, lowest on a tie."""
    at = [0] * len(traces)
    steps = []
    while True:
        holding: dict[int, list[int]] = {}
        for lane, trace in enumerate(traces):
            if at[lane] < len(trace):
                holding.setdefault(trace[at[lane]], []).append(lane)
        if not holding:
            return steps
        pc = min(holding, key=lambda address: (-len(holding[address]),
                                               address))
        steps.append((pc, holding[pc]))
        for lane in holding[pc]:
            at[lane] += 1


@functools.cache
def reconverging(program, machine_name):
    machine = get_machine(machine_name)
    return machine, compiled(RECONVERGING[program][0], machine, name=program)


class TestReconvergence:
    @needs_lockstep
    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    def test_divergent_lanes_reconverge_without_peeling(
        self, machine_name, monkeypatch
    ):
        """Lanes with different trip counts split at the loop test and
        still run the loop body together: nobody peels, and the batch
        takes about as many steps as its longest lane."""
        machine, result = reconverging("mul", machine_name)
        mapping = result.allocation.mapping
        cases = [
            BatchCase(registers={mapping["a"]: 3, mapping["n"]: n})
            for n in (0, 1, 5, 5, 12, 2, 7, 5)
        ]
        steps = []
        schedule = batch.BatchedState.schedule
        monkeypatch.setattr(
            batch.BatchedState, "schedule",
            lambda b: steps.append(schedule(b)) or steps[-1],
        )
        outcomes = run_cases(machine, result.loaded, cases, batch=8)
        assert [o.result.exit_value for o in outcomes] == [
            3 * n for n in (0, 1, 5, 5, 12, 2, 7, 5)
        ]
        assert not any(o.peeled for o in outcomes)
        instructions = [o.result.instructions for o in outcomes]
        assert sum(steps) <= max(instructions) + len(cases)
        assert sum(steps) < sum(instructions) / 3

    @needs_lockstep
    @pytest.mark.parametrize("source, name, values", [
        (MERGE_SRC, "x", (0, 1, 1, 0, 1, 0)),
        (MUL_SRC, "n", (0, 1, 5, 5, 12, 2, 7, 5)),
        (MULTIWAY_SRC, "x", (0, 1, 2, 3, 8, 0, 5, 5)),
    ], ids=["merge", "mul", "multiway"])
    def test_steps_follow_the_majority_schedule(
        self, source, name, values, monkeypatch
    ):
        """Step by step, the batch runs the address an offline replay
        of the lanes' own scalar traces picks: the one most lanes hold,
        lowest on a tie, with exactly those lanes."""
        machine = get_machine("HM1")
        result = compiled(source, machine)
        cases = [BatchCase(registers={result.allocation.mapping[name]: v})
                 for v in values]
        ran = []
        retire = batch.BatchedState.retire
        monkeypatch.setattr(
            batch.BatchedState, "retire",
            lambda b, pc, cycles: (ran.append((pc, b.group.tolist())),
                                   retire(b, pc, cycles)),
        )
        run_cases(machine, result.loaded, cases, batch=len(cases))
        traces = [lane_trace(machine, result.loaded, case) for case in cases]
        assert ran == majority_schedule(traces)

    @pytest.mark.parametrize("machine_name", ("HM1", "CM1"))
    @pytest.mark.parametrize("program", sorted(RECONVERGING))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_every_lane_equals_its_scalar_run(
        self, program, machine_name, data
    ):
        """Random per-lane registers and batch sizes, with the budget
        sometimes cut mid-run: every lane equals its own scalar decoded
        run, and only lanes whose scalar run fails leave the batch."""
        machine, result = reconverging(program, machine_name)
        mapping = result.allocation.mapping
        lanes = data.draw(st.integers(2, 16), label="lanes")
        cases = [
            BatchCase(registers={
                mapping[name]: data.draw(st.integers(0, top), label=name)
                for name, top in RECONVERGING[program][1].items()
            })
            for _ in range(lanes)
        ]
        budgets = (st.integers(1, 2_000) if program == "wedge"
                   else st.one_of(st.just(200_000), st.integers(1, 300)))
        max_cycles = data.draw(budgets, label="max_cycles")
        outcomes = run_cases(machine, result.loaded, cases, batch=lanes,
                             max_cycles=max_cycles)
        for case, outcome in zip(cases, outcomes):
            reference = scalar_reference(machine, result.loaded, case,
                                         max_cycles=max_cycles)
            assert_lane_matches(outcome, reference, mem_region=(0, 16))
            if HAVE_NUMPY:
                assert outcome.peeled == (reference[1] is not None)

    @needs_lockstep
    def test_a_group_step_acts_for_its_lanes_only(self):
        """Waiting lanes hold real values: an address or shift count
        computed from them may be out of range, and must neither peel
        them nor reach their memory."""
        b = batch.BatchedState(get_machine("HM1"), 4)
        b.upcs[:] = _vector([9, 5, 9, 5])
        assert b.schedule()
        assert (b.pc, b.group.tolist(), b.masked) == (5, [1, 3], True)
        addrs = _vector([-1, 10, 1 << 20, 11])
        b.memory.write(addrs, _vector([6, 7, 8, 9]))
        assert b.memory.read(addrs)[[1, 3]].tolist() == [7, 9]
        assert b.memory.words[:, [0, 10, 11]].tolist() == [
            [0, 0, 0], [0, 7, 0], [0, 0, 0], [0, 0, 9],
        ]
        shifted = batch._LaneSteps(b).evaluate(
            "sar", [_vector([8] * 4), _vector([-1, 1, -2, 2])], 16
        )
        assert shifted.value.tolist()[1::2] == [4, 2]
        assert b.peeled == {}
        b.memory.read(_vector([-1, -1, 0, 0]))
        assert b.peeled == {1: "memory-range"}


def assert_same_outcome(left, right, *, mem_region):
    assert type(left.error) is type(right.error)
    assert str(left.error) == str(right.error)
    assert left.result == right.result
    assert left.registers == right.registers
    assert left.flags == right.flags
    assert (left.memory.dump_words(*mem_region)
            == right.memory.dump_words(*mem_region))


class TestLaneMemory:
    def test_dumps_cross_both_ends_of_memory(self):
        """A batched lane's memory reads like a scalar one past either
        end: exactly ``count`` words, zero outside memory."""
        machine = get_machine("HM1")
        result = compiled(EDGE_SRC, machine, name="edge")
        cases = [BatchCase(memory={0: 9}) for _ in range(4)]
        batched = run_cases(machine, result.loaded, cases, batch=4)
        serial = run_cases(machine, result.loaded, cases, batch=1)
        windows = {
            (65532, 8): [0, 0, 0, 7, 0, 0, 0, 0],
            (-2, 4): [0, 0, 9, 0],
            (-8, 2): [0, 0],
            (65535, 0): [],
        }
        for fast, slow in zip(batched, serial):
            assert fast.peeled is False
            for (base, count), words in windows.items():
                assert fast.memory.dump_words(base, count) == words
                assert slow.memory.dump_words(base, count) == words

    def test_out_of_range_image_peels_only_its_lane(self):
        machine = get_machine("HM1")
        result = compiled(STRAIGHT_SRC, machine, name="straight")
        cases = [
            BatchCase(memory={3: 1, 7: 2}),
            BatchCase(memory={4: 4, 65536: 1}),
            BatchCase(memory={-1: 2}),
            BatchCase(),
            BatchCase(memory={5: 1 << 70, 1 << 70: 5}),
        ]
        batched = run_cases(machine, result.loaded, cases, batch=5)
        serial = run_cases(machine, result.loaded, cases, batch=1)
        for fast, slow in zip(batched, serial):
            assert_same_outcome(fast, slow, mem_region=(0, 8))
        assert [str(o.error) for o in batched[1:3]] == [
            "load_words out of range"
        ] * 2
        if HAVE_NUMPY:
            assert [o.peeled for o in batched] == [
                False, True, True, False, True
            ]
            assert batched[0].memory.dump_words(0, 8) == [
                0, 0, 0, 1, 0, 0, 0, 2
            ]


@needs_lockstep
class TestPlantHook:
    def test_lane_zero_corruption_is_visible_and_contained(self):
        """PLANT_LANE_XOR flips only lane 0's committed values; a
        straight-line program keeps every lane batched, so the other
        lanes must still be byte-correct."""
        machine = get_machine("HM1")
        result = compiled(STRAIGHT_SRC, machine, name="straight")
        cases = [BatchCase() for _ in range(4)]
        batch.PLANT_LANE_XOR = 1
        try:
            outcomes = run_cases(machine, result.loaded, cases, batch=4)
        finally:
            batch.PLANT_LANE_XOR = 0
        assert outcomes[0].result.exit_value != 5
        assert [o.result.exit_value for o in outcomes[1:]] == [5, 5, 5]
        # Peeled lanes replay on the scalar engine, out of the plant's
        # reach — which is exactly why the difftest self-check must
        # catch the corruption while lanes are still batched.
        clean = run_cases(machine, result.loaded, cases, batch=4)
        assert [o.result.exit_value for o in clean] == [5, 5, 5, 5]
