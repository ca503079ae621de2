"""Lockstep batched execution: parity and peel-off.

The golden rule mirrors the decoded engine's: for any homogeneous
sweep, ``run_cases`` must be observably identical to running each
case on a fresh scalar decoded simulator — result fields, plan-cache
counters, every register and flag, memory contents, and even the
error *text* a failing lane reports.  Divergence (a trap, a different
branch direction, a datapath fault, budget exhaustion) peels the lane
onto the scalar engine, so identity holds by construction; these
tests pin that down on HM1 and CM1.  Admission has its own table
test in ``test_admission.py``.
"""

import subprocess
import sys

import pytest

import repro.sim.batch as batch
from repro.asm import ControlStore
from repro.faults.campaign import default_trap_service
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.sim import BatchCase, Simulator, run_cases
from repro.sim.batch import HAVE_NUMPY, resolve_backend

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
        """Different loop trip counts force branch-direction peels."""
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


@needs_lockstep
class TestPlantHook:
    def test_lane_zero_corruption_is_visible_and_contained(self):
        """PLANT_LANE_XOR flips only the leader's committed values; a
        straight-line program keeps every lane live, so the follower
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
