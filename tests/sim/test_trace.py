"""Trace-JIT behaviour: parity, guards, invalidation.

The golden rule extends the decoded engine's: for any program the
toolkit can assemble, a traced run must be observably identical to
the decoded (and interpretive) run — final state, cycle counts, trap
counts, recorded profile, even the exact limit error when a run
overruns its cycle budget mid-loop.  On top of parity, these tests
pin the JIT's own machinery: heat detection and profile seeding,
guard side exits (branch, multiway), blacklist of over-long paths,
``PlanCache``-style invalidation on store swap, and the per-MI
fallbacks (injector, trace sink, ``interrupt_every``) that must keep
the JIT disengaged.
"""

import pytest

from repro.asm import ControlStore
from repro.errors import SimulationLimitError
from repro.faults.campaign import default_trap_service
from repro.faults.injectors import ControlStoreBitFlip
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.obs.timeline import TraceRecorder
from repro.sim import Simulator

#: Hot countdown loop: 40 trips clears the default threshold (8).
COUNTDOWN = """
    put total,0
    put n,40
loop:
    add total,total,n
    sub n,n,1
    jump loop if nonzero
    exit total
"""

#: Read-modify-write sweep (memory ops + write-allocate touches).
MEMSWEEP = """
    put addr,0x40
    put n,24
loop:
    jump out if n = 0
    load w,addr
    add w,w,n
    stor w,addr
    add addr,addr,1
    sub n,n,1
    jump loop
out:
    exit w
"""

#: Procedure called from inside the hot loop (call/ret in the trace).
CALLLOOP = """
    put acc,0
    put n,30
loop:
    call bump
    sub n,n,1
    jump loop if nonzero
    exit acc
proc bump:
    add acc,acc,2
    ret
"""

#: Multiway dispatch as the loop's exit test: x stays 0 until the
#: counter drains, then flips and the mjump leaves the loop — the
#: trace's multiway guard takes the side exit.
MJUMPLOOP = """
    put n,30
    put x,0
loop:
    mjump x (0000 -> body, default -> out)
body:
    sub n,n,1
    jump cont if nonzero
    put x,1
cont:
    jump loop
out:
    exit n
"""


def compiled(source, name="prog", machine_name="HM1"):
    machine = get_machine(machine_name)
    result = compile_yalll(source, machine, name=name)
    return machine, result.loaded


def run_engine(engine, machine, loaded, *, paging=False,
               max_cycles=200_000, with_recorder=False, **kwargs):
    store = ControlStore(machine)
    store.load(loaded)
    recorder = TraceRecorder() if with_recorder else None
    simulator = Simulator(
        machine, store, engine=engine, recorder=recorder,
        trap_service=default_trap_service if paging else None,
        **kwargs,
    )
    simulator.state.memory.paging_enabled = paging
    result = simulator.run(loaded.name, max_cycles=max_cycles)
    return result, simulator


def assert_parity(machine, loaded, **kwargs):
    """Run all three engines; assert every observable matches."""
    runs = {
        engine: run_engine(engine, machine, loaded, **kwargs)
        for engine in ("interpretive", "decoded", "traced")
    }
    res_t, sim_t = runs["traced"]
    for reference in ("interpretive", "decoded"):
        res_r, sim_r = runs[reference]
        assert res_t.instructions == res_r.instructions, reference
        assert res_t.cycles == res_r.cycles, reference
        assert res_t.traps == res_r.traps, reference
        assert res_t.interrupts_serviced == res_r.interrupts_serviced
        assert res_t.exit_value == res_r.exit_value, reference
        assert sim_t.state.registers == sim_r.state.registers, reference
        assert sim_t.state.flags == sim_r.state.flags, reference
        assert sim_t.state.memory._words == sim_r.state.memory._words
        assert sim_t.state.memory.reads == sim_r.state.memory.reads
        assert sim_t.state.memory.writes == sim_r.state.memory.writes
    return res_t, sim_t


class TestTracedParity:
    @pytest.mark.parametrize("machine_name", ("HM1", "CM1", "VAXm"))
    def test_countdown_loop(self, machine_name):
        machine, loaded = compiled(COUNTDOWN, machine_name=machine_name)
        res, sim = assert_parity(machine, loaded)
        assert res.exit_value == sum(range(41))
        # The parity must not be vacuous: a trace compiled and ran.
        assert res.trace_cache["misses"] >= 1
        assert res.trace_cache["hits"] >= 1

    def test_memory_sweep_with_paging_traps(self):
        machine, loaded = compiled(MEMSWEEP)
        res, _ = assert_parity(machine, loaded, paging=True)
        assert res.traps > 0, "pagefaults never exercised the trap guard"
        assert res.trace_cache["hits"] >= 1

    def test_call_ret_in_trace(self):
        machine, loaded = compiled(CALLLOOP)
        res, _ = assert_parity(machine, loaded)
        assert res.exit_value == 60
        assert res.trace_cache["hits"] >= 1

    def test_multiway_guard_side_exit(self):
        machine, loaded = compiled(MJUMPLOOP)
        res, _ = assert_parity(machine, loaded)
        assert res.exit_value == 0
        assert res.trace_cache["hits"] >= 1

    def test_recorded_profiles_byte_identical(self):
        """Replayed recorder streams must reproduce the decoded
        profile bit for bit — the property the difftest traced axis
        (and every profile consumer) stands on."""
        machine, loaded = compiled(MEMSWEEP)
        profiles = {}
        for engine in ("decoded", "traced"):
            _, simulator = run_engine(
                engine, machine, loaded, paging=True, with_recorder=True,
            )
            profiles[engine] = simulator.recorder.profile.to_json()
        assert profiles["traced"] == profiles["decoded"]

    def test_budget_limit_error_exact(self):
        """A cycle ceiling landing mid-loop must surface the identical
        limit error and architectural state: the budget guard refuses
        the iteration and the decoded loop replays the tail."""
        machine, loaded = compiled(COUNTDOWN)
        full_cycles = run_engine("decoded", machine, loaded)[0].cycles
        checked = 0
        for limit in range(2, full_cycles, 7):
            outcomes = {}
            for engine in ("decoded", "traced"):
                store = ControlStore(machine)
                store.load(loaded)
                simulator = Simulator(machine, store, engine=engine)
                try:
                    simulator.run(loaded.name, max_cycles=limit)
                    outcomes[engine] = ("done",)
                except SimulationLimitError as error:
                    checked += 1
                    outcomes[engine] = (
                        "limit", str(error),
                        simulator.state.cycles, simulator.state.upc,
                        dict(simulator.state.registers),
                        dict(simulator.state.flags),
                    )
            assert outcomes["traced"] == outcomes["decoded"], limit
        assert checked, "no ceiling ever landed mid-run"


class TestDetectionAndGuards:
    def test_cold_loop_never_compiles(self):
        machine, loaded = compiled(COUNTDOWN)
        _, simulator = run_engine(
            "traced", machine, loaded, trace_hot_threshold=10_000,
        )
        assert simulator._trace_jit.stats.misses == 0

    def test_seed_from_profile_arms_recording(self):
        """Profile-guided path: a saved profile's loop heads compile
        on their first back edge even under a cold threshold."""
        machine, loaded = compiled(COUNTDOWN)
        _, decoded_sim = run_engine(
            "decoded", machine, loaded, with_recorder=True,
        )
        profile = decoded_sim.recorder.profile

        store = ControlStore(machine)
        store.load(loaded)
        simulator = Simulator(
            machine, store, engine="traced", trace_hot_threshold=10_000,
        )
        first = simulator.run(loaded.name)
        jit = simulator._trace_jit
        assert jit.stats.misses == 0
        seeded = jit.seed_from_profile(profile)
        assert seeded, "hot-path analysis found no loop to seed"
        second = simulator.run(loaded.name)
        assert jit.stats.misses >= 1
        assert second.exit_value == first.exit_value

    def test_overlong_path_blacklisted(self):
        body = "\n".join("    add acc,acc,1" for _ in range(70))
        source = (
            "    put acc,0\n    put n,30\nloop:\n"
            f"{body}\n"
            "    sub n,n,1\n    jump loop if nonzero\n    exit acc\n"
        )
        machine, loaded = compiled(source)
        res, simulator = run_engine("traced", machine, loaded)
        jit = simulator._trace_jit
        assert res.exit_value == 30 * 70
        assert jit.blacklist, "70-MI body was not blacklisted"
        assert not jit.traces
        assert jit.aborts >= 1

    def test_store_swap_invalidates(self):
        machine, loaded = compiled(COUNTDOWN)
        store = ControlStore(machine)
        store.load(loaded)
        simulator = Simulator(machine, store, engine="traced")
        first = simulator.run(loaded.name)
        assert first.trace_cache["misses"] >= 1
        replacement = ControlStore(machine)
        replacement.load(loaded)
        simulator.store = replacement
        second = simulator.run(loaded.name)
        assert second.trace_cache["invalidations"] == 1
        assert second.exit_value == first.exit_value
        assert second.cycles == first.cycles


class TestFallbacks:
    """Per-MI hooks must keep the JIT disengaged, decoded semantics
    intact, and the run-level counters all zero."""

    ZEROS = {"hits": 0, "misses": 0, "invalidations": 0, "bailouts": 0}

    def test_injector_disengages_jit(self):
        machine, loaded = compiled(COUNTDOWN)
        store = ControlStore(machine)
        store.load(loaded)
        simulator = Simulator(machine, store, engine="traced")
        ControlStoreBitFlip(2, 0, from_cycle=10**9).attach(simulator)
        result = simulator.run(loaded.name)
        assert result.trace_cache == self.ZEROS
        assert result.exit_value == sum(range(41))

    def test_interrupt_every_disengages_jit(self):
        machine, loaded = compiled(COUNTDOWN)
        reference, _ = run_engine(
            "decoded", machine, loaded, interrupt_every=37,
        )
        result, _ = run_engine(
            "traced", machine, loaded, interrupt_every=37,
        )
        assert result.trace_cache == self.ZEROS
        assert result.cycles == reference.cycles
        assert result.interrupts_serviced == reference.interrupts_serviced

    def test_trace_sink_disengages_jit(self):
        machine, loaded = compiled(COUNTDOWN)
        store = ControlStore(machine)
        store.load(loaded)
        fetches: list[str] = []
        simulator = Simulator(
            machine, store, engine="traced", trace=fetches,
        )
        result = simulator.run(loaded.name)
        assert result.trace_cache == self.ZEROS
        assert len(fetches) == result.instructions
