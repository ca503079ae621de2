"""Parallel campaign fan-out and decoded-engine fault interplay.

Two guarantees under test:

1. ``jobs > 1`` is a pure throughput knob — the campaign report
   (text and JSON) is byte-identical to the serial run, because
   scenario indices are fixed before sharding and outcomes are merged
   back into index order.
2. The decoded engine never executes a stale plan: a control-store
   bit flip activating mid-run (after the word's plan is already
   cached) is observed on the very next fetch, and every scenario
   classifies identically to the interpretive engine.
"""

import pytest

from repro.asm import ControlStore
from repro.faults.campaign import run_campaign, run_campaign_loaded
from repro.faults.injectors import ControlStoreBitFlip
from repro.faults.plan import FaultPlan
from repro.faults.report import campaign_json, render_campaign
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.sim import Simulator

LOOP_SRC = """
    put total,0
    put counter,6
loop:
    add total,total,counter
    sub counter,counter,1
    jump loop if nonzero
    exit total
"""


def campaign_bytes(jobs):
    machine = get_machine("HM1")
    result = run_campaign(
        LOOP_SRC, "yalll", machine, n=24, seed=1980, jobs=jobs
    )
    return (
        render_campaign(result, scenarios=True),
        campaign_json([result]),
    )


class TestParallelFanout:
    def test_jobs_byte_identical_to_serial(self):
        text_1, json_1 = campaign_bytes(jobs=1)
        text_4, json_4 = campaign_bytes(jobs=4)
        assert text_4 == text_1
        assert json_4 == json_1

    def test_jobs_clamped_to_scenario_count(self):
        machine = get_machine("HM1")
        serial = run_campaign(LOOP_SRC, "yalll", machine, n=2, seed=3, jobs=1)
        wide = run_campaign(LOOP_SRC, "yalll", machine, n=2, seed=3, jobs=16)
        assert campaign_json([wide]) == campaign_json([serial])

    def test_spawned_workers_byte_identical_to_serial(
        self, monkeypatch, fresh_shard_pool
    ):
        """Spawned workers inherit nothing: the handler and the pickled
        campaign context (the program image without its plans) must be
        enough for the same report."""
        import multiprocessing

        from repro.faults import campaign as campaign_module

        spawn = multiprocessing.get_context("spawn")
        serial = campaign_bytes(jobs=1)
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: spawn)
        assert campaign_bytes(jobs=2) == serial
        workers = campaign_module._shard_pool(2)._workers
        assert len(workers) == 2
        assert all(isinstance(w.process, spawn.Process) for w in workers)

    def test_outcomes_in_index_order(self):
        machine = get_machine("HM1")
        result = run_campaign(
            LOOP_SRC, "yalll", machine, n=12, seed=5, jobs=3
        )
        assert [o.index for o in result.outcomes] == list(range(12))


class TestMidRunBitflip:
    """The fault-plan/decoded-engine invalidation satellite."""

    def _compiled(self):
        machine = get_machine("HM1")
        result = compile_yalll(LOOP_SRC, machine, name="mul")
        return machine, result.loaded

    def _golden_cycles(self, machine, loaded):
        store = ControlStore(machine)
        store.load(loaded)
        simulator = Simulator(machine, store, engine="interpretive")
        return simulator.run("mul").cycles

    def midrun_plan(self, machine, loaded):
        """Every (address, bit 0) flip, activating halfway through the
        golden run — after the decoded engine has cached each word's
        plan at least once."""
        cycles = self._golden_cycles(machine, loaded)
        midpoint = cycles // 2
        specs = [
            f"bitflip:addr={address},bit={bit},cycle={midpoint}"
            for address in range(len(loaded))
            for bit in (0, machine.control.width - 1)
        ]
        return FaultPlan.from_specs(1980, specs)

    def test_decoded_classifies_identically_to_interpretive(self):
        machine, loaded = self._compiled()
        plan = self.midrun_plan(machine, loaded)
        outcomes = {}
        for engine in ("interpretive", "decoded"):
            result = run_campaign_loaded(
                loaded, machine, plan=plan, engine=engine
            )
            outcomes[engine] = result.outcomes
        interp, dec = outcomes["interpretive"], outcomes["decoded"]
        assert len(dec) == len(interp)
        for a, b in zip(interp, dec):
            assert b.spec == a.spec
            assert b.classification == a.classification
            assert b.exit_value == a.exit_value
            assert b.cycles == a.cycles
            assert b.macro_registers == a.macro_registers
            assert b.fired == a.fired
        # The sweep must actually have perturbed behaviour somewhere,
        # or the parity assertion proves nothing.
        assert any(o.classification != "masked" for o in dec)

    def test_decoded_observes_flip_not_stale_plan(self):
        """Direct check: the plan cached before ``from_cycle`` must not
        be replayed once the injector starts mutating the word."""
        machine, loaded = self._compiled()
        cycles = self._golden_cycles(machine, loaded)
        baseline_exit = None
        flipped = []
        for address in range(len(loaded)):
            for bit in range(machine.control.width):
                store = ControlStore(machine)
                store.load(loaded)
                simulator = Simulator(machine, store, engine="decoded")
                injector = ControlStoreBitFlip(
                    address, bit, from_cycle=cycles // 2
                ).attach(simulator)
                try:
                    result = simulator.run("mul", max_cycles=cycles * 10)
                except Exception:
                    flipped.append((address, bit, "error"))
                    continue
                if baseline_exit is None:
                    baseline_exit = 21  # 6+5+4+3+2+1
                if injector.fired and result.exit_value != baseline_exit:
                    flipped.append((address, bit, result.exit_value))
        # A stale-plan engine would mask every flip (the pre-flip plan
        # keeps executing); observing changed behaviour proves the
        # word-keyed cache rejected the mutated words.
        assert flipped, "no mid-run flip changed behaviour"

    def test_immediate_flip_matches_interpretive_state(self):
        machine, loaded = self._compiled()
        for bit in range(0, machine.control.width, 3):
            finals = {}
            for engine in ("interpretive", "decoded"):
                store = ControlStore(machine)
                store.load(loaded)
                simulator = Simulator(machine, store, engine=engine)
                ControlStoreBitFlip(2, bit, from_cycle=0).attach(simulator)
                try:
                    result = simulator.run("mul", max_cycles=5_000)
                    finals[engine] = (
                        "ok", result.exit_value, result.cycles,
                        dict(simulator.state.registers),
                        dict(simulator.state.flags),
                    )
                except Exception as error:
                    finals[engine] = ("error", type(error).__name__)
            assert finals["decoded"] == finals["interpretive"], f"bit {bit}"
