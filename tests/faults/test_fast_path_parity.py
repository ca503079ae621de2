"""Injected runs on the fast path equal injected runs on the refused path.

Every seeded injector declares what it touches (``watched``,
``boundary_hook``), so :mod:`repro.sim.admission` keeps the decoded
engine's address-keyed plan lookup for its runs, and one memo of
decoded plans serves every run of a campaign.  The tests here run the
same scenarios twice — admitted, and forced down the refused path by a
wrapper that forwards every hook but declares nothing — and compare
reports, ``fired`` lists, metrics and per-run plan-cache counters.
They pin the cases the fast path could get wrong: a flip that turns on
after its address's first visit, an illegal-encoding flip, a taken
sequencer flip, and a flip beside a memory fault whose pagefault
restarts the program (§2.1.5).  Two more pins cover the memo: a
serial campaign lowers each distinct executed word once, and a plan
serves whichever simulator runs it.
"""

import sys

import pytest

import repro.faults.campaign as campaign_module
from repro.asm import ControlStore
from repro.errors import ReproError
from repro.faults.campaign import default_trap_service, run_campaign
from repro.faults.injectors import (
    CompositeInjector,
    ControlStoreBitFlip,
    TransientMemoryFault,
    build_injector,
    compute_flip_effect,
)
from repro.faults.report import campaign_json
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.sim import Simulator
from repro.sim.decode import build_plan
from tests.pipeline.golden_programs import GOLDEN_SOURCES

from .capture_metrics_pins import COUNTDOWN, ROUNDTRIP, campaign_inputs

SEEDS = (3, 11)
SCENARIOS = 24

#: Initial registers per golden program (YALLL names its variables).
GOLDEN_REGISTERS = {
    "simpl": {"R1": 3, "R2": 5},
    "empl": {},
    "sstar": {"R1": 3, "R2": 5},
    "yalll": {"a": 3, "n": 5},
    "mpl": {"R1": 3, "R2": 5},
}


class Undeclared:
    """Forwards every hook to ``inner`` but declares nothing, so
    admission refuses the run every fast path: the reference."""

    def __init__(self, inner):
        self.inner = inner

    def check(self, machine):
        self.inner.check(machine)

    def attach(self, simulator):
        self.inner.attach(simulator)
        simulator.injector = self
        return self

    def on_instruction(self, simulator, loaded):
        return self.inner.on_instruction(simulator, loaded)

    def after_sequence(self, simulator, address, resident):
        return self.inner.after_sequence(simulator, address, resident)

    @property
    def fired(self):
        return self.inner.fired


def force_refused(monkeypatch):
    monkeypatch.setattr(
        campaign_module, "build_injector",
        lambda fault_spec: Undeclared(build_injector(fault_spec)),
    )


def spy_runs(monkeypatch):
    """Record each finished run's counters, and for every run whether
    it left plans on the address-keyed map."""
    runs, mapped = [], []
    run = Simulator.run

    def recording_run(self, name, *args, **kwargs):
        try:
            result = run(self, name, *args, **kwargs)
        finally:
            resident = self.store.find(name)
            mapped.append(bool(self._plan_cache.addr_plans(resident)))
        runs.append((result.cycles, result.instructions, result.traps,
                     result.plan_cache))
        return result

    monkeypatch.setattr(Simulator, "run", recording_run)
    return runs, mapped


def both_paths(monkeypatch, run):
    """``run()`` admitted, then refused: ``(report, runs, mapped)`` per
    side."""
    sides = []
    for refused in (False, True):
        with monkeypatch.context() as patch:
            if refused:
                force_refused(patch)
            runs, mapped = spy_runs(patch)
            sides.append((run(), runs, mapped))
    return sides


CAMPAIGNS = [(lang, seed) for lang in GOLDEN_SOURCES for seed in SEEDS]
CAMPAIGNS += [("m1", seed) for seed in SEEDS]


def seeded_campaign(program, seed, metrics):
    machine = get_machine("HM1")
    if program == "m1":
        inputs = campaign_inputs("m1_sum", machine)
        source, lang = inputs["source"], "yalll"
        registers, memory = inputs["registers"], inputs["memory"]
    else:
        source, lang = GOLDEN_SOURCES[program], program
        registers, memory = GOLDEN_REGISTERS[program], None
    result = run_campaign(
        source, lang, machine, n=SCENARIOS, seed=seed,
        registers=registers, memory=memory, collect_metrics=metrics,
    )
    return campaign_json([result])


@pytest.mark.parametrize("program,seed", CAMPAIGNS)
def test_seeded_scenarios_equal_on_both_paths(program, seed, monkeypatch):
    (fast, fast_runs, fast_maps), (slow, slow_runs, slow_maps) = both_paths(
        monkeypatch, lambda: seeded_campaign(program, seed, False)
    )
    assert fast == slow
    assert fast_runs == slow_runs
    # The golden run fills its map on both sides; only admitted
    # scenarios do.
    assert len(fast_maps) == len(slow_maps) == SCENARIOS + 1
    assert fast_maps[0] and slow_maps[0]
    assert any(fast_maps[1:]) and not any(slow_maps[1:])


@pytest.mark.parametrize("program,seed", CAMPAIGNS)
def test_metrics_equal_on_both_paths(program, seed, monkeypatch):
    (fast, _, _), (slow, _, _) = both_paths(
        monkeypatch, lambda: seeded_campaign(program, seed, True)
    )
    assert '"metrics"' in fast
    assert fast == slow


# ----------------------------------------------------------------------
# Edge cases, one simulator run each
# ----------------------------------------------------------------------
def compiled(source, name):
    machine = get_machine("HM1")
    return machine, compile_yalll(source, machine, name=name).loaded


def observe(machine, loaded, make_injector, *, refused, memory=None):
    """Run ``loaded`` under a fresh injector; what a campaign compares."""
    store = ControlStore(machine)
    store.load(loaded)
    simulator = Simulator(machine, store, engine="decoded",
                          trap_service=default_trap_service)
    for address, value in (memory or {}).items():
        simulator.state.memory.load_words(address, [value])
    injector = make_injector()
    (Undeclared(injector) if refused else injector).attach(simulator)
    try:
        result = simulator.run(loaded.name, max_cycles=100_000)
        outcome = ("ok", result.exit_value, result.cycles, result.traps,
                   result.plan_cache)
    except ReproError as error:
        outcome = ("error", str(error))
    mapped = set(simulator._plan_cache.addr_plans(store.find(loaded.name)))
    return {
        "outcome": outcome,
        "registers": dict(simulator.state.registers),
        "fired": injector.fired,
        "mapped": mapped,
    }


def on_both_paths(machine, loaded, make_injector, **kwargs):
    fast = observe(machine, loaded, make_injector, refused=False, **kwargs)
    slow = observe(machine, loaded, make_injector, refused=True, **kwargs)
    assert not slow["mapped"]
    assert fast["mapped"]
    for key in ("outcome", "registers", "fired"):
        assert fast[key] == slow[key], key
    return fast


def flip_bit(machine, loaded, address, kind):
    """The lowest bit whose flip at ``address`` has effect ``kind``."""
    for bit in range(machine.control.width):
        try:
            effect = compute_flip_effect(machine, loaded.words[address], bit)
        except ReproError:
            continue
        if effect.kind == kind:
            return bit
    raise AssertionError(f"no {kind} flip at {address}")


def test_flip_from_cycle_after_first_visit():
    machine, loaded = compiled(COUNTDOWN, "countdown")
    loop = loaded.labels["loop"]
    bit = flip_bit(machine, loaded, loop, "order")
    clean = observe(machine, loaded, TransientMemoryFault, refused=False)
    assert loop in clean["mapped"] and clean["fired"] == []
    # The loop head runs from cycle 2 on; the flip turns on mid-loop.
    fast = on_both_paths(
        machine, loaded, lambda: ControlStoreBitFlip(loop, bit, from_cycle=8)
    )
    assert loop not in fast["mapped"]
    (fired,) = fast["fired"]
    assert fired["name"] == "fault.bitflip" and fired["cycle"] >= 8
    assert fast["outcome"][1] != clean["outcome"][1]


def test_illegal_encoding_flip():
    machine, loaded = compiled(COUNTDOWN, "countdown")
    loop = loaded.labels["loop"]
    bit = flip_bit(machine, loaded, loop, "illegal")
    fast = on_both_paths(
        machine, loaded, lambda: ControlStoreBitFlip(loop, bit)
    )
    assert fast["outcome"][0] == "error"
    assert "illegal-encoding" in fast["outcome"][1]
    assert [f["effect"] for f in fast["fired"]] == ["illegal"]


def test_taken_sequencer_flip():
    machine, loaded = compiled(COUNTDOWN, "countdown")
    # The loop's closing branch is taken back to ``loop`` five times.
    branch = loaded.labels["loop"] + 1
    bit = flip_bit(machine, loaded, branch, "sequencer")
    clean = observe(machine, loaded, TransientMemoryFault, refused=False)
    fast = on_both_paths(
        machine, loaded, lambda: ControlStoreBitFlip(branch, bit)
    )
    assert [f["effect"] for f in fast["fired"]] == ["sequencer"]
    assert fast["outcome"] != clean["outcome"]


def test_flip_beside_restarting_memory_fault():
    """A pagefault restarts the program at its entry (§2.1.5); the
    watched entry word keeps its flip across the restart."""
    machine, loaded = compiled(ROUNDTRIP, "roundtrip")
    entry = loaded.entry
    bit = flip_bit(machine, loaded, entry, "immediate")

    def make():
        return CompositeInjector([
            ControlStoreBitFlip(entry, bit),
            TransientMemoryFault(op="read", nth=1),
        ])

    assert make().watched == {entry} and not make().boundary_hook
    fast = on_both_paths(machine, loaded, make, memory={100: 41})
    assert fast["outcome"][0] == "ok" and fast["outcome"][3] >= 1
    assert [f["name"] for f in fast["fired"]] == [
        "fault.bitflip", "fault.memread",
    ]
    assert entry not in fast["mapped"]


# ----------------------------------------------------------------------
# The plan memo
# ----------------------------------------------------------------------
def build_plan_keys(run):
    """``run()`` and the ``(base, address, word)`` of every
    ``build_plan`` call it made."""
    keys = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is build_plan.__code__:
            local = frame.f_locals
            keys.append((local["resident"].base, local["address"],
                         local["loaded"].word))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, keys


@pytest.mark.parametrize("program", ["m1", "yalll"])
def test_serial_campaign_lowers_each_word_once(program):
    report, keys = build_plan_keys(
        lambda: seeded_campaign(program, SEEDS[0], False)
    )
    assert '"outcomes"' in report
    assert keys
    assert len(keys) == len(set(keys))


def test_memo_plan_calls_the_running_simulators_handler():
    machine = get_machine("HM1")
    source = """
    put counter,30
loop:
    poll
    sub counter,counter,1
    jump loop if nonzero
    exit counter
"""
    loaded = compile_yalll(source, machine, name="irq").loaded
    memo = {}
    serviced = {"first": [], "second": []}

    def simulator(name):
        store = ControlStore(machine)
        store.load(loaded)
        return Simulator(
            machine, store, engine="decoded", interrupt_every=7,
            interrupt_handler=lambda state: serviced[name].append(state.cycles),
            plan_memo=memo,
        )

    first = simulator("first").run("irq")
    decoded = len(memo)
    calls = len(serviced["first"])
    second = simulator("second").run("irq")
    assert len(memo) == decoded  # the second run lowered nothing
    assert second.plan_cache["misses"] == first.plan_cache["misses"] > 0
    assert len(serviced["first"]) == calls == first.interrupts_serviced
    assert len(serviced["second"]) == second.interrupts_serviced > 0

