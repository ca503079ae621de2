"""Decoded-engine parity and plan-cache behaviour.

The golden rule: for any program the toolkit can assemble, a decoded
run must be observably identical to the interpretive run —
instruction for instruction (the fetch trace), cycle for cycle, and
in every piece of final state.  These tests sweep the cross-language
example programs over HM1, CM1 and VAXm and exercise every stateful
corner (traps, interrupts, scratchpad, multiway dispatch, banked
windows) on both engines.  The plans and traces a program image
keeps for every simulator that runs it are checked for soundness,
sharing and plant isolation at the end.
"""

import builtins
import sys

import pytest

import repro.sim.trace as trace_module
from repro.asm import ControlStore
from repro.errors import SimulationError, SimulationLimitError
from repro.faults.injectors import ControlStoreBitFlip
from repro.lang.empl import compile_empl
from repro.lang.mpl import compile_mpl
from repro.lang.simpl import compile_simpl
from repro.lang.sstar import compile_sstar
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.obs.timeline import TraceRecorder
from repro.sim import Simulator
from repro.sim.decode import PlanCache, build_plan, decode_word
from repro.sim.ops import planted

# The same algorithm (multiply 5 x 7 by repeated addition) in every
# language, mirroring tests/integration/test_cross_language.py.
SIMPL_MUL = """
program mul;
begin
    R0 -> R3;
    while R2 # 0 do
    begin
        R3 + R1 -> R3;
        R2 - ONE -> R2;
    end;
end
"""

EMPL_MUL = """
DECLARE A FIXED;
DECLARE B FIXED;
DECLARE P FIXED;
A = 5;
B = 7;
P = 0;
WHILE B # 0 DO;
    P = P + A;
    B = B - 1;
END;
"""

SSTAR_MUL = """
program mul;
var a : seq [15..0] bit bind R1;
var n : seq [15..0] bit bind R2;
var p : seq [15..0] bit bind R3;
begin
  p := 0;
  while n <> 0 do
  begin
    p := p + a;
    n := n - 1
  end
end
"""

YALLL_MUL = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

#: Two images with identical words: an EXIT word does not encode its
#: exit register (results 3 and 5).
EXIT_A = "reg a = R1\nreg b = R2\nput a,3\nput b,5\nexit a\n"
EXIT_B = EXIT_A.replace("exit a", "exit b")


def dispatch_loop(arms):
    """A hot loop around a multiway whose arms are all that varies: a
    DISP word does not encode its dispatch table."""
    return f"""
    put n,21
    put t,0
loop:
    and x,n,3
    mjump x ({arms})
even:
    add t,t,1
    jump next
odd:
    add t,t,2
next:
    sub n,n,1
    jump loop if nonzero
    exit t
"""


#: ``n & 3`` is 1 on 6 of the 21 trips and 2 on 5: 27, and 32 when the
#: second arm also takes 2.  Both trace the trip at n = 13 (x = 1)
#: along the same path, so only the dispatch table tells them apart.
DISPATCH_A = dispatch_loop("0000 -> even, 0001 -> odd, default -> even")
DISPATCH_B = dispatch_loop(
    "0000 -> even, 0001 -> odd, 0010 -> odd, default -> even"
)

#: Two words: ``put a,1`` with ``jump there`` (target 1), then EXIT.
WILD = "    put a,1\n    jump there\nthere:\n    exit a\n"

#: 41 xor folds: a one-bit plant in xor flips the result from 1 to 0.
XOR_LOOP = """
    put n,41
    put t,0
loop:
    xor t,t,n
    sub n,n,1
    jump loop if nonzero
    exit t
"""

MACHINES = ("HM1", "CM1", "VAXm")

COMPILES = {
    "simpl": lambda machine: compile_simpl(SIMPL_MUL, machine),
    "empl": lambda machine: compile_empl(EMPL_MUL, machine, name="mul"),
    "sstar": lambda machine: compile_sstar(SSTAR_MUL, machine),
    "yalll": lambda machine: compile_yalll(YALLL_MUL, machine, name="mul"),
}

MUL_INPUTS = {"simpl": ("R1", "R2"), "sstar": ("R1", "R2")}


def run_engine(engine, machine, loaded, *, registers=None, memory=None,
               simulator_kwargs=None, paging=False, max_cycles=200_000):
    """Run ``loaded`` on one engine, with the fetch trace captured."""
    store = ControlStore(machine)
    store.load(loaded)
    trace: list[str] = []
    simulator = Simulator(
        machine, store, trace=trace, engine=engine,
        **(simulator_kwargs or {}),
    )
    simulator.state.memory.paging_enabled = paging
    for name, value in (registers or {}).items():
        simulator.state.write_reg(name, value)
    for address, value in (memory or {}).items():
        simulator.state.memory.load_words(address, [value])
    result = simulator.run(loaded.name, max_cycles=max_cycles)
    return result, simulator, trace


def assert_parity(machine, loaded, **kwargs):
    """Run both engines; assert every observable matches."""
    res_i, sim_i, trace_i = run_engine("interpretive", machine, loaded, **kwargs)
    res_d, sim_d, trace_d = run_engine("decoded", machine, loaded, **kwargs)
    assert trace_d == trace_i, "fetch traces diverge"
    assert res_d.instructions == res_i.instructions
    assert res_d.cycles == res_i.cycles
    assert res_d.traps == res_i.traps
    assert res_d.interrupts_serviced == res_i.interrupts_serviced
    assert res_d.interrupt_wait_cycles == res_i.interrupt_wait_cycles
    assert res_d.exit_value == res_i.exit_value
    assert sim_d.state.registers == sim_i.state.registers
    assert sim_d.state.flags == sim_i.state.flags
    assert sim_d.state.memory._words == sim_i.state.memory._words
    assert sim_d.state.memory.reads == sim_i.state.memory.reads
    assert sim_d.state.memory.writes == sim_i.state.memory.writes
    assert sim_d.state.scratchpad._words == sim_i.state.scratchpad._words
    return res_d, sim_d


class TestGoldenParity:
    """Every example program, every front end, three machines."""

    @pytest.mark.parametrize("machine_name", MACHINES)
    @pytest.mark.parametrize("lang", sorted(COMPILES))
    def test_example_suite(self, machine_name, lang):
        machine = get_machine(machine_name)
        result = COMPILES[lang](machine)
        registers = {}
        if lang in MUL_INPUTS:
            a, n = MUL_INPUTS[lang]
            registers = {a: 5, n: 7}
        elif lang == "yalll":
            mapping = result.allocation.mapping
            registers = {mapping["a"]: 5, mapping["n"]: 7}
        res, sim = assert_parity(machine, result.loaded, registers=registers)
        if lang == "yalll":
            assert res.exit_value == 35

    @pytest.mark.parametrize("machine_name", MACHINES)
    def test_mpl_virtual_registers(self, machine_name):
        machine = get_machine(machine_name)
        source = """
program t;
begin
    R1 -> R2;
    R2 + R1 -> R3;
end
"""
        result = compile_mpl(source, machine)
        assert_parity(machine, result.loaded, registers={"R1": 9})

    def test_multiway_dispatch(self):
        machine = get_machine("HM1")
        source = """
    mjump x (0000 -> zero, 00x1 -> oddish, default -> other)
zero:  put r,1
       exit r
oddish: put r,2
       exit r
other: put r,3
       exit r
"""
        result = compile_yalll(source, machine, name="disp")
        mapping = result.allocation.mapping
        for value in (0, 1, 2, 3, 8):
            res, _ = assert_parity(
                machine, result.loaded,
                registers={mapping["x"]: value},
            )
            assert res.exit_value in (1, 2, 3)

    def test_procedures_and_stack(self):
        machine = get_machine("HM1")
        source = """
    put a,5
    call double
    call double
    exit a
proc double:
    add a,a,a
    ret
"""
        result = compile_yalll(source, machine, name="procs")
        res, _ = assert_parity(machine, result.loaded)
        assert res.exit_value == 20


class TestStatefulParity:
    def test_memory_traffic_and_pagefault_traps(self):
        """stor into unmapped pages pagefaults; the trap service maps
        the page and the program restarts — both engines alike."""
        from repro.faults.campaign import default_trap_service

        machine = get_machine("HM1")
        source = """
    put counter,8
    put base,0x40
loop:
    add addr,base,counter
    stor counter,addr
    load back,addr
    sub counter,counter,1
    jump loop if nonzero
    exit back
"""
        result = compile_yalll(source, machine, name="mem")
        res, sim = assert_parity(
            machine, result.loaded, paging=True,
            simulator_kwargs={"trap_service": default_trap_service},
        )
        assert res.traps > 0
        assert sim.state.memory.writes > 0

    def test_interrupts_at_poll(self):
        machine = get_machine("HM1")
        source = """
    put counter,30
loop:
    poll
    sub counter,counter,1
    jump loop if nonzero
    exit counter
"""
        result = compile_yalll(source, machine, name="irq")
        serviced = []

        def handler(state):
            serviced.append(state.cycles)

        res, _ = assert_parity(
            machine, result.loaded,
            simulator_kwargs={
                "interrupt_handler": handler, "interrupt_every": 7,
            },
        )
        assert res.interrupts_serviced > 0

    def test_banked_windows_id3200(self):
        """Window reads/writes resolve against the live bank pointer —
        the decoded engine must not pre-resolve them."""
        from repro.mir.block import BasicBlock, Exit, Jump
        from repro.mir.operands import Imm, Reg
        from repro.mir.ops import MicroOp
        from repro.mir.program import MicroProgram
        from repro.compose import ListScheduler, compose_program
        from repro.asm import assemble

        machine = get_machine("ID3200m")
        files = machine.registers
        window = next(iter(files.windows))
        program = MicroProgram(name="banked", entry="b0")
        b0 = BasicBlock("b0")
        b0.ops.append(MicroOp("setblk", None, (Imm(0),)))
        b0.ops.append(MicroOp("movi", Reg(window), (Imm(11),)))
        b0.ops.append(MicroOp("setblk", None, (Imm(1),)))
        b0.ops.append(MicroOp("movi", Reg(window), (Imm(22),)))
        b0.terminator = Jump("b1")
        b1 = BasicBlock("b1")
        b1.ops.append(MicroOp("setblk", None, (Imm(0),)))
        b1.terminator = Exit(Reg(window))
        program.blocks = {"b0": b0, "b1": b1}
        composed = compose_program(program, machine, ListScheduler())
        loaded = assemble(composed, machine)
        res, sim = assert_parity(machine, loaded)
        assert res.exit_value == 11
        bank0, bank1 = files.windows[window][:2]
        assert sim.state.registers[bank0] == 11
        assert sim.state.registers[bank1] == 22


class TestPlanCache:
    def test_word_keyed_lookup_misses_on_mutated_word(self):
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_MUL, machine, name="mul")
        store = ControlStore(machine)
        store.load(result.loaded)
        simulator = Simulator(machine, store, engine="decoded")
        resident = store.find("mul")
        loaded = store.fetch(resident.entry)
        cache = PlanCache()
        plan = decode_word(simulator, loaded, resident, resident.entry)
        cache.insert(resident, resident.entry, loaded, plan, direct=True)
        assert cache.lookup(resident, resident.entry, loaded) is plan
        # A bit-flipped word must miss, whatever the flipped bit.
        mutated = type(loaded)(
            address=loaded.address, instruction=loaded.instruction,
            settings=loaded.settings, word=loaded.word ^ 1,
        )
        assert cache.lookup(resident, resident.entry, mutated) is None
        assert len(cache) == 1

    def test_direct_tier_only_when_requested(self):
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_MUL, machine, name="mul")
        store = ControlStore(machine)
        store.load(result.loaded)
        simulator = Simulator(machine, store, engine="decoded")
        resident = store.find("mul")
        loaded = store.fetch(resident.entry)
        cache = PlanCache()
        plan = decode_word(simulator, loaded, resident, resident.entry)
        cache.insert(resident, resident.entry, loaded, plan, direct=False)
        assert resident.entry not in cache.addr_plans(resident)
        cache.insert(resident, resident.entry, loaded, plan, direct=True)
        assert cache.addr_plans(resident)[resident.entry] is plan
        cache.invalidate()
        assert len(cache) == 0
        assert resident.entry not in cache.addr_plans(resident)

    def test_plans_cached_across_runs(self):
        """The second run of the same simulator re-uses every plan."""
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_MUL, machine, name="mul")
        store = ControlStore(machine)
        store.load(result.loaded)
        recorder = TraceRecorder()
        simulator = Simulator(
            machine, store, engine="decoded", recorder=recorder
        )
        mapping = result.allocation.mapping
        simulator.state.write_reg(mapping["a"], 3)
        simulator.state.write_reg(mapping["n"], 2)
        simulator.run("mul")
        decodes_first = recorder.profile.decodes
        assert decodes_first > 0
        simulator.state.write_reg(mapping["a"], 4)
        simulator.state.write_reg(mapping["n"], 5)
        outcome = simulator.run("mul")
        assert outcome.exit_value == 20
        assert recorder.profile.decodes == decodes_first

    def test_unknown_engine_rejected(self):
        machine = get_machine("HM1")
        store = ControlStore(machine)
        with pytest.raises(SimulationError):
            Simulator(machine, store, engine="jit")


class TestStoreSwap:
    """Replacing a simulator's control store drops its plans, as it
    drops its traces: the new store may hold different programs behind
    the same words."""

    @pytest.mark.parametrize("engine", ["decoded", "traced"])
    def test_swapped_store_runs_the_new_program(self, engine):
        machine = get_machine("HM1")
        first = compile_yalll(EXIT_A, machine, name="pair").loaded
        second = compile_yalll(EXIT_B, machine, name="pair").loaded
        assert [w.word for w in first.words] == [
            w.word for w in second.words
        ]
        store = ControlStore(machine)
        store.load(first)
        simulator = Simulator(machine, store, engine=engine)
        assert simulator.run("pair").exit_value == 3
        replacement = ControlStore(machine)
        replacement.load(second)
        simulator.store = replacement
        swapped = simulator.run("pair")
        assert swapped.exit_value == 5
        assert swapped.plan_cache == {
            "hits": 0, "misses": swapped.instructions, "invalidations": 1,
        }
        assert simulator.run("pair").plan_cache["invalidations"] == 0


class TestPlanCacheCounters:
    def _runner(self, *, recorder=None, engine="decoded"):
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_MUL, machine, name="mul")
        store = ControlStore(machine)
        store.load(result.loaded)
        simulator = Simulator(
            machine, store, engine=engine, recorder=recorder
        )
        mapping = result.allocation.mapping

        def run(a, n):
            simulator.state.write_reg(mapping["a"], a)
            simulator.state.write_reg(mapping["n"], n)
            return simulator.run("mul")

        return simulator, run

    def test_cold_run_misses_then_warm_run_all_hits(self):
        _, run = self._runner()
        cold = run(3, 10)
        assert cold.plan_cache is not None
        assert cold.plan_cache["misses"] > 0
        assert cold.plan_cache["hits"] == (
            cold.instructions - cold.plan_cache["misses"]
        )
        warm = run(4, 10)
        assert warm.plan_cache["misses"] == 0
        assert warm.plan_cache["hits"] == warm.instructions
        assert warm.plan_cache["invalidations"] == 0

    def test_interpretive_engine_has_no_plan_counters(self):
        _, run = self._runner(engine="interpretive")
        assert run(3, 5).plan_cache is None

    def test_stats_track_decodes_and_invalidations(self):
        cache = PlanCache()
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_MUL, machine, name="mul")
        store = ControlStore(machine)
        store.load(result.loaded)
        simulator = Simulator(machine, store, engine="decoded")
        resident = store.find("mul")
        loaded = store.fetch(resident.entry)
        plan = decode_word(simulator, loaded, resident, resident.entry)
        cache.insert(resident, resident.entry, loaded, plan, direct=True)
        assert cache.stats.misses == 1
        cache.invalidate()
        assert cache.stats.invalidations == 1
        # The counters survive invalidation (they are the run's
        # tallies, not cache contents).
        assert cache.stats.misses == 1

    def test_plan_cache_event_emitted_when_tracing(self):
        from repro.obs import Tracer

        tracer = Tracer()
        recorder = TraceRecorder(tracer)
        _, run = self._runner(recorder=recorder)
        outcome = run(3, 4)
        events = [e for e in tracer.events if e.name == "sim.plan_cache"]
        assert len(events) == 1
        assert events[0].args == outcome.plan_cache

    def test_no_event_with_null_tracer(self):
        recorder = TraceRecorder()
        _, run = self._runner(recorder=recorder)
        outcome = run(3, 4)
        assert outcome.plan_cache["misses"] == recorder.profile.decodes


class TestRecorderParity:
    def test_profile_counts_match_interpretive(self):
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_MUL, machine, name="mul")
        profiles = {}
        for engine in ("interpretive", "decoded"):
            store = ControlStore(machine)
            store.load(result.loaded)
            recorder = TraceRecorder()
            simulator = Simulator(
                machine, store, engine=engine, recorder=recorder
            )
            mapping = result.allocation.mapping
            simulator.state.write_reg(mapping["a"], 5)
            simulator.state.write_reg(mapping["n"], 7)
            simulator.run("mul")
            profiles[engine] = recorder.profile
        interp, dec = profiles["interpretive"], profiles["decoded"]
        assert dec.instructions == interp.instructions
        assert dec.busy_cycles == interp.busy_cycles
        assert dec.exec_counts.data == interp.exec_counts.data
        assert dec.cycle_counts.data == interp.cycle_counts.data


# ----------------------------------------------------------------------
# Plans and traces shared through the program image
# ----------------------------------------------------------------------
def fresh_run(machine, loaded, engine, **kwargs):
    """One run on a fresh simulator over a fresh store."""
    store = ControlStore(machine)
    store.load(loaded)
    return Simulator(machine, store, engine=engine).run(
        loaded.name, **kwargs
    )


def lowering_calls(run):
    """``run()`` and how often it called ``build_plan`` and the
    builtin ``compile()``."""
    calls = {"build_plan": 0, "compile": 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is build_plan.__code__:
            calls["build_plan"] += 1
        elif event == "c_call" and arg is builtins.compile:
            calls["compile"] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


class TestImageTables:
    @pytest.mark.parametrize("engine", ["decoded", "traced"])
    @pytest.mark.parametrize("sources,expected", [
        ((EXIT_A, EXIT_B), (3, 5)),
        ((DISPATCH_A, DISPATCH_B), (27, 32)),
    ], ids=["exit", "dispatch"])
    def test_identical_words_keep_their_own_results(
        self, engine, sources, expected
    ):
        machine = get_machine("HM1")
        images = [
            compile_yalll(source, machine, name="pair").loaded
            for source in sources
        ]
        assert [w.word for w in images[0].words] == [
            w.word for w in images[1].words
        ]
        for image, value in zip(images, expected):
            assert fresh_run(machine, image, "interpretive").exit_value \
                == value
            result = fresh_run(machine, image, engine)
            assert result.exit_value == value
            if engine == "traced" and sources[0] is DISPATCH_A:
                assert result.trace_cache["misses"] >= 1

    def test_words_fetched_outside_the_image_are_not_shared(self):
        """A flipped branch target can leave the image for another
        resident's words, which the image's table must not keep."""
        machine = get_machine("HM1")
        wild = compile_yalll(WILD, machine, name="wild").loaded
        bit = machine.control.offset("br_addr") + 2  # target 1 -> 5
        for source, value in ((EXIT_A, 3), (EXIT_B, 5)):
            other = compile_yalll(source, machine, name="pair").loaded
            for engine in ("interpretive", "decoded"):
                store = ControlStore(machine)
                store.load(wild)
                store.load(other, base=5)
                simulator = Simulator(machine, store, engine=engine)
                ControlStoreBitFlip(0, bit).attach(simulator)
                assert simulator.run("wild").exit_value == value

    @pytest.mark.parametrize("engine", ["decoded", "traced"])
    def test_second_simulator_lowers_and_compiles_nothing(self, engine):
        machine = get_machine("HM1")
        image = compile_yalll(DISPATCH_A, machine, name="pair").loaded
        first, cold = lowering_calls(
            lambda: fresh_run(machine, image, engine)
        )
        second, warm = lowering_calls(
            lambda: fresh_run(machine, image, engine)
        )
        assert cold["build_plan"] > 0
        assert cold["compile"] > 0 or engine == "decoded"
        assert warm == {"build_plan": 0, "compile": 0}
        # Each simulator still counts the shared plans and traces as
        # its own decodes and compiles.
        assert second.plan_cache == first.plan_cache
        assert second.trace_cache == first.trace_cache
        assert second.exit_value == first.exit_value == 27

    @pytest.mark.parametrize("engine", ["decoded", "traced"])
    def test_planted_op_table_never_serves_a_pristine_run(self, engine):
        machine = get_machine("HM1")
        image = compile_yalll(XOR_LOOP, machine, name="xor").loaded
        pristine = fresh_run(machine, image, "interpretive").exit_value
        with planted("xor", "(a & M) ^ (b & M) ^ 1"):
            assert fresh_run(machine, image, engine).exit_value \
                != pristine
        assert fresh_run(machine, image, engine).exit_value == pristine

    def test_planted_stitcher_never_serves_a_pristine_run(
        self, monkeypatch
    ):
        machine = get_machine("HM1")
        image = compile_yalll(XOR_LOOP, machine, name="xor").loaded
        pristine = fresh_run(machine, image, "interpretive").exit_value
        with monkeypatch.context() as patch:
            patch.setattr(trace_module, "PLANT_RESULT_XOR", 1)
            # The plant derails the loop counter; a planted run either
            # exits with another value or runs out of cycles.
            try:
                planted_value = fresh_run(
                    machine, image, "traced", max_cycles=20_000
                ).exit_value
            except SimulationLimitError:
                planted_value = None
        assert planted_value != pristine
        result = fresh_run(machine, image, "traced")
        assert result.exit_value == pristine
        assert result.trace_cache["misses"] >= 1
