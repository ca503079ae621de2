"""The four fault models, each against a live simulator."""

import pytest

from repro.asm import ControlStore, assemble
from repro.compose import SequentialComposer, compose_program
from repro.errors import FaultPlanError
from repro.faults import (
    CompositeInjector,
    ControlStoreBitFlip,
    InterruptStorm,
    StuckAtRegister,
    TransientMemoryFault,
    build_injector,
    compute_flip_effect,
)
from repro.cli import main
from repro.faults.campaign import default_trap_service
from repro.lang.simpl import compile_simpl
from repro.lang.yalll import compile_yalll
from repro.mir import ProgramBuilder, mop, preg
from repro.mir.block import Branch, Jump
from repro.sim import Simulator


def load(program, machine, **simulator_kwargs):
    composed = compose_program(program, machine, SequentialComposer())
    loaded = assemble(composed, machine)
    store = ControlStore(machine)
    store.load(loaded)
    return Simulator(machine, store, **simulator_kwargs), loaded


def add_one_program(machine):
    b = ProgramBuilder("addone", machine)
    b.start_block("entry")
    b.emit(mop("add", preg("R2"), preg("R1"), preg("ONE")))
    b.exit(preg("R2"))
    return b.finish()


def incread_program(machine):
    """§2.1.5: increment a register, then read memory through it."""
    b = ProgramBuilder("incread", machine)
    b.start_block("entry")
    b.emit(mop("add", preg("ACC"), preg("R1"), preg("ONE")))
    b.emit(mop("mov", preg("R1"), preg("ACC")))
    b.emit(mop("mov", preg("MAR"), preg("R1")))
    b.emit(mop("read", preg("MBR"), preg("MAR")))
    b.exit(preg("MBR"))
    return b.finish()


class TestStuckAtRegister:
    def test_stuck_value_wins(self, hm1):
        simulator, _ = load(add_one_program(hm1), hm1)
        simulator.state.write_reg("R1", 100)
        injector = StuckAtRegister("R1", 7).attach(simulator)
        result = simulator.run("addone")
        assert result.exit_value == 8  # stuck 7, not the initial 100
        assert injector.fired and injector.fired[0]["name"] == "fault.stuck"

    def test_from_cycle_defers_the_fault(self, hm1):
        simulator, _ = load(add_one_program(hm1), hm1)
        simulator.state.write_reg("R1", 100)
        StuckAtRegister("R1", 7, from_cycle=10_000).attach(simulator)
        assert simulator.run("addone").exit_value == 101


class TestTransientMemoryFault:
    def test_nth_read_faults_once_then_recovers(self, hm1):
        simulator, _ = load(
            incread_program(hm1), hm1, trap_service=default_trap_service
        )
        simulator.state.write_reg("R1", 100)
        simulator.state.memory.load_words(101, [0xCAFE])
        injector = TransientMemoryFault(op="read", nth=1).attach(simulator)
        result = simulator.run("incread")
        assert result.traps == 1
        assert result.exit_value == 0xCAFE  # retry after restart succeeds
        assert injector.fired[0]["name"] == "fault.memread"

    def test_later_nth_does_not_fire_early(self, hm1):
        simulator, _ = load(
            incread_program(hm1), hm1, trap_service=default_trap_service
        )
        simulator.state.write_reg("R1", 100)
        simulator.state.memory.load_words(101, [0xCAFE])
        TransientMemoryFault(op="read", nth=5).attach(simulator)
        result = simulator.run("incread")
        assert result.traps == 0

    def test_memory_proxy_stays_transparent(self, hm1):
        simulator, _ = load(incread_program(hm1), hm1)
        TransientMemoryFault(op="write", nth=1).attach(simulator)
        memory = simulator.state.memory
        memory.load_words(5, [42])          # delegated via __getattr__
        assert memory.read(5) == 42         # reads unaffected by write fault

    def test_bad_parameters_rejected(self):
        with pytest.raises(FaultPlanError):
            TransientMemoryFault(op="poke", nth=1)
        with pytest.raises(FaultPlanError):
            TransientMemoryFault(op="read", nth=0)


class TestInterruptStorm:
    def test_storm_reaches_a_polling_program(self, hm1):
        b = ProgramBuilder("poller", hm1)
        b.start_block("entry")
        for _ in range(6):
            b.emit(mop("poll"))
        b.emit(mop("add", preg("R2"), preg("R1"), preg("ONE")))
        b.exit(preg("R2"))
        serviced = []
        simulator, _ = load(
            b.finish(), hm1,
            interrupt_handler=lambda state: serviced.append(state.cycles),
        )
        injector = InterruptStorm(period=1).attach(simulator)
        result = simulator.run("poller")
        assert result.interrupts_serviced >= 1
        assert serviced
        assert injector.fired[0]["name"] == "fault.interrupt"

    def test_zero_period_rejected(self):
        with pytest.raises(FaultPlanError):
            InterruptStorm(period=0)


class TestControlStoreBitFlip:
    def simpl_word(self, hm1):
        result = compile_simpl(
            "program t; begin R1 + ONE -> R2; end", hm1
        )
        return result.loaded.words[0]

    def test_undriven_field_is_latent(self, hm1):
        word = self.simpl_word(hm1)
        bit = hm1.control.offset("sh_cnt")  # no shifter op in the word
        effect = compute_flip_effect(hm1, word, bit)
        assert effect.kind == "latent"

    def test_order_field_flip_changes_the_operation(self, hm1):
        word = self.simpl_word(hm1)
        bit = hm1.control.offset("alu_op")  # ADD(1) ^ 1 -> NOP(0)
        effect = compute_flip_effect(hm1, word, bit)
        assert effect.kind == "order"
        assert "nop" in effect.detail

    def test_order_flip_executes_with_wrong_semantics(self, hm1):
        simulator, _ = load(add_one_program(hm1), hm1)
        simulator.state.write_reg("R1", 100)
        bit = hm1.control.offset("alu_op")
        ControlStoreBitFlip(address=0, bit=bit).attach(simulator)
        result = simulator.run("addone")
        assert result.exit_value == 0  # the add was dropped; R2 never written

    def test_register_selector_flip_retargets_operand(self, hm1):
        word = self.simpl_word(hm1)
        offset = hm1.control.offset("alu_d")
        effect = compute_flip_effect(hm1, word, offset)
        assert effect.kind in ("operand", "illegal")
        if effect.kind == "operand":
            assert "R2 ->" in effect.detail  # dest retargeted elsewhere

    def test_bit_out_of_range_rejected(self, hm1):
        with pytest.raises(FaultPlanError):
            compute_flip_effect(hm1, self.simpl_word(hm1), 10_000)

    def test_flip_is_deterministic(self, hm1):
        word = self.simpl_word(hm1)
        bit = hm1.control.offset("alu_op")
        a = compute_flip_effect(hm1, word, bit)
        b = compute_flip_effect(hm1, word, bit)
        assert (a.kind, a.fieldname, a.old_code, a.new_code) == \
               (b.kind, b.fieldname, b.old_code, b.new_code)


class TestBranchConditionFlip:
    """A flipped ``br_cond`` is modelled from the word as encoded: the
    new condition picks between the ``br_addr`` label and the label
    the word falls through to, ``TRUE`` always jumps, and ``NOP`` is
    an illegal encoding."""

    #: ``word 3`` is ``sub counter ; br NZ -> loop`` (stored as NZ).
    COUNTDOWN = (
        "    put total,0\n    put counter,6\nloop:\n"
        "    add total,total,counter\n    sub counter,counter,1\n"
        "    jump loop if nonzero\n    exit total\n"
    )
    #: ``word 1`` is ``br NZ -> do2 else od3``; do2 is the next word,
    #: so it is stored inverted as ``BR Z -> od3``.
    MUL = (
        "program mul;\nbegin\n    R0 -> R3;\n    while R2 # 0 do\n"
        "    begin\n        R3 + R1 -> R3;\n        R2 - ONE -> R2;\n"
        "    end;\nend\n"
    )

    def flip(self, machine, word, code_bit):
        bit = machine.control.offset("br_cond") + code_bit
        return compute_flip_effect(machine, word, bit)

    def test_true_jumps_to_the_branch_target(self, hm1):
        loaded = compile_yalll(self.COUNTDOWN, hm1).loaded
        effect = self.flip(hm1, loaded.words[3], 1)  # NZ(3) -> TRUE(1)
        assert effect.kind == "condition"
        assert effect.loaded.instruction.terminator == Jump("loop")

    def test_nop_is_an_illegal_encoding(self, hm1):
        loaded = compile_simpl(self.MUL, hm1).loaded
        effect = self.flip(hm1, loaded.words[1], 1)  # Z(2) -> NOP(0)
        assert effect.kind == "illegal"

    def test_inverted_branch_keeps_the_encoded_sense(self, hm1):
        loaded = compile_simpl(self.MUL, hm1).loaded
        terminator = loaded.words[1].instruction.terminator
        assert terminator == Branch("NZ", "do2", "od3")
        effect = self.flip(hm1, loaded.words[1], 0)  # Z(2) -> NZ(3)
        assert effect.kind == "condition"
        # BR NZ -> od3: leave the loop while R2 is non-zero.
        assert effect.loaded.instruction.terminator == \
            Branch("NZ", "od3", "do2")

    @pytest.mark.parametrize("lang, source, args, bit, expected", [
        ("yalll", COUNTDOWN, [], 122, "hang"),
        ("simpl", MUL, ["--set", "R1=5", "--set", "R2=3"], 122, "hang"),
        ("simpl", MUL, ["--set", "R1=5", "--set", "R2=3"], 121,
         "masked     traps=0 cycles=3"),
    ], ids=["true", "nop", "inverted"])
    def test_faultsim_classifies_the_flip(
        self, tmp_path, capsys, lang, source, args, bit, expected,
    ):
        path = tmp_path / f"prog.{lang}"
        path.write_text(source)
        address = 3 if lang == "yalll" else 1
        code = main([
            "faultsim", str(path), "--lang", lang, "--machine", "HM1",
            *args, "--fault", f"bitflip:addr={address},bit={bit}",
        ])
        out = capsys.readouterr().out
        assert code == (1 if expected == "hang" else 0)  # hangs fail
        assert "unknown branch condition" not in out
        scenario = out.splitlines()[-1].split()
        assert scenario[2:2 + len(expected.split())] == expected.split()


class TestBuildInjector:
    @pytest.mark.parametrize("text,cls", [
        ("bitflip:addr=3,bit=17", ControlStoreBitFlip),
        ("memfault:op=read,nth=2", TransientMemoryFault),
        ("stuck:reg=R2,value=0", StuckAtRegister),
        ("storm:period=7", InterruptStorm),
    ])
    def test_factory_from_spec_string(self, text, cls):
        assert isinstance(build_injector(text), cls)

    def test_missing_required_parameter(self):
        with pytest.raises(FaultPlanError):
            build_injector("bitflip:addr=3")  # no bit

    def test_composite_fans_out_and_aggregates(self, hm1):
        simulator, _ = load(add_one_program(hm1), hm1)
        simulator.state.write_reg("R1", 100)
        stuck = StuckAtRegister("R1", 7)
        storm = InterruptStorm(period=1)
        composite = CompositeInjector([stuck, storm]).attach(simulator)
        assert simulator.injector is composite
        result = simulator.run("addone")
        assert result.exit_value == 8
        names = {record["name"] for record in composite.fired}
        assert "fault.stuck" in names
