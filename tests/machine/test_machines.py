"""The six shipped machine descriptions."""

import pytest

from repro.errors import EncodingError, MachineError
from repro.machine.machines import get_machine, machine_names
from repro.registry import build_machine
from repro.machine.opspec import OpSpec
from repro.machine.registers import MAR, MBR


class TestRegistry:
    def test_names(self):
        assert machine_names() == ["HM1", "CM1", "HP300m", "VAXm", "VM1", "ID3200m"]

    def test_unknown_machine(self):
        with pytest.raises(MachineError):
            get_machine("PDP-11")

    @pytest.mark.parametrize("name", ["HM1", "CM1", "HP300m", "VAXm", "VM1", "ID3200m"])
    def test_one_frozen_instance_per_name(self, name):
        machine = get_machine(name)
        assert build_machine(name) is build_machine(name) is machine
        with pytest.raises(MachineError, match=r"build_hm1\(\).*get_machine_spec"):
            machine.notes = "edited"
        assert machine.notes != "edited"

    @pytest.mark.parametrize("name", ["HM1", "CM1", "HP300m", "VAXm", "VM1", "ID3200m"])
    def test_all_validate(self, name):
        machine = get_machine(name)
        machine.validate()
        assert machine.word_size == 16
        assert machine.summary()


class TestHM1:
    def test_three_phases_with_chaining(self, hm1):
        assert hm1.n_phases == 3
        assert hm1.allows_phase_chaining

    def test_r0_is_hardwired_zero(self, hm1):
        assert hm1.registers["R0"].readonly
        assert hm1.registers["R0"].reset == 0

    def test_mov_has_three_variants(self, hm1):
        phases = sorted(hm1.phase_of(v) for v in hm1.op_variants("mov"))
        assert phases == [1, 1, 3]

    def test_memory_latency(self, hm1):
        assert hm1.latency_of(hm1.op("read")) == 2
        assert hm1.latency_of(hm1.op("add")) == 1

    def test_read_constrains_operand_classes(self, hm1):
        spec = hm1.op("read")
        assert spec.src_classes == (MAR,)
        assert spec.dest_class == MBR

    def test_multiway_supported(self, hm1):
        assert hm1.has_multiway_branch
        assert "DISP" in hm1.control["br_mode"].encodings

    def test_bitfield_ops_present(self, hm1):
        assert hm1.has_op("ext") and hm1.has_op("dep")
        assert hm1.op("dep").reads_dest


class TestVAXm:
    def test_single_phase_no_chaining(self, vax):
        assert vax.n_phases == 1
        assert not vax.allows_phase_chaining

    def test_no_inc_dec(self, vax):
        assert not vax.has_op("inc")
        assert not vax.has_op("dec")

    def test_alu_dest_restricted(self, vax):
        assert vax.op("add").dest_class == "aluout"
        assert vax.registers["T0"].is_in("aluout")
        assert not vax.registers["T5"].is_in("aluout")

    def test_macro_visible_registers(self, vax):
        assert {r.name for r in vax.registers.macro_visible()} == {
            "R0", "R1", "R2", "R3"
        }

    def test_short_literal_field(self, vax):
        assert vax.control["lit_val"].width == 8

    def test_memory_jams_move_path(self, vax):
        read_fields = vax.op("read").fields_used()
        mov_fields = vax.op("mov").fields_used()
        assert {"m_src", "m_dst"} <= read_fields & mov_fields

    def test_no_multiway(self, vax):
        assert not vax.has_multiway_branch
        assert "DISP" not in vax.control["br_mode"].encodings


class TestVM1:
    def test_vertical_shares_one_op_field(self, vm1):
        assert vm1.vertical
        for name in ("add", "mov", "shl", "read"):
            assert ("v_op" in dict(vm1.op(name).settings))

    def test_single_phase(self, vm1):
        assert vm1.n_phases == 1


class TestID3200:
    def test_windows_and_bank_pointer(self, id3200):
        assert id3200.registers.bank_pointer == "BLK"
        assert id3200.registers.is_window("G3")
        assert id3200.registers.resolve_window("G3", 5) == "G5_3"

    def test_setblk_op(self, id3200):
        spec = id3200.op("setblk")
        assert spec.imm_srcs == frozenset({0})


class TestResolveSettings:
    def test_placeholders_resolved(self, hm1):
        spec = hm1.op("add")
        settings = hm1.resolve_settings(spec, "R3", ("R1", "R2"))
        assert settings == {
            "alu_op": "ADD", "alu_a": "R1", "alu_b": "R2", "alu_d": "R3",
        }

    def test_immediate_placeholder(self, hm1):
        spec = hm1.op("movi")
        settings = hm1.resolve_settings(spec, "R1", (42,))
        assert settings == {"lit_val": 42, "lit_dst": "R1"}

    def test_wrong_arity(self, hm1):
        with pytest.raises(EncodingError):
            hm1.resolve_settings(hm1.op("add"), "R3", ("R1",))

    def test_missing_dest(self, hm1):
        with pytest.raises(EncodingError):
            hm1.resolve_settings(hm1.op("add"), None, ("R1", "R2"))

    def test_register_where_imm_expected(self, hm1):
        with pytest.raises(EncodingError):
            hm1.resolve_settings(hm1.op("movi"), "R1", ("R2",))

    def test_imm_where_register_expected(self, hm1):
        with pytest.raises(EncodingError):
            hm1.resolve_settings(hm1.op("add"), "R3", (1, 2))


class TestValidation:
    def test_unknown_unit_rejected(self, hm1):
        bad = OpSpec("bogus", "warp-drive", 0, False, ())
        hm1.ops.add(bad)
        try:
            with pytest.raises(MachineError):
                hm1.validate()
        finally:
            hm1.ops._variants.pop("bogus")
            hm1.validate()

    def test_op_lookup_missing(self, hm1):
        with pytest.raises(MachineError):
            hm1.op("teleport")

    def test_unit_lookup_missing(self, hm1):
        with pytest.raises(MachineError):
            hm1.unit("warp")
