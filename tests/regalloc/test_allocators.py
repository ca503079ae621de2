"""Register allocators: binding, linear scan, graph colouring."""

import pytest

from repro.errors import AllocationError
from repro.mir import Branch, Imm, Jump, ProgramBuilder, mop, preg, vreg
from repro.regalloc import (
    BindingAllocator,
    GraphColorAllocator,
    LinearScanAllocator,
    build_interference_graph,
    collect_class_constraints,
    allowed_registers,
    live_intervals,
)
from tests.conftest import run_mir


def sum_program(machine, n_values):
    """movi v_i = i; acc = sum(v_i); exit acc."""
    b = ProgramBuilder("t", machine)
    b.start_block("e")
    for i in range(n_values):
        b.emit(mop("movi", vreg(f"v{i}"), Imm(i + 1)))
    acc = vreg("acc")
    b.emit(mop("movi", acc, Imm(0)))
    for i in range(n_values):
        b.emit(mop("add", acc, acc, vreg(f"v{i}")))
    b.exit(acc)
    return b.finish()


class TestBinding:
    def test_applies_binding(self, hm1):
        program = sum_program(hm1, 2)
        allocator = BindingAllocator(
            {"v0": "R1", "v1": "R2", "acc": "ACC"}
        )
        result = allocator.allocate(program, hm1)
        assert not program.virtual_regs()
        assert result.mapping["acc"] == "ACC"
        assert run_mir(program, hm1)[0].exit_value == 3

    def test_missing_binding_rejected(self, hm1):
        with pytest.raises(AllocationError):
            BindingAllocator({"v0": "R1"}).allocate(sum_program(hm1, 2), hm1)

    def test_unknown_register_rejected(self, hm1):
        allocator = BindingAllocator({"v0": "Q9", "v1": "R2", "acc": "ACC"})
        with pytest.raises(AllocationError):
            allocator.allocate(sum_program(hm1, 2), hm1)

    def test_aliases_rejected_by_default(self, hm1):
        allocator = BindingAllocator({"v0": "R1", "v1": "R1", "acc": "ACC"})
        with pytest.raises(AllocationError):
            allocator.allocate(sum_program(hm1, 2), hm1)

    def test_aliases_allowed_when_requested(self, hm1):
        program = sum_program(hm1, 1)
        allocator = BindingAllocator(
            {"v0": "R1", "acc": "R1"}, allow_aliases=True
        )
        allocator.allocate(program, hm1)  # SIMPL equivalence semantics

    def test_class_violation_rejected(self, vax):
        b = ProgramBuilder("t", vax)
        b.start_block("e")
        b.emit(mop("add", vreg("x"), preg("T5"), preg("T6")))
        b.exit(vreg("x"))
        program = b.finish()
        allocator = BindingAllocator({"x": "T5"})  # not aluout
        with pytest.raises(AllocationError):
            allocator.allocate(program, vax)


@pytest.mark.parametrize("allocator_class", [LinearScanAllocator, GraphColorAllocator])
class TestAutomaticAllocators:
    def test_no_spill_small(self, hm1, allocator_class):
        program = sum_program(hm1, 3)
        result = allocator_class().allocate(program, hm1)
        assert result.n_spilled == 0
        assert not program.virtual_regs()
        assert run_mir(program, hm1)[0].exit_value == 6

    def test_spill_correctness(self, hm1, allocator_class):
        program = sum_program(hm1, 14)
        result = allocator_class().allocate(program, hm1)
        assert result.n_spilled > 0
        assert result.loads_inserted > 0
        assert run_mir(program, hm1)[0].exit_value == sum(range(1, 15))

    def test_respects_class_constraints(self, vax, allocator_class):
        b = ProgramBuilder("t", vax)
        b.start_block("e")
        b.emit(mop("movi", vreg("a"), Imm(5)))
        b.emit(mop("movi", vreg("b"), Imm(6)))
        b.emit(mop("add", vreg("c"), vreg("a"), vreg("b")))
        b.exit(vreg("c"))
        program = b.finish()
        result = allocator_class().allocate(program, vax)
        assert vax.registers[result.mapping["c"]].is_in("aluout")
        assert run_mir(program, vax)[0].exit_value == 11

    def test_loop_carried_values_survive(self, hm1, allocator_class):
        b = ProgramBuilder("t", hm1)
        b.start_block("e")
        b.emit(mop("movi", vreg("i"), Imm(5)))
        b.emit(mop("movi", vreg("acc"), Imm(0)))
        b.terminate(Jump("loop"))
        b.start_block("loop")
        b.emit(mop("add", vreg("acc"), vreg("acc"), vreg("i")))
        b.emit(mop("dec", vreg("i"), vreg("i")))
        b.emit(mop("cmp", None, vreg("i"), preg("R0")))
        b.terminate(Branch("Z", "done", "loop"))
        b.start_block("done")
        b.exit(vreg("acc"))
        program = b.finish()
        allocator_class().allocate(program, hm1)
        assert run_mir(program, hm1)[0].exit_value == 5 + 4 + 3 + 2 + 1

    def test_register_limit_forces_spills(self, hm1, allocator_class):
        generous = allocator_class().allocate(sum_program(hm1, 6), hm1)
        tight = allocator_class(register_limit=4).allocate(
            sum_program(hm1, 6), hm1
        )
        assert tight.n_spilled > generous.n_spilled

    def test_register_limit_correctness(self, hm1, allocator_class):
        program = sum_program(hm1, 6)
        allocator_class(register_limit=4).allocate(program, hm1)
        assert run_mir(program, hm1)[0].exit_value == 21


class TestConstraintCollection:
    def test_vax_alu_dest_constraint_collected(self, vax):
        b = ProgramBuilder("t", vax)
        b.start_block("e")
        b.emit(mop("add", vreg("x"), preg("T5"), preg("T6")))
        b.exit(vreg("x"))
        constraints = collect_class_constraints(b.finish(), vax)
        assert constraints[vreg("x")] == {"aluout"}

    def test_unconstrained_on_regular_machine(self, hm1):
        b = ProgramBuilder("t", hm1)
        b.start_block("e")
        b.emit(mop("add", vreg("x"), preg("R1"), preg("R2")))
        b.exit(vreg("x"))
        constraints = collect_class_constraints(b.finish(), hm1)
        assert constraints[vreg("x")] == set()

    def test_restart_temps_avoid_macro_visible(self, vax):
        b = ProgramBuilder("t", vax)
        b.start_block("e")
        b.emit(mop("mov", vreg("_rs1"), preg("T5")))
        b.exit(vreg("_rs1"))
        allowed, _pool = allowed_registers(b.finish(), vax)
        names = allowed[vreg("_rs1")]
        assert names
        assert all(not vax.registers[n].macro_visible for n in names)


class TestIntervals:
    def test_interval_spans_def_to_last_use(self, hm1):
        program = sum_program(hm1, 2)
        intervals = live_intervals(program, hm1)
        acc = intervals["%acc"]
        v0 = intervals["%v0"]
        assert acc.end >= v0.end  # acc lives to the exit
        assert v0.start < v0.end

    def test_uses_counted(self, hm1):
        program = sum_program(hm1, 2)
        intervals = live_intervals(program, hm1)
        assert intervals["%acc"].uses >= 3


class TestInterferenceGraph:
    def test_simultaneously_live_interfere(self, hm1):
        program = sum_program(hm1, 3)
        graph = build_interference_graph(program, hm1)
        assert "%v1" in graph["%v0"]
        assert "%v0" in graph["%v2"]

    def test_coloring_respects_interference(self, hm1):
        program = sum_program(hm1, 4)
        graph = build_interference_graph(program, hm1)
        result = GraphColorAllocator().allocate(program, hm1)
        for node, neighbours in graph.items():
            for other in neighbours:
                assert (
                    result.mapping[node[1:]] != result.mapping[other[1:]]
                ), f"{node} and {other} share a register"

    def test_disjoint_lifetimes_do_not_interfere(self, hm1):
        b = ProgramBuilder("t", hm1)
        b.start_block("e")
        b.emit(mop("movi", vreg("a"), Imm(1)))
        b.emit(mop("mov", preg("R1"), vreg("a")))
        b.emit(mop("movi", vreg("b"), Imm(2)))
        b.emit(mop("mov", preg("R2"), vreg("b")))
        b.exit()
        graph = build_interference_graph(b.finish(), hm1)
        assert "%b" not in graph.get("%a", set())


class TestAllocatorComparison:
    def test_both_allocators_agree_semantically(self, hm1):
        results = []
        for allocator in (LinearScanAllocator(), GraphColorAllocator()):
            program = sum_program(hm1, 10)
            allocator.allocate(program, hm1)
            results.append(run_mir(program, hm1)[0].exit_value)
        assert results[0] == results[1] == sum(range(1, 11))

    def test_round_robin_strategy_runs(self, hm1):
        program = sum_program(hm1, 4)
        LinearScanAllocator(strategy="round-robin").allocate(program, hm1)
        assert run_mir(program, hm1)[0].exit_value == 10


class TestCrossProcessDeterminism:
    """Allocation must not depend on hash-randomised set iteration —
    campaign reports are promised byte-identical across processes."""

    SOURCE = (
        "    put p,0\n"
        "loop:\n"
        "    jump out if n = 0\n"
        "    add p,p,a\n"
        "    sub n,n,1\n"
        "    jump loop\n"
        "out:\n"
        "    exit p\n"
    )

    def test_mapping_stable_across_hash_seeds(self):
        import json
        import os
        import subprocess
        import sys

        script = (
            "import json, sys\n"
            "from repro.lang.yalll import compile_yalll\n"
            "from repro.machine.machines import get_machine\n"
            "r = compile_yalll(sys.stdin.read(), get_machine('HM1'),"
            " name='m')\n"
            "print(json.dumps(sorted(r.allocation.mapping.items())))\n"
        )
        mappings = set()
        for seed in ("0", "1", "20155"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = "src"
            out = subprocess.run(
                [sys.executable, "-c", script], input=self.SOURCE,
                capture_output=True, text=True, env=env, check=True,
            )
            mappings.add(out.stdout.strip())
        assert len(mappings) == 1, mappings
