"""Allocation walks the program a bounded number of times per round.

Each allocation round derives its register facts — class constraints,
the physical registers the program names, every virtual — from one
walk in ``allowed_registers``.  Counting ``MicroOp.regs`` calls inside
one ``allocate`` keeps a per-register rescan (one program walk per
allocatable register per virtual) from coming back unnoticed.
"""

import pytest

from repro.bench.workloads import random_program
from repro.mir.ops import MicroOp
from repro.obs.tracer import Tracer
from repro.regalloc import GraphColorAllocator, LinearScanAllocator

#: ``MicroOp.regs`` calls allowed per op per allocation round: the one
#: facts walk, plus the spill rewrite in rounds that spill.  A rescan
#: per allocatable register per virtual makes about 34 per op on the
#: 43-op program.
MAX_CALLS_PER_OP_PER_ROUND = 2


def count_walks(allocator_class, machine, monkeypatch, n_variables):
    program = random_program(
        machine, n_blocks=3, ops_per_block=12, seed=7, n_variables=n_variables
    )
    calls = 0
    regs = MicroOp.regs

    def counting(op):
        nonlocal calls
        calls += 1
        return regs(op)

    tracer = Tracer()
    monkeypatch.setattr(MicroOp, "regs", counting)
    allocator_class(tracer=tracer).allocate(program, machine)
    monkeypatch.undo()
    n_ops = sum(len(block.ops) for block in program.blocks.values())
    rounds = sum(1 for event in tracer.events if event.name == "regalloc.round")
    return calls, n_ops, rounds


@pytest.mark.parametrize(
    "allocator_class", [LinearScanAllocator, GraphColorAllocator]
)
def test_one_round_walks_each_op_a_bounded_number_of_times(
    hm1, monkeypatch, allocator_class
):
    calls, n_ops, rounds = count_walks(allocator_class, hm1, monkeypatch, 4)
    assert (n_ops, rounds) == (43, 1)
    assert calls <= MAX_CALLS_PER_OP_PER_ROUND * n_ops * rounds, calls


@pytest.mark.parametrize(
    "allocator_class", [LinearScanAllocator, GraphColorAllocator]
)
def test_walks_do_not_grow_with_the_number_of_virtuals(
    hm1, monkeypatch, allocator_class
):
    calls, n_ops, rounds = count_walks(allocator_class, hm1, monkeypatch, 32)
    assert rounds > 1  # 32 variables on eight registers spill
    assert calls <= MAX_CALLS_PER_OP_PER_ROUND * n_ops * rounds, calls
