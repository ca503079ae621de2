"""Exact allocator output on spill paths, pinned to ``alloc_pins.json``.

The pins were captured before register allocation computed each
round's register facts in one walk (``capture_alloc_pins.py``); every
cell — mapping, spill slots, load/store counts, ``registers_used``,
the final program listing or the ``AllocationError`` message — must
still come out byte-identical.
"""

import json

import pytest

from .capture_alloc_pins import PINS, cell_key, cells, run_cell

GOLDEN = json.loads(PINS.read_text())
CELLS = cells()


def test_pins_are_complete_and_spill():
    assert sorted(GOLDEN) == sorted(cell_key(*cell) for cell in CELLS)
    assert sum(1 for pin in GOLDEN.values() if pin.get("spilled_slots")) >= 30


@pytest.mark.parametrize("cell", CELLS, ids=[cell_key(*cell) for cell in CELLS])
def test_allocation_matches_pin(cell):
    assert run_cell(*cell) == GOLDEN[cell_key(*cell)]
