"""Campaign reports with metrics, pinned byte for byte to ``metrics_pins.json``.

The pins were captured before campaign runs kept the address-keyed plan
lookup and shared the decoded plans of their program image
(``capture_metrics_pins.py``).  Every cell's JSON and verbose text —
outcomes, ``fired`` lists, and with metrics the per-run plan-cache
counters and profile decode counts — must still come out identical,
serial and sharded alike.
"""

import json

import pytest

from .capture_metrics_pins import PINS, cell_key, cells, run_cell

GOLDEN = json.loads(PINS.read_text())
CELLS = cells()


def test_pins_are_complete():
    assert sorted(GOLDEN) == sorted(cell_key(*cell) for cell in CELLS)
    for key, pin in GOLDEN.items():
        report = json.loads(pin["json"])
        assert ("metrics" in report) == key.endswith("metrics=True")


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("cell", CELLS, ids=[cell_key(*cell) for cell in CELLS])
def test_report_matches_pin(cell, jobs):
    assert run_cell(*cell, jobs=jobs) == GOLDEN[cell_key(*cell)]
