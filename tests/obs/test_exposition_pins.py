"""Every counter exposition surface, pinned byte for byte.

``exposition_pins.json`` was captured through public surfaces only
(``capture_exposition_pins.py``): the service's ``/healthz`` and
``/metrics`` after a fixed request sequence, ``repro profile`` text,
``--json``, ``--prometheus`` and ``--replay`` under two engines, a
two-shard campaign rollup's text, JSON and Prometheus forms, and the
compile-cache stats block.  Each entry must come out identical, and
every Prometheus document in it must be well formed.
"""

import json

import pytest

from .capture_exposition_pins import ENTRIES, PINS
from .exposition_format import exposition_errors

GOLDEN = json.loads(PINS.read_text())


def prometheus_documents(pins: dict):
    """``(label, text)`` of every Prometheus document in the pins."""
    yield "service/metrics", pins["service"]["metrics"]
    yield "rollup/prometheus", pins["rollup"]["prometheus"]
    for engine in ("decoded", "traced"):
        entry = pins[f"profile/{engine}"]
        yield f"profile/{engine}/prometheus", entry["prometheus"]
        yield (f"profile/{engine}/replay/prometheus",
               entry["replay"]["prometheus"])


def test_pins_are_complete():
    assert sorted(GOLDEN) == sorted(ENTRIES)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_entry_matches_pin(entry):
    assert ENTRIES[entry]() == GOLDEN[entry]


@pytest.mark.parametrize(
    "label, text", list(prometheus_documents(GOLDEN)),
    ids=[label for label, _ in prometheus_documents(GOLDEN)],
)
def test_prometheus_document_is_well_formed(label, text):
    assert text.endswith("\n")
    assert exposition_errors(text) == []


class TestFormatCheck:
    def test_flags_a_family_declared_twice(self):
        text = ("# HELP a_total x\n# TYPE a_total counter\na_total 1\n"
                "# HELP a_total x\n# TYPE a_total counter\n")
        assert len(exposition_errors(text)) == 2

    def test_flags_split_samples(self):
        text = ("# HELP a_total x\n# TYPE a_total counter\n"
                '# HELP b x\n# TYPE b gauge\nb 2\na_total{k="v"} 1\n')
        assert exposition_errors(text) == [
            "line 6: 'a_total{k=\"v\"} 1': samples of a_total are split"
        ]

    def test_flags_unparseable_samples(self):
        text = ("# HELP a_total x\n# TYPE a_total counter\n"
                "a_total{k=v} 1\na_total one\n")
        assert len(exposition_errors(text)) == 2

    def test_accepts_empty_families_and_escapes(self):
        text = ("# HELP a_total x\n# TYPE a_total counter\n"
                "# HELP b x\n# TYPE b gauge\n"
                'b{k="say \\"hi\\"",m="2"} 0.5\n')
        assert exposition_errors(text) == []
