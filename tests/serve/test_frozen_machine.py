"""One frozen machine per name in a serve process.

``repro.serve.jobs._machine`` hands the service and its workers one
shared description per machine name, frozen so that the fingerprint it
cached when frozen stays right.  Registry builders keep returning
fresh, mutable machines: ablations flip knobs on their own copies.
"""

import copy

import pytest

from repro.cache import machine_fingerprint
from repro.errors import MachineError
from repro.registry import build_machine
from repro.serve.jobs import _machine, execute_job
from tests.pipeline.golden_programs import GOLDEN_SOURCES

MACHINES = ("HM1", "CM1", "VM1")


class TestFreeze:
    def test_serve_machine_refuses_assignment(self):
        machine = _machine("HM1")
        with pytest.raises(MachineError, match="frozen"):
            machine.allows_phase_chaining = False
        with pytest.raises(MachineError, match="frozen"):
            machine.notes = "edited"
        assert _machine("HM1") is machine

    def test_registry_builds_stay_fresh_and_mutable(self):
        machine = build_machine("HM1")
        assert machine is not _machine("HM1")
        before = machine_fingerprint(machine)
        assert before == machine_fingerprint(_machine("HM1"))
        # The ablation pitfall: an unfrozen machine is digested afresh,
        # so a flipped knob must change its compile-cache identity.
        assert machine.allows_phase_chaining
        machine.allows_phase_chaining = False
        assert machine_fingerprint(machine) != before

    def test_freeze_leaves_equality_and_repr_alone(self):
        machine = build_machine("CM1")
        twin = copy.copy(machine)
        twin.freeze()
        assert twin == machine
        assert repr(twin) == repr(machine)
        twin.validate()  # already validated: writes nothing


class TestServeJobsShareFrozenMachines:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_cached_fingerprint_matches_a_fresh_build(self, machine,
                                                      tmp_path):
        for lang, source in sorted(GOLDEN_SOURCES.items()):
            for op, extra in (("compile", {}), ("run", {}),
                              ("campaign", {"n": 3, "seed": 5})):
                job = {"op": op, "source": source, "lang": lang,
                       "machine": machine, **extra}
                outcome = execute_job(job, cache_dir=str(tmp_path))
                assert outcome["status"] == "ok", (lang, op, outcome)
        assert _machine(machine)._fingerprint == machine_fingerprint(
            build_machine(machine)
        )
