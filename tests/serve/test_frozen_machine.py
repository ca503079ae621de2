"""One frozen machine per name in a process.

``repro.registry.build_machine`` hands every registry caller — the
CLI, campaigns, difftest, the service and its workers — one shared
description per machine name, frozen so that the fingerprint it cached
when frozen stays right.  The builders keep returning fresh, mutable
machines: ablations flip knobs on their own copies.
"""

import copy

import pytest

from repro.cache import machine_fingerprint
from repro.errors import MachineError
from repro.registry import build_machine, get_machine_spec, machine_names
from repro.serve.jobs import execute_job
from tests.pipeline.golden_programs import GOLDEN_MACHINES, GOLDEN_SOURCES

MACHINES = tuple(machine_names())


class TestFreeze:
    def test_serve_machine_refuses_assignment(self):
        machine = build_machine("HM1")
        with pytest.raises(MachineError, match="frozen"):
            machine.allows_phase_chaining = False
        with pytest.raises(MachineError, match="frozen"):
            machine.notes = "edited"
        assert build_machine("HM1") is machine

    @pytest.mark.parametrize("name", MACHINES)
    def test_builders_stay_fresh_and_mutable(self, name):
        build = get_machine_spec(name).build
        machine = build()
        assert machine is not build()
        assert machine is not build_machine(name)
        before = machine_fingerprint(machine)
        assert before == machine_fingerprint(build_machine(name))
        # The ablation pitfall: an unfrozen machine is digested afresh,
        # so a flipped knob must change its compile-cache identity.
        machine.allows_phase_chaining = not machine.allows_phase_chaining
        assert machine_fingerprint(machine) != before

    def test_freeze_leaves_equality_and_repr_alone(self):
        machine = get_machine_spec("CM1").build()
        twin = copy.copy(machine)
        twin.freeze()
        assert twin == machine
        assert repr(twin) == repr(machine)
        twin.validate()  # already validated: writes nothing


class TestServeJobsShareFrozenMachines:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_cached_fingerprint_matches_a_fresh_build(self, machine,
                                                      tmp_path):
        ran = 0
        for lang, source in sorted(GOLDEN_SOURCES.items()):
            compiled = execute_job(
                {"op": "compile", "source": source, "lang": lang,
                 "machine": machine},
                cache_dir=str(tmp_path),
            )
            if compiled["status"] != "ok" and machine not in GOLDEN_MACHINES:
                # Not every golden program names registers every machine
                # has; what compiles must also run and campaign.
                continue
            assert compiled["status"] == "ok", (lang, compiled)
            for op, extra in (("run", {}), ("campaign", {"n": 3, "seed": 5})):
                job = {"op": op, "source": source, "lang": lang,
                       "machine": machine, **extra}
                outcome = execute_job(job, cache_dir=str(tmp_path))
                assert outcome["status"] == "ok", (lang, op, outcome)
            ran += 1
        assert ran
        assert build_machine(machine)._fingerprint == machine_fingerprint(
            get_machine_spec(machine).build()
        )
