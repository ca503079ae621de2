"""Worker death in the ``--jobs`` campaign fan-out is typed, not a hang.

The ``kill`` fault kind SIGKILLs the simulating process at the Nth
microinstruction — the deterministic stand-in for a shard worker
dying of segfault/OOM.  The supervisor must observe the death via the
process sentinel, re-queue the shard, and surface persistent death as
:class:`~repro.errors.CampaignWorkerError` naming the shard and its
re-queue count.  The injector kills deterministically on every run, so
a recoverable crash — death on the first attempt only, success on the
re-run — is staged by patching the shard body, on workers of a shard
pool started after the patch.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.errors import CampaignWorkerError, FaultPlanError
from repro.faults.campaign import fault_space_for, run_campaign_loaded
from repro.faults.injectors import ProcessKill, build_injector
from repro.faults.plan import FAULT_KINDS, FaultPlan, parse_fault_spec, spec
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine

LOOP_SRC = """
    put total,0
    put counter,6
loop:
    add total,total,counter
    sub counter,counter,1
    jump loop if nonzero
    exit total
"""


def compiled():
    machine = get_machine("HM1")
    result = compile_yalll(LOOP_SRC, machine, name="mul")
    return machine, result


class TestKillFaultKind:
    def test_kill_is_a_known_kind(self):
        assert "kill" in FAULT_KINDS

    def test_spec_round_trip(self):
        parsed = parse_fault_spec("kill:nth=3")
        assert parsed.kind == "kill"
        assert parsed.require("nth") == 3
        injector = build_injector(parsed)
        assert isinstance(injector, ProcessKill)
        assert injector.nth == 3

    def test_nth_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            ProcessKill(nth=0)

    def test_seeded_generation_never_draws_kill(self):
        # Campaign plans must stay survivable: ``kill`` is an explicit
        # chaos opt-in, never a seeded draw.
        machine, result = compiled()
        golden = run_campaign_loaded(
            result.loaded, machine, n=0, lang="yalll",
            mapping=result.allocation.mapping,
        ).golden
        space = fault_space_for(machine, result.loaded, golden)
        assert "kill" not in space.kinds_available()
        for seed in range(20):
            plan = FaultPlan.generate(seed, space, 25)
            assert all(s.kind != "kill" for s in plan.specs)


class TestWorkerDeathSurfaces:
    def test_persistent_shard_death_raises_typed_error(self):
        machine, result = compiled()
        plan = FaultPlan(
            seed=0, specs=tuple(spec("kill", nth=1) for _ in range(4))
        )
        with pytest.raises(CampaignWorkerError) as info:
            run_campaign_loaded(
                result.loaded, machine,
                lang="yalll",
                plan=plan,
                mapping=result.allocation.mapping,
                jobs=2,
            )
        error = info.value
        assert error.shard_index in (0, 1)
        assert error.requeues == 2  # DEFAULT_SHARD_REQUEUES
        assert error.exitcode is not None and error.exitcode < 0
        assert "stayed dead" in str(error)

    def test_healthy_shards_unaffected_by_kill_kind_existing(self):
        # A plan without kill specs still round-trips byte-identically
        # through the rewritten supervised fan-out.
        from repro.faults.campaign import run_campaign
        from repro.faults.report import campaign_json

        machine = get_machine("HM1")
        serial = run_campaign(
            LOOP_SRC, "yalll", machine, n=16, seed=11, jobs=1
        )
        sharded = run_campaign(
            LOOP_SRC, "yalll", machine, n=16, seed=11, jobs=3
        )
        assert campaign_json([sharded]) == campaign_json([serial])


class TestSharedSupervisor:
    """Campaign shards run on :class:`repro.supervisor.WorkerPool`."""

    def test_transient_shard_death_is_rerun_byte_identically(
        self, tmp_path, monkeypatch, fresh_shard_pool
    ):
        from repro.faults import campaign as campaign_module
        from repro.faults.campaign import run_campaign
        from repro.faults.report import campaign_json, render_campaign

        machine = get_machine("HM1")
        serial = run_campaign(
            LOOP_SRC, "yalll", machine, n=16, seed=11, jobs=1
        )
        real_shard_worker = campaign_module._shard_worker

        def dies_on_first_attempt(context, shard):
            # Workers forked after the patch inherit it; the marker
            # outlives the first attempt, so each shard's re-run
            # succeeds.
            marker = tmp_path / f"died-{shard[0][0]}"
            if not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real_shard_worker(context, shard)

        monkeypatch.setattr(
            campaign_module, "_shard_worker", dies_on_first_attempt
        )
        sharded = run_campaign(
            LOOP_SRC, "yalll", machine, n=16, seed=11, jobs=2
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "died-0", "died-1",
        ]
        assert campaign_json([sharded]) == campaign_json([serial])
        assert render_campaign(sharded, scenarios=True) == \
            render_campaign(serial, scenarios=True)

    def test_sharded_campaign_imports_no_service_layer(self):
        # Reaching the pool through repro.serve would load the service
        # layer and asyncio into every sharded campaign; the supervisor
        # sits below both of its users.
        script = textwrap.dedent(f"""
            import sys
            from repro.faults.campaign import run_campaign
            from repro.machine.machines import get_machine

            run_campaign({LOOP_SRC!r}, "yalll", get_machine("HM1"),
                         n=4, seed=1, jobs=2)
            assert "repro.supervisor" in sys.modules
            print(sorted(
                name for name in sys.modules
                if name.split(".")[0] == "asyncio"
                or name == "repro.serve" or name.startswith("repro.serve.")
            ))
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
