"""The process-wide campaign shard pool: reuse, exit and fork safety.

``jobs > 1`` campaigns run their shards on one long-lived
:class:`repro.supervisor.WorkerPool`, started by the first sharded call
and reused by later ones.  A shared pool must be as safe as a private
one: a failed call leaves nothing running and no strike behind, calls
of different widths may overlap, the process exits however its main
thread ends with no worker left alive, and a forked child runs
campaigns of its own.
"""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro.errors import CampaignWorkerError
from repro.faults import campaign as campaign_module
from repro.faults.campaign import run_campaign, run_campaign_loaded
from repro.faults.plan import FaultPlan, spec
from repro.faults.report import campaign_json
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

#: About 6,000 cycles: a shard of 60 such runs takes several times as
#: long as a shard that dies at once on all three of its attempts.
LONG_LOOP_SRC = LOOP_SRC.replace("put counter,6", "put counter,3000")

SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))


def campaign_bytes(jobs: int, seed: int = 11, n: int = 16) -> str:
    result = run_campaign(
        LOOP_SRC, "yalll", get_machine("HM1"), n=n, seed=seed, jobs=jobs
    )
    return campaign_json([result])


def worker_pids() -> list[int]:
    workers = campaign_module._shard_pool(1)._workers
    return sorted(w.process.pid for w in workers)


class TestSharedPool:
    def test_later_calls_reuse_the_workers(self):
        assert campaign_bytes(jobs=2) == campaign_bytes(jobs=1)
        before = worker_pids()
        assert campaign_bytes(jobs=2, seed=12) == \
            campaign_bytes(jobs=1, seed=12)
        assert worker_pids() == before

    def test_repeated_worker_death_raises_the_same_error(self):
        machine = get_machine("HM1")
        result = compile_yalll(LOOP_SRC, machine, name="mul")
        plan = FaultPlan(
            seed=0, specs=tuple(spec("kill", nth=1) for _ in range(4))
        )
        errors = []
        for _ in range(2):
            with pytest.raises(CampaignWorkerError) as info:
                run_campaign_loaded(
                    result.loaded, machine, lang="yalll", plan=plan,
                    mapping=result.allocation.mapping, jobs=2,
                )
            errors.append(info.value)
            # The call waited for every shard before raising, so none
            # is left queued or running on the shared pool.
            depth = campaign_module._shard_pool(2).depth()
            assert (depth["pending"], depth["inflight"]) == (0, 0)
        # Shards are keyed per call: the first call's strikes do not
        # quarantine the second call's shards on their first death.
        first, second = errors
        assert first.requeues == 2  # DEFAULT_SHARD_REQUEUES
        assert first.exitcode is not None and first.exitcode < 0
        assert (second.shard_index, second.requeues, second.exitcode,
                str(second)) == (first.shard_index, first.requeues,
                                 first.exitcode, str(first))
        # Both calls waited for every shard, so the pool is idle and a
        # clean campaign runs on it at once.
        assert campaign_bytes(jobs=2) == campaign_bytes(jobs=1)

    def test_failed_call_waits_for_its_other_shards(self):
        # Shard 0 dies at once on every attempt; shard 1 runs long
        # scenarios whose kill never fires.  The error comes only once
        # shard 1 is done, so the failed call leaves nothing running.
        machine = get_machine("HM1")
        result = compile_yalll(LONG_LOOP_SRC, machine, name="long")
        plan = FaultPlan(seed=0, specs=(
            spec("kill", nth=1), spec("kill", nth=10**7),
        ) * 60)
        with pytest.raises(CampaignWorkerError) as info:
            run_campaign_loaded(
                result.loaded, machine, lang="yalll", plan=plan,
                mapping=result.allocation.mapping, jobs=2,
            )
        assert info.value.shard_index == 0
        depth = campaign_module._shard_pool(2).depth()
        assert (depth["pending"], depth["inflight"]) == (0, 0)

    def test_shards_on_a_closed_pool_raise_typed(self, fresh_shard_pool,
                                                 monkeypatch):
        # What a campaign still running at interpreter exit sees once
        # the exit handler has closed the pool.
        pool = campaign_module._shard_pool(2)
        pool.close()
        monkeypatch.setattr(campaign_module, "_shard_pool",
                            lambda workers: pool)
        with pytest.raises(CampaignWorkerError, match="pool closed") as info:
            campaign_bytes(jobs=2)
        assert (info.value.shard_index, info.value.requeues,
                info.value.exitcode) == (0, 0, None)

    def test_overlapping_calls_of_different_widths(self, fresh_shard_pool):
        # The jobs=3 call grows a pool that the jobs=2 call started,
        # possibly while the jobs=2 call's shards are in flight.
        serial = {jobs: campaign_bytes(1, seed=20 + jobs, n=24)
                  for jobs in (2, 3)}
        for _ in range(3):
            start = threading.Barrier(2)
            sharded = {}

            def run(jobs):
                start.wait()
                sharded[jobs] = campaign_bytes(jobs, seed=20 + jobs, n=24)

            threads = [threading.Thread(target=run, args=(jobs,))
                       for jobs in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert sharded == serial
        assert len(worker_pids()) == 3


# ----------------------------------------------------------------------
EXIT_SCRIPT = textwrap.dedent(f"""
    import multiprocessing, os, signal, sys
    from repro.faults.campaign import run_campaign
    from repro.machine.machines import get_machine

    for seed in (1, 2):
        run_campaign({LOOP_SRC!r}, "yalll", get_machine("HM1"),
                     n=6, seed=seed, jobs=2)
    pids = sorted(p.pid for p in multiprocessing.active_children())
    print(" ".join(map(str, pids)), flush=True)
    if sys.argv[1] == "raise":
        raise RuntimeError("uncaught after sharded campaigns")
    if sys.argv[1] == "kill":
        os.kill(pids[0], signal.SIGKILL)
""")

#: How each exit probe ends, and the exit status it must end with.
ENDINGS = {"return": 0, "raise": 1, "kill": 0}


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def session_members(sid: int) -> list[int]:
    """Live processes of session ``sid``: a probe and all it forked."""
    members = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[3]) == sid and fields[0] not in "ZX":
            members.append(int(name))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="reads process state from /proc")
class TestExit:
    REPETITIONS = 20

    def test_every_ending_exits_and_leaves_no_worker(self):
        # Each probe runs in its own session, so a worker it respawned
        # after printing its pids is still found if it outlives it.
        for _ in range(self.REPETITIONS):
            deadline = time.monotonic() + 30
            probes = {
                ending: subprocess.Popen(
                    [sys.executable, "-c", EXIT_SCRIPT, ending],
                    env={**os.environ, "PYTHONPATH": SRC_DIR},
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, start_new_session=True,
                )
                for ending in ENDINGS
            }
            try:
                for ending, probe in probes.items():
                    try:
                        out, err = probe.communicate(
                            timeout=max(0.0, deadline - time.monotonic()))
                    except subprocess.TimeoutExpired:
                        pytest.fail(f"{ending}: still running after 30 s")
                    assert probe.returncode == ENDINGS[ending], (ending, err)
                    pids = [int(pid) for pid in out.split()]
                    assert len(pids) == 2, (ending, out, err)
                    assert not [pid for pid in pids if running(pid)], ending
                    assert session_members(probe.pid) == [], ending
            finally:
                for probe in probes.values():
                    with contextlib.suppress(ProcessLookupError):
                        os.killpg(probe.pid, signal.SIGKILL)
                    probe.communicate()


def campaign_in_child(conn) -> None:
    conn.send(campaign_bytes(jobs=2))
    conn.close()


class TestFork:
    def test_forked_child_shards_on_a_pool_of_its_own(self):
        parent = campaign_bytes(jobs=2)  # the parent's pool is running
        fork = multiprocessing.get_context("fork")
        receive, send = fork.Pipe(duplex=False)
        child = fork.Process(target=campaign_in_child, args=(send,),
                             daemon=False)
        child.start()
        send.close()
        try:
            assert receive.poll(15), "child campaign did not finish in 15 s"
            assert receive.recv() == parent
            child.join(15)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
