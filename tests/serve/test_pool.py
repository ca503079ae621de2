"""WorkerPool crash detection, re-queueing, quarantine, deadlines, and
the supervisor's wait horizon.

All chaos here is deterministic: workers SIGKILL themselves on listed
dispatch attempts (or wedge with a sleep), so every assertion about
crash counts, retry outcomes and breaker states is exact.
"""

import functools
import gc
import os
import time
from concurrent.futures import Future

import pytest

from repro.serve.jobs import execute_lanes, job_key
from repro.supervisor import (
    BackoffPolicy,
    CircuitBreakers,
    WorkerPool,
    _Ticket,
)
from tests.serve.conftest import ADD_SRC
from tests.serve.test_backoff import FakeClock

FAST_BACKOFF = BackoffPolicy(base_s=0.01, cap_s=0.1, jitter=0.5, seed=7)


def run_job(**extra) -> dict:
    return {"op": "run", "source": ADD_SRC, "lang": "yalll", **extra}


@pytest.fixture
def make_pool(tmp_path):
    pools = []

    def _make(**kwargs):
        kwargs.setdefault("handler", functools.partial(
            execute_lanes, cache_dir=str(tmp_path / "cache")))
        kwargs.setdefault("backoff", FAST_BACKOFF)
        pool = WorkerPool(kwargs.pop("n_workers", 1), **kwargs)
        pool.start()
        pools.append(pool)
        return pool

    yield _make
    for pool in pools:
        pool.close(drain=False, timeout=10)


def submit(pool, job, **kwargs) -> dict:
    future = pool.submit(job, key=job_key(job), **kwargs)
    return future.result(timeout=60)


def frozen_count_lanes(lanes):
    """Answer every lane with the worker's :func:`gc.get_freeze_count`."""
    return [(ticket_id, {"status": "ok", "result": gc.get_freeze_count()})
            for ticket_id, _, _, _ in lanes]


class TestHappyPath:
    def test_run_job_resolves_ok(self, make_pool):
        pool = make_pool()
        outcome = submit(pool, run_job())
        assert outcome["status"] == "ok"
        assert outcome["result"]["exit_value"] == 5
        assert pool.stats.completed == 1
        assert pool.stats.crashes == 0

    def test_worker_freezes_the_heap_it_inherits(self, make_pool):
        pool = make_pool(handler=frozen_count_lanes)
        outcome = pool.submit({}, key="freeze").result(timeout=60)
        assert outcome["status"] == "ok"
        assert outcome["result"] > 0
        # Only the worker froze: the parent's heap stays collectable.
        assert gc.get_freeze_count() == 0

    def test_submit_after_close_is_shutdown(self, make_pool):
        pool = make_pool()
        pool.close(drain=True, timeout=10)
        outcome = submit(pool, run_job())
        assert outcome["status"] == "shutdown"


class TestCrashRecovery:
    def test_single_crash_recovers_with_identical_result(
        self, make_pool
    ):
        pool = make_pool(max_requeues=4)
        undisturbed = submit(pool, run_job())
        chaotic = submit(
            pool, run_job(chaos={"kill_on_attempts": [0]})
        )
        assert chaotic["status"] == "ok"
        # The crash retry recomputes the same pure function.
        assert chaotic["result"] == undisturbed["result"]
        assert pool.stats.crashes == 1
        assert pool.stats.restarts == 1
        assert pool.stats.requeues == 1

    def test_retry_budget_exhaustion_is_crashed(self, make_pool):
        pool = make_pool(
            max_requeues=1,
            breakers=CircuitBreakers(strikes=100),
        )
        outcome = submit(
            pool, run_job(chaos={"kill_on_attempts": [0, 1]})
        )
        assert outcome["status"] == "crashed"
        assert outcome["attempts"] == 2
        assert pool.stats.crashed_out == 1

    def test_crash_does_not_poison_other_work(self, make_pool):
        pool = make_pool(n_workers=2, max_requeues=4)
        chaotic = pool.submit(
            run_job(chaos={"kill_on_attempts": [0]}),
            key=job_key(run_job(chaos={"kill_on_attempts": [0]})),
        )
        clean = pool.submit(run_job(), key=job_key(run_job()))
        assert clean.result(timeout=60)["status"] == "ok"
        assert chaotic.result(timeout=60)["status"] == "ok"


class TestQuarantine:
    POISON = {"kill_on_attempts": list(range(10))}

    def test_poison_pill_quarantined_after_strikes(self, make_pool):
        pool = make_pool(
            breakers=CircuitBreakers(strikes=2, cooldown_s=60.0),
            max_requeues=8,
        )
        outcome = submit(pool, run_job(chaos=self.POISON))
        assert outcome["status"] == "quarantined"
        assert outcome["attempts"] == 2  # exactly `strikes` worker deaths
        assert pool.stats.quarantined == 1
        assert pool.stats.crashes == 2

    def test_open_breaker_rejects_resubmission_immediately(
        self, make_pool
    ):
        pool = make_pool(
            breakers=CircuitBreakers(strikes=1, cooldown_s=60.0),
            max_requeues=8,
        )
        submit(pool, run_job(chaos=self.POISON))
        outcome = submit(pool, run_job(chaos=self.POISON))
        assert outcome["status"] == "quarantined"
        assert "breaker" in outcome["detail"]
        assert pool.stats.rejected_open == 1
        # No fresh worker was spent on the rejected submission.
        assert pool.stats.crashes == 1

    def test_half_open_probe_crash_requarantines(self, make_pool):
        pool = make_pool(
            breakers=CircuitBreakers(strikes=1, cooldown_s=0.05),
            max_requeues=8,
        )
        submit(pool, run_job(chaos=self.POISON))
        import time

        time.sleep(0.1)  # past cooldown: next submission is the probe
        outcome = submit(pool, run_job(chaos=self.POISON))
        assert outcome["status"] == "quarantined"
        assert outcome["attempts"] == 1  # the probe died once
        assert pool.breakers.is_open(job_key(run_job(chaos=self.POISON)))


class TestDeadlines:
    def test_queue_stage_expiry_never_dispatches(self, make_pool):
        pool = make_pool()
        outcome = submit(pool, run_job(), deadline_s=0.0)
        assert outcome["status"] == "timeout"
        assert outcome["where"] == "queue"
        assert pool.stats.timeouts == 1

    def test_wedged_worker_is_deadline_killed(self, make_pool):
        pool = make_pool(kill_grace_s=0.2)
        outcome = submit(
            pool, run_job(chaos={"sleep_s": 30}), deadline_s=0.2
        )
        assert outcome["status"] == "timeout"
        assert outcome["where"] == "worker"
        assert pool.stats.deadline_kills == 1
        assert pool.stats.restarts == 1
        # The pool stays usable on the respawned worker.
        assert submit(pool, run_job())["status"] == "ok"


class TestDrain:
    def test_drain_close_finishes_queued_work(self, make_pool):
        pool = make_pool(n_workers=2)
        futures = [
            pool.submit(run_job(), key=job_key(run_job()))
            for _ in range(6)
        ]
        pool.close(drain=True, timeout=30)
        outcomes = [f.result(timeout=1) for f in futures]
        assert all(o["status"] == "ok" for o in outcomes)

    def test_abort_close_resolves_everything_shutdown(self, make_pool):
        pool = make_pool()
        futures = [
            pool.submit(
                run_job(chaos={"sleep_s": 30}),
                key=f"wedge-{i}",
            )
            for i in range(3)
        ]
        pool.close(drain=False, timeout=10)
        statuses = {f.result(timeout=1)["status"] for f in futures}
        assert statuses == {"shutdown"}


class TestCloseRaces:
    """A draining or timed-out ``close()`` never strands work or fds."""

    def test_crash_during_drain_requeues_onto_a_respawned_worker(
        self, make_pool
    ):
        pool = make_pool(max_requeues=4)
        job = run_job(chaos={"kill_on_attempts": [0]})
        future = pool.submit(job, key=job_key(job))
        pool.close(drain=True, timeout=5)
        assert not pool._supervisor.is_alive()
        assert future.result(timeout=0)["status"] == "ok"
        assert pool.stats.requeues == 1
        assert pool.depth() == {"pending": 0, "inflight": 0, "workers": 0}

    def test_timed_out_close_leaves_the_wake_pipe_to_the_supervisor(
        self, make_pool
    ):
        pool = make_pool()
        job = run_job(chaos={"sleep_s": 1.5})
        future = pool.submit(job, key=job_key(job))
        pool.close(drain=True, timeout=0.2)
        assert pool._supervisor.is_alive()
        # Still open while the supervisor waits on them ...
        os.fstat(pool._wake_r)
        os.fstat(pool._wake_w)
        cpu = time.process_time()
        assert future.result(timeout=30)["status"] == "ok"
        pool._supervisor.join(timeout=10)
        # ... which it did without spinning, then exited and closed them.
        assert not pool._supervisor.is_alive()
        assert time.process_time() - cpu < 0.5
        assert pool._wake_r is None and pool._wake_w is None


class StubWorker:
    """A worker slot for fake-clock tests: logs what it is sent."""

    def __init__(self, log: list) -> None:
        self.inflight: list[_Ticket] = []
        self.dispatched_at = 0.0
        self.conn = self
        self.log = log

    def send(self, lanes) -> None:
        self.log.append([ticket_id for ticket_id, *_ in lanes])


class FakeClockPool:
    """A never-started pool on a fake clock (no worker process runs)."""

    #: A binary fraction, so window arithmetic on the clock is exact.
    WINDOW_S = 1 / 128

    @pytest.fixture
    def pool(self):
        clock = FakeClock()
        clock.now = 100.0
        pool = WorkerPool(1, handler=execute_lanes,
                          batch_window_s=self.WINDOW_S,
                          batch_max_lanes=4, clock=clock)
        yield pool
        os.close(pool._wake_r)
        os.close(pool._wake_w)

    def queue(self, pool, **fields) -> _Ticket:
        ticket = _Ticket(
            ticket_id=pool._next_id, key="k", job={},
            future=Future(), deadline=None, submitted=pool.clock(),
            **fields,
        )
        pool._next_id += 1
        pool._pending.append(ticket)
        return ticket

    def workers(self, pool, count: int) -> list[list[int]]:
        """Give the pool ``count`` idle slots; returns their send log."""
        log: list[list[int]] = []
        pool._workers = [StubWorker(log) for _ in range(count)]
        return log

    def dispatch(self, pool) -> None:
        pool._dispatch_locked(pool.clock())


class TestWaitHorizon(FakeClockPool):
    """The supervisor's sleep."""

    def test_lone_ticket_with_nothing_in_flight_arms_no_timer(self, pool):
        self.queue(pool, batch_key="group")
        assert pool._next_wait_locked(pool.clock()) == pytest.approx(0.5)

    def test_held_pair_waits_exactly_its_window(self, pool):
        self.queue(pool, batch_key="group")
        self.queue(pool, batch_key="group")
        assert pool._next_wait_locked(pool.clock()) == pytest.approx(
            self.WINDOW_S
        )

    def test_backoff_gate_fires_on_time(self, pool):
        self.queue(pool, not_before=pool.clock() + 0.003)
        assert pool._next_wait_locked(pool.clock()) == pytest.approx(0.003)

    def test_due_timer_is_floored_at_one_millisecond(self, pool):
        self.queue(pool, batch_key="group")
        self.queue(pool, batch_key="group")
        pool.clock.now += self.WINDOW_S - 0.0001
        assert pool._next_wait_locked(pool.clock()) == pytest.approx(0.001)


class TestGatherRule(FakeClockPool):
    """``_dispatch_locked``: Nagle's rule, capped by the window."""

    def test_lone_ticket_on_an_idle_pool_dispatches_now(self, pool):
        sent = self.workers(pool, 2)
        ticket = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        assert sent == [[ticket.ticket_id]]
        assert pool._pending == []

    def test_lone_ticket_behind_its_group_waits_for_window(self, pool):
        sent = self.workers(pool, 2)
        first = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        second = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        # An idle worker is free, but a lane-mate may still arrive
        # while the first dispatch of the group runs.
        assert sent == [[first.ticket_id]]
        assert pool._next_wait_locked(pool.clock()) == pytest.approx(
            self.WINDOW_S
        )
        pool.clock.now += self.WINDOW_S
        self.dispatch(pool)
        assert sent == [[first.ticket_id],
                                      [second.ticket_id]]

    def test_lone_ticket_behind_its_group_leaves_on_return(self, pool):
        sent = self.workers(pool, 2)
        first = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        (busy,) = [w for w in pool._workers if w.inflight]
        second = self.queue(pool, batch_key="group")
        pool.clock.now += self.WINDOW_S / 2
        self.dispatch(pool)
        assert pool._pending == [second]
        busy.inflight = []  # the group's dispatch returns
        self.dispatch(pool)
        assert sent == [[first.ticket_id],
                                      [second.ticket_id]]

    def test_other_keys_in_flight_hold_nothing(self, pool):
        sent = self.workers(pool, 2)
        self.queue(pool, batch_key="other")
        self.dispatch(pool)
        ticket = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        assert sent[-1] == [ticket.ticket_id]

    def test_queued_pair_waits_for_window(self, pool):
        sent = self.workers(pool, 2)
        pair = [self.queue(pool, batch_key="group") for _ in range(2)]
        self.dispatch(pool)
        assert sent == []
        pool.clock.now += self.WINDOW_S / 2
        self.dispatch(pool)
        assert sent == []
        pool.clock.now += self.WINDOW_S / 2
        self.dispatch(pool)
        assert sent == [[t.ticket_id for t in pair]]

    def test_queued_group_leaves_when_full(self, pool):
        sent = self.workers(pool, 2)
        group = [self.queue(pool, batch_key="group") for _ in range(3)]
        self.dispatch(pool)
        assert sent == []
        group.append(self.queue(pool, batch_key="group"))
        self.dispatch(pool)
        assert sent == [[t.ticket_id for t in group]]

    def test_remainder_of_a_full_group_waits_behind_it(self, pool):
        sent = self.workers(pool, 2)
        group = [self.queue(pool, batch_key="group") for _ in range(5)]
        self.dispatch(pool)
        # The fifth ticket is alone, but its group went out in this
        # same pass: it waits for lane-mates instead of the idle slot.
        assert sent == [[t.ticket_id for t in group[:4]]]
        assert pool._pending == group[4:]

    def test_closing_pool_flushes_what_it_held(self, pool):
        sent = self.workers(pool, 2)
        first = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        pair = [self.queue(pool, batch_key="held") for _ in range(2)]
        lone = self.queue(pool, batch_key="group")
        self.dispatch(pool)
        assert len(pool._pending) == 3
        pool._closing = True
        assert pool._next_wait_locked(pool.clock()) == pytest.approx(0.5)
        self.dispatch(pool)
        assert sent == [[first.ticket_id],
                                      [t.ticket_id for t in pair]]
        assert pool._pending == [lone]  # both slots are busy now
