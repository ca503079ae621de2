"""The one process supervisor, checked against a reference model.

A hypothesis state machine drives :class:`repro.supervisor.WorkerPool`
with an in-test handler, so nothing compiles: jobs die on their first
k attempts, wedge past a short deadline, arrive already expired or
gather into lockstep batches under one of two batch keys, the pool
grows while work is in flight, and it is closed by draining or
aborting.  A small model predicts every
ticket's terminal status from the retry budget and the breaker
threshold; after close, every accepted future must have resolved
exactly once to that status, no dispatch may have carried more than
``batch_max_lanes`` lanes or mixed batch keys, and the pool's counters
must balance.
"""

import os
import time

from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.supervisor import BackoffPolicy, CircuitBreakers, WorkerPool

STATUSES = {"ok", "error", "timeout", "quarantined", "crashed", "shutdown"}
#: A worker that dies on purpose exits with this code.
DEATH_EXITCODE = 3
#: Deadline and kill grace of a wedged job: short, so kills are quick.
WEDGE_DEADLINE_S = 0.02
KILL_GRACE_S = 0.02
#: Several times the longest legitimate drain here; a stranded ticket
#: makes ``close`` run into it and the test fail instead of hanging.
CLOSE_TIMEOUT_S = 3.0
#: Gather window: short, so held groups flush within the test.
BATCH_WINDOW_S = 0.005
BATCH_KEYS = ("even", "odd")


def model_handler(lanes):
    """Die, wedge or answer ``value`` — as each job asks.

    Every lane first works for a millisecond, so a death can land
    after the close that follows its submission.  Each answer reports
    the dispatch it rode in: its lane count and every lane's batch key.
    """
    responses = []
    groups = [job["group"] for _, job, _, _ in lanes]
    for ticket_id, job, attempt, _ in lanes:
        time.sleep(0.001)
        if attempt < job["die_first"]:
            os._exit(DEATH_EXITCODE)
        if job["wedge"]:
            time.sleep(60)
        responses.append((ticket_id, {
            "status": "ok", "result": job["value"],
            "lanes": len(lanes), "groups": groups,
        }))
    return responses


def predicted_status(die_first: int, max_requeues: int,
                     strikes: int) -> str:
    """The terminal status of a job dying on its first ``die_first``
    attempts: each death is a strike, and the breaker opening wins
    over an exhausted retry budget."""
    for death in range(1, die_first + 1):
        if death >= strikes:
            return "quarantined"
        if death > max_requeues:
            return "crashed"
    return "ok"


class SupervisorModel(RuleBasedStateMachine):
    @initialize(
        workers=st.integers(1, 2),
        max_requeues=st.integers(0, 2),
        strikes=st.integers(1, 3),
        max_lanes=st.integers(1, 4),
    )
    def start(self, workers, max_requeues, strikes, max_lanes):
        self.max_requeues = max_requeues
        self.strikes = strikes
        self.max_lanes = max_lanes
        self.pool = WorkerPool(
            workers,
            handler=model_handler,
            backoff=BackoffPolicy(base_s=0.001, cap_s=0.004, seed=1),
            breakers=CircuitBreakers(strikes=strikes),
            max_requeues=max_requeues,
            kill_grace_s=KILL_GRACE_S,
            batch_window_s=BATCH_WINDOW_S,
            batch_max_lanes=max_lanes,
        )
        self.pool.start()
        #: (future, statuses the model allows, job) per accepted job.
        self.tickets = []
        self.resolutions: dict[int, int] = {}
        self.drained = None  # None while open, else the close mode

    def _submit(self, job, allowed, deadline_s=None):
        key = f"job-{len(self.tickets)}"  # one breaker per ticket
        future = self.pool.submit(job, key=key, deadline_s=deadline_s,
                                  batch_key=job["group"])
        index = len(self.tickets)
        self.resolutions[index] = 0

        def resolved(_, index=index):
            self.resolutions[index] += 1

        future.add_done_callback(resolved)
        self.tickets.append((future, allowed, job))

    def _job(self, die_first=0, wedge=False, group=None):
        return {"value": len(self.tickets) * 7 + 1,
                "die_first": die_first, "wedge": wedge, "group": group}

    @precondition(lambda self: self.drained is None)
    @rule(die_first=st.integers(0, 3))
    def submit_dying(self, die_first):
        status = predicted_status(
            die_first, self.max_requeues, self.strikes
        )
        self._submit(self._job(die_first=die_first), {status})

    @precondition(lambda self: self.drained is None)
    @rule()
    def submit_wedged(self):
        # Killed past its deadline (one strike), or expired in the
        # queue behind other work before it ever ran.
        allowed = {"timeout"} | ({"quarantined"} if self.strikes == 1
                                 else set())
        self._submit(self._job(wedge=True), allowed,
                     deadline_s=WEDGE_DEADLINE_S)

    @precondition(lambda self: self.drained is None)
    @rule(group=st.sampled_from(BATCH_KEYS), count=st.integers(1, 5))
    def submit_batchable(self, group, count):
        # Healthy lane-mates, submitted back to back so some queue
        # together and some arrive behind a dispatch of their key.
        for _ in range(count):
            self._submit(self._job(group=group), {"ok"})

    @precondition(lambda self: self.drained is None)
    @rule()
    def submit_expired(self):
        self._submit(self._job(), {"timeout"}, deadline_s=0.0)

    @precondition(lambda self: self.drained is None)
    @rule(workers=st.integers(1, 3))
    def grow(self, workers):
        # New workers join idle: no ticket's status may change.
        self.pool.grow(workers)
        assert self.pool.depth()["workers"] >= workers

    @precondition(lambda self: self.drained is None)
    @rule(drain=st.booleans())
    def close(self, drain):
        self.pool.close(drain=drain, timeout=CLOSE_TIMEOUT_S)
        self.drained = drain

    @precondition(lambda self: self.drained is not None)
    @rule()
    def submit_after_close(self):
        future = self.pool.submit(self._job(), key="late")
        assert future.result(timeout=0) == {"status": "shutdown"}

    def teardown(self):
        if self.drained is None:
            self.close(drain=True)
        pool = self.pool
        assert not pool._supervisor.is_alive()
        # Nothing was left held: a closing pool flushes every group.
        assert pool.depth()["pending"] == 0
        worker_timeouts = 0
        batched_lanes = 0
        for index, (future, allowed, job) in enumerate(self.tickets):
            assert future.done(), f"ticket {index} stranded"
            assert self.resolutions[index] == 1
            outcome = future.result(timeout=0)
            assert outcome["status"] in STATUSES
            expected = allowed if self.drained else allowed | {"shutdown"}
            assert outcome["status"] in expected, (index, job, outcome)
            if outcome["status"] == "ok":
                assert outcome["result"] == job["value"]
                # One batch key per dispatch, this lane's own, and
                # never more lanes than the pool allows.
                assert set(outcome["groups"]) == {job["group"]}
                assert outcome["lanes"] <= self.max_lanes
                batched_lanes += outcome["lanes"] > 1
            if outcome["status"] in ("crashed", "quarantined"):
                assert outcome["exitcode"] in (DEATH_EXITCODE, -9)
            if outcome.get("where") == "worker":
                worker_timeouts += 1
        stats = pool.stats
        assert stats.submitted == len(self.tickets)
        assert stats.completed == stats.submitted
        if self.drained:
            # Batched lanes never die, so under a drain every lane a
            # batch carried answered from inside it.
            assert stats.batch_lanes == batched_lanes
        # Scalar dispatch: every worker death strikes exactly one
        # ticket, and every strike ends in exactly one of these.
        assert stats.crashes == (
            stats.requeues + stats.quarantined + stats.crashed_out
            + worker_timeouts
        )


# No shrink phase: every shrink attempt of a stranded ticket costs a
# close timeout, and a ten-step failing run is readable as it is.
SupervisorModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=6, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
TestSupervisorModel = SupervisorModel.TestCase
