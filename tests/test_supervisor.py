"""The one process supervisor, checked against a reference model.

A hypothesis state machine drives :class:`repro.supervisor.WorkerPool`
with an in-test handler, so nothing compiles: jobs die on their first
k attempts, wedge past a short deadline or arrive already expired, and
the pool is closed by draining or aborting.  A small model predicts
every ticket's terminal status from the retry budget and the breaker
threshold; after close, every accepted future must have resolved
exactly once to that status and the pool's counters must balance.
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


def model_handler(lanes):
    """Die, wedge or answer ``value`` — as each job asks.

    Every lane first works for a millisecond, so a death can land
    after the close that follows its submission.
    """
    responses = []
    for ticket_id, job, attempt, _ in lanes:
        time.sleep(0.001)
        if attempt < job["die_first"]:
            os._exit(DEATH_EXITCODE)
        if job["wedge"]:
            time.sleep(60)
        responses.append(
            (ticket_id, {"status": "ok", "result": job["value"]})
        )
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
    )
    def start(self, workers, max_requeues, strikes):
        self.max_requeues = max_requeues
        self.strikes = strikes
        self.pool = WorkerPool(
            workers,
            handler=model_handler,
            backoff=BackoffPolicy(base_s=0.001, cap_s=0.004, seed=1),
            breakers=CircuitBreakers(strikes=strikes),
            max_requeues=max_requeues,
            kill_grace_s=KILL_GRACE_S,
        )
        self.pool.start()
        #: (future, statuses the model allows, job) per accepted job.
        self.tickets = []
        self.resolutions: dict[int, int] = {}
        self.drained = None  # None while open, else the close mode

    def _submit(self, job, allowed, deadline_s=None):
        key = f"job-{len(self.tickets)}"  # one breaker per ticket
        future = self.pool.submit(job, key=key, deadline_s=deadline_s)
        index = len(self.tickets)
        self.resolutions[index] = 0

        def resolved(_, index=index):
            self.resolutions[index] += 1

        future.add_done_callback(resolved)
        self.tickets.append((future, allowed, job))

    def _job(self, die_first=0, wedge=False):
        return {"value": len(self.tickets) * 7 + 1,
                "die_first": die_first, "wedge": wedge}

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
    @rule()
    def submit_expired(self):
        self._submit(self._job(), {"timeout"}, deadline_s=0.0)

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
        worker_timeouts = 0
        for index, (future, allowed, job) in enumerate(self.tickets):
            assert future.done(), f"ticket {index} stranded"
            assert self.resolutions[index] == 1
            outcome = future.result(timeout=0)
            assert outcome["status"] in STATUSES
            expected = allowed if self.drained else allowed | {"shutdown"}
            assert outcome["status"] in expected, (index, job, outcome)
            if outcome["status"] == "ok":
                assert outcome["result"] == job["value"]
            if outcome["status"] in ("crashed", "quarantined"):
                assert outcome["exitcode"] in (DEATH_EXITCODE, -9)
            if outcome.get("where") == "worker":
                worker_timeouts += 1
        stats = pool.stats
        assert stats.submitted == len(self.tickets)
        assert stats.completed == stats.submitted
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
