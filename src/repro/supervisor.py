"""The toolkit's one process supervisor: crash-safe workers, typed outcomes.

Campaign ``--jobs`` shards and the ``repro serve`` pool both fan work
out through :class:`WorkerPool`; nothing else spawns, waits on, reaps
or re-queues worker processes.  A pool runs one ``handler`` fixed at
construction and given to every worker it starts, so worker death,
retry budgets and exhaustion are decided here for both users, and this
module needs neither the service layer nor ``asyncio``.

``multiprocessing.Pool`` famously turns a SIGKILLed worker into a
hang (the parent waits forever for a result that will never come), and
``ProcessPoolExecutor`` fails every pending future with
``BrokenProcessPool`` and no exit code.  This pool is built the other
way around: every worker is a directly supervised
``multiprocessing.Process`` with a dedicated duplex pipe, and a
supervisor thread multiplexes over *both* the result pipes and the
process **sentinels** with :func:`multiprocessing.connection.wait` —
so worker death (segfault, OOM-kill, chaos SIGKILL) is an observed
event, not an absence of one.

The handler receives one dispatched message — a list of ``(ticket_id,
job, attempt, budget_s)`` lanes, one for scalar work and several for
a gathered batch — and returns one ``(ticket_id, response)`` pair per
lane, a response being a dict with a terminal ``status``.  An
exception escaping the handler kills the worker, which the pool
observes like any other death.

Lifecycle of a submitted job:

1. :meth:`WorkerPool.submit` gates the job's key through the circuit
   breaker (open ⇒ immediate ``quarantined`` outcome), then queues a
   ticket and returns a :class:`concurrent.futures.Future`.
2. The supervisor dispatches tickets to idle workers, oldest
   admissible first (backoff ``not_before`` gates re-queued work).
3. A worker answers with a structured response → the future resolves.
4. A worker *dies* with tickets in flight → the pool reaps it, charges
   the death as a breaker strike against each ticket's key, and only
   then respawns the worker (or retires it, when a draining pool has
   nothing left to run).  A struck ticket re-queues with capped
   seeded-jittered exponential backoff — unless the breaker opened
   (``quarantined``) or the retry budget is exhausted (``crashed``);
   both outcomes carry the dead worker's ``exitcode``.
5. A ticket overruns its deadline: in the queue it resolves
   ``timeout`` without ever running; in flight, the worker gets
   ``kill_grace_s`` beyond the deadline (the in-simulator deadline
   should fire first and return a structured timeout), then is killed
   and the ticket resolves ``timeout`` — a wedged worker also counts
   a strike, since it cost a process.

Every future resolves to a dict with a terminal ``status``: ``ok`` /
``timeout`` / ``error`` (from the worker), or ``quarantined`` /
``crashed`` / ``shutdown`` (from the pool).  Futures are never failed
with exceptions — callers branch on data, not exception types.

The retry policy is wall-clock-free and fully seeded, so the chaos
suites can assert exact behaviour:

* :class:`BackoffPolicy` — capped exponential backoff whose jitter is
  a pure function of ``(seed, key, attempt)``: the same crashed job
  re-queues on the identical schedule in every run.  Jitter spreads a
  thundering herd of re-queued work without sacrificing
  reproducibility (the classic trade randomized backoff makes, made
  deterministic by hashing instead of sampling).
* :class:`CircuitBreakers` — a per-key strike counter with the usual
  three states.  A key that kills workers ``strikes`` times is
  *quarantined* (open): further submissions are rejected immediately
  instead of being fed to fresh workers.  After ``cooldown_s`` the
  breaker lets exactly one probe through (half-open); a clean probe
  closes the breaker, another crash re-opens it.  The clock is
  injectable so tests drive the state machine without sleeping.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import wait as mp_wait

from repro.obs.events import PH_COMPLETE, Event
from repro.obs.metrics import CounterBlock
from repro.obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped, seeded-jittered exponential backoff.

    ``delay(key, attempt)`` for attempts 0, 1, 2, … grows as
    ``base_s * 2**attempt``, stretched by a deterministic jitter in
    ``[0, jitter)`` derived from SHA-256 of ``(seed, key, attempt)``,
    and clamped to ``cap_s``.  Properties the tests pin:

    * reproducible — equal inputs, equal schedule, across processes;
    * capped — no delay ever exceeds ``cap_s``;
    * monotone in expectation — the un-jittered base doubles.
    """

    base_s: float = 0.05
    cap_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ValueError("backoff base_s must be > 0")
        if self.cap_s < self.base_s:
            raise ValueError("backoff cap_s must be >= base_s")
        if not 0 <= self.jitter <= 1:
            raise ValueError("backoff jitter must be in [0, 1]")

    def unit(self, key: str, attempt: int) -> float:
        """The deterministic jitter draw in [0, 1) for one retry."""
        blob = f"{self.seed}:{key}:{attempt}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before re-queueing retry ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        base = self.base_s * (2.0 ** attempt)
        stretched = base * (1.0 + self.jitter * self.unit(key, attempt))
        return min(self.cap_s, stretched)

    def schedule(self, key: str, attempts: int) -> list[float]:
        """The full delay schedule for ``attempts`` retries of ``key``."""
        return [self.delay(key, attempt) for attempt in range(attempts)]


# ----------------------------------------------------------------------
@dataclass
class _Breaker:
    """One key's strike record."""

    strikes: int = 0
    state: str = "closed"  # closed | open | half_open
    opened_at: float = 0.0
    probing: bool = False


@dataclass
class CircuitBreakers:
    """Per-request-key poison-pill quarantine.

    A *strike* is a worker death attributable to the key (crash while
    the key's job was in flight, or a deadline kill of a wedged
    worker).  ``strikes`` deaths open the breaker; while open,
    :meth:`admit` rejects the key without spending a worker on it.
    ``cooldown_s`` after opening, one submission is admitted as a
    half-open probe; its success closes the breaker and resets the
    count, another strike re-opens it for a fresh cooldown.
    """

    strikes: int = 2
    cooldown_s: float = 30.0
    clock: object = time.monotonic
    _keys: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.strikes < 1:
            raise ValueError("breaker strikes must be >= 1")

    def _get(self, key: str) -> _Breaker:
        breaker = self._keys.get(key)
        if breaker is None:
            breaker = self._keys[key] = _Breaker()
        return breaker

    # ------------------------------------------------------------------
    def admit(self, key: str) -> str:
        """Gate one submission: ``"allow"``, ``"probe"`` or ``"reject"``.

        ``"probe"`` admissions must be reported back through
        :meth:`record_success` / :meth:`record_strike` to resolve the
        half-open state; while a probe is outstanding every other
        submission of the key is rejected.
        """
        breaker = self._keys.get(key)
        if breaker is None or breaker.state == "closed":
            return "allow"
        if breaker.state == "open":
            if self.clock() - breaker.opened_at < self.cooldown_s:
                return "reject"
            breaker.state = "half_open"
            breaker.probing = True
            return "probe"
        # half_open: one probe at a time.
        if breaker.probing:
            return "reject"
        breaker.probing = True
        return "probe"

    def record_strike(self, key: str) -> bool:
        """Count one worker death against ``key``; True if now open."""
        breaker = self._get(key)
        breaker.strikes += 1
        breaker.probing = False
        if breaker.state == "half_open" or breaker.strikes >= self.strikes:
            breaker.state = "open"
            breaker.opened_at = self.clock()
        return breaker.state == "open"

    def record_success(self, key: str) -> None:
        """A completed job for ``key``: close a probe, clear strikes."""
        breaker = self._keys.get(key)
        if breaker is None:
            return
        breaker.strikes = 0
        breaker.state = "closed"
        breaker.probing = False

    # ------------------------------------------------------------------
    def is_open(self, key: str) -> bool:
        breaker = self._keys.get(key)
        return breaker is not None and breaker.state == "open"

    def states(self) -> dict[str, dict]:
        """Snapshot for ``/healthz``: every non-closed breaker."""
        return {
            key: {"state": b.state, "strikes": b.strikes}
            for key, b in sorted(self._keys.items())
            if b.state != "closed" or b.strikes
        }

    def counts(self) -> dict[str, int]:
        tally = {"closed": 0, "open": 0, "half_open": 0}
        for breaker in self._keys.values():
            tally[breaker.state] += 1
        return tally


# ----------------------------------------------------------------------
def _worker_main(conn, handler) -> None:
    """Worker process body: recv lanes, run the handler, send, repeat.

    The only ways out of this loop are a shutdown sentinel (``None``),
    a closed pipe or process death — exactly the contract the
    supervisor's crash detection relies on.

    The heap inherited at fork is frozen first (:func:`gc.freeze`):
    it is the parent's state, which the worker mostly never touches.
    The worker's collections then skip it, so a full collection scans
    only what the worker built itself (for a serve worker, mostly its
    compile cache) and stalls the job it lands on for that much less,
    and the collector never writes to, and so never copies, the
    parent's pages.
    """
    gc.freeze()
    while True:
        try:
            lanes = conn.recv()
        except (EOFError, OSError):
            return
        if lanes is None:
            return
        responses = handler(lanes)
        try:
            conn.send(responses)
        except (BrokenPipeError, OSError):
            return


@dataclass
class _Ticket:
    """One submitted job's lifetime through queue, retries, outcome."""

    ticket_id: int
    key: str
    job: object
    future: Future
    deadline: float | None  # absolute monotonic, None = unbounded
    submitted: float = 0.0
    attempt: int = 0        # dispatch attempts so far (crashes bump it)
    not_before: float = 0.0  # backoff gate for re-queued tickets
    probe: bool = False      # half-open breaker probe
    batch_key: str | None = None  # gather identity; None = always scalar

    def budget(self, now: float) -> float | None:
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - now)


class _Worker:
    """One supervised process + its pipe."""

    def __init__(self, ctx, handler) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main, args=(child_conn, handler), daemon=True
        )
        self.process.start()
        child_conn.close()
        #: The lanes dispatched to this worker (empty = idle): one
        #: ticket for scalar work, several for a lockstep batch.
        self.inflight: list[_Ticket] = []
        self.dispatched_at = 0.0

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):
            pass

    def reap(self) -> int | None:
        """Close the pipe and join the process; its exit code."""
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=5)
        return self.process.exitcode


@dataclass
class PoolStats(CounterBlock):
    """Supervisor counters, exposed verbatim (zeros included) by
    ``/healthz`` and ``/metrics``."""

    submitted: int = 0
    completed: int = 0
    crashes: int = 0
    restarts: int = 0
    requeues: int = 0
    quarantined: int = 0
    timeouts: int = 0
    deadline_kills: int = 0
    crashed_out: int = 0
    rejected_open: int = 0
    #: Lockstep dispatches of >= 2 lanes, and the lanes they carried
    #: (lanes / flushes = mean batch occupancy).
    batch_flushes: int = 0
    batch_lanes: int = 0


class WorkerPool:
    """Supervised crash-safe pool; see the module docstring.

    Thread-safe: :meth:`submit` may be called from any thread (the
    asyncio service calls it from the event loop and wraps the future
    with ``asyncio.wrap_future``).
    """

    def __init__(
        self,
        n_workers: int = 2,
        *,
        handler,
        backoff: BackoffPolicy | None = None,
        breakers: CircuitBreakers | None = None,
        max_requeues: int = 4,
        kill_grace_s: float = 2.0,
        batch_window_s: float = 0.0,
        batch_max_lanes: int = 1,
        tracer=NULL_TRACER,
        clock=time.monotonic,
    ) -> None:
        if n_workers < 1:
            raise ValueError("pool needs at least one worker")
        if batch_max_lanes < 1:
            raise ValueError("batch_max_lanes must be >= 1")
        self.n_workers = n_workers
        self.handler = handler
        self.backoff = backoff or BackoffPolicy()
        self.breakers = breakers or CircuitBreakers()
        self.max_requeues = max_requeues
        self.kill_grace_s = kill_grace_s
        self.batch_window_s = batch_window_s
        self.batch_max_lanes = batch_max_lanes
        self.tracer = tracer
        self.clock = clock
        self.stats = PoolStats()
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._pending: list[_Ticket] = []
        self._workers: list[_Worker] = []
        self._next_id = 0
        self._closing = False
        self._drain = True
        self._started = False
        # Written under the lock, so never blocking: a full pipe
        # already holds a wake-up.  The supervisor closes both ends on
        # its way out (None afterwards).
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._supervisor: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            self._workers = [
                _Worker(self._ctx, self.handler)
                for _ in range(self.n_workers)
            ]
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-supervisor", daemon=True
        )
        self._supervisor.start()

    def grow(self, n_workers: int) -> None:
        """Run at least ``n_workers`` workers from now on.

        The new workers join idle; queued and in-flight work is left
        as it is.  A pool never shrinks: idle workers wait for work
        until :meth:`close`.
        """
        with self._lock:
            if not self._started or self._closing:
                return
            while len(self._workers) < n_workers:
                self._workers.append(_Worker(self._ctx, self.handler))
            self._wake_locked()

    def _wake_locked(self) -> None:
        if self._wake_w is None:
            return
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # ------------------------------------------------------------------
    def submit(self, job, *, key: str,
               deadline_s: float | None = None,
               batch_key: str | None = None) -> Future:
        """Queue one job; resolves to a terminal structured outcome.

        ``batch_key`` marks the job gatherable: queued jobs sharing a
        key may dispatch together as one lockstep batch of at most
        ``batch_max_lanes`` lanes.  Gathering follows Nagle's rule
        (RFC 896), capped by ``batch_window_s``: a lone job whose key
        has nothing in flight goes to an idle worker at once, and an
        under-full group waits only while it has a queued lane-mate or
        a dispatch of its key is in flight, and only until its oldest
        job has waited the window.  Half-open breaker probes always
        run scalar — a probe's strike semantics must not be chargeable
        to innocent lane-mates.
        """
        future: Future = Future()
        now = self.clock()
        with self._lock:
            if not self._started or self._closing:
                future.set_result({"status": "shutdown"})
                return future
            verdict = self.breakers.admit(key)
            if verdict == "reject":
                self.stats.rejected_open += 1
                future.set_result({
                    "status": "quarantined",
                    "key": key,
                    "detail": "circuit breaker open for this request",
                })
                return future
            self.stats.submitted += 1
            ticket = _Ticket(
                ticket_id=self._next_id,
                key=key,
                job=job,
                future=future,
                deadline=(now + deadline_s) if deadline_s is not None
                else None,
                submitted=now,
                probe=(verdict == "probe"),
                batch_key=(
                    batch_key if self.batch_max_lanes > 1
                    and verdict != "probe" else None
                ),
            )
            self._next_id += 1
            self._pending.append(ticket)
            self._wake_locked()
        return future

    def depth(self) -> dict[str, int]:
        with self._lock:
            inflight = sum(len(w.inflight) for w in self._workers)
            return {"pending": len(self._pending), "inflight": inflight,
                    "workers": len(self._workers)}

    # ------------------------------------------------------------------
    def close(self, *, drain: bool = True, timeout: float | None = 30.0
              ) -> None:
        """Stop the pool: drain in-flight work (default) or abort it.

        Returns after ``timeout`` even if the supervisor is still
        draining; it keeps running and exits once the work is done.
        """
        with self._lock:
            if not self._started:
                return
            self._closing = True
            self._drain = drain
            self._wake_locked()
        if self._supervisor is not None:
            self._supervisor.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Supervisor internals — all _locked helpers assume self._lock held.
    # ------------------------------------------------------------------
    def _complete_locked(self, ticket: _Ticket, outcome: dict) -> None:
        self.stats.completed += 1
        if not ticket.future.done():
            ticket.future.set_result(outcome)

    def _send_lanes_locked(self, worker: _Worker, lanes: list[_Ticket],
                           now: float) -> None:
        for ticket in lanes:
            self._pending.remove(ticket)
        worker.inflight = list(lanes)
        worker.dispatched_at = now
        if len(lanes) > 1:
            self.stats.batch_flushes += 1
            self.stats.batch_lanes += len(lanes)
            if self.tracer.enabled:
                gathered = now - min(t.submitted for t in lanes)
                end = self.tracer.now()
                self.tracer.emit(Event(
                    name="serve.batch.gather", cat="serve",
                    ph=PH_COMPLETE, ts=end - gathered * 1e6,
                    dur=gathered * 1e6,
                    args={"lanes": len(lanes),
                          "batch_key": lanes[0].batch_key},
                ))
        try:
            worker.conn.send([
                (t.ticket_id, t.job, t.attempt, t.budget(now))
                for t in lanes
            ])
        except (BrokenPipeError, OSError):
            # The worker died between waits; the sentinel event
            # will re-queue these lanes through the crash path.
            pass

    def _dispatch_locked(self, now: float) -> None:
        """Send admissible tickets to idle workers.

        Runs right after :meth:`_check_deadlines_locked` at the same
        ``now``, so no pending ticket is past its deadline.
        """
        idle = [w for w in self._workers if not w.inflight]
        admissible = [
            t for t in self._pending if t.not_before <= now
        ]
        held: set[str] = set()
        for ticket in admissible:
            if not idle:
                break
            if ticket not in self._pending:
                continue  # dispatched as a lane-mate earlier this pass
            if ticket.batch_key is None:
                self._send_lanes_locked(idle.pop(), [ticket], now)
                continue
            if ticket.batch_key in held:
                continue
            group = [
                t for t in admissible
                if t.batch_key == ticket.batch_key and t in self._pending
            ]
            if self._flush_at_locked(group, now) is not None:
                held.add(ticket.batch_key)
                continue
            self._send_lanes_locked(
                idle.pop(), group[:self.batch_max_lanes], now
            )

    def _flush_at_locked(self, group: list[_Ticket],
                         now: float) -> float | None:
        """When the held ``group`` of one batch key must leave, or None
        when it leaves now.

        Nagle's rule (RFC 896), capped by the window: an under-full
        group waits only while a lane-mate is already queued or a
        dispatch of its key is in flight (one sent earlier in the
        same dispatch pass included), only until its oldest ticket has
        waited ``batch_window_s``, and never while the pool closes.
        A lone ticket whose key has nothing in flight leaves at once:
        no lane-mate is on its way, so waiting would buy nothing.
        """
        if len(group) >= self.batch_max_lanes or self._closing:
            return None
        key = group[0].batch_key
        if len(group) < 2 and not any(
            w.inflight and w.inflight[0].batch_key == key
            for w in self._workers
        ):
            return None
        flush_at = min(t.submitted for t in group) + self.batch_window_s
        return flush_at if flush_at > now else None

    def _next_wait_locked(self, now: float) -> float:
        """Seconds until the earliest timer the supervisor must honor.

        A flush timer is armed only for groups
        :meth:`_flush_at_locked` holds; a lone ticket behind an
        in-flight dispatch of its key also leaves when that dispatch
        returns, which wakes the supervisor through the worker's
        pipe.  Floored at 1 ms, well
        under the default 5 ms batch window, so a due timer never
        busy-spins the supervisor and a gather window, backoff or
        deadline fires on time rather than at the floor.
        """
        horizon = 0.5
        groups: dict[str, list[_Ticket]] = {}
        for ticket in self._pending:
            if ticket.not_before > now:
                horizon = min(horizon, ticket.not_before - now)
            elif ticket.batch_key is not None:
                groups.setdefault(ticket.batch_key, []).append(ticket)
            if ticket.deadline is not None and ticket.deadline > now:
                horizon = min(horizon, ticket.deadline - now)
        for group in groups.values():
            flush_at = self._flush_at_locked(group, now)
            if flush_at is not None:
                horizon = min(horizon, flush_at - now)
        for worker in self._workers:
            for ticket in worker.inflight:
                if ticket.deadline is not None:
                    kill_at = ticket.deadline + self.kill_grace_s
                    horizon = min(horizon, max(0.0, kill_at - now))
        return max(0.001, horizon)

    def _strike_locked(self, ticket: _Ticket, now: float, *,
                       cause: str, exitcode: int | None) -> None:
        """One worker death charged to ``ticket``: quarantine or retry."""
        opened = self.breakers.record_strike(ticket.key)
        if opened or ticket.probe:
            self.stats.quarantined += 1
            self._complete_locked(ticket, {
                "status": "quarantined",
                "key": ticket.key,
                "cause": cause,
                "attempts": ticket.attempt + 1,
                "exitcode": exitcode,
            })
            return
        if cause == "deadline":
            # The request's budget is gone; retrying cannot help.
            self.stats.timeouts += 1
            self._complete_locked(ticket, {
                "status": "timeout",
                "where": "worker",
                "detail": "worker killed past deadline grace",
            })
            return
        if ticket.attempt + 1 > self.max_requeues:
            self.stats.crashed_out += 1
            self._complete_locked(ticket, {
                "status": "crashed",
                "attempts": ticket.attempt + 1,
                "exitcode": exitcode,
                "detail": "retry budget exhausted",
            })
            return
        delay = self.backoff.delay(ticket.key, ticket.attempt)
        ticket.attempt += 1
        ticket.not_before = now + delay
        self.stats.requeues += 1
        self._pending.append(ticket)

    def _handle_death_locked(self, worker: _Worker, now: float,
                             expired: list[_Ticket]) -> None:
        """Reap a dead worker, strike its lanes, then respawn or retire.

        Striking first matters while draining: a re-queued lane keeps
        the worker slot alive instead of landing in a pool that has
        already retired its last worker.
        """
        self.stats.crashes += 1
        tickets, worker.inflight = worker.inflight, []
        exitcode = worker.reap()
        for ticket in tickets:
            cause = "deadline" if ticket in expired else "crash"
            self._strike_locked(ticket, now, cause=cause, exitcode=exitcode)
        index = self._workers.index(worker)
        if self._closing and not self._pending:
            self._workers.pop(index)
            return
        self.stats.restarts += 1
        self._workers[index] = _Worker(self._ctx, self.handler)

    def _check_deadlines_locked(self, now: float) -> None:
        for ticket in list(self._pending):
            if ticket.deadline is not None and now >= ticket.deadline:
                self._pending.remove(ticket)
                self.stats.timeouts += 1
                self._complete_locked(ticket, {
                    "status": "timeout",
                    "where": "queue",
                    "detail": "deadline expired before dispatch",
                })
        for worker in list(self._workers):
            expired = [
                t for t in worker.inflight
                if t.deadline is not None
                and now >= t.deadline + self.kill_grace_s
            ]
            if expired:
                # The in-simulator deadline should have fired long ago;
                # the worker is wedged outside simulated code.  Kill it.
                # Lane-mates pay the crash price (a retry), not the
                # expired lane's timeout verdict.
                self.stats.deadline_kills += 1
                worker.kill()
                self._handle_death_locked(worker, now, expired)

    def _abort_pending_locked(self) -> None:
        for ticket in self._pending:
            self._complete_locked(ticket, {"status": "shutdown"})
        self._pending.clear()
        for worker in self._workers:
            tickets, worker.inflight = worker.inflight, []
            for ticket in tickets:
                self._complete_locked(ticket, {"status": "shutdown"})
            worker.kill()

    def _supervise(self) -> None:
        while True:
            now = self.clock()
            with self._lock:
                if self._closing and not self._drain:
                    self._abort_pending_locked()
                self._check_deadlines_locked(now)
                self._dispatch_locked(now)
                idle = all(not w.inflight for w in self._workers)
                if self._closing and idle and (
                    not self._pending or not self._drain
                ):
                    for worker in self._workers:
                        try:
                            worker.conn.send(None)
                        except (BrokenPipeError, OSError):
                            pass
                        worker.reap()
                    self._workers.clear()
                    os.close(self._wake_r)
                    os.close(self._wake_w)
                    self._wake_r = self._wake_w = None
                    return
                conn_map = {w.conn: w for w in self._workers}
                sentinel_map = {
                    w.process.sentinel: w for w in self._workers
                }
                timeout = self._next_wait_locked(now)
            ready = mp_wait(
                [self._wake_r, *conn_map, *sentinel_map], timeout
            )
            now = self.clock()
            with self._lock:
                crashed: list[_Worker] = []
                for item in ready:
                    if item == self._wake_r:
                        try:
                            os.read(self._wake_r, 4096)
                        except OSError:
                            pass
                        continue
                    worker = conn_map.get(item)
                    if worker is not None:
                        try:
                            pairs = worker.conn.recv()
                        except (EOFError, OSError):
                            if worker not in crashed:
                                crashed.append(worker)
                            continue
                        tickets, worker.inflight = worker.inflight, []
                        if len(tickets) > 1 and self.tracer.enabled:
                            dur = (now - worker.dispatched_at) * 1e6
                            self.tracer.emit(Event(
                                name="serve.batch.execute", cat="serve",
                                ph=PH_COMPLETE,
                                ts=self.tracer.now() - dur, dur=dur,
                                args={"lanes": len(tickets)},
                            ))
                        by_id = {t.ticket_id: t for t in tickets}
                        for ticket_id, response in pairs:
                            ticket = by_id.pop(ticket_id, None)
                            if ticket is None:
                                continue  # stale lane (already struck)
                            self.breakers.record_success(ticket.key)
                            self._complete_locked(ticket, response)
                        for ticket in by_id.values():
                            # A worker must answer every lane it was
                            # sent; a missing one is a protocol fault,
                            # surfaced as a typed terminal error.
                            self._complete_locked(ticket, {
                                "status": "error",
                                "error": {
                                    "type": "PoolProtocolError",
                                    "message": "worker response missing"
                                               " this lane",
                                },
                            })
                        continue
                    worker = sentinel_map[item]
                    if worker not in crashed:
                        crashed.append(worker)
                # Only now, after every ready pipe has been read: a
                # worker that answered and then died keeps its answer.
                for worker in crashed:
                    self._handle_death_locked(worker, now, [])
