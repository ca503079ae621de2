"""The asyncio service: admission, deadlines, routing, drain.

Request lifecycle::

    accept → parse (bounded HTTP) → validate (registry names, a run's
    engine, chaos gating) → admission control (per-class bounds,
    campaign shedding) → deadline stamp → worker pool → terminal
    structured response

Admission control is the backpressure story: each request class
(``compile`` / ``run`` / ``campaign``) has a bounded
queued-or-in-flight count, and a request past its bound is shed with
an *immediate* typed 429 — the client learns in microseconds, not
after a queue timeout.  Degradation is graceful and ordered: when
total load crosses ``shed_campaigns_at`` of capacity, campaign-class
requests shed even though their own bound has room, so cheap compile
traffic survives a campaign flood.

In-flight dedup rides just ahead of admission: a ``/run`` submission
whose content address (:func:`repro.serve.jobs.dedup_key`) matches an
execution already in flight awaits that execution instead of queueing
its own — no admission slot, no worker, one result fanned out to every
waiter.  Attachment is deadline-safe: a follower only coalesces when
the leader's outcome cannot be worse than its own run would have been
(follower budget ≤ leader's requested budget, or leader's remaining
time covers the follower's whole budget); otherwise it admits
normally.  The ``serve.dedup`` counter on ``/metrics`` counts
coalesced requests.

Past admission, compatible ``/run`` jobs micro-batch: the pool
gathers queued runs sharing a batch group key (same program, machine,
engine and options — only ``set``/``mem``/``show`` may differ) and
dispatches them as one lockstep struct-of-arrays execution of up to
``batch_max_lanes`` lanes (:mod:`repro.sim.batch`).  Gathering
follows Nagle's rule, capped by ``batch_window_ms``: a group waits
only while a lane-mate is already queued or a run of its group is in
flight, so a lone ``/run`` goes to an idle worker at once and only a
burst pays for the window it fills.  Admission is
:func:`~repro.serve.jobs.lockstep_refusal`: anything that cannot
share a lane without observable divergence runs scalar, so
per-request responses stay byte-identical to serial execution.
Refusals count into the ``serve.batch`` metrics family by reason.

Deadlines are end-to-end: the request's budget is stamped at
admission, spent by queueing, enforced inside the worker by
``Simulator.deadline_s``, and backstopped by the supervisor's
deadline kill — every accepted request resolves to a terminal
structured response (success / timeout / quarantined / …), never a
hang or a dropped connection.

``SIGTERM`` (and :meth:`ReproService.shutdown`) drains: the listener
closes, new requests get 503, in-flight work finishes inside
``drain_timeout_s``, then the pool exits.
"""

from __future__ import annotations

import asyncio
import functools

from repro.obs.tracer import NULL_TRACER
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpError,
    Request,
    read_request,
    write_json,
    write_text,
)
from repro.serve.jobs import (
    batch_group_key,
    dedup_key,
    execute_lanes,
    job_key,
    lockstep_refusal,
)
from repro.serve.metrics import ServiceMetrics
from repro.supervisor import BackoffPolicy, CircuitBreakers, WorkerPool

#: Pool/worker outcome status → HTTP response code.
STATUS_CODES = {
    "ok": 200,
    "error": 400,
    "timeout": 504,
    "quarantined": 503,
    "crashed": 500,
    "shutdown": 503,
}

_CLASS_OF = {"/compile": "compile", "/run": "run", "/campaign": "campaign"}


class ReproService:
    """One service instance: a listener plus a crash-safe pool."""

    def __init__(self, config: ServeConfig | None = None, *,
                 tracer=NULL_TRACER) -> None:
        self.config = config or ServeConfig()
        self.metrics = ServiceMetrics()
        self.pool = WorkerPool(
            self.config.workers,
            handler=functools.partial(
                execute_lanes, cache_dir=self.config.cache_dir
            ),
            backoff=BackoffPolicy(
                base_s=self.config.retry_base_s,
                cap_s=self.config.retry_cap_s,
                jitter=self.config.retry_jitter,
                seed=self.config.seed,
            ),
            breakers=CircuitBreakers(
                strikes=self.config.breaker_strikes,
                cooldown_s=self.config.breaker_cooldown_s,
            ),
            max_requeues=self.config.max_requeues,
            kill_grace_s=self.config.kill_grace_s,
            batch_window_s=self.config.batch_window_ms / 1000.0,
            batch_max_lanes=self.config.batch_max_lanes,
            tracer=tracer,
        )
        self._active: dict[str, int] = {
            name: 0 for name in self.config.class_limits
        }
        #: In-flight /run executions by content address, as
        #: ``(task, requested_budget_s, absolute_deadline)`` — the
        #: deadline fields gate follower attachment (a follower must
        #: never inherit a timeout its own budget would have avoided).
        self._inflight: dict[
            str, tuple[asyncio.Future, float, float]
        ] = {}
        self._draining = False
        self._server: asyncio.base_events.Server | None = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self.pool.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop admission, drain in-flight work, stop the pool."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = (
                asyncio.get_running_loop().time()
                + self.config.drain_timeout_s
            )
            while any(self._active.values()):
                if asyncio.get_running_loop().time() >= deadline:
                    drain = False
                    break
                await asyncio.sleep(0.02)
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.pool.close(drain=drain)
        )
        self._stopped.set()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self, job_class: str) -> dict | None:
        """None to admit, or the typed 429 shed payload."""
        limit = self.config.class_limits[job_class]
        total = sum(self._active.values())
        capacity = self.config.total_capacity()
        overloaded = self._active[job_class] >= limit
        shed_campaign = (
            job_class == "campaign"
            and total >= self.config.shed_campaigns_at * capacity
        )
        if not overloaded and not shed_campaign:
            return None
        self.metrics.shed.inc(job_class)
        return {
            "error": "overloaded",
            "class": job_class,
            "active": self._active[job_class],
            "limit": limit,
            "shed_policy": ("campaigns_first" if shed_campaign
                            else "class_limit"),
            "retry_after_s": 1,
        }

    def _deadline_for(self, payload: dict) -> float:
        raw = payload.get("deadline_s", self.config.default_deadline_s)
        try:
            deadline = float(raw)
        except (TypeError, ValueError):
            raise HttpError(
                400, "bad_deadline", f"deadline_s must be a number, "
                f"got {raw!r}"
            ) from None
        # ``not > 0`` also refuses NaN, which fails every comparison;
        # +Infinity clamps to the cap below.
        if not deadline > 0:
            raise HttpError(400, "bad_deadline",
                            "deadline_s must be positive")
        return min(deadline, self.config.max_deadline_s)

    def _validate(self, payload: dict, job_class: str) -> None:
        from repro.registry import language_names, machine_names
        from repro.sim.admission import ENGINES

        if "chaos" in payload and not self.config.enable_chaos:
            raise HttpError(
                400, "chaos_disabled",
                "chaos hooks need a service booted with enable_chaos",
            )
        if not payload.get("source"):
            raise HttpError(400, "missing_source",
                            "request needs a 'source' field")
        lang = payload.get("lang")
        if lang not in language_names():
            raise HttpError(
                400, "unknown_lang",
                f"unknown lang {lang!r}; expected one of "
                f"{', '.join(language_names())}",
            )
        machine = payload.get("machine", "HM1")
        if machine not in machine_names():
            raise HttpError(
                400, "unknown_machine",
                f"unknown machine {machine!r}; expected one of "
                f"{', '.join(machine_names())}",
            )
        # Checked here, not left to the worker: a run's engine names
        # its lockstep refusal reason, a label on /metrics.
        engine = payload.get("engine", "decoded")
        if job_class == "run" and engine not in ENGINES:
            raise HttpError(
                400, "unknown_engine",
                f"unknown engine {engine!r}; expected one of "
                f"{', '.join(ENGINES)}",
            )

    # ------------------------------------------------------------------
    async def _submit(self, request: Request, job_class: str) -> tuple:
        payload = request.json()
        self._validate(payload, job_class)
        deadline_s = self._deadline_for(payload)
        job = dict(payload)
        job["op"] = job_class
        if job_class == "campaign" and self.config.collect_metrics:
            job["metrics"] = True
        # In-flight dedup (run only: its result is a pure function of
        # the payload, and runs are the expensive repeat offenders).  A
        # duplicate awaits the leader's execution *before* admission —
        # it consumes no class slot and no worker, and cannot be shed.
        # The shield keeps one impatient client's disconnect from
        # cancelling the execution everyone else is waiting on.
        #
        # Deadline safety: a follower may only attach when the leader's
        # outcome is guaranteed no worse than the follower's own run
        # would have been — either the follower asked for no more
        # budget than the leader requested (leader timeout ⟹ follower
        # would have timed out too), or the leader's *remaining* time
        # still covers the follower's whole budget.  A patient follower
        # behind a tight leader falls through to normal admission.
        loop = asyncio.get_running_loop()
        coalesce = dedup_key(job) if job_class == "run" else None
        entry = (
            self._inflight.get(coalesce) if coalesce is not None else None
        )
        if entry is not None:
            leader, leader_requested_s, leader_deadline = entry
            if (
                deadline_s <= leader_requested_s
                or leader_deadline - loop.time() >= deadline_s
            ):
                self.metrics.dedup.inc(job_class)
                outcome = await asyncio.shield(leader)
                return self._respond(job_class, deadline_s, outcome)
        shed = self._admit(job_class)
        if shed is not None:
            return 429, shed, {"Retry-After": "1"}
        self.metrics.accepted.inc(job_class)
        self._active[job_class] += 1
        batch_key = None
        if job_class == "run":
            refusal = lockstep_refusal(
                job, lanes=self.config.batch_max_lanes
            )
            if refusal is None:
                batch_key = batch_group_key(job)
            else:
                self.metrics.batch_refused.inc(refusal)
        task = asyncio.ensure_future(asyncio.wrap_future(
            self.pool.submit(job, key=job_key(job), deadline_s=deadline_s,
                             batch_key=batch_key)
        ))
        if coalesce is not None:
            # A patient follower that fell through replaces the tight
            # leader as the attachment target for later duplicates.
            self._inflight[coalesce] = (
                task, deadline_s, loop.time() + deadline_s,
            )
        try:
            outcome = await asyncio.shield(task)
        finally:
            if coalesce is not None \
                    and self._inflight.get(coalesce, (None,))[0] is task:
                self._inflight.pop(coalesce, None)
            self._active[job_class] -= 1
        return self._respond(job_class, deadline_s, outcome)

    def _respond(self, job_class: str, deadline_s: float,
                 outcome: dict) -> tuple:
        status = outcome.get("status", "error")
        self.metrics.completed.inc(job_class)
        self.metrics.statuses.inc(status)
        if job_class == "campaign" and status == "ok":
            self.metrics.fold_campaign(outcome.get("result") or {})
        body = {"class": job_class, "deadline_s": deadline_s, **outcome}
        headers = {}
        if status == "quarantined":
            headers["Retry-After"] = str(
                int(self.config.breaker_cooldown_s) or 1
            )
        return STATUS_CODES.get(status, 500), body, headers

    def _healthz(self) -> dict:
        depth = self.pool.depth()
        return {
            "status": "draining" if self._draining else "ok",
            "queue": {
                name: {"active": self._active[name], "limit": limit}
                for name, limit in sorted(
                    self.config.class_limits.items()
                )
            },
            "pool": {**depth, **self.pool.stats.to_json()},
            "breakers": self.pool.breakers.states(),
            "requests": self.metrics.to_json(),
            "workers": self.config.workers,
        }

    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    read_request(reader), timeout=10.0
                )
            except asyncio.TimeoutError:
                self.metrics.bad_requests += 1
                await write_json(writer, 408, {
                    "error": "timeout", "detail": "request not received",
                })
                return
            except HttpError as error:
                self.metrics.bad_requests += 1
                await write_json(writer, error.status, {
                    "error": error.code, "detail": str(error),
                })
                return
            if request is None:
                return
            await self._route(request, writer)
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: Request, writer) -> None:
        if request.method == "GET" and request.path == "/healthz":
            await write_json(writer, 200, self._healthz())
            return
        if request.method == "GET" and request.path == "/metrics":
            await write_text(writer, 200, self.metrics.to_prometheus(
                pool_stats=self.pool.stats.to_json(),
                depth=self.pool.depth(),
                breakers=self.pool.breakers.counts(),
            ))
            return
        job_class = _CLASS_OF.get(request.path)
        if job_class is None:
            await write_json(writer, 404, {
                "error": "not_found",
                "detail": f"no route {request.path!r}",
                "routes": sorted([*_CLASS_OF, "/healthz", "/metrics"]),
            })
            return
        if request.method != "POST":
            await write_json(writer, 405, {
                "error": "method_not_allowed",
                "detail": f"{request.path} takes POST",
            })
            return
        if self._draining:
            self.metrics.drained_rejects += 1
            await write_json(writer, 503, {
                "error": "draining",
                "detail": "service is shutting down",
            }, headers={"Retry-After": "5"})
            return
        try:
            status, body, headers = await self._submit(request, job_class)
        except HttpError as error:
            self.metrics.bad_requests += 1
            await write_json(writer, error.status, {
                "error": error.code, "detail": str(error),
            })
            return
        await write_json(writer, status, body, headers=headers)
