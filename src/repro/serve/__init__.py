"""repro.serve: a fault-tolerant batch compile-and-run service (S21).

The survey's toolchains earned their keep by staying *alive* — REC's
compiler ran for decades as a long-lived interactive service on the
IBM1130 simulator, and VADL's modern pipeline is submit-description,
get-artifacts-back.  This package is that endpoint for the repro
toolkit: an asyncio HTTP/JSON service wrapping the pipeline, the
registry, the compile cache and the campaign harness behind four
endpoints (``/compile``, ``/run``, ``/campaign``, ``/healthz``),
built robustness-first:

* **Admission control & backpressure** — bounded per-class queues
  with typed 429 rejection; under overload, campaign-class requests
  shed before compile-class ones (graceful degradation).
* **Deadline propagation** — a per-request wall-clock budget flows
  from admission through queueing into ``Simulator.deadline_s``, so
  a wedged microprogram returns a structured timeout, never a hang.
* **Crash-safe worker pool** — simulation work runs on the toolkit's
  one process supervisor, :class:`repro.supervisor.WorkerPool` (the
  same pool campaign ``--jobs`` shards run on), with
  :func:`~repro.serve.jobs.execute_lanes` as its worker handler;
  worker death (segfault, OOM-kill, chaos injection) is detected via
  process sentinels, the worker is respawned, and the in-flight job is
  re-queued with capped, seeded-jittered exponential backoff.  A
  request that kills workers repeatedly is quarantined by a per-key
  circuit breaker with half-open probes.
* **Cross-request micro-batching** — compatible queued ``/run`` jobs
  gather (``batch_window_ms`` / ``batch_max_lanes``) and execute as
  one lockstep struct-of-arrays batch (:mod:`repro.sim.batch`) inside
  a single worker, with results demultiplexed back per request —
  byte-identical to scalar execution, admitted by the simulator's
  one fast-path rule (:mod:`repro.sim.admission`).  A group waits
  for lane-mates only while one is queued or a run of its group is
  in flight (Nagle's rule, capped by the window), so a lone ``/run``
  never waits.  A lone run takes the same path as a one-lane group
  (:func:`~repro.serve.jobs.execute_batch`), which admission runs on
  the scalar engine: every ``/run`` has one lane path and one
  response renderer.
* **One machine per name** — the service and its workers share the
  registry's one frozen description per machine name
  (:func:`repro.registry.build_machine`), built and fingerprinted once
  per process instead of once per request.
* **Graceful drain** — ``SIGTERM`` stops admission, finishes
  in-flight work, then exits; ``/healthz`` and ``/metrics`` report
  queue depths, breaker states, worker restarts and the campaign
  metrics rollup through the existing Prometheus exporter.

Everything is stdlib-only (``asyncio.start_server`` + hand-rolled
HTTP/1.1 parsing) and deterministic where it matters: backoff
schedules are pure functions of ``(seed, key, attempt)`` and job
results are byte-identical across retries, which is what lets the
chaos suite in ``tests/serve/`` assert exact outcomes while killing
workers at fixed seeds.
"""

from repro.serve.config import ServeConfig
from repro.serve.http import HttpError, Request, read_request, write_json
from repro.serve.jobs import (
    batch_group_key,
    dedup_key,
    execute_batch,
    execute_job,
    job_key,
    lockstep_refusal,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.runner import ServiceRunner
from repro.serve.service import ReproService

__all__ = [
    "HttpError",
    "ReproService",
    "Request",
    "ServeConfig",
    "ServiceMetrics",
    "ServiceRunner",
    "batch_group_key",
    "dedup_key",
    "execute_batch",
    "execute_job",
    "job_key",
    "lockstep_refusal",
    "read_request",
    "write_json",
]
