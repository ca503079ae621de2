"""Job payloads and their in-worker execution.

A *job* is the picklable request a worker process executes: a plain
dict with an ``"op"`` (``compile`` / ``run`` / ``campaign``) plus the
operation's parameters.  :func:`execute_job` runs one job to a
*terminal structured response* — a JSON-ready dict whose ``status``
is ``ok``, ``timeout`` or ``error`` — and never lets an exception
escape (the pool treats an escaping worker as dead).  The ``result``
field of a response is a pure function of the job payload, which is
what lets the chaos suite assert byte-identical results across
crash-driven retries.

Every ``run`` takes one path, :func:`execute_batch`: one compile for
its lane group, one :class:`~repro.sim.batch.BatchCase` per lane, one
:func:`repro.sim.batch.run_cases` call and one renderer,
:func:`_lane_response`, for each lane's outcome.  A lone ``/run`` is a
one-lane group, which admission runs on the scalar engine (reason
``batch=1``).

Deadline propagation ends here: a lone run's *remaining* wall-clock
budget becomes ``Simulator.deadline_s`` through ``run_cases``, so a
microprogram that wedges produces a typed ``SimulationLimitError`` and
a structured ``timeout`` response instead of holding the worker
hostage.  A gathered group runs without one (lockstep keeps no
per-lane clock); the supervisor's deadline kill backstops it, as it
does a worker stuck outside the simulator — e.g. in a pathological
compile — which it kills and respawns past the grace period.

Chaos hooks: a job may carry ``{"chaos": {"kill_on_attempts": [...]}}``.
When the current dispatch attempt is listed, the worker SIGKILLs
itself *before* doing any work — a deterministic stand-in for
segfault/OOM death that the pool must detect, respawn and re-queue
around.  ``{"chaos": {"sleep_s": N}}`` wedges the worker outside the
simulator instead, exercising the supervisor's deadline kill.  The
service only forwards the ``chaos`` field when booted with
``enable_chaos`` (tests, CI smoke); production configs reject it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time

from repro.cache import CompileCache, canonical_value
from repro.errors import SimulationLimitError
from repro.registry import build_machine

#: Request classes, in shed order: under overload the service drops
#: campaign-class admissions first, compile-class last.
JOB_CLASSES = ("campaign", "run", "compile")


def _digest(job: dict, *, covers=None, leaves_out=()) -> str:
    """SHA-256 over the fields of ``job`` in ``covers`` (every field
    when None) except those in ``leaves_out``.

    Values render through :func:`repro.cache.canonical_value` (the
    same recursive canonicalisation compile keys use), so payloads
    that differ only in the insertion order of their keys, nested
    ``set``/``mem``/``options`` included, share a digest, and a digest
    is 64 characters however large the payload.
    """
    rendered = canonical_value({
        str(k): v for k, v in job.items()
        if (covers is None or k in covers) and k not in leaves_out
    })
    return hashlib.sha256(rendered.encode()).hexdigest()


#: The fields that name the work a job does.
JOB_KEY_FIELDS = ("op", "source", "lang", "machine", "options", "set",
                  "mem", "n", "seed", "restart_safe", "max_cycles",
                  "engine", "chaos")


def job_key(job: dict) -> str:
    """The quarantine/backoff identity of a job.

    Two submissions of the same work share a key, so a poison request
    re-submitted, verbatim or with its keys reordered, hits its own
    open breaker.  The key covers :data:`JOB_KEY_FIELDS`; ``show``,
    ``metrics`` and ``deadline_s`` shape the response or bound its
    time, not the work.
    """
    return _digest(job, covers=JOB_KEY_FIELDS)


def dedup_key(job: dict) -> str:
    """The in-flight coalescing identity of a job.

    Stricter than :func:`job_key`: *every* result-affecting field
    participates (``show`` changes the response's ``registers`` block,
    so two jobs may share a :func:`job_key` yet not a dedup key).
    Only ``deadline_s`` is left out — it never changes the pure
    result, and the service separately refuses to attach a follower
    whose budget the leader's remaining deadline cannot honour.
    """
    return _digest(job, leaves_out=("deadline_s",))


#: ``/run`` fields that may vary between the lanes of one batch: the
#: initial pokes become per-lane :class:`~repro.sim.batch.BatchCase`
#: state and ``show`` only shapes that lane's response rendering.
BATCH_LANE_FIELDS = ("set", "mem", "show")


def lockstep_refusal(job: dict, *, lanes: int) -> str | None:
    """Why a job must run scalar in the pool — None when batchable.

    Only ``run`` jobs batch, and a ``chaos`` hook belongs to its own
    request; the rest is :func:`repro.sim.admission.fast_path_refusal`,
    so serve refuses exactly what ``run_cases`` would.  Only an
    *explicit* ``deadline_s`` counts as a deadline: default-deadline
    traffic batches under ``max_cycles``, backstopped by the
    supervisor's deadline kill.
    """
    from repro.sim.admission import LOCKSTEP, fast_path_refusal

    if job.get("op") != "run":
        return "op"
    if job.get("chaos"):
        return "chaos"
    return fast_path_refusal(
        LOCKSTEP,
        machine=build_machine(job.get("machine", "HM1")),
        lanes=lanes,
        engine=job.get("engine", "decoded"),
        deadline="deadline_s" in job,
    )


def batch_group_key(job: dict) -> str:
    """The gather identity: lanes sharing it may run in lockstep.

    Everything that must be uniform across a batch participates —
    compile identity (source, lang, machine, options), engine and
    ``max_cycles`` — while the per-lane fields in
    :data:`BATCH_LANE_FIELDS` (and ``deadline_s``) are left out, so a
    homogeneous-program flood with differing register pokes gathers
    into one lockstep dispatch.
    """
    return _digest(job, leaves_out=(*BATCH_LANE_FIELDS, "deadline_s"))


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: ``(pid, cache)``: keyed by process so a forked worker never reuses a
#: cache its parent built (pinned to the parent's ``cache_dir``).
_WORKER_CACHE: tuple[int, CompileCache] | None = None


def _worker_cache(cache_dir: str | None) -> CompileCache:
    """One compile cache per worker process, disk tier shared by all."""
    global _WORKER_CACHE
    if _WORKER_CACHE is None or _WORKER_CACHE[0] != os.getpid():
        _WORKER_CACHE = (os.getpid(), CompileCache(disk_dir=cache_dir))
    return _WORKER_CACHE[1]


def _int_map(raw: dict | None) -> dict[str, int]:
    return {str(k): int(v) for k, v in (raw or {}).items()}


def _mem_map(raw: dict | None) -> dict[int, int]:
    """A ``mem`` field, for ``/run`` and ``/campaign`` alike: each
    address in any base ``int(text, 0)`` reads (``"100"``, ``"0x64"``)."""
    return {int(address, 0): value
            for address, value in _int_map(raw).items()}


def _chaos_kill(job: dict, attempt: int) -> None:
    chaos = job.get("chaos") or {}
    if attempt in (chaos.get("kill_on_attempts") or []):
        os.kill(os.getpid(), signal.SIGKILL)
    # A wedge *outside* the simulator: the in-run deadline cannot fire,
    # so only the supervisor's deadline kill can reclaim the worker.
    sleep_s = chaos.get("sleep_s")
    if sleep_s:
        time.sleep(float(sleep_s))


def _compile(job: dict, cache: CompileCache):
    from repro.registry import get_language

    machine = build_machine(job.get("machine", "HM1"))
    options = dict(job.get("options") or {})
    result = get_language(job["lang"]).compile(
        job["source"], machine, cache=cache, **options
    )
    return machine, result


def _compile_response(job: dict, cache: CompileCache) -> dict:
    machine, result = _compile(job, cache)
    return {
        "machine": machine.name,
        "lang": job["lang"],
        "n_words": len(result.loaded),
        "word_bits": machine.control.width,
        "words": [
            {"address": w.address, "word": f"{w.word:x}"}
            for w in result.loaded.words
        ],
        "n_ops": result.composed.n_ops(),
        "compaction": round(result.composed.compaction_ratio(), 4),
        "mapping": dict(sorted(result.allocation.mapping.items())),
        "restart_hazards": [str(h) for h in result.restart_hazards],
        "warnings": [str(d) for d in result.warnings()],
    }


def _campaign_response(job: dict, cache: CompileCache, budget_s) -> dict:
    from repro.faults.campaign import run_campaign

    campaign = run_campaign(
        job["source"], job["lang"], build_machine(job.get("machine", "HM1")),
        n=int(job.get("n", 25)),
        seed=int(job.get("seed", 7)),
        restart_safe=bool(job.get("restart_safe", False)),
        registers=_int_map(job.get("set")),
        memory=_mem_map(job.get("mem")),
        cache=cache,
        deadline_s=budget_s,
        collect_metrics=bool(job.get("metrics", False)),
    )
    payload = campaign.to_json()
    # The compile-cache telemetry family depends on how warm *this*
    # worker's cache happens to be — a crash-driven retry on a fresh
    # worker would legitimately differ.  The served result must be a
    # pure function of the request (the chaos suite asserts the bytes),
    # so the environment-dependent family is dropped; the worker's
    # cumulative cache stats still ride in the response's ``cache``
    # field.
    if isinstance(payload.get("metrics"), dict):
        payload["metrics"].pop("cache", None)
    return payload


def _error_response(error: BaseException) -> dict:
    """Map one exception to its terminal structured response: the one
    error renderer for every job and every lane."""
    if isinstance(error, SimulationLimitError):
        if error.kind == "deadline":
            return {
                "status": "timeout",
                "where": "simulator",
                "error": {"type": type(error).__name__,
                          "kind": error.kind,
                          "limit": error.limit,
                          "message": str(error)},
            }
        return {
            "status": "error",
            "error": {"type": type(error).__name__, "kind": error.kind,
                      "limit": error.limit, "message": str(error)},
        }
    return {
        "status": "error",
        "error": {"type": type(error).__name__, "message": str(error)},
    }


def execute_job(job: dict, *, attempt: int = 0,
                budget_s: float | None = None,
                cache_dir: str | None = None) -> dict:
    """Run one job to a terminal structured response.

    ``budget_s`` is the request's remaining wall-clock allowance; it
    becomes ``Simulator.deadline_s`` for run/campaign work.  A ``run``
    is a one-lane :func:`execute_batch`.  All toolkit errors come back
    as ``status="error"`` with the error's type and message; only
    genuine process death (which :func:`_chaos_kill` models) is left
    for the pool to observe.
    """
    op = job.get("op")
    if op == "run":
        [(_, response)] = execute_batch(
            [(0, job, attempt, budget_s)], cache_dir=cache_dir
        )
        return response
    _chaos_kill(job, attempt)
    cache = _worker_cache(cache_dir)
    try:
        if op == "compile":
            result = _compile_response(job, cache)
        elif op == "campaign":
            result = _campaign_response(job, cache, budget_s)
        else:
            return {
                "status": "error",
                "error": {"type": "BadRequest",
                          "message": f"unknown op {op!r}"},
            }
    except Exception as error:  # defense: never crash the worker loop
        return _error_response(error)
    return {"status": "ok", "result": result, "cache": cache.stats.to_json()}


# ----------------------------------------------------------------------
# Runs: one lane group per run_cases call
# ----------------------------------------------------------------------
def _lane_case(job: dict, mapping: dict):
    """One lane's initial state: its ``set`` registers, named through
    the allocation ``mapping``, and its ``mem`` words."""
    from repro.sim.batch import BatchCase

    registers = {
        mapping.get(name, name): value
        for name, value in _int_map(job.get("set")).items()
    }
    return BatchCase(registers=registers, memory=_mem_map(job.get("mem")))


def _lane_response(job: dict, machine, mapping, outcome, cache) -> dict:
    """Render one lane's :class:`~repro.sim.batch.LaneOutcome`."""
    if outcome.error is not None:
        return _error_response(outcome.error)
    run = outcome.result
    try:
        registers = {
            name: outcome.read_reg(mapping.get(name, name))
            for name in (job.get("show") or [])
        }
    except Exception as error:
        return _error_response(error)
    return {
        "status": "ok",
        "result": {
            "machine": machine.name,
            "lang": job["lang"],
            "exit_value": run.exit_value,
            "cycles": run.cycles,
            "instructions": run.instructions,
            "traps": run.traps,
            "interrupts": run.interrupts_serviced,
            "registers": dict(sorted(registers.items())),
        },
        "cache": cache.stats.to_json(),
    }


def execute_batch(entries, *, cache_dir: str | None = None
                  ) -> list[tuple[int, dict]]:
    """Run one lane group of ``run`` jobs, a lone run or a gathered
    batch; returns ``(ticket_id, response)`` pairs aligned with
    ``entries`` (``(ticket_id, job, attempt, budget_s)`` tuples).

    All lanes share a :func:`batch_group_key`, so one compile serves
    the whole group, and a compile error (or a bad ``max_cycles``) is
    every lane's answer.  A ``set`` or ``mem`` value that does not
    parse is its own lane's answer.  The other lanes run through one
    :func:`repro.sim.batch.run_cases` call: in lockstep where
    admission allows it (lanes whose data sends them down different
    paths keep their own microprogram counters and reconverge inside
    the batch, and any lane that traps, faults, overflows its return
    stack or runs out of cycles replays on the scalar decoded
    engine), so every lane's response is byte-identical to the same
    job run alone, error text included.  A lone lane runs on the
    scalar engine with its remaining budget as ``Simulator.deadline_s``;
    a gathered group runs without an in-simulator deadline.
    """
    from repro.sim.batch import run_cases

    for _, job, attempt, _ in entries:
        _chaos_kill(job, attempt)
    cache = _worker_cache(cache_dir)
    lead = entries[0][1]
    responses: list[dict | None] = [None] * len(entries)
    try:
        machine, result = _compile(lead, cache)
        mapping = result.allocation.mapping
        cases = {}
        for index, (_, job, _, _) in enumerate(entries):
            try:
                cases[index] = _lane_case(job, mapping)
            except Exception as error:
                responses[index] = _error_response(error)
        outcomes = run_cases(
            machine, result.loaded, list(cases.values()),
            batch=len(cases),
            engine=lead.get("engine", "decoded"),
            max_cycles=int(lead.get("max_cycles", 1_000_000)),
            deadline_s=entries[0][3] if len(entries) == 1 else None,
        )
    except Exception as error:
        return [(ticket_id, _error_response(error))
                for ticket_id, _, _, _ in entries]
    for index, outcome in zip(cases, outcomes):
        responses[index] = _lane_response(
            entries[index][1], machine, mapping, outcome, cache
        )
    return [(ticket_id, response)
            for (ticket_id, _, _, _), response in zip(entries, responses)]


def execute_lanes(lanes, *, cache_dir: str | None = None
                  ) -> list[tuple[int, dict]]:
    """The service pool's worker handler: answer one dispatched message.

    A gathered group executes through :func:`execute_batch`, one lane
    through :func:`execute_job` (which runs a ``run`` as a one-lane
    :func:`execute_batch`); both answer every lane with a structured
    response.  The service binds ``cache_dir`` with
    :func:`functools.partial`.
    """
    if len(lanes) > 1:
        return execute_batch(lanes, cache_dir=cache_dir)
    ticket_id, job, attempt, budget_s = lanes[0]
    return [(ticket_id, execute_job(
        job, attempt=attempt, budget_s=budget_s, cache_dir=cache_dir,
    ))]
