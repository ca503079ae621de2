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

Deadline propagation ends here: the worker receives the request's
*remaining* wall-clock budget and hands it to
``Simulator.deadline_s``, so a microprogram that wedges produces a
typed ``SimulationLimitError`` and a structured ``timeout`` response
instead of holding the worker hostage.  (A worker stuck outside the
simulator — e.g. in a pathological compile — is the supervisor's
problem: it kills and respawns past the grace period.)

Chaos hooks: a job may carry ``{"chaos": {"kill_on_attempts": [...]}}``.
When the current dispatch attempt is listed, the worker SIGKILLs
itself *before* doing any work — a deterministic stand-in for
segfault/OOM death that the pool must detect, respawn and re-queue
around.  ``{"chaos": {"sleep_s": N}}`` wedges the worker outside the
simulator instead, exercising the supervisor's deadline kill.  The service only forwards the ``chaos`` field when booted
with ``enable_chaos`` (tests, CI smoke); production configs reject it.
"""

from __future__ import annotations

import functools
import os
import signal
import time

from repro.cache import CompileCache, compile_key
from repro.errors import ReproError, SimulationLimitError

#: Request classes, in shed order: under overload the service drops
#: campaign-class admissions first, compile-class last.
JOB_CLASSES = ("campaign", "run", "compile")


def job_key(job: dict) -> str:
    """The quarantine/backoff identity of a job.

    Two submissions of the same work share a key, so a poison request
    re-submitted verbatim hits its own open breaker.  For compile/run
    jobs this is the compile cache's content address (plus the run's
    input state); campaigns add their scenario envelope.  Jobs with
    unknown machines/languages fail later with a structured error, so
    the key falls back to a stable render of the payload.
    """
    import hashlib

    try:
        base = compile_key(
            job.get("source", ""), job.get("lang", ""),
            _machine(job.get("machine", "HM1")),
            job.get("options") or None,
        )
    except Exception:
        rendered = repr(sorted(job.items(), key=lambda kv: kv[0]))
        base = hashlib.sha256(rendered.encode()).hexdigest()
    extras = [job.get("op", "")]
    for fld in ("set", "mem", "n", "seed", "restart_safe", "max_cycles",
                "engine", "chaos"):
        if job.get(fld) is not None:
            extras.append(f"{fld}={job[fld]!r}")
    return f"{base[:32]}:{'+'.join(extras)}"


def dedup_key(job: dict) -> str:
    """The in-flight coalescing identity of a job.

    Stricter than :func:`job_key`: *every* result-affecting field
    participates (``show`` changes the response's ``registers`` block,
    so two jobs may share a :func:`job_key` yet not a dedup key).
    Only ``deadline_s`` is excluded — it never changes the pure
    result, and the service separately refuses to attach a follower
    whose budget the leader's remaining deadline cannot honour.

    Values render through :func:`repro.cache.canonical_value` (the
    same recursive canonicalisation compile keys use), so nested
    ``options``/``mem`` dicts that differ only in insertion order
    coalesce instead of silently missing each other.
    """
    import hashlib

    from repro.cache import canonical_value

    rendered = canonical_value({
        str(k): v for k, v in job.items() if k != "deadline_s"
    })
    return hashlib.sha256(rendered.encode()).hexdigest()


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
        machine=_machine(job.get("machine", "HM1")),
        lanes=lanes,
        engine=job.get("engine", "decoded"),
        deadline="deadline_s" in job,
    )


@functools.lru_cache(maxsize=None)
def _machine(name: str):
    """The one frozen machine description per name in this process.

    :func:`job_key`, :func:`lockstep_refusal` and every worker-side
    compile, run and campaign take their machine from here, so a
    serve process builds each description, and digests its
    :func:`~repro.cache.machine_fingerprint`, once (workers inherit
    the parent's at fork).  Sharing one instance also keeps each
    cached instruction's simulator memo, which is keyed by machine
    identity, warm across requests.  The instance is frozen
    (:meth:`~repro.machine.machine.MicroArchitecture.freeze`) because
    its cached fingerprint is only right while nothing changes it;
    code that needs a variant builds its own with
    :func:`repro.registry.build_machine`.
    """
    from repro.registry import build_machine

    return build_machine(name).freeze()


def batch_group_key(job: dict) -> str:
    """The gather identity: lanes sharing it may run in lockstep.

    Everything that must be uniform across a batch participates —
    compile identity (source, lang, machine, options), engine and
    ``max_cycles`` — while the per-lane fields in
    :data:`BATCH_LANE_FIELDS` (and ``deadline_s``) are excluded, so a
    homogeneous-program flood with differing register pokes gathers
    into one lockstep dispatch.
    """
    import hashlib

    from repro.cache import canonical_value

    shared = {
        str(k): v for k, v in job.items()
        if k not in BATCH_LANE_FIELDS and k != "deadline_s"
    }
    return hashlib.sha256(canonical_value(shared).encode()).hexdigest()


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

    machine = _machine(job.get("machine", "HM1"))
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


def _run_response(job: dict, cache: CompileCache, budget_s) -> dict:
    from repro.asm.loader import ControlStore
    from repro.sim.simulator import Simulator

    machine, result = _compile(job, cache)
    store = ControlStore(machine)
    store.load(result.loaded)
    simulator = Simulator(
        machine, store,
        engine=job.get("engine", "decoded"),
        deadline_s=budget_s,
    )
    mapping = result.allocation.mapping
    for name, value in _int_map(job.get("set")).items():
        simulator.state.write_reg(mapping.get(name, name), value)
    for address, value in _int_map(job.get("mem")).items():
        simulator.state.memory.load_words(int(address, 0)
                                          if isinstance(address, str)
                                          else int(address), [value])
    outcome = simulator.run(
        result.loaded.name, max_cycles=int(job.get("max_cycles", 1_000_000))
    )
    registers = {
        name: simulator.state.read_reg(mapping.get(name, name))
        for name in (job.get("show") or [])
    }
    return {
        "machine": machine.name,
        "lang": job["lang"],
        "exit_value": outcome.exit_value,
        "cycles": outcome.cycles,
        "instructions": outcome.instructions,
        "traps": outcome.traps,
        "interrupts": outcome.interrupts_serviced,
        "registers": dict(sorted(registers.items())),
    }


def _campaign_response(job: dict, cache: CompileCache, budget_s) -> dict:
    from repro.faults.campaign import run_campaign

    campaign = run_campaign(
        job["source"], job["lang"], _machine(job.get("machine", "HM1")),
        n=int(job.get("n", 25)),
        seed=int(job.get("seed", 7)),
        restart_safe=bool(job.get("restart_safe", False)),
        registers=_int_map(job.get("set")),
        memory={int(a): v for a, v in _int_map(job.get("mem")).items()},
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
    """Map one toolkit exception to its terminal structured response.

    The single source of truth for scalar *and* batched execution —
    a lane whose scalar replay raises renders byte-identically to the
    same request executed alone.
    """
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
    if isinstance(error, ReproError):
        return {
            "status": "error",
            "error": {"type": type(error).__name__, "message": str(error)},
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
    becomes ``Simulator.deadline_s`` for run/campaign work.  All
    toolkit errors come back as ``status="error"`` with the error's
    type and message; only genuine process death (which
    :func:`_chaos_kill` models) is left for the pool to observe.
    """
    _chaos_kill(job, attempt)
    cache = _worker_cache(cache_dir)
    op = job.get("op")
    try:
        if op == "compile":
            result = _compile_response(job, cache)
        elif op == "run":
            result = _run_response(job, cache, budget_s)
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
# Batched execution: one gathered lane group per lockstep dispatch
# ----------------------------------------------------------------------
def _lane_case(job: dict, mapping: dict):
    """One lane's initial state, mirroring :func:`_run_response`'s pokes."""
    from repro.sim.batch import BatchCase

    registers = {
        mapping.get(name, name): value
        for name, value in _int_map(job.get("set")).items()
    }
    memory = {
        (int(address, 0) if isinstance(address, str) else int(address)): value
        for address, value in _int_map(job.get("mem")).items()
    }
    return BatchCase(registers=registers, memory=memory)


def _lane_response(job: dict, machine, mapping, outcome, cache) -> dict:
    """Render one lane's outcome as :func:`_run_response` would."""
    from repro.errors import SimulationError

    if outcome.error is not None:
        return _error_response(outcome.error)
    run = outcome.result
    try:
        registers = {
            name: outcome.read_reg(mapping.get(name, name))
            for name in (job.get("show") or [])
        }
    except SimulationError as error:
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
    """Run one gathered lane group; returns ``(ticket_id, response)``
    pairs aligned with ``entries`` (``(ticket_id, job, attempt,
    budget_s)`` tuples).

    All lanes share a :func:`batch_group_key`, so one compile serves
    the whole group and the lanes run through
    :func:`repro.sim.batch.run_cases` in lockstep — lanes whose data
    sends them down different paths keep their own microprogram
    counters and reconverge inside the batch, and any lane that
    traps, faults, overflows its return stack or runs out of cycles
    replays on the scalar decoded engine, which is what keeps every
    response byte-identical to scalar execution, error text
    included.  If the batched path itself fails (a refused
    machine, an unexpected decode error), every lane falls back to
    scalar :func:`execute_job` — batching is an optimisation, never a
    new failure mode.
    """
    cache = _worker_cache(cache_dir)
    lead = entries[0][1]
    try:
        from repro.sim.batch import run_cases

        machine, result = _compile(lead, cache)
        mapping = result.allocation.mapping
        cases = [_lane_case(job, mapping) for _, job, _, _ in entries]
        outcomes = run_cases(
            machine, result.loaded, cases,
            batch=len(cases),
            engine=lead.get("engine", "decoded"),
            max_cycles=int(lead.get("max_cycles", 1_000_000)),
        )
    except Exception:
        return [
            (ticket_id,
             execute_job(job, attempt=attempt, budget_s=budget_s,
                         cache_dir=cache_dir))
            for ticket_id, job, attempt, budget_s in entries
        ]
    return [
        (ticket_id, _lane_response(job, machine, mapping, outcome, cache))
        for (ticket_id, job, _, _), outcome in zip(entries, outcomes)
    ]


def execute_lanes(lanes, *, cache_dir: str | None = None
                  ) -> list[tuple[int, dict]]:
    """The service pool's worker handler: answer one dispatched message.

    One lane executes through :func:`execute_job`, a gathered group
    through :func:`execute_batch`; both answer every lane with a
    structured response.  The service binds ``cache_dir`` with
    :func:`functools.partial`.
    """
    if len(lanes) > 1:
        return execute_batch(lanes, cache_dir=cache_dir)
    ticket_id, job, attempt, budget_s = lanes[0]
    return [(ticket_id, execute_job(
        job, attempt=attempt, budget_s=budget_s, cache_dir=cache_dir,
    ))]
