"""The fast-path admission rule, written once.

Three fast paths sit on top of the reference loop that fetches, runs
and sequences one microinstruction at a time: the trace JIT
(:data:`TRACE_JIT`, :mod:`repro.sim.trace`), the decoded engine's
address-keyed plan lookup that skips the control-store fetch
(:data:`PLAN_LOOKUP`), and lockstep batching of N cases per dispatch
(:data:`LOCKSTEP`, :func:`repro.sim.batch.run_cases`).  Each skips
something, so each may only engage when nothing attached to the run
needs what it skips.

A fault injector is admitted by what it declares
(:mod:`repro.faults.injectors`).  One that names the addresses whose
fetched word it may replace (``watched``) keeps the plan lookup: the
run loop keeps those addresses off the address-keyed map, so every
visit to one still fetches, calls the injector and sequences through
its ``after_sequence``, while every other address runs from the map.
One that declares nothing may replace the word at any fetch and is
refused every fast path.  Neither takes the trace JIT or lockstep:
traces and lane vectors have no per-microinstruction hook.

:data:`RULES` is that whole rule and :func:`fast_path_refusal` its one
reader, asked by ``Simulator.run``, ``run_cases`` and serve admission
alike; serve exports the codes as the ``reason`` label of its
lockstep-refusal counter on ``/metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass

TRACE_JIT = "trace-jit"
PLAN_LOOKUP = "plan-lookup"
LOCKSTEP = "lockstep"
FAST_PATHS = (TRACE_JIT, PLAN_LOOKUP, LOCKSTEP)

#: The simulator's engines, slowest first.
ENGINES = ("interpretive", "decoded", "traced")


@dataclass(slots=True)
class RunShape:
    """What admission needs to know about a run (or a batch of runs):
    the engine, the lanes per lockstep dispatch, the machine (for its
    register file) and which per-run hooks are attached."""

    engine: str = "decoded"
    lanes: int = 1
    machine: object = None
    #: ``"declared"`` or ``"undeclared"`` when a fault injector is
    #: attached (whether it declares ``watched``), else None.
    injector: str | None = None
    trace: bool = False
    recorder: bool = False
    interrupt_every: bool = False
    deadline: bool = False


def _banked(run: RunShape) -> bool:
    files = run.machine.registers if run.machine is not None else None
    return files is not None and bool(files.windows or files.bank_pointer)


def _numpy_missing(run: RunShape) -> bool:
    from repro.sim import batch

    return not batch.HAVE_NUMPY


#: ``(code, fast paths it rules out, holds(run))`` in precedence order:
#: the first row that holds for a run and rules out the path asked
#: about names the refusal.
RULES = (
    ("batch=1", {LOCKSTEP}, lambda run: run.lanes <= 1),
    ("engine=interpretive", set(FAST_PATHS),
     lambda run: run.engine == "interpretive"),
    ("engine=decoded", {TRACE_JIT}, lambda run: run.engine == "decoded"),
    ("engine=traced", {LOCKSTEP}, lambda run: run.engine == "traced"),
    # An injector that declares nothing may substitute a mutated word
    # at any fetch.
    ("injector", set(FAST_PATHS), lambda run: run.injector == "undeclared"),
    # A declared injector replaces words only at its watched addresses,
    # which the run loop keeps off the address-keyed map; traces and
    # lane vectors would skip its per-microinstruction hook.
    ("injector=declared", {TRACE_JIT, LOCKSTEP},
     lambda run: run.injector == "declared"),
    # A fetch-trace sink wants every executed line as it is fetched.
    ("trace", set(FAST_PATHS), lambda run: run.trace),
    # A recorder sees every fetched word; the JIT replays what its
    # traces executed into it afterwards, the other two cannot.
    ("recorder", {PLAN_LOOKUP, LOCKSTEP}, lambda run: run.recorder),
    # Periodic interrupts must observe every cycle boundary.
    ("interrupt_every", {TRACE_JIT, LOCKSTEP},
     lambda run: run.interrupt_every),
    # Lockstep keeps no per-lane wall clock.
    ("deadline", {LOCKSTEP}, lambda run: run.deadline),
    # Bank pointers are per-lane state the lockstep decoder does not
    # model.
    ("banked-windows", {LOCKSTEP}, _banked),
    # Lane vectors are numpy arrays.
    ("numpy", {LOCKSTEP}, _numpy_missing),
)


def fast_path_refusal(path: str, **run) -> str | None:
    """The reason code barring ``path`` for this run; None admits it.

    ``run`` holds :class:`RunShape` fields.  An engine the simulator
    does not know refuses every fast path as ``engine=<name>``.
    """
    shape = RunShape(**run)
    if shape.engine not in ENGINES:
        return f"engine={shape.engine}"
    for code, paths, holds in RULES:
        if path in paths and holds(shape):
            return code
    return None
