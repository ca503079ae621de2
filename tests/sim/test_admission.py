"""The fast-path admission table, code by code and path by path.

``EXPECTED`` is an independent copy of which fast paths each reason
code rules out.  For every code the tests build a run whose only
refusing feature is that code, check the code
:func:`repro.sim.admission.fast_path_refusal` returns, and check what
actually ran:

* trace JIT — a traced run reports non-zero ``trace_cache`` hits and
  misses when admitted, zero (or no counters) when refused;
* plan lookup — ``PlanCache.addr_plans`` is consulted only when
  admitted;
* fault injectors — an injector that declares what it touches keeps
  the plan lookup, one that declares nothing engages no fast path, and
  every seeded kind is run against all three paths;
* lockstep — on lanes that diverge, an admitted ``run_cases`` enters
  ``_run_lockstep``, which carries every lane to EXIT itself; a
  refused one never enters it and returns every lane unpeeled with the
  scalar engine's plan-cache counters;
* serve — ``/metrics`` exports the code as its ``reason`` label.
"""

import pytest

import repro.sim.batch as batch
from repro.asm import ControlStore
from repro.errors import ReproError
from repro.faults.injectors import build_injector
from repro.obs.timeline import TraceRecorder
from repro.obs.tracer import NULL_TRACER
from repro.registry import build_machine, get_language
from repro.serve import ServeConfig, ServiceRunner
from repro.sim import BatchCase, Simulator, run_cases
from repro.sim.admission import (
    FAST_PATHS,
    LOCKSTEP,
    PLAN_LOOKUP,
    RULES,
    TRACE_JIT,
    fast_path_refusal,
)
from repro.sim.decode import PlanCache
from tests.pipeline.golden_programs import YALLL_MUL

ALL = {TRACE_JIT, PLAN_LOOKUP, LOCKSTEP}

#: Reason code -> the fast paths it rules out, in precedence order.
EXPECTED = {
    "batch=1": {LOCKSTEP},
    "engine=interpretive": ALL,
    "engine=decoded": {TRACE_JIT},
    "engine=traced": {LOCKSTEP},
    "injector": ALL,
    "injector=declared": {TRACE_JIT, LOCKSTEP},
    "trace": ALL,
    "recorder": {PLAN_LOOKUP, LOCKSTEP},
    "interrupt_every": {TRACE_JIT, LOCKSTEP},
    "deadline": {LOCKSTEP},
    "banked-windows": {LOCKSTEP},
    "numpy": {LOCKSTEP},
}

#: A run no row refuses, per fast path.
BASELINE = {
    TRACE_JIT: dict(engine="traced", lanes=1),
    PLAN_LOOKUP: dict(engine="decoded", lanes=1),
    LOCKSTEP: dict(engine="decoded", lanes=4),
}


def apply_code(code, shape, monkeypatch):
    """``shape`` plus the one feature that makes ``code`` hold."""
    shape = dict(shape)
    if code == "batch=1":
        shape["lanes"] = 1
    elif code.startswith("engine="):
        shape["engine"] = code.split("=", 1)[1]
    elif code == "banked-windows":
        shape["machine"] = build_machine("ID3200m")
    elif code == "numpy":
        monkeypatch.setattr(batch, "HAVE_NUMPY", False)
    elif code == "injector":
        shape["injector"] = "undeclared"
    elif code == "injector=declared":
        shape["injector"] = "declared"
    else:
        shape[code] = True
    return shape


def test_table_lists_every_code_in_order():
    assert [code for code, _, _ in RULES] == list(EXPECTED)


@pytest.mark.parametrize("path", FAST_PATHS)
@pytest.mark.parametrize("code", list(EXPECTED))
def test_code_rules_out_exactly_its_paths(code, path, monkeypatch):
    monkeypatch.setattr(batch, "HAVE_NUMPY", True)
    shape = dict(BASELINE[path], machine=build_machine("HM1"))
    assert fast_path_refusal(path, **shape) is None
    shape = apply_code(code, shape, monkeypatch)
    expected = code if path in EXPECTED[code] else None
    assert fast_path_refusal(path, **shape) == expected


def test_unknown_engine_refuses_every_path():
    for path in FAST_PATHS:
        assert fast_path_refusal(path, engine="cuda") == "engine=cuda"


# ----------------------------------------------------------------------
# What actually runs
# ----------------------------------------------------------------------
class _PassThrough:
    """An injector that changes nothing and declares nothing."""

    def on_instruction(self, simulator, loaded):
        return loaded

    def after_sequence(self, simulator, address, resident):
        return None


class _DeclaredPassThrough(_PassThrough):
    """An injector that changes nothing and says so."""

    watched = frozenset()
    boundary_hook = False


INJECTORS = {"undeclared": _PassThrough, "declared": _DeclaredPassThrough}


def mul_program(machine_name):
    machine = build_machine(machine_name)
    result = get_language("yalll").compile(YALLL_MUL, machine)
    return machine, result


def simulator_for(code, monkeypatch):
    """A traced simulator carrying only ``code``'s feature."""
    machine_name = "ID3200m" if code == "banked-windows" else "HM1"
    machine, result = mul_program(machine_name)
    store = ControlStore(machine)
    store.load(result.loaded)
    shape = apply_code(code, dict(engine="traced"), monkeypatch)
    simulator = Simulator(
        machine, store, engine=shape["engine"],
        injector=(INJECTORS[shape["injector"]]()
                  if shape.get("injector") else None),
        trace=[] if shape.get("trace") else None,
        recorder=(TraceRecorder(NULL_TRACER)
                  if shape.get("recorder") else None),
        interrupt_every=1000 if shape.get("interrupt_every") else None,
        deadline_s=60.0 if shape.get("deadline") else None,
    )
    mapping = result.allocation.mapping
    simulator.state.write_reg(mapping["a"], 3)
    simulator.state.write_reg(mapping["n"], 60)
    return simulator, result.loaded.name


@pytest.mark.parametrize("code", list(EXPECTED))
def test_simulator_engages_what_the_table_admits(code, monkeypatch):
    looked_up = []
    addr_plans = PlanCache.addr_plans

    def spy(self, resident):
        looked_up.append(resident)
        return addr_plans(self, resident)

    monkeypatch.setattr(PlanCache, "addr_plans", spy)
    simulator, name = simulator_for(code, monkeypatch)
    run = simulator.run(name)
    assert run.exit_value == 180

    counters = run.trace_cache or {"hits": 0, "misses": 0}
    jit_ran = counters["hits"] > 0 and counters["misses"] > 0
    jit_idle = counters["hits"] == 0 and counters["misses"] == 0
    if TRACE_JIT in EXPECTED[code]:
        assert jit_idle, counters
    else:
        assert jit_ran, counters
    assert bool(looked_up) == (PLAN_LOOKUP not in EXPECTED[code])


#: One spec per injector kind; ``kill`` never reaches its nth MI.
KIND_SPECS = {
    "bitflip": "bitflip:addr={loop},bit=3",
    "stuck": "stuck:reg=R7,value=0",
    "memfault": "memfault:op=read,nth=1",
    "storm": "storm:period=40",
    "kill": "kill:nth=1000000000",
}


@pytest.mark.parametrize("path", FAST_PATHS)
@pytest.mark.parametrize("kind", list(KIND_SPECS))
def test_every_injector_kind_against_every_fast_path(kind, path, monkeypatch):
    """Each seeded kind declares what it touches: admission keeps the
    plan lookup and refuses the JIT and lockstep, and a traced run
    shows exactly that — map consulted, no trace, no batch."""
    consulted = []
    addr_plans = PlanCache.addr_plans

    def spy_plans(self, resident):
        consulted.append(resident)
        return addr_plans(self, resident)

    batched = []
    run_lockstep = batch._run_lockstep

    def spy_lockstep(*args, **kwargs):
        batched.append(args)
        return run_lockstep(*args, **kwargs)

    monkeypatch.setattr(PlanCache, "addr_plans", spy_plans)
    monkeypatch.setattr(batch, "_run_lockstep", spy_lockstep)
    simulator, name = simulator_for("engine=traced", monkeypatch)
    resident = simulator.store.find(name)
    loop = resident.base + resident.program.labels["loop"]
    injector = build_injector(KIND_SPECS[kind].format(loop=loop))
    injector.attach(simulator)
    assert injector.watched == (
        frozenset({loop}) if kind == "bitflip" else frozenset()
    )
    shape = dict(BASELINE[path], machine=simulator.machine,
                 injector="declared")
    expected = None if path == PLAN_LOOKUP else "injector=declared"
    assert fast_path_refusal(path, **shape) == expected
    try:
        run = simulator.run(name)
        counters = run.trace_cache
    except ReproError:
        counters = simulator.cache_counters(0)[1]

    if path == TRACE_JIT:
        assert counters["hits"] == counters["misses"] == 0, counters
    elif path == PLAN_LOOKUP:
        assert consulted
        mapped = simulator._plan_cache.addr_plans(resident)
        assert mapped
        assert not injector.watched & set(mapped)
    else:
        assert not batched
    if kind == "bitflip":
        assert [f["name"] for f in injector.fired] == ["fault.bitflip"]


#: Codes a ``run_cases`` call can carry.
LOCKSTEP_CODES = (
    "batch=1", "engine=interpretive", "engine=decoded", "engine=traced",
    "banked-windows", "numpy",
)


@pytest.mark.parametrize("code", LOCKSTEP_CODES)
def test_run_cases_engages_what_the_table_admits(code, monkeypatch):
    admitted = LOCKSTEP not in EXPECTED[code]
    if admitted and not batch.HAVE_NUMPY:
        pytest.skip("numpy missing: admission refuses lockstep")
    machine_name = "ID3200m" if code == "banked-windows" else "HM1"
    machine, result = mul_program(machine_name)
    shape = apply_code(code, BASELINE[LOCKSTEP], monkeypatch)
    mapping = result.allocation.mapping
    driven = []
    run_lockstep = batch._run_lockstep

    def spy(*args, **kwargs):
        lanes = run_lockstep(*args, **kwargs)
        driven.append(lanes)
        return lanes

    monkeypatch.setattr(batch, "_run_lockstep", spy)
    # Different trip counts: admitted lanes diverge and reconverge.
    cases = [BatchCase(registers={mapping["a"]: 2, mapping["n"]: n})
             for n in (3, 5, 5, 9)]
    outcomes = run_cases(
        machine, result.loaded, cases,
        batch=shape["lanes"], engine=shape["engine"],
    )
    assert [o.result.exit_value for o in outcomes] == [6, 10, 10, 18]
    if admitted:
        (lanes,) = driven
        assert all(lane is not None for lane in lanes)
        assert not any(o.peeled for o in outcomes)
        return
    assert not driven
    for case, outcome in zip(cases, outcomes):
        assert not outcome.peeled
        store = ControlStore(machine)
        store.load(result.loaded)
        scalar = Simulator(machine, store, engine=shape["engine"])
        for register, value in case.registers.items():
            scalar.state.write_reg(register, value)
        reference = scalar.run(result.loaded.name)
        assert outcome.result.plan_cache == reference.plan_cache


#: Codes a ``/run`` request can carry, with the request that carries it.
SERVE_CODES = {
    "engine=interpretive": {"engine": "interpretive"},
    "engine=traced": {"engine": "traced"},
    "deadline": {"deadline_s": 30},
    "banked-windows": {"machine": "ID3200m"},
    "numpy": {},
}


def test_serve_exports_the_table_codes(tmp_path, monkeypatch):
    def run_job(a, **extra):
        return {"source": YALLL_MUL, "lang": "yalll",
                "set": {"a": a, "n": 2}, **extra}

    config = ServeConfig(workers=1, batch_window_ms=0.0, batch_max_lanes=8,
                         cache_dir=str(tmp_path / "cache"))
    with ServiceRunner(config) as runner:
        # ``numpy`` goes last: it holds for every later request.
        for a, (code, extra) in enumerate(SERVE_CODES.items()):
            if code == "numpy":
                monkeypatch.setattr(batch, "HAVE_NUMPY", False)
            status, body = runner.request("POST", "/run", run_job(a, **extra))
            assert status == 200 and body["status"] == "ok", body
        _, document = runner.request("GET", "/metrics")
    with ServiceRunner(ServeConfig(workers=1, batch_max_lanes=1,
                                   cache_dir=str(tmp_path / "cache"))
                       ) as runner:
        runner.request("POST", "/run", run_job(0))
        _, unbatched = runner.request("GET", "/metrics")
    for code in SERVE_CODES:
        assert (f'repro_serve_batch_refused_total{{reason="{code}"}} 1'
                in document), code
    assert ('repro_serve_batch_refused_total{reason="batch=1"} 1'
            in unbatched)
