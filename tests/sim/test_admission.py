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
* lockstep — on lanes that diverge, an admitted ``run_cases`` peels
  some lanes, a refused one returns every lane unpeeled with the
  scalar engine's plan-cache counters;
* serve — ``/metrics`` exports the code as its ``reason`` label.
"""

import pytest

import repro.sim.batch as batch
from repro.asm import ControlStore
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
    """An injector that changes nothing."""

    def on_instruction(self, simulator, loaded):
        return loaded

    def after_sequence(self, simulator, address, resident):
        return None


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
        injector=_PassThrough() if shape.get("injector") else None,
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
    # Different trip counts: admitted lanes diverge and peel.
    cases = [BatchCase(registers={mapping["a"]: 2, mapping["n"]: n})
             for n in (3, 5, 5, 9)]
    outcomes = run_cases(
        machine, result.loaded, cases,
        batch=shape["lanes"], engine=shape["engine"],
    )
    assert [o.result.exit_value for o in outcomes] == [6, 10, 10, 18]
    if admitted:
        assert any(o.peeled for o in outcomes)
        return
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
