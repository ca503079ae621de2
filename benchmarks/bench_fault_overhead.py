"""Fault-injection overhead — the no-injector path is ~free.

``repro.faults`` hooks into the simulator the same way the
observability recorder does: with no injector attached the hot loop
pays one ``is not None`` test per microinstruction (plus one for the
optional wall-clock deadline).  This benchmark checks the promise on
the ``bench_obs_overhead`` workload: the shipped loop with
``injector=None`` must stay within ~5% of a verbatim uninstrumented
copy of the seed loop (plus the baseline's own measured jitter),
interleaving rounds to cancel thermal/scheduler drift.

It also reports the cost of *attached* injectors — a stuck-at register
(its hook runs at every microinstruction, the worst case) and an armed
but never-firing memory fault (no hook: it wraps memory).  That table
is informational, not a gate: under the decoded engine both keep the
address-keyed plan lookup, because they declare that they replace no
fetched word; the interpretive runs measured here fetch every word.
"""

from __future__ import annotations

import time

from repro.asm import ControlStore
from repro.bench import render_table
from repro.errors import MicroTrap, SimulationError
from repro.faults import StuckAtRegister, TransientMemoryFault
from repro.lang.yalll import compile_yalll
from repro.sim import RunResult, Simulator

#: Multiply-by-repeated-addition: 3 MIs per loop iteration.
YALLL_MUL = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

N_ITERATIONS = 1500
ROUNDS = 9


def _uninstrumented_run(
    simulator: Simulator, program_name: str, max_cycles: int = 1_000_000
) -> RunResult:
    """A verbatim copy of the seed's run loop: no recorder hooks, no
    injector hooks, no deadline check — the bare-metal baseline."""
    resident = simulator.store.find(program_name)
    simulator.load_constants(resident)
    state = simulator.state
    state.upc = resident.entry
    state.halted = False
    state.exit_value = None
    state.micro_stack.clear()

    entry_snapshot = state.snapshot_registers()
    instructions = 0
    traps = 0
    interrupts = 0
    wait_cycles = 0
    pending_since: int | None = None
    start_cycles = state.cycles

    while not state.halted:
        if state.cycles - start_cycles > max_cycles:
            raise SimulationError(
                f"{program_name}: exceeded {max_cycles} cycles"
            )
        if (
            simulator.interrupt_every
            and not state.interrupt_pending
            and state.cycles > 0
            and (state.cycles // simulator.interrupt_every)
            > ((state.cycles - 1) // simulator.interrupt_every)
        ):
            state.interrupt_pending = True
        if state.interrupt_pending and pending_since is None:
            pending_since = state.cycles

        loaded = simulator.store.fetch(state.upc)
        instruction = loaded.instruction
        try:
            serviced = simulator._execute_instruction(instruction)
        except MicroTrap as trap:
            traps += 1
            if traps > simulator.max_traps:
                raise SimulationError(
                    f"{program_name}: more than {simulator.max_traps} traps"
                ) from trap
            simulator._service_trap(trap, entry_snapshot)
            state.upc = resident.entry
            state.micro_stack.clear()
            state.cycles += simulator.trap_service_cycles
            continue
        if serviced:
            interrupts += 1
            if pending_since is not None:
                wait_cycles += state.cycles - pending_since
                pending_since = None
            state.cycles += simulator.interrupt_service_cycles
        state.cycles += instruction.cycles(simulator.machine)
        instructions += 1
        simulator._sequence(instruction, state.upc, resident)

    return RunResult(
        cycles=state.cycles - start_cycles,
        instructions=instructions,
        traps=traps,
        interrupts_serviced=interrupts,
        interrupt_wait_cycles=wait_cycles,
        exit_value=state.exit_value,
    )


def _make_runner(machine, injector=None):
    result = compile_yalll(YALLL_MUL, machine, name="mul")
    store = ControlStore(machine)
    store.load(result.loaded)
    simulator = Simulator(machine, store)
    if injector is not None:
        injector.attach(simulator)
    mapping = result.allocation.mapping

    def prepare():
        simulator.state.write_reg(mapping.get("a", "a"), 3)
        simulator.state.write_reg(mapping.get("n", "n"), N_ITERATIONS)
        simulator.state.write_reg(mapping.get("p", "p"), 0)

    return simulator, prepare


def _best_of(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


class TestNoInjectorOverhead:
    def test_detached_overhead_under_five_percent(self, hm1, report):
        sim_base, prep_base = _make_runner(hm1)
        sim_hook, prep_hook = _make_runner(hm1)

        def run_baseline():
            prep_base()
            return _uninstrumented_run(sim_base, "mul")

        def run_detached():
            prep_hook()
            return sim_hook.run("mul")

        # Simulated behaviour must be bit-identical with no injector.
        assert run_baseline().cycles == run_detached().cycles

        # Interleave rounds so thermal/scheduler drift hits both sides.
        base_times: list[float] = []
        hook_times: list[float] = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            run_baseline()
            base_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            run_detached()
            hook_times.append(time.perf_counter() - t0)

        t_base = min(base_times)
        t_hook = min(hook_times)
        ratio = t_hook / t_base
        # Allow the baseline's own observed jitter on top of the 5%.
        noise = (sorted(base_times)[len(base_times) // 2] - t_base) / t_base
        budget = 1.05 + max(0.02, noise)
        report(render_table(
            ["variant", "best (ms)", "vs baseline"],
            [
                ["uninstrumented seed loop", f"{t_base * 1e3:.2f}", "1.000"],
                ["shipped loop, no injector", f"{t_hook * 1e3:.2f}",
                 f"{ratio:.3f}"],
            ],
            title="fault-injection no-injector overhead (min of "
            f"{ROUNDS} interleaved rounds, {N_ITERATIONS} loop iterations)",
        ))
        assert ratio <= budget, (
            f"no-injector overhead {100 * (ratio - 1):.1f}% exceeds "
            f"budget {100 * (budget - 1):.1f}%"
        )

    def test_attached_cost_reported(self, hm1, report):
        """Cost with injectors attached (informational, may be high)."""
        sim_off, prep_off = _make_runner(hm1)
        sim_stuck, prep_stuck = _make_runner(
            hm1, injector=StuckAtRegister("R7", 0)
        )
        sim_armed, prep_armed = _make_runner(
            hm1, injector=TransientMemoryFault(op="write", nth=10**9)
        )

        def timed(sim, prep):
            def go():
                prep()
                sim.run("mul")
            return _best_of(go, 3)

        t_off = timed(sim_off, prep_off)
        t_stuck = timed(sim_stuck, prep_stuck)
        t_armed = timed(sim_armed, prep_armed)
        report(render_table(
            ["variant", "best (ms)", "vs detached"],
            [
                ["no injector", f"{t_off * 1e3:.2f}", "1.00"],
                ["stuck-at register", f"{t_stuck * 1e3:.2f}",
                 f"{t_stuck / t_off:.2f}"],
                ["armed memory fault", f"{t_armed * 1e3:.2f}",
                 f"{t_armed / t_off:.2f}"],
            ],
            title="fault-injection attached cost (best of 3)",
        ))
        assert t_stuck > 0 and t_armed > 0
