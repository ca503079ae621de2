"""Batched lockstep execution: N cases per decoded dispatch (S23).

The scalar engines pay one Python dispatch per microinstruction *per
case*; a million-case campaign is a million interpreter loops.  This
module holds N independent cases as **struct-of-arrays** — every
register and flag becomes a lane vector — and drives them in lockstep
through the decoded engine's execution plans: one step closure per
placed op per microinstruction, each operating on whole numpy lane
vectors, so the Python-level dispatch cost is amortised across the
batch.  This is the structural move that makes VADL-style generated
simulators fast, applied to the pre-decoded engine of
:mod:`repro.sim.decode`: the
plans are built by the same lowering, from the same op table
(:mod:`repro.sim.ops`), through a lane-vector decode backend
(:class:`_LaneSteps`).  What stays here is the lockstep part — the
vector state, ``settle`` and the peel rules.

**Lockstep invariant.**  While lanes are live they share one
microprogram counter, one cycle count and one micro return stack —
legal because a lane that would diverge *leaves the batch* first.

**Divergence peel-off.**  Any lane that traps (pagefault), takes a
different branch direction than the batch leader (the lowest live
lane), selects a different multiway target, or raises a per-lane
datapath error is peeled: it is re-executed **from scratch** on the
scalar decoded :class:`~repro.sim.simulator.Simulator` and its result
merged back in case order.  Replay-from-scratch (rather than handing
over mid-run state) is deliberate: §2.1.5 trap service restores
microregisters to their *microprogram-entry* values, which a lane
peeled mid-run could not reconstruct — the scalar engine is the
reference semantics, so a peeled lane is byte-identical to a serial
run by construction.  Batch-wide events (budget exhaustion, a shared
stack overflow, an unsupported word) peel every live lane the same
way.

**Admission.**  Batching only engages when
:func:`repro.sim.admission.fast_path_refusal` admits
:data:`~repro.sim.admission.LOCKSTEP`: one lane, an engine other than
decoded, a banked register file or a missing numpy each refuse it,
and every lane then runs on the scalar engine, unpeeled.  Importing
this module never needs numpy.

``PLANT_LANE_XOR`` is the self-check hook: when non-zero, every
batched register commit XORs lane 0's value with it — a one-lane
batch-state corruption the difftest ``batched`` axis must catch.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.asm.loader import ControlStore
from repro.errors import MicroTrap, SimulationError
from repro.mir.operands import Reg
from repro.sim.admission import LOCKSTEP, fast_path_refusal
from repro.sim.decode import ExecutionPlan, _dest_slot, build_plan
from repro.sim.memory import MainMemory, Scratchpad
from repro.sim.semantics import OpResult, evaluate
from repro.sim.simulator import RunResult, Simulator
from repro.sim.state import MachineState

try:
    import numpy as _np
except ImportError:  # pragma: no cover - the ``numpy`` refusal
    _np = None

#: True when numpy is importable; without it admission refuses
#: lockstep (reason ``numpy``) and every lane runs scalar.
HAVE_NUMPY = _np is not None

#: Self-check plant: when non-zero, every batched register commit
#: XORs lane 0's committed value with this (see module docstring).
PLANT_LANE_XOR = 0

#: Default lane count for batched sweeps (difftest axis, benchmarks).
DEFAULT_LANES = 64


# ----------------------------------------------------------------------
# Lane vectors
# ----------------------------------------------------------------------
def _full(n: int, value: int):
    return _np.full(n, value, dtype=_np.int64)


def _vector(values):
    return _np.array(values, dtype=_np.int64)


def resolve_backend(backend: str = "auto") -> str:
    """``"numpy"``, or ``"scalar"`` when numpy is missing and every
    lane runs on the scalar engine (the ``numpy`` refusal)."""
    if backend != "auto":
        raise SimulationError(
            f"unknown batch backend {backend!r} (expected 'auto')"
        )
    return "numpy" if HAVE_NUMPY else "scalar"


# ----------------------------------------------------------------------
# Case and outcome containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchCase:
    """One lane's initial state: physical register pokes + memory image."""

    registers: dict[str, int] = field(default_factory=dict)
    memory: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class LaneOutcome:
    """One case's final state, whether it completed batched or peeled.

    Duck-types the observation surface the difftest oracle reads from
    a scalar run: ``read_reg`` (banked windows resolve against the
    snapshot's bank pointer), a ``scratchpad`` with ``read``, a
    ``memory`` with ``dump_words``, the final ``flags`` and the
    :class:`~repro.sim.simulator.RunResult`.  ``error`` carries the
    exception a peeled lane's scalar replay raised (budget overruns,
    unserviced traps); ``result`` is then ``None``.
    """

    machine: object
    result: RunResult | None
    error: BaseException | None
    registers: dict[str, int]
    flags: dict[str, int]
    scratchpad: object
    memory: object
    peeled: bool

    def read_reg(self, name: str) -> int:
        files = self.machine.registers
        if files.is_window(name):
            pointer = files.bank_pointer
            if pointer is None:
                raise SimulationError(f"window {name!r} but no bank pointer")
            name = files.resolve_window(name, self.registers[pointer])
        try:
            return self.registers[name]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None


class _DenseLaneView:
    """``dump_words`` over one lane's row of a dense memory array."""

    __slots__ = ("_row", "size")

    def __init__(self, row, size: int):
        self._row = row
        self.size = size

    def dump_words(self, base: int, count: int) -> list[int]:
        return [int(v) for v in self._row[base:base + count]]


# ----------------------------------------------------------------------
# Batched memory
# ----------------------------------------------------------------------
class _DenseMemory:
    """All lanes' main memory as one (lanes, size) numpy array.

    Only used with paging disabled — the regime where no memory touch
    can trap, so reads and writes are single fancy-indexing operations
    across the batch.
    """

    __slots__ = ("state", "words", "rows", "size")

    def __init__(self, state: BatchedState, size: int = 65536):
        self.state = state
        self.size = size
        self.words = _np.zeros((state.n, size), dtype=_np.int64)
        self.rows = _np.arange(state.n)

    def load(self, lane: int, base: int, values) -> None:
        for offset, value in enumerate(values):
            if not 0 <= base + offset < self.size:
                raise SimulationError("load_words out of range")
            self.words[lane, base + offset] = value

    def _clamp(self, addrs):
        bad = (addrs < 0) | (addrs >= self.size)
        if bad.any():
            for lane in self.state.live_lanes():
                if bad[lane]:
                    self.state.peel(lane, "memory-range")
            addrs = _np.where(bad, 0, addrs)
        return addrs

    def read(self, addrs):
        return self.words[self.rows, self._clamp(addrs)]

    def write(self, addrs, values) -> None:
        addrs = self._clamp(addrs)
        live = self.state.live_vec
        rows = self.rows
        # Peeled lanes must not commit: route their store to their own
        # address but with the value already there (a no-op write).
        current = self.words[rows, addrs]
        self.words[rows, addrs] = _np.where(live == 1, values, current)

    def lane_view(self, lane: int) -> _DenseLaneView:
        return _DenseLaneView(self.words[lane], self.size)


class _LaneMemories:
    """Per-lane stores (:class:`MainMemory` or :class:`Scratchpad`).

    Reads and writes loop over live lanes; a :class:`MicroTrap` or
    address error in one lane peels that lane and leaves the rest in
    lockstep.
    """

    __slots__ = ("state", "memories", "reason")

    def __init__(self, state: BatchedState, memories, reason: str):
        self.state = state
        self.memories = memories
        self.reason = reason

    def load(self, lane: int, base: int, values) -> None:
        self.memories[lane].load_words(base, list(values))

    def read(self, addrs):
        state = self.state
        values = [0] * state.n
        for lane in state.live_lanes():
            try:
                values[lane] = self.memories[lane].read(int(addrs[lane]))
            except (MicroTrap, SimulationError):
                state.peel(lane, self.reason)
        return _vector(values)

    def write(self, addrs, values) -> None:
        for lane in self.state.live_lanes():
            try:
                self.memories[lane].write(
                    int(addrs[lane]), int(values[lane])
                )
            except (MicroTrap, SimulationError):
                self.state.peel(lane, self.reason)

    def touch(self, addrs, values) -> None:
        """The decoded engine's write-allocate check, per lane."""
        for lane in self.state.live_lanes():
            address = int(addrs[lane])
            memory = self.memories[lane]
            if not memory.is_mapped(address):
                try:
                    memory.write(address, int(values[lane]))
                except (MicroTrap, SimulationError):
                    self.state.peel(lane, self.reason)

    def lane_view(self, lane: int):
        return self.memories[lane]


# ----------------------------------------------------------------------
# Batched state
# ----------------------------------------------------------------------
class _PeelAll(Exception):
    """Batch-wide divergence: every live lane goes to the scalar path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class BatchedState:
    """N cases as struct-of-arrays, advanced in lockstep.

    ``registers``/``flags`` map names to lane vectors; ``memory`` and
    ``scratchpad`` read and write lane vectors through the scalar
    stores' ``read``/``write`` surface, so the decoded engine's memory
    and scratchpad steps run on them unchanged.  The microsequencer
    (``upc``, ``cycles``, ``micro_stack``, ``halted``) is *shared* —
    the lockstep invariant — and ``live``/``live_vec``/``peeled`` track
    which lanes are still following the batch leader.
    """

    def __init__(self, machine, n: int, *, paging: bool = False):
        self.machine = machine
        self.n = n
        self.registers = {
            register.name: _full(n, register.reset)
            for register in machine.registers
        }
        self.flags = {flag: _full(n, 0) for flag in machine.flags}
        self.live = [True] * n
        self.live_vec = _full(n, 1)
        self.peeled: dict[int, str] = {}
        # The stores call back into the state to peel lanes.  A weak
        # reference keeps that from forming a cycle, which would hold
        # each finished batch's memory until the cyclic collector ran.
        lanes = weakref.proxy(self)
        if not paging:
            self.memory = _DenseMemory(lanes)
        else:
            self.memory = _LaneMemories(lanes, [
                MainMemory(paging_enabled=paging) for _ in range(n)
            ], "trap")
        self.scratchpad = _LaneMemories(lanes, [
            Scratchpad(machine.scratchpad_size) for _ in range(n)
        ], "scratchpad")
        self.upc = 0
        self.cycles = 0
        self.micro_stack: list[int] = []
        self.halted = False
        self.exit_value = None

    # -- lane management -------------------------------------------------
    def live_lanes(self) -> list[int]:
        return [lane for lane in range(self.n) if self.live[lane]]

    def any_live(self) -> bool:
        return any(self.live)

    def peel(self, lane: int, reason: str) -> None:
        if self.live[lane]:
            self.live[lane] = False
            self.live_vec[lane] = 0
            self.peeled[lane] = reason

    def peel_all(self, reason: str) -> None:
        for lane in self.live_lanes():
            self.peel(lane, reason)

    # -- lockstep sequencing ---------------------------------------------
    def settle(self, targets, reason: str) -> None:
        """Follow the batch leader; peel lanes that disagree.

        ``targets`` is a per-lane vector of next control-store
        addresses; the leader is the lowest live lane.
        """
        lanes = self.live_lanes()
        leader = int(targets[lanes[0]])
        stray = (1 - (targets == leader) * 1) * self.live_vec
        if stray.any():
            for lane in lanes[1:]:
                if stray[lane]:
                    self.peel(lane, reason)
        self.upc = leader

    def poke_constant(self, name: str, value: int) -> None:
        register = self.machine.registers[name]
        self.registers[name] = _full(self.n, value & register.mask)

    def write_reg(self, name: str, value) -> None:
        """Commit a lane vector to a plain register, applying
        :data:`PLANT_LANE_XOR` to lane 0 while the plant is armed."""
        committed = value & self.machine.registers[name].mask
        if PLANT_LANE_XOR:
            committed[0] = int(committed[0]) ^ PLANT_LANE_XOR
        self.registers[name] = committed

    def push_return(self, address: int) -> None:
        if len(self.micro_stack) >= self.machine.micro_stack_depth:
            # Shared stack: every lane overflows identically.
            raise _PeelAll("stack-overflow")
        self.micro_stack.append(address)

    def pop_return(self) -> int:
        if not self.micro_stack:
            raise _PeelAll("stack-underflow")
        return self.micro_stack.pop()

    def init_register(self, lane: int, name: str, value: int) -> None:
        """Loader-level per-lane poke with ``write_reg`` checking."""
        files = self.machine.registers
        if name not in files.registers:
            raise SimulationError(f"unknown register {name!r}")
        register = files.registers[name]
        if register.readonly:
            raise SimulationError(f"write to read-only register {name!r}")
        self.registers[name][lane] = value & register.mask


# ----------------------------------------------------------------------
# Batched decode backend
# ----------------------------------------------------------------------
def _lane(value, lane: int) -> int:
    """One lane of a vector operand, or a scalar default as is."""
    return value if isinstance(value, int) else int(value[lane])


class _LaneSteps:
    """Decode backend for a :class:`BatchedState` (see
    :func:`repro.sim.decode.build_plan`).

    Readers return lane vectors, so the shared table, memory and
    scratchpad steps run on whole batches.  What the scalar backend
    keeps dynamic — windows, read-only and unknown registers,
    ``setblk`` — refuses batching here instead: the scalar replay
    reproduces it, raises included.
    ``poll`` lowers to nothing: batches never admit an interrupt
    source, so the pending latch can never be set (the scalar step is
    an identical no-op then).
    """

    def __init__(self, state: BatchedState):
        self.state = state
        self.machine = state.machine
        self.files = state.machine.registers

    def reader(self, operand):
        """Immediates become cached constant vectors (treated as
        immutable — every consumer derives fresh vectors through
        operators); registers become direct slot lookups."""
        if not isinstance(operand, Reg):
            constant = _full(self.state.n, operand.value)
            return lambda b: constant
        name = operand.name
        if self.files.is_window(name) or name not in self.files.registers:
            raise _PeelAll(f"dynamic register {name!r}")
        return lambda b: b.registers[name]

    def dest(self, name: str) -> tuple[str, int | None]:
        """``(target, mask)`` for a plain writable destination register.

        While :data:`PLANT_LANE_XOR` is armed the mask is None, which
        routes every commit through :meth:`BatchedState.write_reg`.
        """
        target, mask = _dest_slot(self.files, name)
        if mask is None:
            raise _PeelAll(f"dynamic destination {name!r}")
        return (target, None if PLANT_LANE_XOR else mask)

    def poll(self):
        return None

    def setblk(self, read_value):
        raise _PeelAll("setblk")

    def write(self, read_addr, read_data):
        def step(b, reg_writes, flag_writes, memory_ops):
            addrs = read_addr(b)
            data = read_data(b)
            memory_ops.append(
                lambda a=addrs, d=data: b.memory.write(a, d)
            )
            # Touch now so pagefaults surface at the op, not at commit —
            # only meaningful in per-lane mode (dense mode never pages).
            touch = getattr(b.memory, "touch", None)
            if touch is not None:
                touch(addrs, data)

        return step

    def evaluate(self, name, srcs, width, dest_old=0, carry_in=0):
        """:func:`evaluate` lane by lane, for ops without a table entry.

        Returns an :class:`OpResult` of lane vectors.  The loop costs
        one scalar evaluation per live lane — same as the scalar
        engine — but these ops are rare in generated and compiled code;
        the table ops stay fully vectorised.  A per-lane
        :class:`SimulationError` (e.g. a negative shift count) peels
        that lane; the scalar replay raises identically.
        """
        b = self.state
        values = [0] * b.n
        flag_cols: dict[str, list[int]] = {}
        wrote_value = False
        for lane in b.live_lanes():
            try:
                result = evaluate(
                    name,
                    [int(vec[lane]) for vec in srcs],
                    width,
                    dest_old=_lane(dest_old, lane),
                    carry_in=_lane(carry_in, lane),
                )
            except SimulationError:
                b.peel(lane, "op")
                continue
            if result.value is not None:
                values[lane] = result.value
                wrote_value = True
            for flag, value in result.flags.items():
                flag_cols.setdefault(flag, [0] * b.n)[lane] = value
        return OpResult(
            _vector(values) if wrote_value else None,
            {flag: _vector(col) for flag, col in flag_cols.items()},
        )

    def branch(self, flag, expected, taken, not_taken):
        def seq_branch(b):
            flag_vec = b.flags.get(flag)
            if flag_vec is None:
                b.upc = taken if expected == 0 else not_taken
                return
            t = (flag_vec == expected) * 1
            b.settle(t * taken + (1 - t) * not_taken, "branch")

        return seq_branch

    def multiway(self, read_value, cases, default):
        """Every lane's target at once: a lanes-by-arms match matrix
        over the compiled ``(care, bits)`` arms, with the default
        appended as an arm that matches anything, so the first hit in
        each row is that lane's first-match target."""
        care, bits, targets = (
            _vector(column) for column in zip(*cases, (0, 0, default))
        )

        def seq_multiway(b):
            hits = (read_value(b)[:, None] & care) == bits
            b.settle(targets[hits.argmax(axis=1)], "multiway")

        return seq_multiway


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def _run_lockstep(
    machine, loaded, cases, *, paging, max_cycles,
) -> list[LaneOutcome | None]:
    """Drive one homogeneous chunk in lockstep.

    Returns one entry per case: a :class:`LaneOutcome` for lanes that
    ran to EXIT inside the batch, None for lanes that peeled (the
    caller replays those scalar).
    """
    store = ControlStore(machine)
    resident = store.load(loaded)
    n = len(cases)
    b = BatchedState(machine, n, paging=paging)
    for lane, case in enumerate(cases):
        # A lane whose initial pokes are invalid (unknown register,
        # windowed name, out-of-range load) peels to the scalar path,
        # which raises the identical error for that case alone —
        # live-traffic batches must never let one bad lane take down
        # its neighbours.
        try:
            for name, value in case.registers.items():
                b.init_register(lane, name, value)
            for address, value in case.memory.items():
                b.memory.load(lane, address, [value])
        except (MicroTrap, SimulationError):
            b.peel(lane, "init")
    for name, value in resident.program.constants.items():
        b.poke_constant(name, value)
    b.upc = resident.entry

    steps = _LaneSteps(b)
    plans: dict[int, ExecutionPlan] = {}
    decodes = 0
    instructions = 0
    try:
        while not b.halted and b.any_live():
            if b.cycles > max_cycles:
                # Scalar runs raise SimulationLimitError at exactly
                # this microinstruction boundary; the replay does too.
                b.peel_all("budget")
                break
            plan = plans.get(b.upc)
            if plan is None:
                plan = build_plan(steps, store.fetch(b.upc), resident, b.upc)
                plans[b.upc] = plan
                decodes += 1
            plan.execute(b)
            if not b.any_live():
                break
            b.cycles += plan.cycles
            instructions += 1
            plan.sequence(b)
    except _PeelAll as stop:
        b.peel_all(stop.reason)
    except Exception:
        # Anything unforeseen (a fetch outside the resident, a decode
        # the scalar engine would reject): the scalar path is the
        # reference — replay every lane rather than guess.
        b.peel_all("error")

    outcomes: list[LaneOutcome | None] = [None] * n
    if not b.any_live():
        return outcomes
    # Per-run plan-cache counters, synthesised to match what a fresh
    # scalar simulator reports: misses are the distinct addresses
    # decoded, hits are the remaining executed microinstructions.
    plan_counters = {
        "hits": max(0, instructions - decodes),
        "misses": decodes,
        "invalidations": 0,
    }
    for lane in b.live_lanes():
        exit_value = (
            int(b.exit_value[lane]) if b.exit_value is not None else None
        )
        outcomes[lane] = LaneOutcome(
            machine,
            result=RunResult(
                cycles=b.cycles,
                instructions=instructions,
                traps=0,
                interrupts_serviced=0,
                interrupt_wait_cycles=0,
                exit_value=exit_value,
                plan_cache=dict(plan_counters),
            ),
            error=None,
            registers={
                name: int(vec[lane]) for name, vec in b.registers.items()
            },
            flags={name: int(vec[lane]) for name, vec in b.flags.items()},
            scratchpad=b.scratchpad.lane_view(lane),
            memory=b.memory.lane_view(lane),
            peeled=False,
        )
    return outcomes


def _run_scalar(
    machine, loaded, case, *, engine, paging, trap_service, max_cycles,
    peeled,
) -> LaneOutcome:
    """One case on the scalar engine — the peel-off (and batch=1) path."""
    store = ControlStore(machine)
    store.load(loaded)
    memory = MainMemory(paging_enabled=paging)
    state = MachineState(machine, memory=memory)
    simulator = Simulator(machine, store, state=state, engine=engine,
                          trap_service=trap_service)
    result = None
    error = None
    try:
        for name, value in case.registers.items():
            state.write_reg(name, value)
        for address, value in case.memory.items():
            memory.load_words(address, [value])
        result = simulator.run(loaded.name, max_cycles=max_cycles)
    except Exception as exc:
        # Invalid pokes are captured per lane too, so a batch caller
        # (e.g. a serve worker) observes them in ``LaneOutcome.error``
        # exactly like any other per-case failure.
        error = exc
    return LaneOutcome(
        machine,
        result=result,
        error=error,
        registers=dict(state.registers),
        flags=dict(state.flags),
        scratchpad=state.scratchpad,
        memory=memory,
        peeled=peeled,
    )


def run_cases(
    machine,
    loaded,
    cases,
    *,
    batch: int = 1,
    engine: str = "decoded",
    paging: bool = False,
    trap_service=None,
    max_cycles: int = 1_000_000,
) -> list[LaneOutcome]:
    """Run homogeneous cases through the lockstep driver, batch-wise.

    Cases are chunked into batches of ``batch`` lanes; lanes that peel
    replay on the scalar decoded engine, and results merge back **in
    case order**.  When admission refuses lockstep
    (:func:`repro.sim.admission.fast_path_refusal`) every case runs on
    the scalar ``engine``, unpeeled; ``batch=1`` is exactly today's
    scalar behaviour.  Exceptions a lane's run raises are captured per
    lane in :attr:`LaneOutcome.error`, never propagated, so a batch
    with one runaway lane still reports the other N-1.
    """
    reason = fast_path_refusal(
        LOCKSTEP, machine=machine, lanes=batch, engine=engine,
    )
    outcomes: list[LaneOutcome | None] = [None] * len(cases)
    if reason is None:
        for start in range(0, len(cases), batch):
            chunk = list(cases[start:start + batch])
            for offset, lane in enumerate(_run_lockstep(
                machine, loaded, chunk, paging=paging,
                max_cycles=max_cycles,
            )):
                outcomes[start + offset] = lane
    for index, case in enumerate(cases):
        if outcomes[index] is None:
            outcomes[index] = _run_scalar(
                machine, loaded, case, engine=engine, paging=paging,
                trap_service=trap_service, max_cycles=max_cycles,
                peeled=reason is None,
            )
    return outcomes
