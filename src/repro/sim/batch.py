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
vector state, the scheduler and the peel rules.

**Reconvergence.**  Every lane has its own microprogram counter, cycle
and instruction count, exit state and micro return stack.  Each step
runs the control-store address held by the most runnable lanes (ties
go to the lowest address), with that *group* of lanes as its mask —
dynamic warp formation with majority scheduling (Fung et al., MICRO
2007).  A branch or multiway that splits the group sends each lane to
its own next address and peels nobody; lanes that meet again at one
address run together again.  While every runnable lane shares one
address — a uniform sweep, and every batch until it first diverges —
a step needs no scheduling and commits unmasked.  Otherwise registers,
flags and memory commit to the group's lanes only, so waiting and
finished lanes keep their state, and the stores act for the group's
lanes only: another lane's stale address never peels it.

**Peel-off.**  A lane that traps (pagefault), raises a per-lane
datapath error, overflows or underflows its return stack, passes the
cycle budget or starts from an invalid poke is peeled: it is
re-executed **from scratch** on the scalar decoded
:class:`~repro.sim.simulator.Simulator` and its result merged back in
case order.  Replay-from-scratch (rather than handing over mid-run
state) is deliberate: §2.1.5 trap service restores microregisters to
their *microprogram-entry* values, which a lane peeled mid-run could
not reconstruct — the scalar engine is the reference semantics, so a
peeled lane is byte-identical to a serial run by construction.  A word
the lane backend cannot lower (a dynamic register, ``setblk``) or an
unforeseen error peels every lane the same way.

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
        """Exactly ``count`` words, zero outside ``[0, size)`` — as
        :meth:`MainMemory.dump_words` reads them."""
        words = [0] * max(count, 0)
        low, high = max(base, 0), min(base + count, self.size)
        if low < high:
            words[low - base:high - base] = self._row[low:high].tolist()
        return words


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

    def load(self, lane: int, image: dict[int, int]) -> None:
        """One lane's initial image, in one vectorised store.  Anything
        but int64 addresses and words is left to the scalar replay."""
        if not image:
            return
        addrs = _np.array(list(image))
        words = _np.array(list(image.values()))
        if addrs.dtype.kind != "i" or words.dtype.kind != "i":
            raise SimulationError("memory image is not int64 words")
        if ((addrs < 0) | (addrs >= self.size)).any():
            raise SimulationError("load_words out of range")
        self.words[lane, addrs] = words

    def _clamp(self, addrs):
        """Out-of-range addresses read and write word 0; only the
        group's lanes peel for them."""
        bad = (addrs < 0) | (addrs >= self.size)
        if bad.any():
            for lane in self.state.group_lanes():
                if bad[lane]:
                    self.state.peel(lane, "memory-range")
            addrs = _np.where(bad, 0, addrs)
        return addrs

    def read(self, addrs):
        return self.words[self.rows, self._clamp(addrs)]

    def write(self, addrs, values) -> None:
        addrs = self._clamp(addrs)
        state = self.state
        if state.masked:
            group = state.group
            self.words[group, addrs[group]] = values[group]
        else:
            self.words[self.rows, addrs] = values

    def lane_view(self, lane: int) -> _DenseLaneView:
        return _DenseLaneView(self.words[lane], self.size)


class _LaneMemories:
    """Per-lane stores (:class:`MainMemory` or :class:`Scratchpad`).

    Reads and writes loop over the group's lanes; a :class:`MicroTrap`
    or address error in one lane peels that lane and leaves the rest in
    lockstep.
    """

    __slots__ = ("state", "memories", "reason")

    def __init__(self, state: BatchedState, memories, reason: str):
        self.state = state
        self.memories = memories
        self.reason = reason

    def load(self, lane: int, image: dict[int, int]) -> None:
        memory = self.memories[lane]
        for address, value in image.items():
            memory.load_words(address, [value])

    def read(self, addrs):
        state = self.state
        values = [0] * state.n
        for lane in state.group_lanes():
            try:
                values[lane] = self.memories[lane].read(int(addrs[lane]))
            except (MicroTrap, SimulationError):
                state.peel(lane, self.reason)
        return _vector(values)

    def write(self, addrs, values) -> None:
        for lane in self.state.group_lanes():
            try:
                self.memories[lane].write(
                    int(addrs[lane]), int(values[lane])
                )
            except (MicroTrap, SimulationError):
                self.state.peel(lane, self.reason)

    def touch(self, addrs, values) -> None:
        """The decoded engine's write-allocate check, per lane."""
        for lane in self.state.group_lanes():
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
    """Batch-wide divergence: every lane goes to the scalar path."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class _GroupStore(dict):
    """A register or flag store for steps whose group is not every lane
    still in the batch: a stored lane vector changes only the lanes
    ``mask`` selects, and every other lane keeps its value."""

    __slots__ = ("mask",)

    def __setitem__(self, name, value):
        dict.__setitem__(self, name, _np.where(self.mask, value, self[name]))

    def update(self, writes):
        for name, value in writes.items():
            self[name] = value


class BatchedState:
    """N cases as struct-of-arrays, advanced in lockstep by groups.

    ``registers``/``flags`` map names to lane vectors; ``memory`` and
    ``scratchpad`` read and write lane vectors through the scalar
    stores' ``read``/``write`` surface, so the decoded engine's memory
    and scratchpad steps run on them unchanged.  The microsequencer is
    per lane: ``upcs``, ``stacks`` and ``exit_values``, plus the
    instruction and cycle counters :meth:`retire` keeps for a program
    of ``words`` control words entered at ``entry``.  A step runs
    one address (``pc``) for one ``group`` of lanes; the shared
    sequencing closures write ``upc``, ``halted`` and ``exit_value``,
    which act on that group only.  ``masked`` is set while the group is
    not every lane still in the batch (finished lanes included); the
    register and flag stores are then :class:`_GroupStore`.
    ``live``/``peeled`` track which lanes are still in the batch.
    """

    def __init__(self, machine, n: int, *, paging: bool = False,
                 entry: int = 0, words: int = 0):
        self.machine = machine
        self.n = n
        self.registers = {
            register.name: _full(n, register.reset)
            for register in machine.registers
        }
        self.flags = {flag: _full(n, 0) for flag in machine.flags}
        self.live = [True] * n
        self.live_count = n
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
        # Per-lane microsequencer, every lane at ``entry`` of a
        # ``words``-long program.
        self.upcs = _full(n, entry)
        self.stacks: list[list[int]] = [[] for _ in range(n)]
        self.exited = [False] * n
        self.exit_values: list[int | None] = [None] * n
        # Counters: steps per (address, lane) and cycles per lane for
        # masked steps; steps per address and their cycles for the
        # unmasked ones, which every lane still in the batch took.
        self.visits = _np.zeros((words, n), dtype=_np.int64)
        self.cycles = _full(n, 0)
        self.shared = [0] * words
        self.shared_cycles = 0
        # The step being run: its address and lanes, where the whole
        # group goes next (None once it split or finished), and
        # whether a lane left.  Lanes waiting elsewhere stay put, so
        # the last schedule's view of them holds until the group
        # moves: how many wait, at which addresses (``held``), and the
        # largest waiting group's size and lowest address.
        self.pc = entry
        self.group = _np.arange(n)
        self.runnable = self.group
        self.masked = False
        self.next_pc: int | None = None
        self.regroup = True
        self.size = self.waiting = self.top = self.rival = 0
        self.held: set[int] = set()

    # -- lane management -------------------------------------------------
    def live_lanes(self) -> list[int]:
        return [lane for lane in range(self.n) if self.live[lane]]

    def group_lanes(self) -> list[int]:
        """The current group's lanes still in the batch."""
        live = self.live
        return [lane for lane in self.group.tolist() if live[lane]]

    def peel(self, lane: int, reason: str) -> None:
        if self.live[lane]:
            self.live[lane] = False
            self.live_count -= 1
            self.peeled[lane] = reason
            self.regroup = True

    def peel_all(self, reason: str) -> None:
        for lane in range(self.n):
            self.peel(lane, reason)

    # -- scheduling ------------------------------------------------------
    def schedule(self) -> bool:
        """Choose the next step's address and group; False once no
        lane is left to run.

        The step runs the address most runnable lanes hold, lowest on
        a tie.  A group that moved as one with nobody gone keeps
        running unscheduled while that is still its address: nobody
        waits, or it met no waiting lane and still outnumbers every
        waiting group (or ties one from a lower address).
        """
        target, self.next_pc = self.next_pc, None
        if target is not None:
            if not self.regroup and (not self.waiting or (
                target not in self.held
                and (self.size, self.rival) > (self.top, target)
            )):
                self.pc = target
                return True
            self.upcs[self.group] = target
        if self.regroup:
            self.regroup = False
            self.runnable = _np.array(
                [lane for lane in range(self.n)
                 if self.live[lane] and not self.exited[lane]],
                dtype=_np.intp,
            )
        run = self.runnable
        if not len(run):
            return False
        pcs = self.upcs[run]
        counts = _np.bincount(pcs)
        self.pc = int(counts.argmax())
        self.size = int(counts[self.pc])
        self.waiting = len(run) - self.size
        self.group = run
        if self.waiting:
            self.group = run[pcs == self.pc]
            counts[self.pc] = 0
            self.rival = int(counts.argmax())
            self.top = int(counts[self.rival])
            self.held = set(_np.flatnonzero(counts).tolist())
        self.masked = self.size != self.live_count
        if self.masked:
            mask = _np.zeros(self.n, dtype=bool)
            mask[self.group] = True
            if type(self.registers) is dict:
                self.registers = _GroupStore(self.registers)
                self.flags = _GroupStore(self.flags)
            self.registers.mask = self.flags.mask = self.mask = mask
        elif type(self.registers) is not dict:
            self.registers = dict(self.registers)
            self.flags = dict(self.flags)
        return True

    def retire(self, pc: int, cycles: int) -> None:
        """Count one executed step for its group."""
        if self.masked:
            self.visits[pc] += self.mask
            self.cycles[self.group] += cycles
        else:
            self.shared[pc] += 1
            self.shared_cycles += cycles

    def over_budget(self, max_cycles: int) -> bool:
        """Peel the group's lanes whose own count already passed
        ``max_cycles`` — where a scalar run raises — True if any did."""
        over = self.cycles[self.group] > max_cycles - self.shared_cycles
        if not over.any():
            return False
        for lane in self.group[over].tolist():
            self.peel(lane, "budget")
        self.next_pc = self.pc  # the rest of the group has not moved
        return True

    def run_results(self) -> dict[int, RunResult]:
        """Each finished lane's counters, as a fresh scalar decoded run
        reports them: its plan-cache misses are the distinct addresses
        it executed, its hits the rest of its instructions."""
        cycles = (self.cycles + self.shared_cycles).tolist()
        steps = self.visits + _vector(self.shared)[:, None]
        instructions = steps.sum(axis=0).tolist()
        misses = _np.count_nonzero(steps, axis=0).tolist()
        return {
            lane: RunResult(
                cycles=cycles[lane],
                instructions=instructions[lane],
                traps=0,
                interrupts_serviced=0,
                interrupt_wait_cycles=0,
                exit_value=self.exit_values[lane],
                plan_cache={
                    "hits": instructions[lane] - misses[lane],
                    "misses": misses[lane],
                    "invalidations": 0,
                },
            )
            for lane in self.live_lanes()
        }

    # -- the sequencing surface, scoped to the group ---------------------
    @property
    def upc(self) -> int:
        return self.pc

    @upc.setter
    def upc(self, target) -> None:
        """Send the group to ``target``: one address, or a lane vector
        of them (a branch, multiway or return), which splits the group
        when its lanes disagree."""
        if isinstance(target, int):
            self.next_pc = target
            return
        lanes = target[self.group]
        self.upcs[self.group] = lanes
        first = lanes[0]
        if (lanes == first).all():
            self.next_pc = int(first)

    @property
    def halted(self) -> bool:
        return not any(
            live and not exited for live, exited in zip(self.live, self.exited)
        )

    @halted.setter
    def halted(self, value: bool) -> None:
        """EXIT: the group's lanes finish and keep their final state."""
        for lane in self.group_lanes():
            self.exited[lane] = value
        self.regroup = True

    @property
    def exit_value(self) -> list[int | None]:
        return self.exit_values

    @exit_value.setter
    def exit_value(self, value) -> None:
        for lane in self.group_lanes():
            self.exit_values[lane] = _lane(value, lane)

    def push_return(self, address: int) -> None:
        depth = self.machine.micro_stack_depth
        for lane in self.group_lanes():
            stack = self.stacks[lane]
            if len(stack) >= depth:
                self.peel(lane, "stack-overflow")
            else:
                stack.append(address)

    def pop_return(self):
        targets = self.upcs.copy()
        for lane in self.group_lanes():
            stack = self.stacks[lane]
            if stack:
                targets[lane] = stack.pop()
            else:
                self.peel(lane, "stack-underflow")
        return targets

    # -- register commits ------------------------------------------------
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
        one scalar evaluation per group lane — same as the scalar
        engine — but these ops are rare in generated and compiled code;
        the table ops stay fully vectorised.  A per-lane
        :class:`SimulationError` (e.g. a negative shift count) peels
        that lane; the scalar replay raises identically.
        """
        b = self.state
        values = [0] * b.n
        flag_cols: dict[str, list[int]] = {}
        wrote_value = False
        for lane in b.group_lanes():
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
            b.upc = _np.where(flag_vec == expected, taken, not_taken)

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
            b.upc = targets[hits.argmax(axis=1)]

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
    b = BatchedState(machine, n, paging=paging, entry=resident.entry,
                     words=len(loaded))
    for lane, case in enumerate(cases):
        # A lane whose initial pokes are invalid (unknown register,
        # windowed name, out-of-range load) peels to the scalar path,
        # which raises the identical error for that case alone —
        # live-traffic batches must never let one bad lane take down
        # its neighbours.
        try:
            for name, value in case.registers.items():
                b.init_register(lane, name, value)
            b.memory.load(lane, case.memory)
        except (MicroTrap, SimulationError):
            b.peel(lane, "init")
    for name, value in resident.program.constants.items():
        b.poke_constant(name, value)

    steps = _LaneSteps(b)
    plans: dict[int, ExecutionPlan] = {}
    # Cycles of every step run: no lane's own count can be higher, so
    # the per-lane budget check waits until this passes the budget.
    spent = 0
    try:
        while b.schedule():
            pc = b.pc
            if spent > max_cycles and b.over_budget(max_cycles):
                # Scalar runs raise SimulationLimitError at exactly
                # this microinstruction boundary; the replay does too.
                continue
            plan = plans.get(pc)
            if plan is None:
                plan = build_plan(steps, store.fetch(pc), resident, pc)
                plans[pc] = plan
            plan.execute(b)
            spent += plan.cycles
            b.retire(pc, plan.cycles)
            plan.sequence(b)
    except _PeelAll as stop:
        b.peel_all(stop.reason)
    except Exception:
        # Anything unforeseen (a fetch outside the resident, a decode
        # the scalar engine would reject): the scalar path is the
        # reference — replay every lane rather than guess.
        b.peel_all("error")

    outcomes: list[LaneOutcome | None] = [None] * n
    for lane, result in b.run_results().items():
        outcomes[lane] = LaneOutcome(
            machine,
            result=result,
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
