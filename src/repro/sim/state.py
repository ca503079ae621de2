"""Machine state: registers, flags, memories, microsequencer.

Two layers live here.  :class:`StateBackend` is the *protocol* the
execution engines consume — the register/flag/memory surface plus the
trap and interrupt bookkeeping that :mod:`repro.sim.simulator` and
:mod:`repro.sim.decode` read and write.  :class:`MachineState` is the
scalar implementation (one case, plain dicts); the batched
struct-of-arrays state in :mod:`repro.sim.batch` drives N cases in
lockstep behind the same step semantics and peels lanes that trap or
fault back onto a scalar :class:`MachineState`.  The protocol is
structural — implementations never subclass it, so the scalar hot
loop keeps its plain-dataclass attribute access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, runtime_checkable

from repro.errors import SimulationError
from repro.machine.machine import MicroArchitecture
from repro.sim.memory import MainMemory, Scratchpad


@runtime_checkable
class StateBackend(Protocol):
    """What an execution engine needs from a machine state.

    Attribute surface: ``machine``, a swappable ``memory``, the
    ``registers``/``flags`` stores, the ``scratchpad`` spill target,
    the microsequencer (``upc``, ``micro_stack``, ``halted``,
    ``exit_value``, ``cycles``) and the ``interrupt_pending`` latch.
    Methods cover banked register access and the §2.1.5 trap
    bookkeeping (entry snapshots, restart restore, return stack).
    """

    machine: MicroArchitecture
    memory: MainMemory
    registers: dict[str, int]
    flags: dict[str, int]
    scratchpad: Scratchpad | None
    upc: int
    micro_stack: list[int]
    interrupt_pending: bool
    halted: bool
    exit_value: int | None
    cycles: int

    def read_reg(self, name: str) -> int: ...

    def write_reg(self, name: str, value: int) -> None: ...

    def poke_reg(self, name: str, value: int) -> None: ...

    def snapshot_registers(self) -> dict[str, int]: ...

    def restore_registers(self, snapshot: dict[str, int]) -> None: ...

    def push_return(self, address: int) -> None: ...

    def pop_return(self) -> int: ...


@dataclass
class MachineState:
    """The complete dynamic state of a simulated machine.

    The scalar :class:`StateBackend`: one case, plain dict stores.
    """

    machine: MicroArchitecture
    memory: MainMemory = field(default_factory=MainMemory)
    registers: dict[str, int] = field(default_factory=dict)
    flags: dict[str, int] = field(default_factory=dict)
    scratchpad: Scratchpad | None = None
    upc: int = 0
    micro_stack: list[int] = field(default_factory=list)
    interrupt_pending: bool = False
    halted: bool = False
    exit_value: int | None = None
    cycles: int = 0
    #: What a decoded ``poll`` calls to service a pending interrupt:
    #: ``Simulator.run`` installs its ``interrupt_handler`` here, so
    #: plans need not capture the simulator that decoded them.
    interrupt_handler: Callable[["MachineState"], None] | None = None

    def __post_init__(self) -> None:
        if self.scratchpad is None:
            self.scratchpad = Scratchpad(self.machine.scratchpad_size)
        self.reset_registers()

    def reset_registers(self) -> None:
        """Power-on register and flag values."""
        self.registers = {
            register.name: register.reset for register in self.machine.registers
        }
        self.flags = {flag: 0 for flag in self.machine.flags}

    # -- register access (resolves banked windows) -----------------------
    def _resolve(self, name: str) -> str:
        files = self.machine.registers
        if files.is_window(name):
            pointer = files.bank_pointer
            if pointer is None:
                raise SimulationError(f"window {name!r} but no bank pointer")
            return files.resolve_window(name, self.registers[pointer])
        return name

    def read_reg(self, name: str) -> int:
        physical = self._resolve(name)
        try:
            return self.registers[physical]
        except KeyError:
            raise SimulationError(f"unknown register {name!r}") from None

    def write_reg(self, name: str, value: int) -> None:
        physical = self._resolve(name)
        register = self.machine.registers[physical]
        if register.readonly:
            raise SimulationError(f"write to read-only register {name!r}")
        self.registers[physical] = value & register.mask

    def poke_reg(self, name: str, value: int) -> None:
        """Loader-level register write (allowed on constant ROM)."""
        register = self.machine.registers[name]
        self.registers[name] = value & register.mask

    def snapshot_registers(self) -> dict[str, int]:
        return dict(self.registers)

    def restore_registers(self, snapshot: dict[str, int]) -> None:
        self.registers = dict(snapshot)

    # -- stack --------------------------------------------------------------
    def push_return(self, address: int) -> None:
        if len(self.micro_stack) >= self.machine.micro_stack_depth:
            raise SimulationError(
                f"micro stack overflow (depth {self.machine.micro_stack_depth})"
            )
        self.micro_stack.append(address)

    def pop_return(self) -> int:
        if not self.micro_stack:
            raise SimulationError("micro stack underflow")
        return self.micro_stack.pop()
