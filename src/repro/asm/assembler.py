"""Microassembler: composed programs → control-store images.

Lays out each block's microinstructions at consecutive control-store
addresses, encodes sequencing into the standard ``br_mode`` /
``br_cond`` / ``br_addr`` fields, and packs every microinstruction into
its binary control word.  Where the sequencer cannot express a
terminator in one word (e.g. a conditional branch whose both targets
are non-adjacent) a fixup jump word is appended.

The output :class:`LoadedProgram` keeps both the packed words (for
listings, size accounting and round-trip tests) and the structured
microinstructions (which the simulator executes directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compose.base import ComposedProgram, MicroInstruction
from repro.errors import AssemblerError
from repro.machine.machine import MicroArchitecture
from repro.mir.block import (
    Branch,
    Call,
    Exit,
    Fallthrough,
    Jump,
    Multiway,
    Ret,
)

#: Inverse of each flag condition, used to flip branch polarity.
_INVERSE = {
    "Z": "NZ", "NZ": "Z", "N": "NN", "NN": "N",
    "C": "NC", "NC": "C", "UF": "NUF", "NUF": "UF",
}


@dataclass
class LoadedWord:
    """One control-store word: structured + packed representations."""

    address: int
    instruction: MicroInstruction
    settings: dict[str, str | int]
    word: int


@dataclass
class LoadedProgram:
    """An assembled microprogram ready for the control store."""

    name: str
    machine_name: str
    words: list[LoadedWord] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    entry: int = 0
    procedures: dict[str, int] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    #: address -> (register name, cases, default address) for DISP words.
    dispatch_tables: dict[int, tuple[str, tuple, int]] = field(default_factory=dict)
    #: address -> register name whose value EXIT yields.
    exit_values: dict[int, str] = field(default_factory=dict)
    #: The decoded plans and compiled traces every simulator running
    #: this image shares (:func:`repro.sim.decode.image_tables`).  Not
    #: part of equality or repr, and never pickled: plans and traces
    #: hold closures, and an unpickled image starts without them.
    _sim_tables: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_sim_tables"}

    def __len__(self) -> int:
        return len(self.words)

    def word_at(self, address: int) -> LoadedWord:
        if not 0 <= address < len(self.words):
            raise AssemblerError(
                f"{self.name}: control-store address {address} out of range"
            )
        return self.words[address]

    def listing(self, machine: MicroArchitecture) -> str:
        """Human-readable listing with addresses, words and symbols."""
        by_address = {addr: label for label, addr in self.labels.items()}
        digits = max(1, (machine.control.width + 3) // 4)
        lines = [
            f"; {self.name} on {self.machine_name}: {len(self.words)} words "
            f"x {machine.control.width} bits"
        ]
        for loaded in self.words:
            if loaded.address in by_address:
                lines.append(f"{by_address[loaded.address]}:")
            lines.append(
                f"  {loaded.address:04d}  {loaded.word:0{digits}x}  "
                f"{loaded.instruction}"
            )
        return "\n".join(lines)


def _needs_fixup(
    terminator, next_label: str | None
) -> bool:
    """Whether the terminator requires an extra jump word."""
    if isinstance(terminator, Branch):
        return terminator.otherwise != next_label and terminator.target != next_label
    if isinstance(terminator, Call):
        return terminator.next != next_label
    return False


def assemble(
    composed: ComposedProgram, machine: MicroArchitecture
) -> LoadedProgram:
    """Assemble a composed program for the given machine."""
    labels_in_order = list(composed.blocks)
    next_of: dict[str, str | None] = {
        label: labels_in_order[index + 1] if index + 1 < len(labels_in_order) else None
        for index, label in enumerate(labels_in_order)
    }

    # Pass 1: layout.
    addresses: dict[str, int] = {}
    fixup_after: dict[str, bool] = {}
    cursor = 0
    for label in labels_in_order:
        block = composed.blocks[label]
        addresses[label] = cursor
        cursor += len(block.instructions)
        fixup = _needs_fixup(block.instructions[-1].terminator, next_of[label])
        fixup_after[label] = fixup
        if fixup:
            cursor += 1
    if cursor > machine.control_store_size:
        raise AssemblerError(
            f"{composed.name}: {cursor} words exceed {machine.name}'s "
            f"control store ({machine.control_store_size} words)"
        )

    program = LoadedProgram(
        name=composed.name,
        machine_name=machine.name,
        labels=dict(addresses),
        entry=addresses[composed.entry],
        procedures={
            name: addresses[proc.entry]
            for name, proc in composed.procedures.items()
        },
        constants=dict(composed.constants),
    )

    # Pass 2: encode.
    for label in labels_in_order:
        block = composed.blocks[label]
        base = addresses[label]
        for offset, instruction in enumerate(block.instructions):
            address = base + offset
            is_last = offset == len(block.instructions) - 1
            seq = _encode_terminator(
                program, machine, instruction, address, addresses,
                next_of[label], is_last, fixup_after[label],
            )
            settings = instruction.settings(machine)
            settings.update(seq)
            word = machine.control.pack(settings)
            program.words.append(LoadedWord(address, instruction, settings, word))
        if fixup_after[label]:
            terminator = block.instructions[-1].terminator
            if isinstance(terminator, Branch):
                target = addresses[terminator.otherwise]
            else:
                assert isinstance(terminator, Call)
                target = addresses[terminator.next]
            fix = MicroInstruction(terminator=Jump("<fixup>"))
            settings = {"br_mode": "JUMP", "br_addr": target}
            word = machine.control.pack(settings)
            program.words.append(
                LoadedWord(base + len(block.instructions), fix, settings, word)
            )
    return program


def _encode_terminator(
    program: LoadedProgram,
    machine: MicroArchitecture,
    instruction: MicroInstruction,
    address: int,
    addresses: dict[str, int],
    next_label: str | None,
    is_last: bool,
    has_fixup: bool,
) -> dict[str, str | int]:
    """Sequencing field settings for one microinstruction."""
    if not is_last or instruction.terminator is None:
        return {"br_mode": "NEXT"}
    terminator = instruction.terminator

    if isinstance(terminator, Fallthrough):
        if terminator.target == next_label:
            return {"br_mode": "NEXT"}
        return {"br_mode": "JUMP", "br_addr": addresses[terminator.target]}

    if isinstance(terminator, Jump):
        return {"br_mode": "JUMP", "br_addr": addresses[terminator.target]}

    if isinstance(terminator, Branch):
        if terminator.otherwise == next_label:
            return {
                "br_mode": "BR",
                "br_cond": terminator.cond,
                "br_addr": addresses[terminator.target],
            }
        if terminator.target == next_label:
            return {
                "br_mode": "BR",
                "br_cond": _INVERSE[terminator.cond],
                "br_addr": addresses[terminator.otherwise],
            }
        # Fixup word right after this one jumps to ``otherwise``.
        return {
            "br_mode": "BR",
            "br_cond": terminator.cond,
            "br_addr": addresses[terminator.target],
        }

    if isinstance(terminator, Multiway):
        if not machine.has_multiway_branch:
            raise AssemblerError(
                f"{machine.name} has no multiway branch; the back end must "
                f"lower multiway terminators before assembly"
            )
        program.dispatch_tables[address] = (
            terminator.reg.name,
            terminator.cases,
            addresses[terminator.default],
        )
        # The dispatch table itself lives beside the control store; the
        # word only carries the mode (mask tables were typically held
        # in separate mapping ROMs).
        return {"br_mode": "DISP"}

    if isinstance(terminator, Call):
        # Hardware pushes address+1; the continuation block either
        # starts there or a fixup jump at address+1 reaches it.
        return {
            "br_mode": "CALL",
            "br_addr": _procedure_address(program, terminator.proc),
        }

    if isinstance(terminator, Ret):
        return {"br_mode": "RET"}

    if isinstance(terminator, Exit):
        if terminator.value is not None:
            program.exit_values[address] = terminator.value.name
        return {"br_mode": "EXIT"}

    raise AssemblerError(f"unknown terminator {terminator!r}")


def _procedure_address(program: LoadedProgram, name: str) -> int:
    try:
        return program.procedures[name]
    except KeyError:
        raise AssemblerError(f"call to unknown procedure {name!r}") from None
