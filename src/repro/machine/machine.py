"""The :class:`MicroArchitecture`: a complete machine description.

This formalism plays the role MPGL's machine-specification language
plays in the survey (§2.2.5): every tool in the pipeline — code
generators, composers, register allocators, the assembler and the
simulator — is driven by one of these descriptions, so adding a machine
means writing *data*, not code.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro.errors import EncodingError, MachineError
from repro.machine.control import ControlWordFormat
from repro.machine.opspec import OpSpec, OperationTable
from repro.machine.registers import Register, RegisterFile
from repro.machine.units import FunctionalUnit


@dataclass
class MicroArchitecture:
    """A user-microprogrammable machine, described as data.

    Attributes:
        name: Machine name, e.g. ``"HM1"``.
        word_size: Datapath width in bits.
        registers: The register file.
        units: Functional units by name.
        control: Control-word format (fields + encodings).
        ops: Micro-operation table.
        n_phases: Phases per microcycle (1 for simple machines).
        allows_phase_chaining: Whether a consumer in a later phase may
            read a value produced earlier in the *same* microinstruction
            (the hardware behaviour behind S*'s ``cocycle``).
        memory_latency: Cycles per main-memory access.
        control_store_size: Number of microinstruction slots.
        micro_stack_depth: Hardware microsubroutine stack depth.
        scratchpad_size: Words of scratchpad local store reachable by
            ``ldscr``/``stscr`` (used by allocators for spilling).
        flags: Hardware condition flags (``Z``, ``N``, ``C``, ``UF`` …).
        has_multiway_branch: Whether the sequencer supports mask-table
            dispatch (YALLL's multiway branch, §2.2.4).
        notes: Free-form description used in reports.

    A built description is mutable, so ablations can flip a knob on
    their own copy.  :meth:`freeze` makes one instance read-only for
    callers that share it (:func:`repro.registry.build_machine`) and
    memoises its fingerprint.
    """

    name: str
    word_size: int
    registers: RegisterFile
    units: dict[str, FunctionalUnit]
    control: ControlWordFormat
    ops: OperationTable
    n_phases: int = 1
    allows_phase_chaining: bool = False
    memory_latency: int = 1
    control_store_size: int = 4096
    micro_stack_depth: int = 16
    scratchpad_size: int = 256
    flags: tuple[str, ...] = ("Z", "N", "C", "UF")
    has_multiway_branch: bool = False
    vertical: bool = False
    #: Optional register-connectivity graph (CHAMIL's datapath
    #: abstraction, survey §2.2.5).  None = fully connected.
    datapath: "object | None" = None
    notes: str = ""
    _validated: bool = dataclass_field(default=False, repr=False)
    #: Set by :meth:`freeze`; neither takes part in equality or repr.
    _frozen: bool = dataclass_field(
        default=False, init=False, repr=False, compare=False
    )
    _fingerprint: str | None = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    def __setattr__(self, name: str, value) -> None:
        if self.__dict__.get("_frozen"):
            raise MachineError(
                f"{self.name}: machine is frozen; cannot set {name!r} "
                f"(the builders, build_hm1() ... or "
                f"get_machine_spec({self.name!r}).build(), return fresh, "
                f"mutable machines)"
            )
        object.__setattr__(self, name, value)

    def freeze(self) -> "MicroArchitecture":
        """Make this instance read-only and cache its fingerprint.

        Afterwards assigning any attribute raises :class:`MachineError`,
        and :func:`repro.cache.machine_fingerprint` returns the digest
        taken here instead of recomputing it.  The guard covers the
        description's own attributes; its register file, unit and op
        tables are shared with every holder and must not be edited
        either.  Returns ``self`` so a builder call can be frozen in
        one expression.
        """
        from repro.cache import machine_fingerprint

        if not self._frozen:
            self._fingerprint = machine_fingerprint(self)
            self._frozen = True
        return self

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def unit(self, name: str) -> FunctionalUnit:
        try:
            return self.units[name]
        except KeyError:
            raise MachineError(f"{self.name}: unknown unit {name!r}") from None

    def reg(self, name: str) -> Register:
        return self.registers[name]

    def has_op(self, name: str) -> bool:
        return name in self.ops

    def op_variants(self, name: str) -> list[OpSpec]:
        return self.ops.variants(name)

    def op(self, name: str) -> OpSpec:
        return self.ops.default(name)

    def phase_of(self, spec: OpSpec) -> int:
        """Microcycle phase in which the given op variant executes."""
        return self.unit(spec.unit).phase

    def latency_of(self, spec: OpSpec) -> int:
        """Cycles the op variant needs (spec override, else unit)."""
        return spec.latency if spec.latency > 0 else self.unit(spec.unit).latency

    def mask(self) -> int:
        """All-ones mask at datapath width."""
        return (1 << self.word_size) - 1

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def resolve_settings(
        self,
        spec: OpSpec,
        dest: str | None,
        srcs: tuple[str | int, ...],
    ) -> dict[str, str | int]:
        """Resolve a spec's field settings against concrete operands.

        ``dest`` is a register name (or None); each source is a register
        name or an immediate integer.  Returns field→value settings
        suitable for :meth:`ControlWordFormat.pack` and for the conflict
        model in ``repro.compose``.
        """
        if len(srcs) != spec.n_srcs:
            raise EncodingError(
                f"{self.name}: op {spec.key} expects {spec.n_srcs} sources, "
                f"got {len(srcs)}"
            )
        if spec.has_dest and dest is None:
            raise EncodingError(f"{self.name}: op {spec.key} requires a destination")
        resolved: dict[str, str | int] = {}
        for field_name, value in spec.settings:
            if value == "$dest":
                resolved[field_name] = self._require_reg(spec, dest)
            elif value.startswith("$src"):
                index = int(value[4:])
                operand = srcs[index]
                if isinstance(operand, int):
                    raise EncodingError(
                        f"{self.name}: op {spec.key} source {index} must be "
                        f"a register, got immediate {operand}"
                    )
                resolved[field_name] = operand
            elif value.startswith("$imm"):
                index = int(value[4:])
                operand = srcs[index]
                if not isinstance(operand, int):
                    raise EncodingError(
                        f"{self.name}: op {spec.key} source {index} must be "
                        f"an immediate, got register {operand!r}"
                    )
                resolved[field_name] = operand
            else:
                resolved[field_name] = value
        return resolved

    def _require_reg(self, spec: OpSpec, name: str | None) -> str:
        if name is None:
            raise EncodingError(f"{self.name}: op {spec.key} requires a destination")
        return name

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency of the description.

        Raises :class:`MachineError` on the first inconsistency found:
        ops referencing unknown units or fields, literal micro-orders
        without encodings, units running in nonexistent phases, operand
        class constraints naming classes no register carries.
        """
        for unit in self.units.values():
            if unit.phase > self.n_phases:
                raise MachineError(
                    f"{self.name}: unit {unit.name!r} runs in phase {unit.phase} "
                    f"but machine has {self.n_phases} phases"
                )
        all_classes = set()
        for register in self.registers:
            all_classes.update(register.classes)
        for spec in self.ops:
            if spec.unit not in self.units:
                raise MachineError(
                    f"{self.name}: op {spec.key} uses unknown unit {spec.unit!r}"
                )
            for field_name, value in spec.settings:
                if field_name not in self.control:
                    raise MachineError(
                        f"{self.name}: op {spec.key} sets unknown field "
                        f"{field_name!r}"
                    )
                fld = self.control[field_name]
                if not value.startswith("$") and not fld.is_immediate:
                    if value not in fld.encodings:
                        raise MachineError(
                            f"{self.name}: op {spec.key}: field {field_name!r} "
                            f"has no encoding for literal {value!r}"
                        )
            for flag in (*spec.reads_flags, *spec.writes_flags):
                if flag not in self.flags:
                    raise MachineError(
                        f"{self.name}: op {spec.key} uses unknown flag {flag!r}"
                    )
            constrained = [spec.dest_class, *spec.src_classes]
            for cls in constrained:
                if cls is not None and cls not in all_classes:
                    raise MachineError(
                        f"{self.name}: op {spec.key} requires register class "
                        f"{cls!r} which no register carries"
                    )
        if self.datapath is not None:
            self.datapath.validate(set(self.registers.names()))
        if not self._validated:  # a frozen built machine refuses writes
            self._validated = True

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-paragraph description for reports and listings."""
        kind = "vertical" if self.vertical else "horizontal"
        return (
            f"{self.name}: {kind} machine, {self.word_size}-bit datapath, "
            f"{len(self.registers)} registers, {len(self.units)} units, "
            f"{self.control.width}-bit control word ({len(self.control)} fields), "
            f"{self.n_phases} phase(s)/cycle"
            + (", phase chaining" if self.allows_phase_chaining else "")
            + (f". {self.notes}" if self.notes else "")
        )
