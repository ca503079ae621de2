"""The compile result record shared by every front end.

Historically this lived in ``repro.lang.yalll.compiler`` and the other
four front ends imported it from there — a layering smell (lang/X
depending on lang/Y) fixed by moving it under the pipeline spine.
Every front end now imports it from :mod:`repro.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.asm.assembler import LoadedProgram
from repro.compose.base import ComposedProgram
from repro.mir.program import MicroProgram
from repro.regalloc.linear_scan import AllocationResult

if TYPE_CHECKING:  # import at runtime would cycle through repro.lang
    from repro.lang.common.legalize import LegalizeStats


@dataclass(frozen=True)
class Diagnostic:
    """One structured per-stage record collected during compilation.

    Every pipeline stage contributes one ``info`` diagnostic carrying
    the stage's headline numbers (the same attributes its obs span
    gets); stages add ``warning`` diagnostics for degradations such as
    unfixable restart hazards.
    """

    stage: str
    severity: str = "info"
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:
        details = ", ".join(f"{k}={v}" for k, v in self.data.items())
        return f"[{self.severity}] {self.stage}: {details}"


@dataclass
class CompileResult:
    """Everything a compilation run produced, for inspection."""

    mir: MicroProgram
    composed: ComposedProgram
    loaded: LoadedProgram
    legalize_stats: LegalizeStats
    allocation: AllocationResult
    #: §2.1.5 exposure: macro-visible writes a microtrap can replay.
    #: With ``restart_safe=True`` only unfixable cross-block hazards
    #: remain; otherwise every hazard found by analysis is listed.
    restart_hazards: list = field(default_factory=list)
    #: Structured per-stage diagnostics, in pipeline order.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Stage name -> rendered program state (``dump_after=`` requests).
    dumps: dict[str, str] = field(default_factory=dict)

    @property
    def n_instructions(self) -> int:
        return len(self.loaded)

    @property
    def restart_safe(self) -> bool:
        """True when no known microtrap-replay hazard remains."""
        return not self.restart_hazards

    @property
    def n_ops(self) -> int:
        return self.composed.n_ops()

    def warnings(self) -> list[Diagnostic]:
        """The warning-severity diagnostics, in pipeline order."""
        return [d for d in self.diagnostics if d.severity == "warning"]

    def stage_diagnostic(self, stage: str) -> Diagnostic | None:
        """The info diagnostic one named stage recorded, if any."""
        for diagnostic in self.diagnostics:
            if diagnostic.stage == stage and diagnostic.severity == "info":
                return diagnostic
        return None
