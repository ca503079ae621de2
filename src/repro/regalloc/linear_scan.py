"""Linear-scan register allocation with class constraints and spilling.

The allocator the EMPL and YALLL front ends use by default.  Two
register-selection strategies exist because allocation and composition
interact (survey §2.1.4, experiment E14):

* ``"reuse"`` — always pick the first free candidate, aggressively
  recycling registers.  Minimizes register pressure but maximizes the
  anti/output dependences that block parallel packing.
* ``"round-robin"`` — rotate through the candidates, spreading values
  across the file.  Uses more registers but introduces fewer false
  dependences, so composition packs tighter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import AllocationError
from repro.machine.machine import MicroArchitecture
from repro.mir.operands import preg, vreg
from repro.mir.program import MicroProgram
from repro.obs.tracer import NULL_TRACER
from repro.regalloc.constraints import allowed_registers
from repro.regalloc.intervals import Interval, live_intervals
from repro.regalloc.spill import assign_slots, insert_spill_code

#: Number of physical registers reserved as spill staging temporaries.
N_SPILL_TEMPS = 3


@dataclass
class AllocationResult:
    """Outcome of register allocation over one program."""

    allocator: str
    mapping: dict[str, str] = field(default_factory=dict)
    spilled_slots: dict[str, int] = field(default_factory=dict)
    loads_inserted: int = 0
    stores_inserted: int = 0
    registers_used: int = 0

    @property
    def n_spilled(self) -> int:
        return len(self.spilled_slots)


def restrict(
    candidates: list[str], register_limit: int | None, temps: list[str]
) -> list[str]:
    """Candidates within the first ``register_limit``, minus ``temps``."""
    if register_limit is not None:
        candidates = candidates[:register_limit]
    return [r for r in candidates if r not in temps]


def allocate_in_rounds(
    allocator,
    program: MicroProgram,
    machine: MicroArchitecture,
    assign: Callable[..., tuple[dict[str, str], list[str]]],
) -> AllocationResult:
    """Assign, spill what did not fit, rewrite and retry.

    Each round takes its register facts from one walk of the program
    (:func:`allowed_registers`) and calls ``assign(index, allowed,
    temps)``, which returns a mapping and the names to spill (both in
    ``%v`` form).  Spill temporaries are reserved from the round's pool
    when spilling first starts.
    """
    result = AllocationResult(allocator=allocator.name)
    temps: list[str] = []
    for index in range(64):
        allowed, pool = allowed_registers(program, machine)
        if not allowed:
            break
        mapping, to_spill = assign(index, allowed, temps)
        if not to_spill:
            program.rename_regs(
                {vreg(name[1:]): preg(target) for name, target in mapping.items()}
            )
            result.mapping.update(
                {name[1:]: target for name, target in mapping.items()}
            )
            break
        if not temps:
            temps = restrict(pool, allocator.register_limit, [])[-N_SPILL_TEMPS:]
            if len(temps) < 2:
                raise AllocationError(
                    "register pool too small even for spill temporaries"
                )
        slots = assign_slots(
            [name[1:] for name in to_spill],
            result.spilled_slots,
            machine.scratchpad_size,
        )
        spill = insert_spill_code(program, slots, temps)
        result.spilled_slots.update(slots)
        result.loads_inserted += spill.loads_inserted
        result.stores_inserted += spill.stores_inserted
        if allocator.tracer.enabled:
            allocator.tracer.instant(
                "regalloc.spill", cat="regalloc", allocator=allocator.name,
                slots=slots, loads=spill.loads_inserted,
                stores=spill.stores_inserted,
            )
    else:  # pragma: no cover - defensive
        raise AllocationError("allocation did not converge")
    result.registers_used = len(set(result.mapping.values())) + len(set(temps))
    return result


@dataclass
class LinearScanAllocator:
    """Classic linear scan over coarse intervals.

    Attributes:
        strategy: ``"reuse"`` or ``"round-robin"`` (see module docs).
        register_limit: Optional cap on the physical pool size, used by
            experiment E8 to sweep register-file sizes (16 … 256).
    """

    strategy: str = "reuse"
    register_limit: int | None = None
    name: str = "linear-scan"
    tracer: object = NULL_TRACER

    def allocate(
        self, program: MicroProgram, machine: MicroArchitecture
    ) -> AllocationResult:
        """Allocate all virtual registers of ``program`` in place."""

        def assign(index, allowed, temps):
            if self.register_limit is not None or temps:
                allowed = {
                    v: restrict(candidates, self.register_limit, temps)
                    for v, candidates in allowed.items()
                }
                for v, candidates in allowed.items():
                    if not candidates:
                        raise AllocationError(
                            f"register pool exhausted for {v} "
                            f"(limit {self.register_limit})"
                        )
            mapping, to_spill = self._scan(live_intervals(program, machine), allowed)
            if self.tracer.enabled:
                self.tracer.instant(
                    "regalloc.round", cat="regalloc", allocator=self.name,
                    round=index, virtuals=len(allowed),
                    assigned=len(mapping), spilling=sorted(to_spill),
                )
            return mapping, to_spill

        return allocate_in_rounds(self, program, machine, assign)

    # ------------------------------------------------------------------
    def _scan(
        self, intervals: dict[str, Interval], allowed: dict
    ) -> tuple[dict[str, str], list[str]]:
        """One linear-scan pass: returns (mapping, names to spill)."""
        # The name tie-break makes the scan order a total order: interval
        # insertion order leaks hash-randomised liveness-set iteration,
        # so without it same-range virtuals allocate differently across
        # processes — breaking campaign byte-reproducibility.
        order = sorted(
            intervals.values(), key=lambda i: (i.start, i.end, i.name)
        )
        active: list[tuple[Interval, str]] = []
        mapping: dict[str, str] = {}
        to_spill: list[str] = []
        counter = 0
        for interval in order:
            active = [(a, r) for a, r in active if a.end >= interval.start]
            in_use = {r for _a, r in active}
            virtual = vreg(interval.name[1:])
            if virtual not in allowed:
                # Live-at-exit ghost that no op ever touches (e.g. an
                # unused EMPL global): nothing to allocate.
                continue
            candidates = [c for c in allowed[virtual] if c not in in_use]
            if candidates:
                if self.strategy == "round-robin":
                    choice = candidates[counter % len(candidates)]
                    counter += 1
                else:
                    choice = candidates[0]
                mapping[interval.name] = choice
                active.append((interval, choice))
                continue
            # Spill heuristic: evict the conflicting interval with the
            # furthest end (Poletto/Sarkar), unless the current one
            # ends even later.
            conflicting = [
                (a, r) for a, r in active if r in set(allowed[virtual])
            ]
            victim = max(conflicting, key=lambda pair: pair[0].end, default=None)
            if victim is not None and victim[0].end > interval.end:
                to_spill.append(victim[0].name)
                mapping[interval.name] = victim[1]
                mapping.pop(victim[0].name, None)
                active.remove(victim)
                active.append((interval, victim[1]))
            else:
                to_spill.append(interval.name)
        return mapping, to_spill
