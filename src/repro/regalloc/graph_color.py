"""Chaitin-style graph-colouring allocation.

Builds a precise interference graph (a definition interferes with
everything live just after it) and colours it by the classic
simplify/select discipline, with class-constrained palettes per node
and spill-and-retry when simplification blocks.  This is the
"Kim & Tan [12] problem" allocator of experiment E8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AllocationError
from repro.machine.machine import MicroArchitecture
from repro.mir.deps import op_reads, op_writes
from repro.mir.liveness import analyze_liveness
from repro.mir.program import MicroProgram
from repro.obs.tracer import NULL_TRACER
from repro.regalloc.intervals import live_intervals
from repro.regalloc.linear_scan import AllocationResult, allocate_in_rounds, restrict


def build_interference_graph(
    program: MicroProgram, machine: MicroArchitecture
) -> dict[str, set[str]]:
    """Interference edges between virtual registers."""
    liveness = analyze_liveness(program, machine)
    graph: dict[str, set[str]] = {}

    def node(name: str) -> set[str]:
        return graph.setdefault(name, set())

    def virtuals(resources: set[str]) -> set[str]:
        return {r for r in resources if r.startswith("%")}

    for block in program.blocks.values():
        live = set(liveness.live_out[block.label])
        for op in reversed(block.ops):
            defs = virtuals(op_writes(op, machine))
            uses = virtuals(op_reads(op, machine))
            for defined in defs:
                node(defined)
                for other in virtuals(live) - {defined}:
                    node(defined).add(other)
                    node(other).add(defined)
            live -= defs
            live |= uses
            for name in uses:
                node(name)
    return graph


@dataclass
class GraphColorAllocator:
    """Simplify/select colouring with constrained palettes.

    ``extra_interference`` adds artificial edges between virtual
    registers (resource names, ``%v`` form).  The YALLL ``par``
    extension uses this to keep the temporaries of declared-parallel
    statements in distinct registers, so allocation cannot reintroduce
    the resource dependences the programmer ruled out (survey §2.1.4).
    """

    register_limit: int | None = None
    extra_interference: tuple[tuple[str, str], ...] = ()
    name: str = "graph-color"
    tracer: object = NULL_TRACER

    def allocate(
        self, program: MicroProgram, machine: MicroArchitecture
    ) -> AllocationResult:
        def assign(index, allowed, temps):
            palettes = {
                f"%{v.name}": restrict(candidates, self.register_limit, temps)
                for v, candidates in allowed.items()
            }
            for name, palette in palettes.items():
                if not palette:
                    raise AllocationError(f"empty palette for {name}")
            graph = build_interference_graph(program, machine)
            for name in palettes:
                graph.setdefault(name, set())
            for a, b in self.extra_interference:
                if a in graph and b in graph and a != b:
                    graph[a].add(b)
                    graph[b].add(a)
            # Drop live-at-exit ghosts no op touches (nothing to colour).
            for name in [n for n in graph if n not in palettes]:
                for neighbour in graph.pop(name):
                    graph[neighbour].discard(name)
            colouring, spill_names = self._colour(graph, palettes, program, machine)
            if self.tracer.enabled:
                self.tracer.instant(
                    "regalloc.round", cat="regalloc", allocator=self.name,
                    round=index, nodes=len(graph),
                    edges=sum(len(n) for n in graph.values()) // 2,
                    coloured=len(colouring), spilling=sorted(spill_names),
                )
            return colouring, spill_names

        return allocate_in_rounds(self, program, machine, assign)

    def _colour(
        self,
        graph: dict[str, set[str]],
        palettes: dict[str, list[str]],
        program: MicroProgram,
        machine: MicroArchitecture,
    ) -> tuple[dict[str, str], list[str]]:
        """Simplify/select; returns (colouring, spill candidates)."""
        degrees = {name: len(neigh) for name, neigh in graph.items()}
        removed: set[str] = set()
        stack: list[str] = []
        spilled: list[str] = []
        uses = {
            name: interval.uses
            for name, interval in live_intervals(program, machine).items()
        }
        work = set(graph)
        while work:
            candidate = next(
                (
                    name
                    for name in sorted(work)
                    if degrees[name] < len(palettes[name])
                ),
                None,
            )
            if candidate is None:
                # Potential spill: lowest use count per degree.
                candidate = min(
                    sorted(work),
                    key=lambda n: (uses.get(n, 0) / (degrees[n] + 1), n),
                )
                spilled.append(candidate)
                work.discard(candidate)
                removed.add(candidate)
                for neighbour in graph[candidate]:
                    if neighbour not in removed:
                        degrees[neighbour] -= 1
                continue
            stack.append(candidate)
            work.discard(candidate)
            removed.add(candidate)
            for neighbour in graph[candidate]:
                if neighbour not in removed:
                    degrees[neighbour] -= 1
        if spilled:
            return {}, spilled
        colouring: dict[str, str] = {}
        for name in reversed(stack):
            taken = {
                colouring[neighbour]
                for neighbour in graph[name]
                if neighbour in colouring
            }
            choice = next(
                (c for c in palettes[name] if c not in taken), None
            )
            if choice is None:
                return {}, [name]
            colouring[name] = choice
        return colouring, []
