"""Shard-mergeable campaign metrics (the fleet-level rollup).

Parallel campaigns (``--jobs``) and difftest sweeps produce one
profile, one cache-stats block and one classification tally *per
shard*; before this module each shard's telemetry was thrown away.
Here every counter family gets a **deterministic, associative,
commutative merge**, so any grouping of shard results folds to the
same :class:`CampaignMetrics` a serial run accumulates — merged
reports are byte-identical to serial ones, which is what lets the
``--jobs`` fan-out stay an implementation detail instead of an
observability regression.

Merge laws (property-tested in ``tests/obs/test_aggregate.py``):

* ``merge(a, b) == merge(b, a)`` (commutative),
* ``merge(a, empty) == a`` (identity),
* ``merge(merge(a, b), c) == merge(a, merge(b, c))`` (associative).

Counter families are sums; names fold into a sorted ``+``-joined set;
``entry`` takes the minimum; conflicting ``mi_text`` entries resolve
to the lexicographically smaller rendering (arbitrary but symmetric —
in practice the same address always renders the same text).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import CacheStats
from repro.obs.metrics import Counters, render_tally
from repro.obs.timeline import SimProfile


# ----------------------------------------------------------------------
# Profile merging
# ----------------------------------------------------------------------
def _merge_names(a: str, b: str) -> str:
    """Fold two run names symmetrically (``+``-joined sorted set)."""
    parts = set(a.split("+")) | set(b.split("+"))
    parts.discard("")
    return "+".join(sorted(parts))


def merge_profiles(a: SimProfile, b: SimProfile) -> SimProfile:
    """Pure associative/commutative merge of two profiles."""
    merged = SimProfile(
        program=_merge_names(a.program, b.program),
        machine=_merge_names(a.machine, b.machine),
        entry=(
            a.entry if b.entry is None
            else b.entry if a.entry is None
            else min(a.entry, b.entry)
        ),
        exec_counts=a.exec_counts + b.exec_counts,
        cycle_counts=a.cycle_counts + b.cycle_counts,
        edge_counts=a.edge_counts + b.edge_counts,
        field_util=a.field_util + b.field_util,
        mi_text=dict(a.mi_text),
        instructions=a.instructions + b.instructions,
        busy_cycles=a.busy_cycles + b.busy_cycles,
        trap_cycles=a.trap_cycles + b.trap_cycles,
        interrupt_cycles=a.interrupt_cycles + b.interrupt_cycles,
        polls=a.polls + b.polls,
        traps=a.traps + b.traps,
        interrupts=a.interrupts + b.interrupts,
        decodes=a.decodes + b.decodes,
    )
    for address, text in b.mi_text.items():
        existing = merged.mi_text.get(address)
        merged.mi_text[address] = (
            text if existing is None else min(existing, text)
        )
    return merged


# ----------------------------------------------------------------------
@dataclass
class CampaignMetrics:
    """One fleet-level rollup of campaign telemetry.

    Accumulated per run (serial path) or per shard (``--jobs`` path)
    and folded with :meth:`merge`; every family obeys the merge laws
    above, so the fold order never shows in the report.

    Attributes:
        runs: Simulated runs aggregated (golden + scenarios).
        profile: Merged execution profile across all runs.
        classifications: Fault-campaign outcome tallies
            (masked/recovered/sdc/detected/hang).
        difftest: Differential-testing tallies (``cases``,
            ``pairs.<axis>``, ``divergences.<axis>``).
        cache: Compile-cache probe totals.
        plan_cache: Decoded-engine plan-cache totals
            (``hits``/``misses``/``invalidations``).
        trace_cache: Traced-engine trace-cache totals (``hits``/
            ``misses``/``invalidations``/``bailouts``).
    """

    runs: int = 0
    profile: SimProfile = field(default_factory=SimProfile)
    classifications: Counters = field(default_factory=Counters)
    difftest: Counters = field(default_factory=Counters)
    cache: CacheStats = field(default_factory=CacheStats)
    plan_cache: Counters = field(default_factory=Counters)
    trace_cache: Counters = field(default_factory=Counters)

    #: The keyed tallies, in report order, with their text labels.
    TALLIES = (
        ("classifications", "outcomes"),
        ("difftest", "difftest"),
        ("plan_cache", "plan cache"),
        ("trace_cache", "trace cache"),
    )

    # ------------------------------------------------------------------
    def merge(self, other: "CampaignMetrics") -> "CampaignMetrics":
        """Pure merge; the laws make any shard grouping equivalent."""
        return CampaignMetrics(
            runs=self.runs + other.runs,
            profile=merge_profiles(self.profile, other.profile),
            cache=self.cache + other.cache,
            **{
                name: getattr(self, name) + getattr(other, name)
                for name, _ in self.TALLIES
            },
        )

    @classmethod
    def merged(cls, parts: list["CampaignMetrics"]) -> "CampaignMetrics":
        """Fold any number of shard rollups (empty list -> empty)."""
        rollup = cls()
        for part in parts:
            rollup = rollup.merge(part)
        return rollup

    # ------------------------------------------------------------------
    def add_run(
        self,
        profile: SimProfile | None = None,
        *,
        classification: str | None = None,
        plan_cache: dict | None = None,
        trace_cache: dict | None = None,
    ) -> None:
        """Accumulate one simulated run in place (serial hot path)."""
        self.runs += 1
        if profile is not None:
            self.profile = merge_profiles(self.profile, profile)
        if classification is not None:
            self.classifications.inc(classification)
        if plan_cache:
            self.plan_cache.merge(plan_cache)
        if trace_cache:
            self.trace_cache.merge(trace_cache)

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Deterministic dict form (sorted keys, no wall-clock)."""
        payload = {
            "runs": self.runs,
            "profile": self.profile.to_json(),
            "cache": self.cache.to_json(),
        }
        for name, _ in self.TALLIES:
            payload[name] = {
                str(k): v for k, v in sorted(getattr(self, name).items())
            }
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "CampaignMetrics":
        """Inverse of :meth:`to_json` (cache hit_rate is derived)."""
        return cls(
            runs=payload.get("runs", 0),
            profile=SimProfile.from_json(payload.get("profile", {})),
            cache=CacheStats.from_json(payload.get("cache", {})),
            **{
                name: Counters(payload.get(name))
                for name, _ in cls.TALLIES
            },
        )

    def render(self) -> str:
        """Human-readable rollup summary."""
        profile = self.profile
        lines = [
            f"campaign metrics: {self.runs} runs, "
            f"{profile.instructions} MIs, "
            f"{profile.total_cycles()} cycles "
            f"({profile.traps} traps, {profile.interrupts} interrupts)",
        ]
        for name, label in self.TALLIES:
            counts = getattr(self, name)
            if counts:
                lines.append(f"  {label}: {render_tally(counts)}")
        if self.cache.probes():
            lines.append(
                f"  compile cache: {self.cache.hits} hits / "
                f"{self.cache.probes()} probes "
                f"({100.0 * self.cache.hit_rate():.1f}%)"
            )
        return "\n".join(lines)
