"""Service-level counters and their Prometheus exposition.

The service keeps its own request-path counters (accepted, shed,
timeouts, quarantines, …) and — when ``collect_metrics`` is on —
folds every campaign response's rollup into one service-lifetime
:class:`~repro.obs.aggregate.CampaignMetrics`, so ``/metrics`` speaks
the same exposition format (and reuses the same exporter) as
``python -m repro profile --prometheus``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.aggregate import CampaignMetrics
from repro.obs.export import _prom_series, to_prometheus


@dataclass
class ServiceMetrics:
    """Request-path counters, by class where it matters."""

    accepted: dict[str, int] = field(default_factory=dict)
    completed: dict[str, int] = field(default_factory=dict)
    shed: dict[str, int] = field(default_factory=dict)
    #: Requests coalesced onto an identical in-flight execution; they
    #: never reach admission control or the pool, so ``completed`` can
    #: exceed ``accepted`` by exactly this count.
    dedup: dict[str, int] = field(default_factory=dict)
    statuses: dict[str, int] = field(default_factory=dict)
    #: Runs that could not join a lockstep batch, by reason code
    #: (:mod:`repro.sim.admission`, plus serve's ``op``/``chaos``).
    lockstep_refused: dict[str, int] = field(default_factory=dict)
    bad_requests: int = 0
    drained_rejects: int = 0
    #: Campaign responses whose rollup was folded service-wide — one
    #: fold per executed campaign, never per dedup follower.
    campaign_folds: int = 0
    #: Campaign rollups folded service-wide (collect_metrics only).
    campaigns: CampaignMetrics = field(default_factory=CampaignMetrics)
    _have_campaigns: bool = False

    def _bump(self, table: dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    def record_accept(self, job_class: str) -> None:
        self._bump(self.accepted, job_class)

    def record_shed(self, job_class: str) -> None:
        self._bump(self.shed, job_class)

    def record_dedup(self, job_class: str) -> None:
        self._bump(self.dedup, job_class)

    def record_lockstep_refusal(self, reason: str) -> None:
        self._bump(self.lockstep_refused, reason)

    def record_outcome(self, job_class: str, status: str) -> None:
        self._bump(self.completed, job_class)
        self._bump(self.statuses, status)

    def fold_campaign(self, payload: dict) -> None:
        """Merge one campaign response's metrics block, if present."""
        block = payload.get("metrics")
        if not block:
            return
        self.campaign_folds += 1
        self.campaigns = self.campaigns.merge(
            CampaignMetrics.from_json(block)
        )
        self._have_campaigns = True

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "accepted": dict(sorted(self.accepted.items())),
            "completed": dict(sorted(self.completed.items())),
            "shed": dict(sorted(self.shed.items())),
            "dedup": dict(sorted(self.dedup.items())),
            "statuses": dict(sorted(self.statuses.items())),
            "batch_refused": dict(sorted(self.lockstep_refused.items())),
            "bad_requests": self.bad_requests,
            "drained_rejects": self.drained_rejects,
            "campaign_folds": self.campaign_folds,
        }

    def to_prometheus(self, *, pool_stats: dict, depth: dict,
                      breakers: dict[str, int],
                      namespace: str = "repro") -> str:
        """The ``/metrics`` document: serve families + campaign rollup."""
        lines: list[str] = []

        def family(suffix: str, kind: str, help_text: str) -> str:
            name = f"{namespace}_serve_{suffix}"
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            return name

        name = family("requests_total", "counter",
                      "Requests accepted past admission control")
        for cls, count in sorted(self.accepted.items()):
            _prom_series(name, {"class": cls}, count, out=lines)
        name = family("shed_total", "counter",
                      "Requests shed by admission control (429)")
        for cls, count in sorted(self.shed.items()):
            _prom_series(name, {"class": cls}, count, out=lines)
        name = family("dedup_total", "counter",
                      "Requests coalesced onto an identical "
                      "in-flight execution")
        for cls, count in sorted(self.dedup.items()):
            _prom_series(name, {"class": cls}, count, out=lines)
        name = family("batch_total", "counter",
                      "Cross-request micro-batching: lockstep flushes, "
                      "lanes they carried, and refused runs")
        _prom_series(name, {"kind": "flushes"},
                     pool_stats.get("batch_flushes", 0), out=lines)
        _prom_series(name, {"kind": "lanes"},
                     pool_stats.get("batch_lanes", 0), out=lines)
        _prom_series(name, {"kind": "refused"},
                     sum(self.lockstep_refused.values()), out=lines)
        name = family("batch_refused_total", "counter",
                      "Runs refused a lockstep lane, by reason")
        for reason, count in sorted(self.lockstep_refused.items()):
            _prom_series(name, {"reason": reason}, count, out=lines)
        name = family("outcomes_total", "counter",
                      "Terminal response statuses")
        for status, count in sorted(self.statuses.items()):
            _prom_series(name, {"status": status}, count, out=lines)
        name = family("queue_depth", "gauge",
                      "Jobs pending or in flight in the worker pool")
        _prom_series(name, {"stage": "pending"}, depth.get("pending", 0),
                     out=lines)
        _prom_series(name, {"stage": "inflight"}, depth.get("inflight", 0),
                     out=lines)
        name = family("workers", "gauge", "Live worker processes")
        _prom_series(name, {}, depth.get("workers", 0), out=lines)
        name = family("pool_events_total", "counter",
                      "Worker-pool supervisor events")
        for event, count in sorted(pool_stats.items()):
            _prom_series(name, {"event": event}, count, out=lines)
        name = family("breakers", "gauge",
                      "Circuit breakers by state")
        for state, count in sorted(breakers.items()):
            _prom_series(name, {"state": state}, count, out=lines)
        document = "\n".join(lines) + "\n"
        if self._have_campaigns:
            document += to_prometheus(self.campaigns, namespace=namespace)
        return document
