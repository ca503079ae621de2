"""Service-level counters and their Prometheus exposition.

The service keeps its own request-path counters (accepted, shed,
dedup, refusals, …) as :class:`~repro.obs.metrics.Counters` tallies
and — when ``collect_metrics`` is on — folds every campaign response's
rollup into one service-lifetime
:class:`~repro.obs.aggregate.CampaignMetrics`, so ``/metrics`` is one
table of :func:`~repro.obs.export.family` rows followed by the same
rollup exposition ``python -m repro profile --prometheus`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.aggregate import CampaignMetrics
from repro.obs.export import by_label, render_families, to_prometheus
from repro.obs.metrics import Counters

#: The per-class, per-status and per-reason tallies ``/healthz`` lists.
TALLIES = ("accepted", "completed", "shed", "dedup", "statuses",
           "batch_refused")


@dataclass
class ServiceMetrics:
    """Request-path counters, by class where it matters.

    Per class, ``completed == accepted + dedup`` once the service is
    idle: a request coalesced onto an identical in-flight execution is
    never admitted, but it completes.
    """

    accepted: Counters = field(default_factory=Counters)
    completed: Counters = field(default_factory=Counters)
    shed: Counters = field(default_factory=Counters)
    dedup: Counters = field(default_factory=Counters)
    statuses: Counters = field(default_factory=Counters)
    #: Runs that could not join a lockstep batch, by reason code
    #: (:mod:`repro.sim.admission`, plus serve's ``op``/``chaos``).
    batch_refused: Counters = field(default_factory=Counters)
    bad_requests: int = 0
    drained_rejects: int = 0
    #: Campaign responses whose rollup was folded service-wide — one
    #: fold per executed campaign, never per dedup follower.
    campaign_folds: int = 0
    #: Campaign rollups folded service-wide (collect_metrics only).
    campaigns: CampaignMetrics = field(default_factory=CampaignMetrics)

    def fold_campaign(self, payload: dict) -> None:
        """Merge one campaign response's metrics block, if present."""
        block = payload.get("metrics")
        if not block:
            return
        self.campaign_folds += 1
        self.campaigns = self.campaigns.merge(
            CampaignMetrics.from_json(block)
        )

    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        payload = {
            name: dict(sorted(getattr(self, name).items()))
            for name in TALLIES
        }
        payload.update(
            bad_requests=self.bad_requests,
            drained_rejects=self.drained_rejects,
            campaign_folds=self.campaign_folds,
        )
        return payload

    def to_prometheus(self, *, pool_stats: dict, depth: dict,
                      breakers: dict[str, int],
                      namespace: str = "repro") -> str:
        """The ``/metrics`` document: serve families + campaign rollup."""
        document = render_families(namespace, [
            ("serve_requests_total", "counter",
             "Requests accepted past admission control",
             by_label("class", self.accepted)),
            ("serve_shed_total", "counter",
             "Requests shed by admission control (429)",
             by_label("class", self.shed)),
            ("serve_dedup_total", "counter",
             "Requests coalesced onto an identical in-flight execution",
             by_label("class", self.dedup)),
            ("serve_batch_total", "counter",
             "Cross-request micro-batching: lockstep flushes, lanes "
             "they carried, and refused runs",
             [({"kind": "flushes"}, pool_stats.get("batch_flushes", 0)),
              ({"kind": "lanes"}, pool_stats.get("batch_lanes", 0)),
              ({"kind": "refused"}, self.batch_refused.total())]),
            ("serve_batch_refused_total", "counter",
             "Runs refused a lockstep lane, by reason",
             by_label("reason", self.batch_refused)),
            ("serve_outcomes_total", "counter",
             "Terminal response statuses",
             by_label("status", self.statuses)),
            ("serve_queue_depth", "gauge",
             "Jobs pending or in flight in the worker pool",
             [({"stage": "pending"}, depth.get("pending", 0)),
              ({"stage": "inflight"}, depth.get("inflight", 0))]),
            ("serve_workers", "gauge", "Live worker processes",
             [({}, depth.get("workers", 0))]),
            ("serve_pool_events_total", "counter",
             "Worker-pool supervisor events",
             by_label("event", pool_stats)),
            ("serve_breakers", "gauge", "Circuit breakers by state",
             by_label("state", breakers)),
        ])
        if self.campaign_folds:
            document += to_prometheus(self.campaigns, namespace=namespace)
        return document
