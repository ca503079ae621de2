"""Observability layer (survey substrate S15).

The shared measurement substrate behind every quantity the survey
compares — cycles, microinstruction counts, compaction ratios, trap
and interrupt latencies.  Three pieces:

* a **pipeline tracer** (:class:`Tracer` / :data:`NULL_TRACER`)
  threaded through every compiler stage and composition algorithm;
* **simulator instrumentation** (:class:`TraceRecorder`,
  :class:`SimProfile`) with per-address execution counts and
  control-store field utilisation;
* **exporters** for JSON-lines, Chrome ``chrome://tracing`` format
  and human-readable hot-spot / compile-time reports.

Everything defaults off: the :data:`NULL_TRACER` singleton and a
``recorder=None`` simulator cost one attribute test per call site.
"""

from repro.obs.aggregate import CampaignMetrics, merge_profiles
from repro.obs.events import (
    CAT_WARNING,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    TRACK_COMPILE,
    TRACK_FAULTS,
    TRACK_SIM,
    Event,
)
from repro.obs.export import (
    dump_chrome_trace,
    dump_flamegraph,
    dump_jsonl,
    load_jsonl,
    render_compile_report,
    render_heat,
    render_hotspots,
    to_chrome_trace,
    to_collapsed_stacks,
    to_prometheus,
    write_trace,
)
from repro.obs.hotpath import (
    BasicBlock,
    HotPathAnalysis,
    HotTrace,
    Loop,
    analyze_profile,
    render_hot_traces,
)
from repro.obs.metrics import (
    CounterBlock,
    Counters,
    StageStat,
    render_tally,
    stage_breakdown,
)
from repro.obs.timeline import SimProfile, TraceRecorder
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "BasicBlock",
    "CAT_WARNING",
    "CampaignMetrics",
    "CounterBlock",
    "Counters",
    "Event",
    "HotPathAnalysis",
    "HotTrace",
    "Loop",
    "NULL_TRACER",
    "NullTracer",
    "PH_COMPLETE",
    "PH_COUNTER",
    "PH_INSTANT",
    "SimProfile",
    "Span",
    "StageStat",
    "TRACK_COMPILE",
    "TRACK_FAULTS",
    "TRACK_SIM",
    "TraceRecorder",
    "Tracer",
    "analyze_profile",
    "dump_chrome_trace",
    "dump_flamegraph",
    "dump_jsonl",
    "load_jsonl",
    "merge_profiles",
    "render_compile_report",
    "render_heat",
    "render_hot_traces",
    "render_hotspots",
    "render_tally",
    "stage_breakdown",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "to_prometheus",
    "write_trace",
]
