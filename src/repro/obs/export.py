"""Exporters: JSON-lines, Chrome traces, Prometheus, flamegraphs.

Consumers and their formats:

* :func:`dump_jsonl` / :func:`load_jsonl` — lossless event streams for
  programmatic analysis (one ``Event.to_json`` dict per line);
* :func:`to_chrome_trace` / :func:`dump_chrome_trace` — the
  ``chrome://tracing`` / Perfetto *JSON Array Format*, with compile
  and simulator timelines on separate named threads;
* :func:`render_hotspots` / :func:`render_compile_report` — the
  human-readable tables behind the CLI's ``--stats`` flag;
* :func:`to_prometheus` — the Prometheus text exposition format, for
  scraping fleet-level :class:`~repro.obs.aggregate.CampaignMetrics`
  (and single profiles) into dashboards; it and the service's
  ``/metrics`` are tables rendered by :func:`family`, the one
  Prometheus family renderer;
* :func:`to_collapsed_stacks` — Brendan-Gregg collapsed-stack lines
  (``frame;frame value``) that ``flamegraph.pl`` / speedscope render
  directly, with loop nesting as the stack;
* :func:`render_heat` — the annotated microcode disassembly heat
  report behind ``repro profile``.

Every profile-derived exporter is a pure function of its input, so
shard-merged and replayed profiles export byte-identically to live
serial runs.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.events import PH_COMPLETE, Event
from repro.obs.hotpath import HotPathAnalysis, analyze_profile
from repro.obs.metrics import stage_breakdown
from repro.obs.timeline import SimProfile

#: pid used for every toolkit event in Chrome traces.
TRACE_PID = 1


# ----------------------------------------------------------------------
# JSON-lines
def dump_jsonl(events: list[Event], path: str | Path) -> None:
    """Write one event per line (lossless round-trip format)."""
    with open(path, "w") as handle:
        for event in events:
            handle.write(json.dumps(event.to_json()) + "\n")


def load_jsonl(path: str | Path) -> list[Event]:
    """Inverse of :func:`dump_jsonl`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(Event.from_json(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Chrome trace-event format
def to_chrome_trace(events: list[Event]) -> dict:
    """Events as a Chrome trace-event JSON object.

    Each distinct ``track`` becomes a thread (with a ``thread_name``
    metadata record), so the wall-clock compile timeline and the
    cycle-clock simulator timeline render as separate rows.
    """
    tids: dict[str, int] = {}
    trace_events: list[dict] = []
    for event in events:
        tid = tids.get(event.track)
        if tid is None:
            tid = len(tids) + 1
            tids[event.track] = tid
            trace_events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": TRACE_PID,
                "tid": tid,
                "args": {"name": event.track},
            })
        record = {
            "name": event.name,
            "cat": event.cat,
            "ph": event.ph,
            "ts": event.ts,
            "pid": TRACE_PID,
            "tid": tid,
            "args": event.args,
        }
        if event.ph == PH_COMPLETE:
            record["dur"] = event.dur
        if event.ph == "i":
            record["s"] = "t"  # instant scope: thread
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def dump_chrome_trace(events: list[Event], path: str | Path) -> None:
    """Write :func:`to_chrome_trace` output to ``path``."""
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle, indent=1)


def write_trace(events: list[Event], path: str | Path) -> None:
    """Write a trace file, format chosen by extension.

    ``.jsonl`` → JSON-lines; anything else → Chrome trace JSON.
    """
    if str(path).endswith(".jsonl"):
        dump_jsonl(events, path)
    else:
        dump_chrome_trace(events, path)


# ----------------------------------------------------------------------
# Text reports
def render_hotspots(profile: SimProfile, top: int = 10) -> str:
    """The hot-spot report: top-N microinstructions by cycles.

    Includes the run totals, the ranked table and the control-word
    field utilisation — everything §3's speed claims need to be
    localised to individual microinstructions.
    """
    lines = [
        f"hot spots — {profile.program} on {profile.machine}: "
        f"{profile.instructions} MIs, {profile.busy_cycles} busy cycles"
        f" (+{profile.trap_cycles} trap, "
        f"+{profile.interrupt_cycles} interrupt)",
    ]
    spots = profile.hotspots(top)
    if spots:
        lines.append(f"{'addr':>6} {'cycles':>8} {'count':>7}  microinstruction")
        busy = profile.busy_cycles or 1
        for address, cycles, count, text in spots:
            share = 100.0 * cycles / busy
            lines.append(
                f"{address:6d} {cycles:8d} {count:7d}  {text}  ({share:.1f}%)"
            )
    if profile.field_util:
        executed = profile.instructions or 1
        pairs = ", ".join(
            f"{name} {100.0 * count / executed:.0f}%"
            for name, count in profile.field_util.top(8)
        )
        lines.append(f"field utilisation: {pairs}")
    if profile.polls or profile.traps or profile.interrupts:
        lines.append(
            f"{profile.polls} polls, {profile.traps} traps, "
            f"{profile.interrupts} interrupts serviced"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Prometheus text exposition format
def _prom_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def family(name: str, kind: str, help_text: str, series) -> str:
    """One Prometheus metric family in text exposition format.

    Its ``# HELP`` and ``# TYPE`` lines, then one sample per
    ``(labels, value)`` pair of ``series`` in the order given (labels
    sorted by key; no labels renders the bare name).  Every exposition
    the toolkit writes — ``/metrics``, ``profile --prometheus`` and
    campaign rollups — is a table of these.
    """
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {kind}"]
    for labels, value in series:
        rendered = ",".join(
            f'{key}="{_prom_escape(str(val))}"'
            for key, val in sorted(labels.items())
        )
        lines.append(f"{name}{{{rendered}}} {value}" if rendered
                     else f"{name} {value}")
    return "\n".join(lines) + "\n"


def by_label(label: str, counts) -> list[tuple[dict, int]]:
    """A tally's series: one sample per key, in key order."""
    return [
        ({label: key}, int(value)) for key, value in sorted(counts.items())
    ]


def render_families(namespace: str, table) -> str:
    """A whole document from ``(suffix, kind, help, series)`` rows."""
    return "".join(
        family(f"{namespace}_{suffix}", kind, help_text, series)
        for suffix, kind, help_text, series in table
    )


#: Profile totals exported one family each: (attribute, help).
_PROFILE_TOTALS = (
    ("instructions", "Microinstructions executed"),
    ("busy_cycles", "Cycles spent executing microinstructions"),
    ("trap_cycles", "Cycles charged to microtrap service"),
    ("interrupt_cycles", "Cycles charged to interrupt service"),
    ("traps", "Microtraps serviced"),
    ("interrupts", "Interrupts serviced"),
    ("polls", "poll micro-operations executed"),
    ("decodes", "Control-store words lowered to execution plans"),
)


def to_prometheus(
    source,
    *,
    namespace: str = "repro",
    plan_cache: dict | None = None,
    trace_cache: dict | None = None,
) -> str:
    """Prometheus text format for a profile or a metrics rollup.

    ``source`` is a :class:`SimProfile` or a
    :class:`~repro.obs.aggregate.CampaignMetrics`; the rollup form
    additionally exposes classification, difftest, plan-cache,
    trace-cache and compile-cache counter families (each declared
    even when empty).  For a bare profile, ``plan_cache=`` /
    ``trace_cache=`` attach one run's cache counters
    (``RunResult.plan_cache`` / ``RunResult.trace_cache``) and their
    families appear only when given — a replayed profile carries none,
    so passing nothing keeps replay exports byte-identical to their
    original files.  Output is deterministically ordered (sorted
    labels and series), so scrapes of merged shard rollups are
    byte-identical to serial ones.
    """
    from repro.obs.aggregate import CampaignMetrics

    metrics = source if isinstance(source, CampaignMetrics) else None
    profile = metrics.profile if metrics is not None else source
    run = {"program": profile.program, "machine": profile.machine}
    table = [
        (f"sim_{attr}_total", "counter", help_text,
         [(run, getattr(profile, attr))])
        for attr, help_text in _PROFILE_TOTALS
    ]
    table += [
        ("sim_address_cycles_total", "counter",
         "Cycles spent per control-store address",
         [({**run, "address": address}, int(cycles))
          for address, cycles in sorted(profile.cycle_counts.items())]),
        ("sim_address_executions_total", "counter",
         "Executions per control-store address",
         [({**run, "address": address}, int(count))
          for address, count in sorted(profile.exec_counts.items())]),
    ]
    if metrics is not None:
        plan_cache, trace_cache = metrics.plan_cache, metrics.trace_cache
        table += [
            ("campaign_runs_total", "counter",
             "Simulated runs aggregated into this rollup",
             [({}, metrics.runs)]),
            ("campaign_outcomes_total", "counter",
             "Fault-campaign outcome classifications",
             by_label("classification", metrics.classifications)),
            ("difftest_total", "counter", "Differential-testing tallies",
             by_label("kind", metrics.difftest)),
        ]
    table += [
        (suffix, "counter", help_text, by_label("event", counts))
        for suffix, help_text, counts in (
            ("plan_cache_total", "Decoded-engine plan cache events",
             plan_cache),
            ("trace_cache_total", "Traced-engine trace cache events",
             trace_cache),
        )
        if metrics is not None or counts
    ]
    if metrics is not None:
        cache = metrics.cache.to_json()
        del cache["hit_rate"]
        table.append(("compile_cache_total", "counter",
                      "Compile cache events", by_label("event", cache)))
    return render_families(namespace, table)


# ----------------------------------------------------------------------
# Collapsed-stack flamegraph format
def to_collapsed_stacks(
    source: SimProfile | HotPathAnalysis, *, cycles: bool = True
) -> str:
    """Collapsed-stack lines (``flamegraph.pl`` / speedscope input).

    The "stack" of a microinstruction is its loop-nesting chain:
    ``program;loop@outer;loop@inner;addr:NNNN text``.  Values are
    cycles (default) or execution counts.  Lines are sorted, so equal
    profiles collapse identically byte for byte.
    """
    analysis = (
        source if isinstance(source, HotPathAnalysis)
        else analyze_profile(source)
    )
    profile = analysis.profile
    # address -> enclosing loop headers, outermost first.
    chains: dict[int, list[int]] = {}
    for loop in sorted(analysis.loops, key=lambda l: l.depth):
        for address in loop.body:
            chains.setdefault(address, []).append(loop.header)
    root = profile.program or "run"
    lines = []
    source_counts = profile.cycle_counts if cycles else profile.exec_counts
    for address, value in sorted(source_counts.items()):
        frames = [root]
        frames.extend(
            f"loop@{header:04d}" for header in chains.get(address, [])
        )
        text = profile.mi_text.get(address, "?").replace(";", ",")
        frames.append(f"{address:04d} {text}")
        lines.append(f"{';'.join(frames)} {int(value)}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def dump_flamegraph(source, path: str | Path) -> None:
    """Write :func:`to_collapsed_stacks` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(to_collapsed_stacks(source))


# ----------------------------------------------------------------------
# Annotated disassembly heat report
def render_heat(
    source: SimProfile | HotPathAnalysis, *, bar_width: int = 24
) -> str:
    """Annotated microcode disassembly with per-address heat bars.

    One row per executed address in store order: loop-nesting marker,
    execution count, cycles, share of busy cycles and a proportional
    bar.  Deterministic for equal profiles (shard merges included).
    """
    analysis = (
        source if isinstance(source, HotPathAnalysis)
        else analyze_profile(source)
    )
    profile = analysis.profile
    depth_of = analysis.loop_addresses()
    busy = profile.busy_cycles or 1
    peak = max(
        (int(c) for _, c in profile.cycle_counts.items()), default=1
    ) or 1
    lines = [
        f"heat — {profile.program} on {profile.machine}: "
        f"{profile.instructions} MIs, {profile.busy_cycles} busy cycles",
        f"{'addr':>6} {'loop':<5} {'execs':>9} {'cycles':>9} "
        f"{'share':>6}  {'heat':<{bar_width}}  microinstruction",
    ]
    for address in sorted(profile.exec_counts.data):
        cycles = int(profile.cycle_counts.get(address))
        depth = depth_of.get(address, 0)
        marker = ("·" * depth) if depth else ""
        bar = "#" * max(
            1 if cycles else 0, round(bar_width * cycles / peak)
        )
        lines.append(
            f"{address:6d} {marker:<5} "
            f"{int(profile.exec_counts.get(address)):9d} {cycles:9d} "
            f"{100.0 * cycles / busy:5.1f}%  {bar:<{bar_width}}  "
            f"{profile.mi_text.get(address, '?')}"
        )
    return "\n".join(lines)


def render_compile_report(events: list[Event]) -> str:
    """Per-stage compile-time breakdown from a tracer's span events."""
    rows = stage_breakdown(events)
    if not rows:
        return "no compile spans recorded"
    lines = ["compile-time breakdown:"]
    for row in rows:
        extras = ", ".join(
            f"{key}={value}" for key, value in sorted(row.args.items())
            if isinstance(value, (int, float, str)) and key != "machine"
        )
        lines.append(
            f"  {'  ' * row.depth}{row.name:<{24 - 2 * row.depth}}"
            f"{row.micros / 1000.0:9.3f} ms  {100.0 * row.fraction:5.1f}%"
            + (f"  [{extras}]" if extras else "")
        )
    return "\n".join(lines)
