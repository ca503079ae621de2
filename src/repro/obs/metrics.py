"""Counter primitives and derived compile-time metrics.

Every counter the toolkit exports is one of two kinds:

* :class:`Counters` — a keyed tally (per-address cycles, control-field
  utilisation, outcome classes, request classes, refusal reasons);
* a :class:`CounterBlock` — a fixed set of named ``int`` fields bumped
  as plain attributes (plan cache, trace JIT, compile cache, worker
  pool), which takes its difference, merge and JSON forms from here.

:func:`render_tally` is the one ``key=value, …`` text form of a tally;
:func:`repro.obs.export.family` is the one Prometheus form of both.
:func:`stage_breakdown` folds a tracer's span events into the
per-stage compile-time table the ``--stats`` flag prints.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace

from repro.obs.events import PH_COMPLETE, TRACK_COMPILE, Event


class Counters:
    """A keyed tally: ``inc``/``get``/``top`` over a plain dict.

    Keys appear on their first increment, so a tally that must list a
    key at zero (``/healthz``'s pool block) is a :class:`CounterBlock`.
    """

    __slots__ = ("data",)

    def __init__(self, data: dict | None = None):
        self.data: dict = dict(data) if data else {}

    def inc(self, key, amount: float = 1) -> None:
        self.data[key] = self.data.get(key, 0) + amount

    def get(self, key, default: float = 0) -> float:
        return self.data.get(key, default)

    def items(self):
        return self.data.items()

    def total(self) -> float:
        return sum(self.data.values())

    def top(self, n: int) -> list[tuple]:
        """The ``n`` largest entries as (key, value), descending."""
        ranked = sorted(self.data.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return ranked[:n]

    def merge(self, other) -> None:
        """Add another tally (or any mapping of counts) in place."""
        for key, value in other.items():
            self.inc(key, value)

    def __add__(self, other: "Counters") -> "Counters":
        """Pure merge: associative, commutative, ``Counters()`` is 0."""
        merged = Counters(self.data)
        merged.merge(other)
        return merged

    def as_dict(self) -> dict:
        return dict(self.data)

    def __eq__(self, other) -> bool:
        """Value equality (the merge laws are stated over it)."""
        if isinstance(other, Counters):
            return self.data == other.data
        return NotImplemented

    __hash__ = None  # mutable; never a dict key

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counters({self.data!r})"


def render_tally(counts) -> str:
    """A tally as ``key=value, …`` text, in key order."""
    return ", ".join(
        f"{key}={int(value)}" for key, value in sorted(counts.items())
    )


class CounterBlock:
    """Named ``int`` counters with derived arithmetic and JSON forms.

    Subclasses are dataclasses whose every field is a counter, bumped
    as a plain attribute (``stats.misses += 1``) by whatever owns it,
    so the counting itself costs one add.  Everything else comes from
    :func:`dataclasses.fields`, in field order:

    * ``a - b`` counts what happened between two readings (``b`` is a
      :meth:`copy` taken earlier);
    * ``a + b`` merges two blocks (associative, commutative, with the
      empty block as identity);
    * :meth:`to_json` lists every field, zeros included;
      :meth:`from_json` inverts it (absent fields read 0, extra keys
      such as a derived rate are ignored).
    """

    def _combine(self, other, op):
        return type(self)(**{
            f.name: op(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        })

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def copy(self):
        """A reading to subtract from later."""
        return replace(self)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, payload: dict):
        return cls(**{f.name: payload.get(f.name, 0) for f in fields(cls)})


@dataclass
class StageStat:
    """One row of the per-stage compile-time breakdown."""

    name: str
    micros: float
    fraction: float
    depth: int
    args: dict


def stage_breakdown(
    events: list[Event], cat_prefix: str = ""
) -> list[StageStat]:
    """Per-stage timing rows from span events, in recorded order.

    Only compile-track spans count (simulator events live on their own
    cycle-stamped track).  Spans are re-ordered by start time (a tracer
    appends them at *exit*, so nested spans precede their parents in
    ``events``) and fractions are computed against the outermost span's
    duration.  ``cat_prefix`` filters by category (``""`` keeps
    everything).
    """
    spans = [
        e
        for e in events
        if e.ph == PH_COMPLETE
        and e.track == TRACK_COMPILE
        and e.cat.startswith(cat_prefix)
    ]
    spans.sort(key=lambda e: (e.ts, -e.dur))
    if not spans:
        return []
    total = max((e.dur for e in spans if e.args.get("depth", 0) == 0),
                default=0.0) or max(e.dur for e in spans)
    rows = []
    for event in spans:
        rows.append(
            StageStat(
                name=event.name,
                micros=event.dur,
                fraction=event.dur / total if total else 0.0,
                depth=int(event.args.get("depth", 0)),
                args={k: v for k, v in event.args.items() if k != "depth"},
            )
        )
    return rows
