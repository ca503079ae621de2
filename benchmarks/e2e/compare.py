#!/usr/bin/env python3
"""Noise-aware comparison of two sets of benchmark results.

Each side is one or more result files written by ``run.py --json``,
ideally ten runs of one commit with different seeds, alternating with
the other side's runs.  For every (workload, end-to-end metric) the
verdict is:

* ``unresolved`` -- the base runs spread (interquartile distance over
  median) wider than the metric's bound in ``BENCHMARK.json``, unless
  every new run beats every base run, which is ``improved``;
* ``worse`` -- the new median is worse than the base median by more
  than the bound;
* ``improved`` -- the new median is better by more than the base
  spread and the new run wins at least nine in ten pairs;
* ``unchanged`` -- anything else.

With a single file per side a throughput metric is compared over its
per-round samples; other metrics have no spread and cannot improve.
Every ratio is printed with its base::

    python3 benchmarks/e2e/compare.py --base a*.json --new b*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[2]
#: A gain must win at least this share of the (base, new) pairs.
WIN_SHARE = 0.9


def verdict(base: list[float], new: list[float], *, bound: float,
            better: str) -> dict:
    """Compare one metric's base and new values (see the module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = sign * (new_median - base_median) / base_median
    spread = stats.spread(base) if len(base) >= 2 else None
    pairs = list(zip(base, new))
    wins = sum(sign * (b - a) > 0 for a, b in pairs) / len(pairs)
    every_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread is not None and spread > bound:
        result = "improved" if every_better else "unresolved"
    elif change < -bound:
        result = "worse"
    elif spread is not None and change > spread and wins >= WIN_SHARE:
        result = "improved"
    else:
        result = "unchanged"
    return {"verdict": result, "base": base_median, "new": new_median,
            "ratio": new_median / base_median, "change": change,
            "spread": spread, "wins": wins}


def _values(results: list[dict], workload: str, metric: str) -> list[float]:
    entries = [r["workloads"][workload]["end_to_end"][metric]
               for r in results
               if metric in r["workloads"].get(workload, {})
               .get("end_to_end", {})]
    if len(entries) == 1 and entries[0].get("samples"):
        return list(entries[0]["samples"])
    return [entry["value"] for entry in entries]


def compare(base: list[dict], new: list[dict], bench: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"]:
            a = _values(base, workload["name"], metric["name"])
            b = _values(new, workload["name"], metric["name"])
            if not a or not b:
                continue
            rows.append({
                "workload": workload["name"], "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                **verdict(a, b, bound=metric["bound"],
                          better=metric["better"]),
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        spread = ("n/a" if row["spread"] is None
                  else f"{row['spread']:.1%}")
        lines.append(
            f"{row['workload']:9s} {row['metric']:12s} "
            f"{row['new']:.6g} {row['unit']} = {row['ratio']:.3f} x base "
            f"{row['base']:.6g} {row['unit']}  (spread {spread}, "
            f"bound {row['bound']:.0%}, wins {row['wins']:.0%})  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())

    def load(paths):
        return [json.loads(path.read_text()) for path in paths]

    rows = compare(load(args.base), load(args.new), bench)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
