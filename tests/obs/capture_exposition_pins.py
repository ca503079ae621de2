"""Regenerate ``exposition_pins.json``: every counter exposition surface.

Run from the repository root::

    PYTHONPATH=src python tests/obs/capture_exposition_pins.py

Everything is captured through public surfaces only, so the pins hold
whatever the counters are kept in:

* ``service`` — a one-worker ``ServiceRunner`` driven one request at a
  time (``/compile``, two ``/run``\\ s, a ``/campaign`` with metrics, a
  malformed body and an unknown route), then its ``/healthz`` body and
  ``/metrics`` text.  The two runs name a deadline and the traced
  engine, so both are refused a lockstep lane for a reason that does
  not depend on whether numpy is installed;
* ``profile/<engine>`` — ``repro profile`` on the golden YALLL
  multiply under the decoded and traced engines: the text report,
  ``--json``, ``--prometheus`` and ``--replay`` of its ``--save``;
* ``rollup`` — ``render()``, ``to_json()`` and ``to_prometheus()`` of
  a two-shard traced campaign's :class:`CampaignMetrics` compiled
  through a compile cache, merged with a difftest tally;
* ``cache`` — ``CompileCache.stats.to_json()`` after one miss and one
  hit.

``test_exposition_pins.py`` asserts every entry byte for byte;
regenerate only when an exposition is *supposed* to change, and say
which entry changed and why in the commit message.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from repro.cache import CompileCache
from repro.cli import main as cli_main
from repro.faults.campaign import run_campaign
from repro.machine.machines import get_machine
from repro.obs import CampaignMetrics, Counters, to_prometheus
from repro.registry import get_language
from repro.serve import ServeConfig, ServiceRunner

PINS = Path(__file__).parent / "exposition_pins.json"

#: The golden-corpus YALLL multiply (``tests/pipeline/golden_programs``).
YALLL_MUL = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

#: Enough trips round the loop for the trace JIT to stitch it.
INPUTS = {"a": 3, "n": 20}

SERVICE_REQUESTS = (
    ("compile", "POST", "/compile", {"source": YALLL_MUL, "lang": "yalll"}),
    ("run_deadline", "POST", "/run", {
        "source": YALLL_MUL, "lang": "yalll", "set": INPUTS,
        "show": ["p"], "deadline_s": 30,
    }),
    ("run_traced", "POST", "/run", {
        "source": YALLL_MUL, "lang": "yalll", "set": INPUTS,
        "show": ["p"], "engine": "traced",
    }),
    ("campaign", "POST", "/campaign", {
        "source": YALLL_MUL, "lang": "yalll", "n": 4, "seed": 7,
    }),
    ("malformed", "POST", "/run", [1]),
    ("unknown_route", "POST", "/nowhere", {}),
)


def service_pins() -> dict:
    with ServiceRunner(ServeConfig(workers=1)) as runner:
        responses = {
            name: list(runner.request(method, path, payload))
            for name, method, path, payload in SERVICE_REQUESTS
        }
        _, health = runner.request("GET", "/healthz")
        _, metrics = runner.request("GET", "/metrics")
    return {"responses": responses, "healthz": health, "metrics": metrics}


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(list(argv)) == 0, argv
    return out.getvalue()


def profile_pins(engine: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = tmp / "mul.yalll"
        source.write_text(YALLL_MUL)
        live = [str(source), "--lang", "yalll", "--engine", engine]
        for name, value in INPUTS.items():
            live += ["--set", f"{name}={value}"]
        saved = str(tmp / "profile.json")
        prom = str(tmp / "metrics.prom")

        def surfaces(run: list[str]) -> dict:
            _cli("profile", *run, "--prometheus", prom)
            return {
                "text": _cli("profile", *run),
                "json": _cli("profile", *run, "--json"),
                "prometheus": Path(prom).read_text(),
            }

        pins = surfaces(live)
        _cli("profile", *live, "--save", saved)
        pins["replay"] = surfaces(["--replay", saved])
        return pins


def rollup_pins() -> dict:
    cache = CompileCache()
    result = run_campaign(
        YALLL_MUL, "yalll", get_machine("HM1"), n=12, seed=7,
        registers=INPUTS, jobs=2, engine="traced", cache=cache,
        collect_metrics=True,
    )
    rollup = result.metrics.merge(CampaignMetrics(difftest=Counters(
        {"cases": 3, "pairs.engine": 3, "divergences.engine": 1},
    )))
    return {
        "render": rollup.render(),
        "json": rollup.to_json(),
        "prometheus": to_prometheus(rollup),
    }


def cache_pins() -> dict:
    cache = CompileCache()
    compile_yalll = get_language("yalll").compile
    machine = get_machine("HM1")
    for _ in range(2):
        compile_yalll(YALLL_MUL, machine, cache=cache)
    return cache.stats.to_json()


#: Pin entry -> the function that captures it.
ENTRIES = {
    "service": service_pins,
    "profile/decoded": lambda: profile_pins("decoded"),
    "profile/traced": lambda: profile_pins("traced"),
    "rollup": rollup_pins,
    "cache": cache_pins,
}


def main() -> None:
    pins = {name: capture() for name, capture in ENTRIES.items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"captured {len(pins)} entries -> {PINS}")


if __name__ == "__main__":
    main()
