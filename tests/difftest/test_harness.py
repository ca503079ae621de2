"""The difftest campaign loop and its planted-bug self-check."""

import json

import pytest

import repro.sim.batch as batch
from repro.difftest import run_difftest, self_check
from repro.obs.tracer import Tracer
from repro.sim.ops import planted

#: The self-check's third plant needs lanes running in lockstep.
needs_lockstep = pytest.mark.skipif(
    not batch.HAVE_NUMPY, reason="numpy missing: admission refuses lockstep"
)


class TestRunDifftest:
    def test_small_campaign_is_clean(self):
        report = run_difftest(seed=0, budget=6, size=6)
        assert report.clean
        assert report.cases_run == 6
        assert report.pairs_run["engine"] == 6
        # Thinned axes ran on their schedule, not on every case.
        assert report.pairs_run["batched"] == 3
        assert report.pairs_run["cache"] == 2
        assert report.pairs_run["shards"] == 1

    def test_report_round_trips_to_json(self):
        report = run_difftest(seed=0, budget=3, size=6,
                              axes=("engine",))
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["cases_run"] == 3
        assert payload["divergences"] == []
        assert "engine" in payload["pairs_run"]

    def test_lang_and_machine_filters(self):
        report = run_difftest(
            seed=0, budget=4, size=6, langs=("yalll",),
            machines=("VM1",), axes=("engine",),
        )
        assert report.clean
        assert report.langs == ("yalll",)
        assert report.machines == ("VM1",)

    def test_metrics_tally_cases_and_pairs(self):
        report = run_difftest(seed=0, budget=6, size=6)
        tallies = report.metrics.difftest
        assert int(tallies.get("cases")) == report.cases_run
        for axis, pairs in report.pairs_run.items():
            assert int(tallies.get(f"pairs.{axis}")) == pairs
        assert not any(str(k).startswith("divergences.")
                       for k in tallies.data)
        payload = report.to_json()
        assert payload["metrics"]["difftest"]["cases"] == report.cases_run

    def test_case_events_are_traced(self):
        tracer = Tracer()
        run_difftest(seed=0, budget=2, size=6, axes=("engine",),
                     tracer=tracer)
        names = [e.name for e in tracer.events]
        assert names.count("difftest.case") == 2
        assert "difftest.divergence" not in names


class TestSelfCheck:
    @needs_lockstep
    def test_planted_bug_found_and_shrunk(self, tmp_path):
        report = self_check(seed=0, budget=3, size=8)
        assert report.divergences
        first = report.divergences[0]
        assert first.axis == "engine"
        assert first.reduced_source
        assert len(first.reduced_source) <= len(first.case.source)

    def test_missing_numpy_fails_naming_the_refusal(self, monkeypatch):
        """The batch-lane plant cannot run without lockstep; the
        self-check must say so, not report the plant as missed."""
        monkeypatch.setattr(batch, "HAVE_NUMPY", False)
        with pytest.raises(AssertionError, match="reason 'numpy'"):
            self_check(seed=0, budget=3, size=8)

    def test_divergences_reach_the_corpus_dir(self, tmp_path):
        """A divergent campaign writes self-contained reproducers."""
        with planted("xor", "(a & M) ^ (b & M) ^ 1"):
            report = run_difftest(
                seed=0, budget=2, size=6, axes=("engine",),
                corpus_dir=tmp_path, reduce=False,
            )
        assert not report.clean
        files = sorted(tmp_path.glob("div-*.json"))
        assert len(files) == len(report.divergences)
        payload = json.loads(files[0].read_text())
        assert payload["axis"] == "engine"
        assert payload["source"]
        assert "--seed" in payload["repro"]

    def test_divergence_events_are_traced(self):
        tracer = Tracer()
        with planted("xor", "(a & M) ^ (b & M) ^ 1"):
            run_difftest(seed=0, budget=1, size=6, axes=("engine",),
                         reduce=False, tracer=tracer)
        names = [e.name for e in tracer.events]
        assert "difftest.divergence" in names


class TestCLI:
    def test_difftest_verb_clean_run(self, capsys):
        from repro.cli import main

        code = main([
            "difftest", "--seed", "0", "--budget", "3", "--size", "6",
            "--axes", "engine",
        ])
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_difftest_verb_json(self, capsys):
        from repro.cli import main

        code = main([
            "difftest", "--seed", "0", "--budget", "2", "--size", "6",
            "--axes", "engine", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases_run"] == 2

    @needs_lockstep
    def test_difftest_verb_self_check(self, capsys):
        from repro.cli import main

        code = main(["difftest", "--self-check", "--budget", "3"])
        assert code == 0
        assert "self-check passed" in capsys.readouterr().out
