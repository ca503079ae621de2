"""Axis oracles: observations, diffing and the four axis pairs."""

import pytest

from repro.difftest import Observation, generate_case, run_axis
from repro.difftest.oracle import AXES, diff_observations, observe
from repro.registry import build_machine
from repro.sim.batch import HAVE_NUMPY
from repro.sim.ops import planted


class TestObservation:
    def test_observe_runs_a_case_to_completion(self):
        case = generate_case("yalll", build_machine("HM1"), 0)
        seen = observe(case)
        assert seen.error is None
        assert seen.words
        assert seen.cycles > 0
        assert dict(seen.registers).keys() == set(case.observe)

    def test_compile_errors_become_observations(self):
        case = generate_case("yalll", build_machine("HM1"), 0)
        broken = case.with_source("    this is not yalll\n")
        seen = observe(broken)
        assert seen.error is not None
        assert not seen.words

    def test_memory_cases_observe_their_region(self):
        for seed in range(40):
            case = generate_case("empl", build_machine("HM1"), seed)
            if case.mem_region is None:
                continue
            seen = observe(case)
            assert seen.error is None
            assert seen.memory is not None
            assert len(seen.memory) == case.mem_region[1]
            return
        pytest.skip("no memory-touching empl case in the first 40 seeds")


class TestDiffing:
    def test_identical_observations_are_clean(self):
        a = Observation(words=(1, 2), cycles=5)
        assert diff_observations(a, a, ("words", "cycles")) == []

    def test_field_mismatch_is_named(self):
        a = Observation(cycles=5)
        b = Observation(cycles=6)
        (mismatch,) = diff_observations(a, b, ("cycles",))
        assert mismatch.startswith("cycles:")

    def test_error_asymmetry_diverges(self):
        ok = Observation(cycles=5)
        bad = Observation(error="SimulationError: boom")
        (mismatch,) = diff_observations(ok, bad, ("cycles",))
        assert mismatch.startswith("error:")

    def test_matching_errors_do_not_diverge(self):
        a = Observation(error="SimulationError: boom")
        b = Observation(error="SimulationError: boom")
        assert diff_observations(a, b, ("cycles",)) == []


class TestAxes:
    def test_all_axes_registered(self):
        assert set(AXES) == {
            "engine", "traced", "batched", "cache", "restart", "shards",
        }

    @pytest.mark.parametrize("axis", ("engine", "restart"))
    @pytest.mark.parametrize("lang", ("yalll", "simpl", "empl"))
    def test_axis_is_clean_on_healthy_toolkit(self, axis, lang):
        case = generate_case(lang, build_machine("HM1"), 3)
        assert run_axis(axis, case) is None

    def test_cache_axis_round_trips_disk(self, tmp_path):
        case = generate_case("yalll", build_machine("HM1"), 1)
        assert run_axis("cache", case, workdir=tmp_path) is None
        assert list(tmp_path.glob("cache-*/*.pkl"))

    def test_shards_axis_compares_reports(self):
        case = generate_case("yalll", build_machine("HM1"), 2)
        assert run_axis("shards", case) is None

    def test_engine_axis_sees_planted_semantic_bug(self):
        case = generate_case("yalll", build_machine("HM1"), 4)
        with planted("xor", "(a & M) ^ (b & M) ^ 1"):
            divergence = run_axis("engine", case)
        assert divergence is not None
        assert divergence.axis == "engine"
        assert any("registers" in m or "exit_value" in m
                   for m in divergence.mismatches)

    def test_batched_axis_clean_and_lane_count_honoured(self):
        from repro.difftest.oracle import observe_batch

        case = generate_case("yalll", build_machine("HM1"), 3)
        assert run_axis("batched", case) is None
        lanes = observe_batch(case, lanes=4)
        assert len(lanes) == 4
        scalar = observe(case, engine="decoded")
        for seen in lanes:
            assert seen.error is None
            assert seen.exit_value == scalar.exit_value
            assert seen.cycles == scalar.cycles
            assert seen.registers == scalar.registers

    @pytest.mark.skipif(not HAVE_NUMPY,
                        reason="numpy missing: admission refuses lockstep")
    def test_batched_axis_sees_planted_lane_corruption(self):
        import repro.sim.batch as batch

        # Memory-free cases keep their lanes batched (a paging trap
        # would peel them out of the plant's reach), and a corrupted
        # lane 0 that derails its own control flow stays batched too,
        # but a flipped bit can still be masked before it shows — so
        # sweep seeds until one corruption is observable.
        divergence = caught = None
        batch.PLANT_LANE_XOR = 1
        try:
            for seed in range(40):
                case = generate_case("yalll", build_machine("HM1"), seed)
                if case.uses_memory:
                    continue
                divergence = run_axis("batched", case, batch=4)
                if divergence is not None:
                    caught = case
                    break
        finally:
            batch.PLANT_LANE_XOR = 0
        assert divergence is not None, "no seed exposed the plant"
        assert divergence.axis == "batched"
        assert any(m.startswith("lane ") for m in divergence.mismatches)
        # The pristine toolkit re-verifies clean on the same case.
        assert run_axis("batched", caught, batch=4) is None

    def test_planted_bug_does_not_fool_interpretive_pair(self):
        """The plant only reroutes the fast engines: the restart
        axis (interpretive on both sides) must stay clean under it."""
        case = generate_case("yalll", build_machine("HM1"), 4)
        with planted("xor", "(a & M) ^ (b & M) ^ 1"):
            assert run_axis("restart", case) is None
