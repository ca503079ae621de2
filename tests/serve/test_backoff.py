"""Backoff schedule and circuit-breaker state machine properties.

The ISSUE's two pinned properties live here: the seeded jitter
schedule is reproducible and capped, and quarantine opens after
*exactly* the configured strike count — plus the half-open probe
choreography the pool leans on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.supervisor import BackoffPolicy, CircuitBreakers

KEYS = st.text(min_size=1, max_size=24)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBackoffPolicy:
    @given(seed=st.integers(0, 2**32), key=KEYS)
    @settings(max_examples=50)
    def test_schedule_reproducible(self, seed, key):
        a = BackoffPolicy(seed=seed).schedule(key, 8)
        b = BackoffPolicy(seed=seed).schedule(key, 8)
        assert a == b

    @given(
        seed=st.integers(0, 2**32),
        key=KEYS,
        attempt=st.integers(0, 40),
    )
    @settings(max_examples=100)
    def test_delay_capped_and_bounded_below(self, seed, key, attempt):
        policy = BackoffPolicy(
            base_s=0.05, cap_s=2.0, jitter=0.5, seed=seed
        )
        delay = policy.delay(key, attempt)
        assert delay <= policy.cap_s
        assert delay >= min(policy.cap_s, policy.base_s * 2.0 ** attempt)

    @given(key=KEYS, attempt=st.integers(0, 10))
    @settings(max_examples=50)
    def test_jitter_unit_in_range(self, key, attempt):
        unit = BackoffPolicy().unit(key, attempt)
        assert 0.0 <= unit < 1.0

    def test_unjittered_base_doubles(self):
        policy = BackoffPolicy(base_s=0.05, cap_s=1e9, jitter=0.0, seed=0)
        schedule = policy.schedule("k", 6)
        for previous, current in zip(schedule, schedule[1:]):
            assert current == pytest.approx(2.0 * previous)

    def test_distinct_keys_get_distinct_jitter(self):
        policy = BackoffPolicy(jitter=1.0)
        draws = {policy.unit(f"key-{i}", 0) for i in range(32)}
        assert len(draws) == 32  # SHA-256 spreads the herd

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(base_s=1.0, cap_s=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy().delay("k", -1)


class TestCircuitBreakers:
    @given(strikes=st.integers(1, 6))
    @settings(max_examples=20)
    def test_opens_after_exactly_configured_strikes(self, strikes):
        breakers = CircuitBreakers(strikes=strikes, clock=FakeClock())
        for _ in range(strikes - 1):
            assert breakers.record_strike("poison") is False
            assert breakers.admit("poison") == "allow"
        assert breakers.record_strike("poison") is True
        assert breakers.is_open("poison")
        assert breakers.admit("poison") == "reject"

    def test_cooldown_admits_one_probe(self):
        clock = FakeClock()
        breakers = CircuitBreakers(strikes=1, cooldown_s=10.0, clock=clock)
        breakers.record_strike("poison")
        assert breakers.admit("poison") == "reject"
        clock.now = 10.0
        assert breakers.admit("poison") == "probe"
        # While the probe is outstanding everyone else is rejected.
        assert breakers.admit("poison") == "reject"

    def test_probe_success_closes(self):
        clock = FakeClock()
        breakers = CircuitBreakers(strikes=1, cooldown_s=1.0, clock=clock)
        breakers.record_strike("poison")
        clock.now = 1.0
        assert breakers.admit("poison") == "probe"
        breakers.record_success("poison")
        assert breakers.admit("poison") == "allow"
        assert not breakers.is_open("poison")

    def test_probe_strike_reopens_for_fresh_cooldown(self):
        clock = FakeClock()
        breakers = CircuitBreakers(strikes=2, cooldown_s=5.0, clock=clock)
        breakers.record_strike("poison")
        breakers.record_strike("poison")
        clock.now = 5.0
        assert breakers.admit("poison") == "probe"
        assert breakers.record_strike("poison") is True
        assert breakers.admit("poison") == "reject"
        clock.now = 9.9
        assert breakers.admit("poison") == "reject"
        clock.now = 10.0
        assert breakers.admit("poison") == "probe"

    def test_success_clears_partial_strikes(self):
        breakers = CircuitBreakers(strikes=2, clock=FakeClock())
        breakers.record_strike("flaky")
        breakers.record_success("flaky")
        assert breakers.record_strike("flaky") is False

    def test_keys_are_independent(self):
        breakers = CircuitBreakers(strikes=1, clock=FakeClock())
        breakers.record_strike("poison")
        assert breakers.admit("healthy") == "allow"
        assert breakers.counts() == {
            "closed": 0, "open": 1, "half_open": 0,
        }

    def test_states_snapshot_skips_clean_keys(self):
        breakers = CircuitBreakers(strikes=2, clock=FakeClock())
        breakers.admit("clean")
        breakers.record_strike("hit")
        assert "clean" not in breakers.states()
        assert breakers.states()["hit"] == {
            "state": "closed", "strikes": 1,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakers(strikes=0)
