"""Merge laws for shard-mergeable metrics, and shard byte-identity."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheStats
from repro.faults.campaign import run_campaign
from repro.machine.machines import build_cm1, build_hm1
from repro.obs import (
    CampaignMetrics,
    Counters,
    SimProfile,
    merge_profiles,
)

# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
addresses = st.integers(min_value=0, max_value=40)
counts = st.integers(min_value=1, max_value=1_000)


def counters(keys=addresses):
    return st.dictionaries(keys, counts, max_size=8).map(Counters)


edge_keys = st.tuples(addresses, addresses)

profiles = st.builds(
    SimProfile,
    program=st.sampled_from(["", "mul", "memloop"]),
    machine=st.sampled_from(["", "HM1", "CM1"]),
    entry=st.one_of(st.none(), addresses),
    exec_counts=counters(),
    cycle_counts=counters(),
    edge_counts=counters(edge_keys),
    field_util=counters(st.sampled_from(["alu", "seq", "mem"])),
    mi_text=st.dictionaries(
        addresses, st.sampled_from(["add", "sub", "jump"]), max_size=4
    ),
    instructions=st.integers(min_value=0, max_value=10_000),
    busy_cycles=st.integers(min_value=0, max_value=10_000),
    trap_cycles=st.integers(min_value=0, max_value=500),
    interrupt_cycles=st.integers(min_value=0, max_value=500),
    polls=st.integers(min_value=0, max_value=100),
    traps=st.integers(min_value=0, max_value=100),
    interrupts=st.integers(min_value=0, max_value=100),
    decodes=st.integers(min_value=0, max_value=100),
)

cache_stats = st.builds(
    CacheStats,
    hits=st.integers(min_value=0, max_value=100),
    misses=st.integers(min_value=0, max_value=100),
    disk_hits=st.integers(min_value=0, max_value=100),
    evictions=st.integers(min_value=0, max_value=100),
    corrupt=st.integers(min_value=0, max_value=100),
)

classifications = st.sampled_from(
    ["masked", "recovered", "sdc", "detected", "hang"]
)

metrics = st.builds(
    CampaignMetrics,
    runs=st.integers(min_value=0, max_value=100),
    profile=profiles,
    classifications=counters(classifications),
    difftest=counters(st.sampled_from(["cases", "pairs.engine"])),
    cache=cache_stats,
    plan_cache=counters(st.sampled_from(["hits", "misses"])),
)


# ----------------------------------------------------------------------
class TestProfileMergeLaws:
    @given(a=profiles, b=profiles)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert merge_profiles(a, b) == merge_profiles(b, a)

    @given(a=profiles)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, a):
        empty = SimProfile()
        assert merge_profiles(a, empty) == a
        assert merge_profiles(empty, a) == a

    @given(a=profiles, b=profiles, c=profiles)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, a, b, c):
        left = merge_profiles(merge_profiles(a, b), c)
        right = merge_profiles(a, merge_profiles(b, c))
        assert left == right

    @given(a=profiles, b=profiles)
    @settings(max_examples=30, deadline=None)
    def test_merge_is_pure(self, a, b):
        before = a.to_json()
        merge_profiles(a, b)
        assert a.to_json() == before

    @given(a=profiles, b=profiles)
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip_commutes_with_merge(self, a, b):
        merged = merge_profiles(a, b)
        assert SimProfile.from_json(merged.to_json()) == merged


class TestMetricsMergeLaws:
    @given(a=metrics, b=metrics)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        assert a.merge(b).to_json() == b.merge(a).to_json()

    @given(a=metrics)
    @settings(max_examples=40, deadline=None)
    def test_identity(self, a):
        assert a.merge(CampaignMetrics()).to_json() == a.to_json()

    @given(a=metrics, b=metrics, c=metrics)
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        assert a.merge(b).merge(c).to_json() == a.merge(b.merge(c)).to_json()

    @given(parts=st.lists(metrics, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_merged_fold_equals_pairwise(self, parts):
        rollup = CampaignMetrics()
        for part in parts:
            rollup = rollup.merge(part)
        assert CampaignMetrics.merged(parts).to_json() == rollup.to_json()

    @given(a=metrics)
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, a):
        assert CampaignMetrics.from_json(a.to_json()).to_json() == a.to_json()

    @given(a=cache_stats, b=cache_stats)
    @settings(max_examples=30, deadline=None)
    def test_cache_stats_merge_sums_fields(self, a, b):
        merged = a + b
        assert merged.hits == a.hits + b.hits
        assert merged.probes() == a.probes() + b.probes()
        assert (a + CacheStats()).to_json() == a.to_json()
        assert merged - b == a
        assert CacheStats.from_json(merged.to_json()) == merged


# ----------------------------------------------------------------------
class TestShardByteIdentity:
    """--jobs shard rollups must equal the serial rollup byte for byte."""

    SOURCE = """
    put addr,100
    load v,addr
    add v,v,1
    stor v,addr
    exit v
    """
    MEMORY = {100: 41}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("build", [build_hm1, build_cm1],
                             ids=["HM1", "CM1"])
    def test_sharded_equals_serial(self, seed, build):
        machine = build()
        kwargs = dict(
            n=8, seed=seed, memory=self.MEMORY, collect_metrics=True,
        )
        serial = run_campaign(
            self.SOURCE, "yalll", machine, jobs=1, **kwargs
        )
        sharded = run_campaign(
            self.SOURCE, "yalll", machine, jobs=2, **kwargs
        )
        serial_json = json.dumps(
            serial.to_json(), sort_keys=True, indent=2
        )
        sharded_json = json.dumps(
            sharded.to_json(), sort_keys=True, indent=2
        )
        assert serial_json == sharded_json
        assert serial.metrics.runs == len(serial.outcomes) + 1

    def test_metrics_off_keeps_json_unchanged(self, hm1):
        campaign = run_campaign(
            self.SOURCE, "yalll", hm1, n=3, seed=0, memory=self.MEMORY,
        )
        assert campaign.metrics is None
        assert "metrics" not in campaign.to_json()

    def test_add_run_accumulates(self):
        rollup = CampaignMetrics()
        profile = SimProfile(instructions=5, busy_cycles=9)
        rollup.add_run(profile, classification="masked",
                       plan_cache={"hits": 4, "misses": 1})
        rollup.add_run(profile, classification="sdc")
        assert rollup.runs == 2
        assert rollup.profile.instructions == 10
        assert int(rollup.classifications.get("masked")) == 1
        assert int(rollup.plan_cache.get("hits")) == 4
        text = rollup.render()
        assert "2 runs" in text and "masked=1" in text
