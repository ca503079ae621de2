"""Content-addressed compile cache (repro.cache).

Covers the addressing scheme (machine fingerprints, option
partitioning), the two tiers (in-memory LRU + on-disk pickles), the
observability events, front-end integration across all five
languages, and the campaign acceptance criterion: a 100-scenario
single-program campaign compiles once and hits ≥90% of probes.
"""

import pickle

import pytest

from repro.cache import (
    CacheStats,
    CompileCache,
    compile_key,
    machine_fingerprint,
)
from repro.faults.campaign import run_campaign
from repro.lang.empl import compile_empl
from repro.lang.mpl import compile_mpl
from repro.lang.simpl import compile_simpl
from repro.lang.sstar import compile_sstar
from repro.lang.yalll import compile_yalll
from repro.machine.machines import get_machine
from repro.obs.tracer import Tracer

YALLL_SRC = """
    put total,0
    put counter,5
loop:
    add total,total,counter
    sub counter,counter,1
    jump loop if nonzero
    exit total
"""

SIMPL_SRC = """
program t;
begin
    R1 + R2 -> R3;
end
"""


class TestAddressing:
    def test_fingerprint_is_descriptive_not_identity(self):
        a = get_machine("HM1")
        b = get_machine("HM1")
        assert a is not b
        assert machine_fingerprint(a) == machine_fingerprint(b)

    def test_fingerprint_differs_across_machines(self):
        prints = {
            name: machine_fingerprint(get_machine(name))
            for name in ("HM1", "CM1", "VAXm", "VM1")
        }
        assert len(set(prints.values())) == len(prints)

    def test_key_partitions_on_every_input(self):
        machine = get_machine("HM1")
        base = compile_key(YALLL_SRC, "yalll", machine, {"optimize": True})
        assert compile_key(
            YALLL_SRC, "yalll", machine, {"optimize": True}
        ) == base
        assert compile_key(
            YALLL_SRC + " ", "yalll", machine, {"optimize": True}
        ) != base
        assert compile_key(
            YALLL_SRC, "mpl", machine, {"optimize": True}
        ) != base
        assert compile_key(
            YALLL_SRC, "yalll", get_machine("CM1"), {"optimize": True}
        ) != base
        assert compile_key(
            YALLL_SRC, "yalll", machine, {"optimize": False}
        ) != base

    def test_option_order_is_canonical(self):
        machine = get_machine("HM1")
        assert compile_key(
            YALLL_SRC, "yalll", machine, {"a": 1, "b": 2}
        ) == compile_key(YALLL_SRC, "yalll", machine, {"b": 2, "a": 1})


class TestTiers:
    def test_memory_hit_returns_same_object(self):
        machine = get_machine("HM1")
        cache = CompileCache()
        first = compile_yalll(YALLL_SRC, machine, cache=cache)
        second = compile_yalll(YALLL_SRC, machine, cache=cache)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_different_options_miss(self):
        machine = get_machine("HM1")
        cache = CompileCache()
        compile_yalll(YALLL_SRC, machine, cache=cache)
        compile_yalll(YALLL_SRC, machine, cache=cache, optimize=False)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_lru_eviction_is_bounded(self):
        machine = get_machine("HM1")
        cache = CompileCache(capacity=2)
        sources = [YALLL_SRC + f"\n; v{i}" for i in range(4)]
        for source in sources:
            compile_yalll(source, machine, cache=cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        # Oldest entries are gone: recompiling source 0 misses again.
        compile_yalll(sources[0], machine, cache=cache)
        assert cache.stats.misses == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)

    def test_disk_tier_survives_a_new_cache(self, tmp_path):
        machine = get_machine("HM1")
        warm = CompileCache(disk_dir=tmp_path)
        built = compile_yalll(YALLL_SRC, machine, cache=warm)
        assert list(tmp_path.glob("*.pkl"))
        cold = CompileCache(disk_dir=tmp_path)
        restored = compile_yalll(YALLL_SRC, machine, cache=cold)
        assert cold.stats.disk_hits == 1
        assert cold.stats.hits == 1  # disk promotion counts as a hit
        assert restored.loaded.words == built.loaded.words

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        machine = get_machine("HM1")
        warm = CompileCache(disk_dir=tmp_path)
        compile_yalll(YALLL_SRC, machine, cache=warm)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"not a pickle")
        cold = CompileCache(disk_dir=tmp_path)
        result = compile_yalll(YALLL_SRC, machine, cache=cold)
        assert cold.stats.misses == 1
        assert result.loaded.words

    def test_results_pickle_roundtrip(self):
        machine = get_machine("HM1")
        result = compile_yalll(YALLL_SRC, machine)
        clone = pickle.loads(pickle.dumps(result))
        assert clone.loaded.words == result.loaded.words

    def test_clear_keeps_disk(self, tmp_path):
        machine = get_machine("HM1")
        cache = CompileCache(disk_dir=tmp_path)
        compile_yalll(YALLL_SRC, machine, cache=cache)
        cache.clear()
        assert len(cache) == 0
        compile_yalll(YALLL_SRC, machine, cache=cache)
        assert cache.stats.disk_hits == 1


class TestObservability:
    def test_hit_and_miss_events(self):
        machine = get_machine("HM1")
        tracer = Tracer()
        cache = CompileCache(tracer=tracer)
        compile_yalll(YALLL_SRC, machine, cache=cache, tracer=tracer)
        compile_yalll(YALLL_SRC, machine, cache=cache, tracer=tracer)
        names = [e.name for e in tracer.events if e.cat == "cache"]
        assert names.count("cache.miss") == 1
        assert names.count("cache.hit") == 1

    def test_stats_json(self):
        stats = CacheStats(hits=9, misses=1)
        payload = stats.to_json()
        assert payload["hit_rate"] == 0.9
        assert payload["hits"] == 9


class TestFrontEnds:
    """Every language front end honours ``cache=``."""

    def test_all_five_languages_hit(self):
        machine = get_machine("HM1")
        cache = CompileCache()
        calls = [
            lambda: compile_yalll(YALLL_SRC, machine, cache=cache),
            lambda: compile_simpl(SIMPL_SRC, machine, cache=cache),
            lambda: compile_mpl(SIMPL_SRC, machine, cache=cache),
            lambda: compile_sstar(
                "program t;\nvar a : seq [15..0] bit bind R1;\n"
                "begin\n  a := 1\nend",
                machine, cache=cache,
            ),
            lambda: compile_empl(
                "DECLARE A FIXED;\nA = 2;", machine, cache=cache
            ),
        ]
        for call in calls:
            first = call()
            assert call() is first
        assert cache.stats.misses == len(calls)
        assert cache.stats.hits == len(calls)


class TestCampaignHitRate:
    def test_one_probe_per_campaign(self):
        """A campaign compiles once, however many scenarios it runs:
        one probe and one miss; a second campaign on the same cache is
        one hit."""
        machine = get_machine("HM1")
        cache = CompileCache()
        result = run_campaign(
            YALLL_SRC, "yalll", machine, n=100, seed=11, jobs=1,
            cache=cache,
        )
        assert len(result.outcomes) == 100
        assert (cache.stats.probes(), cache.stats.misses) == (1, 1)
        again = run_campaign(
            YALLL_SRC, "yalll", machine, n=100, seed=11, jobs=1,
            cache=cache,
        )
        assert (cache.stats.probes(), cache.stats.hits) == (2, 1)
        assert again.to_json() == result.to_json()


class TestCorruptEviction:
    """A bad on-disk entry is evicted on first failed read (PR 5 fix)."""

    def _poison(self, tmp_path) -> list:
        machine = get_machine("HM1")
        warm = CompileCache(disk_dir=tmp_path)
        compile_yalll(YALLL_SRC, machine, cache=warm)
        paths = list(tmp_path.glob("*.pkl"))
        for path in paths:
            # Truncate mid-stream: pickle.load raises, not returns.
            path.write_bytes(path.read_bytes()[:20])
        return paths

    def test_truncated_pickle_is_unlinked_and_counted(self, tmp_path):
        paths = self._poison(tmp_path)
        cold = CompileCache(disk_dir=tmp_path)
        result = compile_yalll(YALLL_SRC, get_machine("HM1"), cache=cold)
        assert result.loaded.words
        assert cold.stats.corrupt == 1
        assert cold.stats.misses == 1
        assert cold.stats.to_json()["corrupt"] == 1
        # The poisoned file is gone and was rewritten by the recompile.
        for path in paths:
            assert path.read_bytes()[:2] != b"no"
        # A third cache re-reads the freshly written entry fine.
        third = CompileCache(disk_dir=tmp_path)
        compile_yalll(YALLL_SRC, get_machine("HM1"), cache=third)
        assert third.stats.disk_hits == 1
        assert third.stats.corrupt == 0

    def test_corrupt_probe_emits_event(self, tmp_path):
        self._poison(tmp_path)
        tracer = Tracer()
        cold = CompileCache(disk_dir=tmp_path)
        compile_yalll(
            YALLL_SRC, get_machine("HM1"), cache=cold, tracer=tracer
        )
        events = [e for e in tracer.events if e.name == "cache.corrupt"]
        assert len(events) == 1
        assert events[0].args["error"] == "UnpicklingError"

    def test_garbage_that_unpickles_but_is_stale(self, tmp_path):
        """Entirely foreign bytes: still evicted, not re-read forever."""
        machine = get_machine("HM1")
        warm = CompileCache(disk_dir=tmp_path)
        compile_yalll(YALLL_SRC, machine, cache=warm)
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"\x00\x01garbage")
        cold = CompileCache(disk_dir=tmp_path)
        compile_yalll(YALLL_SRC, machine, cache=cold)
        assert cold.stats.corrupt == 1
        assert not any(
            p.read_bytes() == b"\x00\x01garbage"
            for p in tmp_path.glob("*.pkl")
        )


class TestKeyCanonicalisation:
    """Nested option values key by value, not insertion order (PR 5 fix)."""

    def test_nested_dict_order_is_canonical(self):
        machine = get_machine("HM1")
        a = {"opts": {"x": 1, "y": [2, {"p": 3, "q": 4}]}, "flag": True}
        b = {"flag": True, "opts": {"y": [2, {"q": 4, "p": 3}], "x": 1}}
        assert compile_key(YALLL_SRC, "yalll", machine, a) == compile_key(
            YALLL_SRC, "yalll", machine, b
        )

    def test_key_stability_under_random_insertion_order(self):
        """Property: any insertion order of equal options, same key."""
        import random

        machine = get_machine("HM1")
        base = {
            "a": {"m": 1, "n": {"deep": [1, 2, 3]}},
            "b": ["x", {"k": 7, "j": 8}],
            "c": 3,
        }
        reference = compile_key(YALLL_SRC, "yalll", machine, base)
        rng = random.Random(0)
        for _ in range(20):
            keys = list(base)
            rng.shuffle(keys)
            shuffled = {}
            for key in keys:
                value = base[key]
                if isinstance(value, dict):
                    inner = list(value)
                    rng.shuffle(inner)
                    value = {k: value[k] for k in inner}
                shuffled[key] = value
            assert compile_key(
                YALLL_SRC, "yalll", machine, shuffled
            ) == reference

    def test_unequal_nested_values_differ(self):
        machine = get_machine("HM1")
        assert compile_key(
            YALLL_SRC, "yalll", machine, {"opts": {"x": 1}}
        ) != compile_key(YALLL_SRC, "yalll", machine, {"opts": {"x": 2}})

    def test_sequence_order_still_matters(self):
        """Lists are ordered data: [1, 2] must not key like [2, 1]."""
        machine = get_machine("HM1")
        assert compile_key(
            YALLL_SRC, "yalll", machine, {"steps": [1, 2]}
        ) != compile_key(YALLL_SRC, "yalll", machine, {"steps": [2, 1]})

    def test_macro_visible_variants_key_apart(self):
        """Machine variants built with different macro-visible sets
        must never share cache entries (their restart analyses differ)."""
        from repro.machine.machines import build_hm1

        plain = build_hm1()
        visible = build_hm1(macro_visible=("R1", "ACC"))
        other = build_hm1(macro_visible=("R2",))
        keys = {
            compile_key(YALLL_SRC, "yalll", m, {"restart_safe": True})
            for m in (plain, visible, other)
        }
        assert len(keys) == 3
