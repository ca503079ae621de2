"""Cross-request micro-batching: gather, demux, chaos, spans, laws.

The contract under test is byte-identity: a request served through a
lockstep batch must produce exactly the response it would have
produced alone — same result block, same error text — with batching
observable only through the ``serve.batch`` counters and obs spans.
"""

import functools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch
from repro.obs.tracer import Tracer
from repro.serve import ServeConfig, ServiceRunner
from repro.serve.jobs import (
    batch_group_key,
    dedup_key,
    execute_job,
    execute_lanes,
    job_key,
    lockstep_refusal,
)
from repro.supervisor import BackoffPolicy, CircuitBreakers, WorkerPool
from tests.pipeline.golden_programs import YALLL_MUL
from tests.serve.conftest import ADD_SRC

FAST_BACKOFF = BackoffPolicy(base_s=0.01, cap_s=0.1, jitter=0.5, seed=7)

#: For service tests that need admitted runs to reach lockstep.
needs_numpy = pytest.mark.skipif(
    not batch.HAVE_NUMPY, reason="numpy missing: admission refuses lockstep"
)


def mul_job(a: int, n: int = 3, **extra) -> dict:
    """One multiply run whose answer (``p = a*n``) names its lane."""
    return {
        "op": "run", "source": YALLL_MUL, "lang": "yalll",
        "set": {"a": a, "n": n}, "show": ["p"], **extra,
    }


#: A job that holds its worker until the test creates the gate file.
GATE_JOB = {"op": "gate"}


def gated_lanes(lanes, *, gate: str, cache_dir: str):
    """:func:`execute_lanes`, except that :data:`GATE_JOB` waits for
    ``gate`` to exist: a worker the test can keep busy, then free."""
    ticket_id, job, _, _ = lanes[0]
    if job == GATE_JOB:
        while not os.path.exists(gate):
            time.sleep(0.001)
        return [(ticket_id, {"status": "ok"})]
    return execute_lanes(lanes, cache_dir=cache_dir)


def wait_until(condition, what: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        time.sleep(0.002)


@pytest.fixture
def make_pool(tmp_path):
    pools = []

    def _make(**kwargs):
        kwargs.setdefault("handler", functools.partial(
            gated_lanes, gate=str(tmp_path / "gate"),
            cache_dir=str(tmp_path / "cache")))
        kwargs.setdefault("backoff", FAST_BACKOFF)
        pool = WorkerPool(kwargs.pop("n_workers", 1), **kwargs)
        pool.start()
        pools.append(pool)
        return pool

    yield _make
    for pool in pools:
        pool.close(drain=False, timeout=10)


def submit_batchable(pool, job, **kwargs):
    # The pool gathers whatever carries a batch key; without numpy the
    # service would have refused the job before it got here.
    refusal = lockstep_refusal(job, lanes=8)
    assert refusal == (None if batch.HAVE_NUMPY else "numpy")
    return pool.submit(
        job, key=job_key(job), batch_key=batch_group_key(job), **kwargs
    )


def submit_lane_mates(pool, tmp_path, jobs, **kwargs) -> list:
    """Queue ``jobs`` as lane-mates behind the one-worker pool's busy
    worker, then free it: the whole group is queued before any of it
    can dispatch, whatever the supervisor's timing."""
    blocker = pool.submit(GATE_JOB, key="gate")
    wait_until(lambda: pool.depth()["inflight"] == 1, "gate never ran")
    futures = [submit_batchable(pool, job, **kwargs) for job in jobs]
    assert pool.depth()["pending"] == len(jobs)
    (tmp_path / "gate").touch()
    assert blocker.result(timeout=60) == {"status": "ok"}
    return futures


class TestPoolBatching:
    def test_gathered_lanes_share_one_flush(self, make_pool, tmp_path):
        pool = make_pool(batch_window_s=0.5, batch_max_lanes=8)
        futures = submit_lane_mates(
            pool, tmp_path, [mul_job(a) for a in range(8)], deadline_s=30
        )
        outcomes = [f.result(timeout=60) for f in futures]
        assert pool.stats.batch_flushes == 1
        assert pool.stats.batch_lanes == 8
        for a, outcome in enumerate(outcomes):
            assert outcome["status"] == "ok"
            scalar = execute_job(
                mul_job(a), budget_s=30,
                cache_dir=str(tmp_path / "scalar-cache"),
            )
            # Byte-identity of the served result (the ``cache`` block
            # is worker-cumulative telemetry, legitimately different).
            assert outcome["result"] == scalar["result"]

    def test_lanes_demux_to_their_own_futures(self, make_pool):
        pool = make_pool(batch_window_s=0.5, batch_max_lanes=8)
        futures = {
            a: submit_batchable(pool, mul_job(a, n=5), deadline_s=30)
            for a in range(6)
        }
        for a, future in futures.items():
            outcome = future.result(timeout=60)
            assert outcome["status"] == "ok"
            assert outcome["result"]["registers"]["p"] == a * 5
            assert outcome["result"]["exit_value"] == a * 5

    def test_max_lanes_one_never_batches(self, make_pool):
        pool = make_pool(batch_window_s=0.5, batch_max_lanes=1)
        futures = [
            pool.submit(mul_job(a), key=job_key(mul_job(a)),
                        deadline_s=30, batch_key=batch_group_key(mul_job(a)))
            for a in range(4)
        ]
        for future in futures:
            assert future.result(timeout=60)["status"] == "ok"
        assert pool.stats.batch_flushes == 0
        assert pool.stats.batch_lanes == 0

    def test_distinct_group_keys_never_share_a_flush(self, make_pool):
        pool = make_pool(batch_window_s=0.3, batch_max_lanes=8)
        add = {"op": "run", "source": ADD_SRC, "lang": "yalll"}
        futures = [
            submit_batchable(pool, mul_job(a), deadline_s=30)
            for a in range(2)
        ]
        futures += [
            submit_batchable(pool, dict(add, show=["a"]), deadline_s=30),
        ]
        outcomes = [f.result(timeout=60) for f in futures]
        assert [o["status"] for o in outcomes] == ["ok"] * 3
        assert outcomes[0]["result"]["registers"]["p"] == 0
        assert outcomes[2]["result"]["registers"]["a"] == 5
        # The add job must not have ridden in the mul batch.
        assert pool.stats.batch_lanes <= 2

    def test_window_expiry_flushes_partial_group(self, make_pool,
                                                 tmp_path):
        pool = make_pool(batch_window_s=0.05, batch_max_lanes=8)
        futures = submit_lane_mates(
            pool, tmp_path, [mul_job(a) for a in range(2)], deadline_s=30
        )
        outcomes = [f.result(timeout=60) for f in futures]
        assert [o["status"] for o in outcomes] == ["ok", "ok"]
        # Two lanes were all that arrived inside the window; the group
        # flushed without waiting for the other six.
        assert pool.stats.batch_flushes == 1
        assert pool.stats.batch_lanes == 2


class TestBatchSpans:
    def test_gather_and_execute_spans_carry_lane_counts(self, make_pool,
                                                        tmp_path):
        tracer = Tracer()
        pool = make_pool(
            batch_window_s=0.3, batch_max_lanes=4, tracer=tracer
        )
        futures = submit_lane_mates(
            pool, tmp_path, [mul_job(a) for a in range(4)], deadline_s=30
        )
        for future in futures:
            assert future.result(timeout=60)["status"] == "ok"
        by_name = {}
        for event in tracer.events:
            by_name.setdefault(event.name, []).append(event)
        gathers = by_name.get("serve.batch.gather", [])
        executes = by_name.get("serve.batch.execute", [])
        assert len(gathers) == 1 and len(executes) == 1
        assert gathers[0].args["lanes"] == 4
        assert executes[0].args["lanes"] == 4
        assert gathers[0].cat == "serve"
        assert executes[0].dur >= 0


class TestChaosMidBatch:
    def test_worker_killed_mid_batch_resolves_every_lane(
        self, make_pool, tmp_path
    ):
        lanes = 6
        pool = make_pool(
            batch_window_s=0.5, batch_max_lanes=lanes,
            breakers=CircuitBreakers(strikes=100),
            max_requeues=4,
        )
        # Enough loop trips that the batch is still running when the
        # worker dies under it.
        jobs = [mul_job(a, n=30_000) for a in range(lanes)]
        futures = submit_lane_mates(pool, tmp_path, jobs, deadline_s=120)
        wait_until(lambda: pool.depth()["inflight"] == lanes,
                   "batch never dispatched")
        pool._workers[0].process.kill()
        outcomes = [f.result(timeout=120) for f in futures]
        terminal = {"ok", "timeout", "error",
                    "quarantined", "crashed", "shutdown"}
        assert all(o["status"] in terminal for o in outcomes)
        # Generous breaker + retry budget: every re-queued lane must
        # re-execute to the same bytes a scalar run produces.
        assert pool.stats.crashes >= 1
        for job, outcome in zip(jobs, outcomes):
            assert outcome["status"] == "ok"
            scalar = execute_job(
                job, budget_s=120,
                cache_dir=str(tmp_path / "rerun-cache"),
            )
            assert outcome["result"] == scalar["result"]


class TestServiceBatching:
    def _flood(self, runner, count, n=50):
        def post(a):
            return runner.request(
                "POST", "/run", mul_job(a, n=n), timeout=60
            )

        with ThreadPoolExecutor(max_workers=count) as pool:
            return list(pool.map(post, range(count)))

    @needs_numpy
    def test_flood_batches_and_matches_scalar_bytes(self, tmp_path):
        batched_config = ServeConfig(
            workers=2, batch_window_ms=150.0, batch_max_lanes=8,
            cache_dir=str(tmp_path / "batched-cache"), seed=11,
        )
        scalar_config = ServeConfig(
            workers=2, batch_max_lanes=1,
            cache_dir=str(tmp_path / "scalar-cache"), seed=11,
        )
        with ServiceRunner(batched_config) as batched:
            responses = self._flood(batched, 12)
            _, health = batched.request("GET", "/healthz")
        with ServiceRunner(scalar_config) as scalar:
            serial = [
                scalar.request("POST", "/run", mul_job(a, n=50),
                               timeout=60)
                for a in range(12)
            ]
        assert all(status == 200 for status, _ in responses)
        assert health["pool"]["batch_lanes"] >= 2
        assert health["pool"]["batch_flushes"] >= 1
        for (_, body), (_, serial_body) in zip(responses, serial):
            assert body["result"] == serial_body["result"]

    def test_explicit_deadline_refuses_batching(self, tmp_path):
        config = ServeConfig(
            workers=1, batch_window_ms=50.0, batch_max_lanes=8,
            cache_dir=str(tmp_path / "cache"),
        )
        with ServiceRunner(config) as runner:
            status, body = runner.request(
                "POST", "/run", mul_job(1, deadline_s=30)
            )
            _, health = runner.request("GET", "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert health["requests"]["batch_refused"].get("deadline") == 1
        assert health["pool"]["batch_lanes"] == 0

    @needs_numpy
    def test_metrics_expose_batch_family(self, tmp_path):
        config = ServeConfig(
            workers=2, batch_window_ms=150.0, batch_max_lanes=8,
            cache_dir=str(tmp_path / "cache"),
        )
        with ServiceRunner(config) as runner:
            self._flood(runner, 8)
            runner.request("POST", "/run", mul_job(99, deadline_s=30))
            _, document = runner.request("GET", "/metrics")
        assert 'repro_serve_batch_total{kind="flushes"}' in document
        assert 'repro_serve_batch_total{kind="lanes"}' in document
        assert 'repro_serve_batch_total{kind="refused"} 1' in document
        assert ('repro_serve_batch_refused_total{reason="deadline"} 1'
                in document)

    def test_missing_numpy_refuses_at_admission(self, tmp_path,
                                                monkeypatch):
        """Without numpy no run may wait out the gather window for a
        batch ``run_cases`` would refuse: admission refuses it first."""
        monkeypatch.setattr(batch, "HAVE_NUMPY", False)
        config = ServeConfig(
            workers=1, batch_window_ms=150.0, batch_max_lanes=8,
            cache_dir=str(tmp_path / "cache"),
        )
        with ServiceRunner(config) as runner:
            responses = self._flood(runner, 6, n=5)
            _, health = runner.request("GET", "/healthz")
            _, document = runner.request("GET", "/metrics")
        assert all(status == 200 for status, _ in responses)
        assert [body["result"]["exit_value"] for _, body in responses] == [
            5 * a for a in range(6)
        ]
        assert health["requests"]["batch_refused"] == {"numpy": 6}
        assert ('repro_serve_batch_refused_total{reason="numpy"} 6'
                in document)
        assert health["pool"]["batch_flushes"] == 0
        assert health["pool"]["batch_lanes"] == 0


class TestDedupDeadlineSafety:
    def test_patient_follower_never_attaches_to_tight_leader(
        self, tmp_path
    ):
        config = ServeConfig(
            workers=2, enable_chaos=True,
            cache_dir=str(tmp_path / "cache"),
            kill_grace_s=0.3, breaker_strikes=100,
            retry_base_s=0.01, retry_cap_s=0.1,
        )
        # Identical payloads except the deadline (which dedup_key
        # excludes): the leader wedges past its tiny budget and times
        # out; the patient follower's own budget comfortably covers
        # the wedge, so attaching would hand it a timeout it did not
        # earn.
        payload = {
            "op": "run", "source": ADD_SRC, "lang": "yalll",
            "show": ["a"], "chaos": {"sleep_s": 1.0},
        }
        with ServiceRunner(config) as runner:
            results = {}

            def post(name, deadline):
                results[name] = runner.request(
                    "POST", "/run", dict(payload, deadline_s=deadline),
                    timeout=60,
                )

            leader = threading.Thread(target=post, args=("leader", 0.4))
            leader.start()
            time.sleep(0.15)  # leader is in flight, wedged
            post("follower", 30.0)
            leader.join()
            _, health = runner.request("GET", "/healthz")
        leader_status, leader_body = results["leader"]
        follower_status, follower_body = results["follower"]
        assert leader_status == 504
        assert leader_body["status"] == "timeout"
        assert follower_status == 200
        assert follower_body["status"] == "ok"
        assert follower_body["result"]["registers"]["a"] == 5
        # The follower fell through to normal admission: no coalesce.
        assert health["requests"]["dedup"] == {}
        assert health["requests"]["accepted"]["run"] == 2

    def test_tight_follower_still_attaches_to_patient_leader(
        self, tmp_path
    ):
        config = ServeConfig(
            workers=2, enable_chaos=True,
            cache_dir=str(tmp_path / "cache"),
        )
        payload = {
            "op": "run", "source": ADD_SRC, "lang": "yalll",
            "show": ["a"], "chaos": {"sleep_s": 0.6},
        }
        with ServiceRunner(config) as runner:
            results = {}

            def post(name, deadline):
                results[name] = runner.request(
                    "POST", "/run", dict(payload, deadline_s=deadline),
                    timeout=60,
                )

            leader = threading.Thread(target=post, args=("leader", 30.0))
            leader.start()
            time.sleep(0.15)
            post("follower", 10.0)
            leader.join()
            _, health = runner.request("GET", "/healthz")
        assert results["leader"][0] == 200
        assert results["follower"][0] == 200
        assert (results["follower"][1]["result"]
                == results["leader"][1]["result"])
        assert health["requests"]["dedup"] == {"run": 1}
        assert health["requests"]["accepted"]["run"] == 1


#: Arbitrary JSON-ish payload values: nested dicts are where bare
#: ``repr`` used to bake insertion order into the key.
_VALUES = st.recursive(
    st.integers(min_value=-10, max_value=10)
    | st.text(max_size=4) | st.booleans(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


class TestDedupCanonicalisation:
    @settings(max_examples=60, deadline=None)
    @given(
        options=st.dictionaries(
            st.text(min_size=1, max_size=4), _VALUES,
            min_size=1, max_size=4,
        ),
        mem=st.dictionaries(
            st.text(min_size=1, max_size=3), st.integers(0, 255),
            min_size=1, max_size=4,
        ),
        data=st.data(),
    )
    def test_insertion_order_never_changes_the_key(
        self, options, mem, data
    ):
        job = {
            "op": "run", "source": ADD_SRC, "lang": "yalll",
            "options": options, "mem": mem,
        }
        shuffled_options = dict(data.draw(
            st.permutations(list(options.items()))
        ))
        shuffled_mem = dict(data.draw(
            st.permutations(list(mem.items()))
        ))
        shuffled = dict(data.draw(st.permutations(list({
            **job, "options": shuffled_options, "mem": shuffled_mem,
        }.items()))))
        assert shuffled == job  # same content, different insertion order
        assert dedup_key(shuffled) == dedup_key(job)
        assert batch_group_key(shuffled) == batch_group_key(job)

    def test_show_is_still_key_variant(self):
        base = {"op": "run", "source": ADD_SRC, "lang": "yalll"}
        assert (dedup_key(dict(base, show=["a"]))
                != dedup_key(dict(base, show=["b"])))
        # ...while the batch group key ignores per-lane fields.
        assert (batch_group_key(dict(base, show=["a"]))
                == batch_group_key(dict(base, show=["b"])))

    def test_deadline_is_key_invariant(self):
        base = {"op": "run", "source": ADD_SRC, "lang": "yalll"}
        assert (dedup_key(dict(base, deadline_s=5))
                == dedup_key(base))


class TestCounterLaws:
    def test_completed_accounts_for_accepted_plus_dedup(self, tmp_path):
        config = ServeConfig(
            workers=2, enable_chaos=True,
            cache_dir=str(tmp_path / "cache"),
        )
        shared = {
            "op": "run", "source": ADD_SRC, "lang": "yalll",
            "show": ["a"], "chaos": {"sleep_s": 0.6},
        }
        campaign = {"source": ADD_SRC, "lang": "yalll", "n": 4, "seed": 3}
        with ServiceRunner(config) as runner:
            with ThreadPoolExecutor(max_workers=3) as posters:
                leader = posters.submit(
                    runner.request, "POST", "/run", shared
                )
                time.sleep(0.15)
                followers = [
                    posters.submit(runner.request, "POST", "/run", shared)
                    for _ in range(2)
                ]
                for future in (leader, *followers):
                    status, _ = future.result(timeout=60)
                    assert status == 200
            for _ in range(2):
                status, _ = runner.request("POST", "/campaign", campaign)
                assert status == 200
            status, _ = runner.request("POST", "/compile", {
                "source": ADD_SRC, "lang": "yalll",
            })
            assert status == 200
            _, health = runner.request("GET", "/healthz")
        requests = health["requests"]
        for job_class in ("compile", "run", "campaign"):
            assert requests["completed"].get(job_class, 0) == (
                requests["accepted"].get(job_class, 0)
                + requests["dedup"].get(job_class, 0)
            )
        assert requests["dedup"] == {"run": 2}
        # One fold per executed campaign — dedup never double-folds
        # (dedup is run-class only, pinned by the laws above).
        assert requests["campaign_folds"] == 2
