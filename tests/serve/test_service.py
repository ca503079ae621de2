"""End-to-end service behaviour over a real socket.

One chaos-enabled service (module-scoped, see conftest) serves every
test here; each test asserts one slice of the request lifecycle —
routing, validation, admission, deadline propagation, health and
metrics exposition, drain.
"""

import asyncio
import threading
import time

import pytest

from repro.registry import language_names
from repro.serve import ReproService, ServeConfig
from repro.serve.http import Request
from tests.serve.conftest import ADD_SRC, WEDGE_SRC


class TestRouting:
    def test_unknown_route_is_404_with_directory(self, service):
        status, body = service.request("GET", "/nope")
        assert status == 404
        assert "/compile" in body["routes"]
        assert "/healthz" in body["routes"]

    def test_wrong_method_is_405(self, service):
        status, body = service.request("GET", "/compile")
        assert status == 405

    def test_bad_json_body_is_400(self, service):
        import http.client

        connection = http.client.HTTPConnection(*service.address,
                                                timeout=30)
        try:
            connection.request("POST", "/compile", body="not json{")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()


class TestValidation:
    def test_missing_source(self, service):
        status, body = service.request("POST", "/compile",
                                       {"lang": "yalll"})
        assert status == 400
        assert body["error"] == "missing_source"

    def test_unknown_lang_names_the_registry(self, service):
        status, body = service.request(
            "POST", "/compile", {"source": ADD_SRC, "lang": "cobol"}
        )
        assert status == 400
        assert body["error"] == "unknown_lang"
        assert "yalll" in body["detail"]

    def test_unknown_machine(self, service):
        status, body = service.request(
            "POST", "/compile",
            {"source": ADD_SRC, "lang": "yalll", "machine": "PDP-99"},
        )
        assert status == 400
        assert body["error"] == "unknown_machine"

    def test_bad_deadline(self, service):
        status, body = service.request(
            "POST", "/run",
            {"source": ADD_SRC, "lang": "yalll", "deadline_s": -1},
        )
        assert status == 400
        assert body["error"] == "bad_deadline"

    @pytest.mark.parametrize("deadline", [float("nan"), "nan", "NaN"])
    def test_nan_deadline_is_refused(self, service, deadline):
        # Admitted, NaN ran with no budget and echoed a bare NaN token.
        status, body = service.request(
            "POST", "/run",
            {"source": ADD_SRC, "lang": "yalll", "deadline_s": deadline},
        )
        assert status == 400
        assert body["error"] == "bad_deadline"

    def test_infinite_deadline_clamps_to_the_cap(self, service):
        status, body = service.request(
            "POST", "/run",
            {"source": ADD_SRC, "lang": "yalll",
             "deadline_s": float("inf")},
        )
        assert status == 200 and body["status"] == "ok"
        assert body["deadline_s"] == service.config.max_deadline_s

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["batch_window_ms", "default_deadline_s", "max_deadline_s"]
    )
    def test_config_refuses_non_finite_times(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    def test_chaos_rejected_unless_enabled(self):
        # Unit-level: default config refuses chaos fields outright.
        plain = ReproService(ServeConfig())
        from repro.serve.http import HttpError

        with pytest.raises(HttpError) as info:
            plain._validate(
                {"source": ADD_SRC, "lang": "yalll", "chaos": {}},
                "run",
            )
        assert info.value.code == "chaos_disabled"


class TestLifecycle:
    def test_compile_round_trip(self, service):
        status, body = service.request(
            "POST", "/compile", {"source": ADD_SRC, "lang": "yalll"}
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["result"]["n_words"] >= 1
        assert body["result"]["machine"] == "HM1"
        assert "yalll" in language_names()

    def test_run_round_trip(self, service):
        status, body = service.request(
            "POST", "/run",
            {"source": ADD_SRC, "lang": "yalll", "show": ["a"]},
        )
        assert status == 200
        assert body["status"] == "ok"
        assert body["result"]["exit_value"] == 5
        assert body["result"]["registers"]["a"] == 5

    def test_campaign_round_trip(self, service):
        status, body = service.request(
            "POST", "/campaign",
            {"source": ADD_SRC, "lang": "yalll", "n": 6, "seed": 3},
        )
        assert status == 200
        assert body["status"] == "ok"
        counts = body["result"]["counts"]
        assert sum(counts.values()) == 6

    def test_deadline_propagates_to_simulator_as_504(self, service):
        status, body = service.request(
            "POST", "/run",
            {
                "source": WEDGE_SRC,
                "lang": "yalll",
                "deadline_s": 0.3,
                "max_cycles": 2_000_000_000,
            },
        )
        assert status == 504
        assert body["status"] == "timeout"
        assert body["where"] == "simulator"
        assert body["error"]["kind"] == "deadline"

    def test_healthz_shape(self, service):
        status, body = service.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body["queue"]) == {"compile", "run", "campaign"}
        for entry in body["queue"].values():
            assert {"active", "limit"} <= set(entry)
        assert body["pool"]["workers"] == 2
        assert "restarts" in body["pool"]
        assert "breakers" in body

    def test_metrics_exposition(self, service):
        service.request(
            "POST", "/compile", {"source": ADD_SRC, "lang": "yalll"}
        )
        status, text = service.request("GET", "/metrics")
        assert status == 200
        assert "repro_serve_requests_total" in text
        assert "repro_serve_queue_depth" in text
        assert "repro_serve_pool_events_total" in text


class TestAdmission:
    def test_class_limit_sheds_with_typed_429(self, tmp_path):
        from repro.serve import ServiceRunner

        config = ServeConfig(
            workers=1,
            class_limits={"compile": 8, "run": 1, "campaign": 8},
            shed_campaigns_at=1.0,
            enable_chaos=True,
            cache_dir=str(tmp_path / "cache"),
        )
        with ServiceRunner(config) as runner:
            # Pin the single run slot with a wedged request...
            slow = threading.Thread(
                target=runner.request,
                args=("POST", "/run"),
                kwargs={"payload": {
                    "source": ADD_SRC, "lang": "yalll",
                    "chaos": {"sleep_s": 3},
                    "deadline_s": 10,
                }},
            )
            slow.start()
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    _, health = runner.request("GET", "/healthz")
                    if health["queue"]["run"]["active"] >= 1:
                        break
                    time.sleep(0.02)
                status, body = runner.request(
                    "POST", "/run",
                    {"source": ADD_SRC, "lang": "yalll"},
                )
            finally:
                slow.join(timeout=30)
        assert status == 429
        assert body["error"] == "overloaded"
        assert body["class"] == "run"
        assert body["shed_policy"] == "class_limit"
        assert body["retry_after_s"] == 1

    def test_campaigns_shed_first_compiles_survive(self, tmp_path):
        from repro.serve import ServiceRunner

        config = ServeConfig(
            workers=2,
            enable_chaos=True,
            class_limits={"compile": 8, "run": 8, "campaign": 8},
            shed_campaigns_at=0.01,  # any load puts us in degrade mode
            cache_dir=str(tmp_path / "cache"),
        )
        with ServiceRunner(config) as runner:
            slow = threading.Thread(
                target=runner.request,
                args=("POST", "/run"),
                kwargs={"payload": {
                    "source": ADD_SRC, "lang": "yalll",
                    "chaos": {"sleep_s": 3},
                    "deadline_s": 10,
                }},
            )
            slow.start()
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    _, health = runner.request("GET", "/healthz")
                    if health["queue"]["run"]["active"] >= 1:
                        break
                    time.sleep(0.02)
                campaign_status, campaign_body = runner.request(
                    "POST", "/campaign",
                    {"source": ADD_SRC, "lang": "yalll", "n": 4},
                )
                compile_status, compile_body = runner.request(
                    "POST", "/compile",
                    {"source": ADD_SRC, "lang": "yalll"},
                )
            finally:
                slow.join(timeout=30)
        assert campaign_status == 429
        assert campaign_body["shed_policy"] == "campaigns_first"
        assert compile_status == 200
        assert compile_body["status"] == "ok"


class TestDedup:
    def test_dedup_key_tracks_every_result_field(self):
        from repro.serve.jobs import dedup_key

        base = {"op": "run", "source": ADD_SRC, "lang": "yalll"}
        assert dedup_key(dict(base)) == dedup_key(dict(base))
        # show changes the response's registers block -> new identity.
        assert dedup_key({**base, "show": ["a"]}) != dedup_key(base)
        # deadline tolerance is the one excluded field: a follower may
        # wait longer than the leader yet share the result.
        assert dedup_key({**base, "deadline_s": 9}) == dedup_key(base)

    def test_identical_inflight_runs_share_one_execution(self, tmp_path):
        from repro.serve import ServiceRunner

        config = ServeConfig(
            workers=1,
            enable_chaos=True,
            cache_dir=str(tmp_path / "cache"),
        )
        payload = {
            "source": ADD_SRC, "lang": "yalll", "show": ["a"],
            "chaos": {"sleep_s": 1.5}, "deadline_s": 10,
        }
        with ServiceRunner(config) as runner:
            results = []
            leader = threading.Thread(
                target=lambda: results.append(
                    runner.request("POST", "/run", payload)
                )
            )
            leader.start()
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    _, health = runner.request("GET", "/healthz")
                    if health["queue"]["run"]["active"] >= 1:
                        break
                    time.sleep(0.02)
                follower_status, follower_body = runner.request(
                    "POST", "/run", dict(payload)
                )
            finally:
                leader.join(timeout=30)
            _, health = runner.request("GET", "/healthz")
            _, exposition = runner.request("GET", "/metrics")
        leader_status, leader_body = results[0]
        assert leader_status == follower_status == 200
        assert leader_body["result"] == follower_body["result"]
        assert leader_body["result"]["registers"]["a"] == 5
        # One admission, two terminal responses, one coalesced.
        requests = health["requests"]
        assert requests["accepted"]["run"] == 1
        assert requests["completed"]["run"] == 2
        assert requests["dedup"]["run"] == 1
        assert 'repro_serve_dedup_total{class="run"} 1' in exposition


class TestDrain:
    def test_draining_route_answers_503(self):
        # The drain branch guards connections accepted before the
        # listener closed; drive _route directly with a fake writer.
        service = ReproService(ServeConfig())
        service._draining = True

        class FakeWriter:
            def __init__(self):
                self.data = b""

            def write(self, chunk):
                self.data += chunk

            async def drain(self):
                pass

        writer = FakeWriter()
        request = Request(method="POST", path="/compile")
        asyncio.run(service._route(request, writer))
        assert b"HTTP/1.1 503" in writer.data
        assert b"Retry-After: 5" in writer.data
        assert service.metrics.drained_rejects == 1

    def test_stop_drains_and_closes_socket(self, tmp_path):
        import socket

        from repro.serve import ServiceRunner

        config = ServeConfig(
            workers=1, cache_dir=str(tmp_path / "cache")
        )
        runner = ServiceRunner(config).start()
        port = runner.port
        status, _ = runner.request(
            "POST", "/compile", {"source": ADD_SRC, "lang": "yalll"}
        )
        assert status == 200
        runner.stop(drain=True)
        with pytest.raises(OSError):
            probe = socket.create_connection(
                ("127.0.0.1", port), timeout=1
            )
            probe.close()
