"""The service's request counters, checked against a reference model.

A hypothesis state machine drives a live :class:`ReproService` whose
pool runs an in-test handler in place of ``execute_lanes`` (patched
onto ``repro.serve.service`` while the service is built, as
``tests/test_supervisor.py`` hands its pool a handler), so nothing
compiles or simulates.  Rules submit compiles, runs and campaigns,
duplicate a held run so followers attach to it, put a patient follower
behind a tight leader, fill the run class until it sheds, push total
load past ``shed_campaigns_at`` so campaigns shed, and send malformed
requests.  Whenever the service is idle its ``/healthz`` counters must
equal the model's tallies, and per class
``completed == accepted + dedup``.
"""

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro.serve.service as service_module
from repro.obs import CampaignMetrics
from repro.serve import ServeConfig, ServiceRunner

CLASSES = ("compile", "run", "campaign")
#: How long a held run keeps its worker: long enough for the rule to
#: send its followers while the run is still in flight.
HOLD_S = 0.3
#: run class bound, and total load (of 8) at which campaigns shed.
RUN_LIMIT = 2
CLASS_LIMITS = {"compile": 4, "run": RUN_LIMIT, "campaign": 2}
SHED_CAMPAIGNS_AT = 0.25
#: One rollup block, as a campaign response with metrics carries it.
METRICS_BLOCK = CampaignMetrics(runs=1).to_json()


def model_lanes(lanes, *, cache_dir=None):
    """Answer every lane as its job asks, after its longest hold."""
    time.sleep(max(job.get("hold_s", 0) for _, job, _, _ in lanes))
    responses = []
    for ticket_id, job, _, _ in lanes:
        if job.get("fail"):
            outcome = {"status": "error",
                       "error": {"type": "Planned", "message": "fail"}}
        elif job["op"] == "campaign" and job.get("metrics") \
                and job.get("with_metrics"):
            outcome = {"status": "ok", "result": {"metrics": METRICS_BLOCK}}
        else:
            outcome = {"status": "ok", "result": {"op": job["op"]}}
        responses.append((ticket_id, outcome))
    return responses


MALFORMED = (
    [1],
    {"lang": "yalll"},
    {"source": "x", "lang": "cobol"},
    {"source": "x", "lang": "yalll", "machine": "PDP-11"},
    {"source": "x", "lang": "yalll", "deadline_s": -1},
    {"source": "x", "lang": "yalll", "chaos": {"kill_on_attempts": [0]}},
)


class ServiceModel(RuleBasedStateMachine):
    @initialize(collect_metrics=st.booleans())
    def start(self, collect_metrics):
        self.collect_metrics = collect_metrics
        config = ServeConfig(
            workers=2, class_limits=dict(CLASS_LIMITS),
            shed_campaigns_at=SHED_CAMPAIGNS_AT,
            collect_metrics=collect_metrics,
        )
        self.runner = ServiceRunner(config)
        real = service_module.execute_lanes
        service_module.execute_lanes = model_lanes
        try:
            self.runner.start()
        finally:
            service_module.execute_lanes = real
        self.accepted, self.completed = Counter(), Counter()
        self.dedup, self.shed, self.statuses = Counter(), Counter(), Counter()
        self.bad_requests = 0
        self.folds = 0
        self.serial = 0
        self.threads = ThreadPoolExecutor(max_workers=4)

    def teardown(self):
        self.threads.shutdown(wait=True)
        self.runner.stop()

    # ------------------------------------------------------------------
    def _payload(self, **fields):
        """A request body no earlier request shares (no accidental
        dedup) unless the caller reuses it."""
        self.serial += 1
        return {"source": f"prog {self.serial}", "lang": "yalll", **fields}

    def _post(self, path, payload):
        return self.runner.request("POST", path, payload, timeout=30)

    def _executed(self, job_class, status, code, outcome="ok"):
        """One admitted request that ran to ``outcome``."""
        assert status == code, (status, job_class)
        self.accepted[job_class] += 1
        self.completed[job_class] += 1
        self.statuses[outcome] += 1

    def _wait_active(self, job_class, count):
        give_up = time.monotonic() + 10
        while time.monotonic() < give_up:
            _, health = self.runner.request("GET", "/healthz")
            if health["queue"][job_class]["active"] >= count:
                return
            time.sleep(0.002)
        raise AssertionError(f"{count} {job_class} never in flight")

    # ------------------------------------------------------------------
    @rule(fail=st.booleans())
    def compile(self, fail):
        status, _ = self._post("/compile", self._payload(fail=fail))
        self._executed("compile", status, 400 if fail else 200,
                       "error" if fail else "ok")

    @rule(fail=st.booleans())
    def run(self, fail):
        status, _ = self._post("/run", self._payload(fail=fail))
        self._executed("run", status, 400 if fail else 200,
                       "error" if fail else "ok")

    @rule(with_metrics=st.booleans(), fail=st.booleans())
    def campaign(self, with_metrics, fail):
        status, body = self._post("/campaign", self._payload(
            with_metrics=with_metrics, fail=fail,
        ))
        self._executed("campaign", status, 400 if fail else 200,
                       "error" if fail else "ok")
        if not fail and with_metrics and self.collect_metrics:
            assert body["result"]["metrics"] == METRICS_BLOCK
            self.folds += 1

    @rule(followers=st.integers(1, 3))
    def duplicate_runs(self, followers):
        payload = self._payload(hold_s=HOLD_S)
        leader = self.threads.submit(self._post, "/run", payload)
        self._wait_active("run", 1)
        attached = [self.threads.submit(self._post, "/run", payload)
                    for _ in range(followers)]
        bodies = [future.result(timeout=30)[1]["result"]
                  for future in attached]
        status, body = leader.result(timeout=30)
        self._executed("run", status, 200)
        assert bodies == [body["result"]] * followers
        self.dedup["run"] += followers
        self.completed["run"] += followers
        self.statuses["ok"] += followers

    @rule()
    def patient_follower(self):
        payload = self._payload(hold_s=HOLD_S)
        leader = self.threads.submit(
            self._post, "/run", {**payload, "deadline_s": 5},
        )
        self._wait_active("run", 1)
        # The leader's remaining 5 s cannot cover a 30 s budget, so the
        # follower is admitted and runs on its own.
        status, _ = self._post("/run", {**payload, "deadline_s": 30})
        self._executed("run", status, 200)
        self._executed("run", leader.result(timeout=30)[0], 200)

    @rule(runs=st.integers(0, 2), campaigns=st.integers(0, 2))
    def overload(self, runs, campaigns):
        held = [
            self.threads.submit(
                self._post, "/run", self._payload(hold_s=HOLD_S),
            )
            for _ in range(RUN_LIMIT)
        ]
        self._wait_active("run", RUN_LIMIT)
        # The run class is full, and total load (2 of 8) is past
        # shed_campaigns_at: both shed without reaching the pool.
        for path, job_class, count in (("/run", "run", runs),
                                       ("/campaign", "campaign", campaigns)):
            for _ in range(count):
                status, body = self._post(path, self._payload())
                assert status == 429 and body["class"] == job_class, body
                self.shed[job_class] += 1
        for future in held:
            self._executed("run", future.result(timeout=30)[0], 200)

    @rule(payload=st.sampled_from(MALFORMED))
    def malformed(self, payload):
        status, body = self._post("/run", payload)
        assert status == 400, body
        self.bad_requests += 1

    # ------------------------------------------------------------------
    @invariant()
    def counters_match_the_model(self):
        if not hasattr(self, "runner"):
            return
        _, health = self.runner.request("GET", "/healthz")
        requests = health["requests"]
        assert all(queue["active"] == 0
                   for queue in health["queue"].values())
        for job_class in CLASSES:
            assert requests["completed"].get(job_class, 0) == (
                requests["accepted"].get(job_class, 0)
                + requests["dedup"].get(job_class, 0)
            )
        assert requests["accepted"] == dict(self.accepted)
        assert requests["completed"] == dict(self.completed)
        assert requests["dedup"] == dict(self.dedup)
        assert requests["shed"] == dict(self.shed)
        assert requests["statuses"] == dict(self.statuses)
        assert requests["bad_requests"] == self.bad_requests
        assert requests["campaign_folds"] == self.folds


ServiceModel.TestCase.settings = settings(
    max_examples=12, stateful_step_count=6, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
TestServiceModel = ServiceModel.TestCase
