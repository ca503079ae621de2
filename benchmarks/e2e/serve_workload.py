"""``serve``: the HTTP service at its default configuration.

Why: the time goes to HTTP, admission, the worker pool, the batch window
and dedup, with little simulation, so this shows whether the defaults
(5 ms batch window, 8 lanes, 2 workers) pay for themselves.

Load comes from this process: two client threads, so at most two
connections, sharing one request list.  The mix is 70% ``/run`` (corpus
programs with seeded ``set``/``mem``, compile-cache hits after the
warm-up), 25% ``/compile`` (a unique generated program each, so a cold
compile) and 5% ``/campaign`` (``n=8``).

* Fixed-rate rounds are open loop: request ``i`` is due ``i / RATE``
  seconds after the round starts and its latency is timed from that due
  time, so a stall also charges the requests queued behind it.  ``RATE``
  is the highest of 20, 30 and 40 requests/s at which the generator's
  lateness stayed under 50 ms at p99 on 2 vCPUs of an Intel Xeon.
* Closed-loop rounds send each next request as soon as a client is
  free; they give the throughput.

Every response must be 200 and equal a direct ``execute_job`` of the same
payload in this process; ``/run`` exit values must also match the Python
reference.

One operation is one request: ``ops_per_s`` is completed requests per
second in the closed-loop rounds; ``p50_ms``/``tail_ms`` are the
fixed-rate latencies.
"""

from __future__ import annotations

import dataclasses
import http.client
import random
import shutil
import statistics
import threading
import time

import stats
from harness import WORK, Round
from inputs import compile_programs
from repro.difftest.generators import generate_case
from repro.obs.events import PH_COMPLETE, Event
from repro.registry import build_machine, language_names
from repro.serve import ServeConfig, ServiceRunner
from repro.serve.jobs import batch_group_key, dedup_key, execute_job, job_key

#: Requests per second in the fixed-rate rounds (see the module doc).
RATE = 40
FIXED_ROUNDS = 3
CLOSED_ROUNDS = 6
#: Shares of ``seconds`` spent in fixed-rate and closed-loop rounds; the
#: rest goes to set-up, the warm-up round and checking responses.
FIXED_SHARE = 0.5
CLOSED_SHARE = 0.3
#: Closed-loop requests per second on 2 vCPUs of an Intel Xeon; sizes rounds.
CLOSED_RPS = 130
CLIENTS = 2
#: One cycle of the request mix: 14 /run (r), 5 /compile (c) and one
#: /campaign (C).  Every round repeats it, so rounds differ only in their
#: seeded data, never in how many slow requests they happen to draw.
CYCLE = "rrcrrrcrrrcrCrcrrrcr"
CLASS_OF = {"r": "run", "c": "compile", "C": "campaign"}
RUN_SIZES = {"translit": 48, "memcpy": 64, "checksum": 64, "bitcount": 0,
             "strcmp": 48, "fib": 96}
CAMPAIGN_N = 8
GENERATED = ("HM1", "CM1", "VM1")
#: The service's on-disk compile cache, emptied before every set-up.
CACHE_DIR = WORK / "serve-cache"


class ServeWorkload:
    name = "serve"
    #: p90: higher percentiles fall among the slowest EMPL compiles and
    #: campaigns, too few per run to repeat between runs.
    tail_percentile = 90.0

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.runner = None
        self.config_used = ServeConfig()

    def config(self) -> dict:
        return {"rate_rps": RATE, "clients": CLIENTS,
                "fixed_rounds": FIXED_ROUNDS,
                "fixed_requests": self._fixed_requests(),
                "closed_rounds": CLOSED_ROUNDS,
                "closed_requests": self._closed_requests(),
                "cycle": CYCLE, "campaign_n": CAMPAIGN_N,
                "serve_config": {**dataclasses.asdict(self.config_used),
                                 "cache_dir": "<per-run directory>"}}

    def plan(self) -> list[str]:
        return ["fixed"] * FIXED_ROUNDS + ["closed"] * CLOSED_ROUNDS

    def _fixed_requests(self) -> int:
        return self._cycles(RATE * FIXED_SHARE / FIXED_ROUNDS)

    def _closed_requests(self) -> int:
        return self._cycles(CLOSED_RPS * CLOSED_SHARE / CLOSED_ROUNDS)

    def _cycles(self, per_second: float) -> int:
        """Whole mix cycles filling ``per_second * seconds`` requests."""
        if self.smoke:
            return len(CYCLE)
        return len(CYCLE) * max(1, round(per_second * self.seconds
                                         / len(CYCLE)))

    # ------------------------------------------------------------------
    def setup(self, tracer, plan: list[str]) -> None:
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
        CACHE_DIR.mkdir(parents=True)
        self.config_used = ServeConfig(cache_dir=str(CACHE_DIR))
        self.runner = ServiceRunner(self.config_used).start()
        status, _ = self.runner.request("GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"service not healthy: {status}")
        machines = {name: build_machine(name) for name in GENERATED}
        self.programs = compile_programs(machines["HM1"])
        self.machines = machines
        self.inputs = [
            self._requests(index, kind) for index, kind in enumerate(plan)
        ]
        self.expected: dict[str, dict] = {}

    def teardown(self) -> None:
        if self.runner is not None:
            self.runner.stop()
            self.runner = None
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
        self.programs = self.machines = self.inputs = None

    def _compile_payload(self, rng, lang: str, machine: str) -> tuple:
        """A fresh generated program, so the compile is cold."""
        case = generate_case(lang, self.machines[machine],
                             rng.randrange(1 << 30), size=12)
        return {"source": case.source, "lang": lang, "machine": machine}, None

    def _program_payload(self, rng, job_class: str, name: str,
                         nth: int = 0) -> tuple:
        """A corpus program with seeded inputs, and its exit value."""
        program = self.programs[name]
        size = RUN_SIZES[name]
        job = program.make(rng, size // 4 if job_class == "campaign" else size)
        payload = {"source": program.source, "lang": "yalll",
                   "set": job.registers,
                   "mem": {str(a): v for a, v in job.memory.items()}}
        if job_class == "campaign":
            # The plan seed is fixed by position: a hung scenario costs
            # 64 golden runs, so a seeded plan would make the time
            # depend on how many hangs the seed drew.
            payload.update(n=CAMPAIGN_N, seed=nth)
            return payload, None
        payload["show"] = sorted(job.registers)
        return payload, job.exit_value

    def _requests(self, index: int, kind: str) -> list[tuple]:
        """Round ``index``'s requests: ``(class, payload, exit value)``.

        Programs, languages and machines rotate in a fixed order; the
        seed draws the inputs and the generated programs.
        """
        rng = random.Random(f"{self.seed}:serve:{index}")
        programs = sorted(RUN_SIZES)
        if kind == "warmup":
            # One /run per corpus program fills every compile-cache entry.
            return [("run", *self._program_payload(rng, "run", name))
                    for name in programs]
        count = (self._fixed_requests() if kind == "fixed"
                 else self._closed_requests())
        langs = language_names()
        seen = dict.fromkeys(CLASS_OF.values(), 0)
        requests = []
        for slot in range(count):
            job_class = CLASS_OF[CYCLE[slot % len(CYCLE)]]
            nth = seen[job_class]
            seen[job_class] += 1
            if job_class == "compile":
                payload = self._compile_payload(
                    rng, langs[nth % len(langs)],
                    GENERATED[nth // len(langs) % len(GENERATED)],
                )
            else:
                payload = self._program_payload(
                    rng, job_class, programs[nth % len(programs)], nth
                )
            requests.append((job_class, *payload))
        return requests

    # ------------------------------------------------------------------
    def _send(self, requests, *, rate: float | None, tracer) -> list[dict]:
        """Send ``requests`` from ``CLIENTS`` threads; one record each.

        With ``rate`` request ``i`` is due ``i / rate`` s after the start
        (open loop); without it a client sends as soon as it is free.
        """
        records: list[dict | None] = [None] * len(requests)
        cursor = iter(range(len(requests)))
        lock = threading.Lock()
        errors: list[BaseException] = []
        start = time.perf_counter()

        def client() -> None:
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    job_class, payload, _ = requests[index]
                    due = start + (index / rate if rate else 0.0)
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                    traced_at = tracer.now() if tracer.enabled else 0.0
                    sent = time.perf_counter()
                    try:
                        status, body = self.runner.request(
                            "POST", f"/{job_class}", payload, timeout=120,
                        )
                    except (OSError, http.client.HTTPException) as error:
                        status, body = None, repr(error)
                    done = time.perf_counter()
                    if tracer.enabled:
                        # Span objects share one stack per tracer, so
                        # client threads append finished events instead.
                        tracer.emit(Event(
                            name="serve.request", cat="serve",
                            ph=PH_COMPLETE, ts=traced_at,
                            dur=tracer.now() - traced_at,
                            args={"cls": job_class},
                        ))
                    records[index] = {
                        "class": job_class, "status": status, "body": body,
                        "due": due, "sent": sent, "done": done,
                    }
            except BaseException as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return records

    def _expect(self, job: dict, tracer) -> dict:
        """``execute_job`` run here: the response every worker must give."""
        with tracer.span("serve.keys", cls=job["op"]):
            job_key(job)
            coalesce = dedup_key(job)
            batch_group_key(job)
        if coalesce not in self.expected:
            with tracer.span("serve.execute", cls=job["op"]):
                self.expected[coalesce] = execute_job(job)
        return self.expected[coalesce]

    def run_round(self, kind: str, index: int, tracer) -> Round:
        out = Round(kind)
        requests = self.inputs[index]
        before = self._health()
        start = time.perf_counter()
        records = self._send(requests, rate=RATE if kind == "fixed" else None,
                             tracer=tracer)
        wall = time.perf_counter() - start
        after = self._health()
        for _ in range(3):
            with tracer.span("serve.healthz"):
                self.runner.request("GET", "/healthz")
        if kind == "fixed":
            out.latencies_ms = [(r["done"] - r["due"]) * 1e3 for r in records]
        elif kind == "closed":
            out.ops = len(records)
            out.busy_s = wall
        for (job_class, payload, exit_value), record in zip(requests,
                                                            records):
            # The job exactly as the service builds it from the payload.
            job = {**payload, "op": job_class}
            if job_class == "campaign" and self.config_used.collect_metrics:
                job["metrics"] = True
            expected = self._expect(job, tracer)
            body = record["body"]
            ok = (
                record["status"] == 200 and isinstance(body, dict)
                and body.get("status") == "ok"
                and body.get("result") == expected.get("result")
                and (exit_value is None
                     or body["result"]["exit_value"] == exit_value)
            )
            out.check(ok, f"{job_class} request {index}: status "
                          f"{record['status']}, response differs")
        out.data = {
            "records": records,
            "late_ms": [(r["sent"] - r["due"]) * 1e3 for r in records],
            "delta": {key: after[key] - before[key] for key in after},
        }
        return out

    def _health(self) -> dict:
        _, health = self.runner.request("GET", "/healthz")
        requests = health["requests"]
        return {
            "flushes": health["pool"]["batch_flushes"],
            "lanes": health["pool"]["batch_lanes"],
            "requeues": health["pool"]["requeues"],
            "dedup": sum(requests["dedup"].values()),
            "shed": sum(requests["shed"].values()),
        }

    # ------------------------------------------------------------------
    def layers(self, rounds: list[Round], events) -> dict:
        spans = [e for e in events if e.ph == PH_COMPLETE]

        def durations(name, cls=None):
            return [e.dur / 1e3 for e in spans if e.name == name
                    and (cls is None or e.args.get("cls") == cls)]

        rtt = statistics.median(durations("serve.healthz"))
        keys = statistics.median(durations("serve.keys"))
        layers = {"serve.http_rtt_ms_p50": rtt, "serve.keys_ms_p50": keys}
        execute = {}
        for job_class in CLASS_OF.values():
            execute[job_class] = statistics.median(
                durations("serve.execute", job_class)
            )
            layers[f"serve.execute_ms_p50.{job_class}"] = execute[job_class]
        records = [r for round_ in rounds for r in round_.data["records"]]
        layers["serve.wait_ms_p50"] = statistics.median(
            (r["done"] - r["sent"]) * 1e3 - rtt - keys - execute[r["class"]]
            for r in records
        )
        fixed = next(r for r in rounds if r.kind == "fixed")
        for job_class in CLASS_OF.values():
            mine = [(r["done"] - r["due"]) * 1e3
                    for r in fixed.data["records"] if r["class"] == job_class]
            layers[f"serve.{job_class}.p50_ms"] = (
                statistics.median(mine) if mine else 0.0
            )
        delta = {key: sum(r.data["delta"][key] for r in rounds)
                 for key in rounds[0].data["delta"]}
        runs = sum(r["class"] == "run" for r in records)
        layers["serve.batch.lanes_per_flush"] = (
            delta["lanes"] / delta["flushes"] if delta["flushes"] else 0.0
        )
        layers["serve.batch.lane_share"] = delta["lanes"] / max(1, runs)
        layers["serve.dedup_share"] = delta["dedup"] / len(records)
        layers["serve.shed_share"] = delta["shed"] / len(records)
        layers["serve.pool.requeues"] = delta["requeues"]
        layers["serve.generator_late_ms_p99"] = stats.percentile(
            fixed.data["late_ms"], 99
        )
        return layers
