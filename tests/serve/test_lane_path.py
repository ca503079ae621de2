"""One lane path: a ``/run`` answers the same alone and gathered.

Every ``/run`` a worker serves goes through ``execute_batch`` and
``run_cases``: a lone run is a one-lane group.  Each job of the matrix
below runs through :func:`execute_job` alone, with and without a
budget, and again as the middle lane of a gathered
:func:`execute_lanes` group whose other lanes poke, and show, other
registers.  Its ``status``, ``result`` and ``error`` must not change,
and neither may its lane-mates'.  Serve runs without demand paging, so
no trap can fire in a served run; the lanes that peel off a lockstep
batch here are the return-stack overflow and underflow and the cycle
limit.
"""

import pytest

from repro.serve.jobs import (
    BATCH_LANE_FIELDS,
    batch_group_key,
    execute_job,
    execute_lanes,
)
from tests.faults.capture_metrics_pins import ROUNDTRIP
from tests.pipeline.golden_programs import YALLL_MUL
from tests.serve.conftest import WEDGE_SRC

#: Recurses ``n`` calls deep: past 16 the return stack overflows, and
#: unless ``r`` ends at 5 the extra ``ret`` underflows it.
CALL_SRC = """
    put r,0
    call down
    jump out if r = 5
    ret
out:
    exit r
proc down:
    jump back if n = 0
    sub n,n,1
    add r,r,1
    call down
back:
    ret
"""


def run_job(source=YALLL_MUL, **fields) -> dict:
    return {"op": "run", "source": source, "lang": "yalll", **fields}


#: Lane inputs for the lane-mates of a multiply job.
MUL_MATES = ({"set": {"a": 5, "n": 2}, "show": ["p", "n"]},
             {"set": {"a": 1, "n": 7}, "mem": {"100": 4}})

#: name -> (job, its lane-mates' inputs, expected status, error type).
MATRIX = {
    "decoded": (run_job(set={"a": 3, "n": 20}, show=["p"]),
                MUL_MATES, "ok", None),
    "interpretive": (run_job(set={"a": 3, "n": 20}, show=["p"],
                             engine="interpretive"),
                     MUL_MATES, "ok", None),
    "traced": (run_job(set={"a": 3, "n": 20}, show=["p"],
                       engine="traced"),
               MUL_MATES, "ok", None),
    "memory_words": (run_job(set={"a": 2, "n": 2},
                             mem={"0x64": 9, "7": 3}),
                     MUL_MATES, "ok", None),
    "other_machine": (run_job(set={"a": 3, "n": 4}, show=["p"],
                              machine="VM1"),
                      MUL_MATES, "ok", None),
    "cycle_limit": (run_job(WEDGE_SRC, max_cycles=500),
                    ({"set": {"a": 7}}, {"show": ["a"]}),
                    "error", "SimulationLimitError"),
    "stack_overflow": (run_job(CALL_SRC, set={"n": 20}, show=["r"]),
                       ({"set": {"n": 5}, "show": ["r"]},
                        {"set": {"n": 2}}),
                       "error", "SimulationError"),
    "compile_error": (run_job("jump nowhere\n", set={"a": 1}),
                      ({"set": {"a": 2}}, {"show": ["a"]}),
                      "error", "MIRError"),
    "non_integer_set": (run_job(set={"a": "three", "n": 2}),
                        MUL_MATES, "error", "ValueError"),
    "non_integer_mem": (run_job(set={"a": 1, "n": 1}, mem={"100": "x"}),
                        MUL_MATES, "error", "ValueError"),
    "bad_mem_address": (run_job(set={"a": 1, "n": 1}, mem={"zz": 1}),
                        MUL_MATES, "error", "ValueError"),
    "unknown_set_register": (run_job(set={"nope": 1}),
                             MUL_MATES, "error", "MachineError"),
    "unknown_show_register": (run_job(set={"a": 1, "n": 1},
                                      show=["nope"]),
                              MUL_MATES, "error", "SimulationError"),
}


def lane_mate(job: dict, inputs: dict) -> dict:
    """``job`` with its per-lane fields replaced by ``inputs``."""
    shared = {k: v for k, v in job.items() if k not in BATCH_LANE_FIELDS}
    return {**shared, **inputs}


def answer(response: dict) -> dict:
    """The part of a response that is a pure function of the job."""
    return {key: response.get(key) for key in ("status", "result", "error")}


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_a_lane_answers_as_it_does_alone(name):
    job, mates, status, error_type = MATRIX[name]
    group = [lane_mate(job, mates[0]), job, lane_mate(job, mates[1])]
    assert len({batch_group_key(lane) for lane in group}) == 1
    assert len({repr(lane) for lane in group}) == 3

    alone = answer(execute_job(job))
    assert alone["status"] == status
    assert (alone["error"] or {}).get("type") == error_type
    assert answer(execute_job(job, budget_s=30.0)) == alone

    gathered = execute_lanes(
        [(ticket, lane, 0, None) for ticket, lane in enumerate(group)]
    )
    assert [ticket for ticket, _ in gathered] == [0, 1, 2]
    for lane, (_, response) in zip(group, gathered):
        assert answer(response) == answer(execute_job(lane))


def test_campaign_reads_mem_addresses_like_run():
    """``/run`` and ``/campaign`` share one ``mem`` address parser."""
    job = {"op": "campaign", "source": ROUNDTRIP, "lang": "yalll",
           "n": 6, "seed": 7}
    hexed = answer(execute_job({**job, "mem": {"0x64": 41}}))
    assert hexed["status"] == "ok", hexed
    assert hexed == answer(execute_job({**job, "mem": {"100": 41}}))
    assert hexed["result"]["golden"]["exit_value"] == 42
