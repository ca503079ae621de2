"""Campaign harness: golden runs, classification, reproducibility."""

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    FaultPlan,
    campaign_json,
    render_campaign,
    render_matrix,
    run_campaign,
    run_matrix,
    spec,
)

YALLL_ROUND_TRIP = """
put addr,100
load v,addr
add v,v,1
stor v,addr
exit v
"""

SIMPL_ROUND_TRIP = """
program roundtrip;
const ADDR = 100;
begin
    read(ADDR) -> R1;
    R1 + ONE -> R2;
    write(ADDR, R2);
end
"""

MEMORY = {100: 41}

#: Explicit specs HM1 cannot host (137-bit control words, a 4,096-word
#: control store, upper-case register names), with the refusal text.
MALFORMED_SPECS = {
    "bitflip:addr=1,bit=137": "bit 137 outside the 137-bit control word",
    "bitflip:addr=1,bit=-1": "bit -1 outside the 137-bit control word",
    "stuck:reg=r5": "stuck register 'r5' is not a register of HM1",
    "bitflip:addr=99999,bit=3":
        "address 99999 outside the 4096-word control store",
    "bitflip:addr=-1,bit=3": "address -1 outside the 4096-word control store",
}


class TestGoldenRun:
    def test_golden_matches_plain_execution(self, hm1):
        campaign = run_campaign(
            YALLL_ROUND_TRIP, "yalll", hm1, n=0, memory=MEMORY
        )
        assert campaign.golden.exit_value == 42
        assert campaign.golden.traps == 0
        assert campaign.golden.reads >= 1
        assert campaign.golden.writes >= 1
        assert campaign.outcomes == []

    def test_scenarios_all_classified(self, hm1):
        campaign = run_campaign(
            YALLL_ROUND_TRIP, "yalll", hm1, n=20, seed=7, memory=MEMORY
        )
        counts = campaign.counts()
        assert sum(counts.values()) == 20
        assert all(count >= 0 for count in counts.values())

    def test_explicit_plan_overrides_generation(self, hm1):
        plan = FaultPlan(0, (spec("memfault", op="read", nth=1),))
        campaign = run_campaign(
            YALLL_ROUND_TRIP, "yalll", hm1, plan=plan, memory=MEMORY
        )
        [outcome] = campaign.outcomes
        assert outcome.spec == "memfault:op=read,nth=1"
        assert outcome.traps == 1
        assert outcome.classification == "recovered"


class TestReproducibility:
    def test_fixed_seed_campaign_is_byte_identical(self, hm1):
        runs = [
            run_campaign(
                YALLL_ROUND_TRIP, "yalll", hm1, n=25, seed=7, memory=MEMORY
            )
            for _ in range(2)
        ]
        assert campaign_json([runs[0]]) == campaign_json([runs[1]])
        assert render_campaign(runs[0]) == render_campaign(runs[1])

    def test_different_seeds_draw_different_scenarios(self, hm1):
        a = run_campaign(
            YALLL_ROUND_TRIP, "yalll", hm1, n=25, seed=7, memory=MEMORY
        )
        b = run_campaign(
            YALLL_ROUND_TRIP, "yalll", hm1, n=25, seed=8, memory=MEMORY
        )
        assert [o.spec for o in a.outcomes] != [o.spec for o in b.outcomes]

    def test_json_report_carries_no_wall_clock(self, hm1):
        campaign = run_campaign(
            YALLL_ROUND_TRIP, "yalll", hm1, n=5, seed=7, memory=MEMORY
        )
        text = campaign_json([campaign])
        assert "wall" not in text
        assert '"seed": 7' in text


class TestMatrix:
    def test_language_by_machine_matrix(self, hm1, hp300):
        results = run_matrix(
            {"yalll": YALLL_ROUND_TRIP}, [hm1, hp300],
            n=4, seed=7, memory=MEMORY,
        )
        assert {(r.lang, r.machine) for r in results} == {
            ("yalll", "HM1"), ("yalll", "HP300m"),
        }
        table = render_matrix(results)
        assert "yalll" in table and "HM1" in table

    def test_two_languages_one_machine(self, hm1):
        results = run_matrix(
            {"yalll": YALLL_ROUND_TRIP, "simpl": SIMPL_ROUND_TRIP},
            [hm1], n=4, seed=7, memory=MEMORY,
        )
        assert [(r.lang, r.machine) for r in results] == [
            ("simpl", "HM1"), ("yalll", "HM1"),
        ]

    def test_matrix_report_is_deterministic(self, hm1):
        args = ({"yalll": YALLL_ROUND_TRIP}, [hm1])
        kwargs = dict(n=6, seed=7, memory=MEMORY)
        first = campaign_json(run_matrix(*args, **kwargs))
        second = campaign_json(run_matrix(*args, **kwargs))
        assert first == second


class TestExplicitSpecChecks:
    """A spec the machine cannot host is refused before the golden run,
    not classified as a fault outcome."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("text", list(MALFORMED_SPECS))
    def test_malformed_spec_refused(self, hm1, text, jobs, monkeypatch):
        import repro.faults.campaign as campaign_module

        golden = []
        fresh = campaign_module._fresh_simulator
        monkeypatch.setattr(
            campaign_module, "_fresh_simulator",
            lambda *a, **k: golden.append(1) or fresh(*a, **k),
        )
        plan = FaultPlan.from_specs(0, ["storm:period=3", text])
        with pytest.raises(FaultPlanError) as caught:
            run_campaign(YALLL_ROUND_TRIP, "yalll", hm1, plan=plan,
                         memory=MEMORY, jobs=jobs)
        assert str(caught.value) == MALFORMED_SPECS[text]
        assert golden == []

    def test_edge_of_every_range_accepted(self, hm1):
        plan = FaultPlan.from_specs(0, [
            "bitflip:addr=0,bit=0", "bitflip:addr=4095,bit=136",
            "stuck:reg=R5,value=1",
        ])
        campaign = run_campaign(YALLL_ROUND_TRIP, "yalll", hm1, plan=plan,
                                memory=MEMORY)
        assert len(campaign.outcomes) == 3
