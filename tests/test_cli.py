"""The command-line interface."""

import json

import pytest

from repro.cli import main

YALLL_MUL = """
    put p,0
loop:
    jump out if n = 0
    add p,p,a
    sub n,n,1
    jump loop
out:
    exit p
"""

SSTAR_SWAP = """
program swap;
pre  "x = a and y = b";
post "x = b and y = a";
var x : seq [15..0] bit bind R1;
var y : seq [15..0] bit bind R2;
begin cobegin x := y; y := x coend end
"""


@pytest.fixture
def yalll_file(tmp_path):
    path = tmp_path / "mul.yalll"
    path.write_text(YALLL_MUL)
    return str(path)


class TestCompile:
    def test_listing_printed(self, yalll_file, capsys):
        assert main(["compile", yalll_file, "--lang", "yalll",
                     "--machine", "HM1"]) == 0
        out = capsys.readouterr().out
        assert "control words" in out
        assert "loop:" in out

    def test_unknown_language_rejected(self, yalll_file):
        with pytest.raises(SystemExit):
            main(["compile", yalll_file, "--lang", "cobol"])

    def test_parse_error_is_clean_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.yalll"
        bad.write_text("florble a,b\n")
        assert main(["compile", str(bad), "--lang", "yalll"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_run_with_inputs(self, yalll_file, capsys):
        code = main([
            "run", yalll_file, "--lang", "yalll", "--machine", "HM1",
            "--set", "a=6", "--set", "n=7", "--show", "p",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "exit value: 42" in out
        assert "p = 42" in out

    def test_memory_initialization(self, tmp_path, capsys):
        source = tmp_path / "load.yalll"
        source.write_text("put addr,100\nload v,addr\nexit v\n")
        code = main([
            "run", str(source), "--lang", "yalll",
            "--mem", "100=1234",
        ])
        assert code == 0
        assert "exit value: 1234" in capsys.readouterr().out

    def test_bad_assignment(self, yalll_file, capsys):
        assert main(["run", yalll_file, "--lang", "yalll",
                     "--set", "nonsense"]) == 2


class TestOther:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("HM1", "VAXm", "VM1"):
            assert name in out

    def test_machines_verbose_shows_fields(self, capsys):
        assert main(["machines", "-v"]) == 0
        assert "alu_op" in capsys.readouterr().out

    def test_survey(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "SIMPL" in out and "CHAMIL" in out
        assert "sequential specification" in out

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        good = tmp_path / "swap.sstar"
        good.write_text(SSTAR_SWAP)
        assert main(["verify", str(good)]) == 0
        bad = tmp_path / "bad.sstar"
        bad.write_text(SSTAR_SWAP.replace(
            "cobegin x := y; y := x coend", "begin x := y; y := x end"
        ))
        assert main(["verify", str(bad)]) == 1


class TestLanguages:
    def test_lists_languages_and_machines(self, capsys):
        assert main(["languages"]) == 0
        out = capsys.readouterr().out
        for lang in ("simpl", "empl", "sstar", "yalll", "mpl"):
            assert lang in out
        for machine in ("HM1", "VM1", "VAXm"):
            assert machine in out

    def test_shows_stages_and_capabilities(self, capsys):
        assert main(["languages"]) == 0
        out = capsys.readouterr().out
        assert "parse -> " in out and "-> assemble" in out
        assert "symbolic_variables" in out
        assert "programmer_binding" in out


class TestProfile:
    def run_profile(self, yalll_file, *extra):
        return main([
            "profile", yalll_file, "--lang", "yalll", "--machine", "HM1",
            "--set", "a=3", "--set", "n=50", *extra,
        ])

    def test_hot_trace_report(self, yalll_file, capsys):
        assert self.run_profile(yalll_file) == 0
        out = capsys.readouterr().out
        assert "#1 loop@" in out
        assert "50 iterations" in out
        # Heat report rides along.
        assert "#" in out

    def test_json_output(self, yalll_file, capsys):
        assert self.run_profile(yalll_file, "--json") == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["traces"][0]["iterations"] == 50

    def test_save_and_replay_round_trip(self, yalll_file, tmp_path, capsys):
        saved = tmp_path / "profile.json"
        assert self.run_profile(yalll_file, "--save", str(saved),
                                "--json") == 0
        # Drop the "profile written to ..." notice; keep the JSON.
        live = json.loads(capsys.readouterr().out.split("\n", 1)[1])
        assert main(["profile", "--replay", str(saved), "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        # Cache counters are run artifacts, not analysis — they appear
        # only on live runs and never on replay.
        assert "plan_cache" in live
        assert "plan_cache" not in replayed
        assert "trace_cache" not in replayed
        live.pop("plan_cache", None)
        live.pop("trace_cache", None)
        assert replayed == live

    def test_artifact_exports(self, yalll_file, tmp_path, capsys):
        stacks = tmp_path / "stacks.txt"
        prom = tmp_path / "metrics.prom"
        assert self.run_profile(
            yalll_file, "--flamegraph", str(stacks),
            "--prometheus", str(prom),
        ) == 0
        assert "loop@" in stacks.read_text()
        assert "repro_sim_instructions_total" in prom.read_text()

    def test_requires_file_or_replay(self, capsys):
        assert main(["profile"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_lang_with_file(self, yalll_file, capsys):
        assert main(["profile", yalll_file]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_missing_file_is_clean_failure(self, tmp_path, capsys):
        assert main(["profile", "--replay",
                     str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCampaignMetrics:
    def test_metrics_flag_renders_rollup(self, tmp_path, capsys):
        source = tmp_path / "load.yalll"
        source.write_text(
            "put addr,100\nload v,addr\nadd v,v,1\nexit v\n"
        )
        code = main([
            "campaign", str(source), "--lang", "yalll", "-n", "3",
            "--seed", "0", "--mem", "100=41", "--metrics",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign metrics:" in out
        assert "4 runs" in out  # 3 scenarios + the golden run


class TestDumpAfter:
    def test_single_stage(self, yalll_file, capsys):
        assert main(["compile", yalll_file, "--lang", "yalll",
                     "--dump-after", "regalloc"]) == 0
        out = capsys.readouterr().out
        assert "--- after regalloc ---" in out

    def test_all_stages(self, yalll_file, capsys):
        assert main(["compile", yalll_file, "--lang", "yalll",
                     "--dump-after", "all"]) == 0
        out = capsys.readouterr().out
        for stage in ("parse", "codegen", "legalize", "regalloc",
                      "compose", "assemble"):
            assert f"--- after {stage} ---" in out

    def test_unknown_stage_is_clean_failure(self, yalll_file, capsys):
        assert main(["compile", yalll_file, "--lang", "yalll",
                     "--dump-after", "linking"]) == 2
        assert "no stage named" in capsys.readouterr().err


class TestDeadline:
    """``--deadline-s`` plumbs to ``Simulator.deadline_s`` (serve S21)."""

    WEDGE = """
    put a,1
loop:
    add a,a,1
    jump loop
"""

    def test_run_deadline_is_structured_exit(self, tmp_path, capsys):
        wedge = tmp_path / "wedge.yalll"
        wedge.write_text(self.WEDGE)
        code = main([
            "run", str(wedge), "--lang", "yalll",
            "--deadline-s", "0.2", "--max-cycles", "2000000000",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "simulation limit: kind=deadline" in err

    def test_run_without_deadline_unchanged(self, yalll_file, capsys):
        code = main([
            "run", yalll_file, "--lang", "yalll",
            "--set", "a=6", "--set", "n=7",
        ])
        assert code == 0
        assert "exit value: 42" in capsys.readouterr().out

    def test_faultsim_accepts_deadline(self, tmp_path, capsys):
        source = tmp_path / "load.yalll"
        source.write_text("put addr,100\nload v,addr\nexit v\n")
        code = main([
            "faultsim", str(source), "--lang", "yalll",
            "--fault", "memfault:op=read,nth=1",
            "--mem", "100=1234", "--deadline-s", "30",
        ])
        assert code in (0, 1)  # classified, not a usage error
        assert "memfault" in capsys.readouterr().out


class TestFaultsimSpecChecks:
    """Malformed explicit specs exit 2 with an error, like
    ``memfault:nth=0`` already did, instead of reporting an outcome."""

    @pytest.mark.parametrize("fault", [
        "bitflip:addr=1,bit=137", "bitflip:addr=1,bit=-1", "stuck:reg=r5",
        "bitflip:addr=99999,bit=3", "bitflip:addr=-1,bit=3",
        "memfault:nth=0", "storm:period=0",
    ])
    def test_refused_with_usage_error(self, tmp_path, capsys, fault):
        source = tmp_path / "roundtrip.yalll"
        source.write_text(
            "put addr,100\nload v,addr\nadd v,v,1\nstor v,addr\nexit v\n"
        )
        code = main([
            "faultsim", str(source), "--lang", "yalll", "--mem", "100=41",
            "--fault", fault,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "fault campaign" not in captured.out
