"""End-to-end tests of the unified ``python -m repro`` CLI."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro._version import __version__
from repro.cli import main
from repro.semantics import ADVERSARY_SEMANTICS, ALGORITHM_SEMANTICS

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


class TestList:
    def test_lists_all_kinds_with_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Algorithms:" in out and "Adversaries:" in out and "Experiments:" in out
        for name in ("figure2", "sampled-boosted", "phase-king-skew", "none", "table1"):
            assert name in out

    def test_model_filter(self, capsys):
        assert main(["list", "algorithms", "--model", "pulling"]) == 0
        out = capsys.readouterr().out
        assert "sampled-boosted" in out
        assert "naive-majority" not in out

    def test_lists_fault_schedules_with_details(self, capsys):
        assert main(["list", "fault-schedules"]) == 0
        out = capsys.readouterr().out
        assert "Fault schedules:" in out
        for name in ("churn", "rolling", "late-adversary"):
            assert name in out
        assert main(["list", "fault-schedules", "--verbose"]) == 0
        verbose = capsys.readouterr().out
        assert "scalar engine only" in verbose
        assert "start" in verbose and "down" in verbose

    def test_fault_schedules_included_in_all(self, capsys):
        assert main(["list", "all"]) == 0
        out = capsys.readouterr().out
        assert "Fault schedules:" in out and "Algorithms:" in out

    def test_lists_every_catalogue_entry_with_its_description(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for catalogue in (ALGORITHM_SEMANTICS, ADVERSARY_SEMANTICS):
            for name, spec in catalogue.items():
                assert any(
                    line.split()[:1] == [name] and spec.description in line
                    for line in lines
                ), name

    def test_model_filter_keeps_every_adversary(self, capsys):
        # Adversaries carry no model, so a model filter never hides one.
        assert main(["list", "adversaries"]) == 0
        unfiltered = capsys.readouterr().out
        assert main(["list", "adversaries", "--model", "pulling"]) == 0
        assert capsys.readouterr().out == unfiltered
        assert main(["list", "algorithms", "--model", "pulling"]) == 0
        rows = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        ]
        assert rows == ["pseudo-random-boosted", "sampled-boosted"]

    def test_batch_notes_blank_without_numpy(self, capsys, monkeypatch):
        assert main(["list", "algorithms"]) == 0
        out = capsys.readouterr().out
        for spec in ALGORITHM_SEMANTICS.values():
            assert f"[batch: {spec.coverage_note()}]" in out
        real_find_spec = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util,
            "find_spec",
            lambda name, *args: None if name == "numpy" else real_find_spec(name, *args),
        )
        assert main(["list"]) == 0
        assert "[batch:" not in capsys.readouterr().out


class TestRun:
    ARGS = [
        "run",
        "naive-majority:n=6,c=3,claimed_resilience=1",
        "--adversary",
        "crash",
        "--faults",
        "1",
        "--runs",
        "2",
        "--max-rounds",
        "60",
        "--stop-after-agreement",
        "5",
        "--quiet",
    ]

    def test_run_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "2 runs (2 executed, 0 resumed, 0 failed)" in out
        assert "Scenario summary" in out

    def test_run_with_store_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "runs.jsonl")
        assert main([*self.ARGS, "--store", store]) == 0
        assert "2 executed, 0 resumed" in capsys.readouterr().out
        assert main([*self.ARGS, "--store", store]) == 0
        assert "0 executed, 2 resumed" in capsys.readouterr().out
        rows = [json.loads(line) for line in open(store, encoding="utf-8") if line.strip()]
        assert len(rows) == 2

    def test_run_pulling_scenario_records_pull_statistics(self, tmp_path, capsys):
        store = str(tmp_path / "pull.jsonl")
        code = main(
            [
                "run",
                "sampled-boosted:sample_size=2",
                "--adversary",
                "crash",
                "--faults",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "30",
                "--stop-after-agreement",
                "5",
                "--quiet",
                "--store",
                store,
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in open(store, encoding="utf-8") if line.strip()]
        assert len(rows) == 2
        assert all(row["model"] == "pulling" for row in rows)
        assert all(row["max_pulls"] and row["max_bits"] for row in rows)

    def test_unknown_algorithm_is_one_line_error(self, capsys):
        assert main(["run", "does-not-exist", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does-not-exist" in err

    def test_unknown_adversary_is_one_line_error(self, capsys):
        assert main(["run", "trivial", "--adversary", "bogus", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown adversary 'bogus'" in err

    def test_unknown_group_by_field_is_rejected_before_running(self, tmp_path, capsys):
        # The same check as `campaign summarize`, made before any run
        # executes: exit 2, one error line, nothing printed or stored.
        store = tmp_path / "runs.jsonl"
        argv = [*self.ARGS, "--group-by", "bogus", "--store", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: unknown --group-by field(s) bogus; valid fields: ")
        assert not store.exists()

    def test_run_with_fault_schedule_reports_recovery(self, tmp_path, capsys):
        store = str(tmp_path / "churn.jsonl")
        code = main(
            [
                "run",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--fault-schedule",
                "churn:start=3,down=2,adversarial=2",
                "--runs",
                "2",
                "--max-rounds",
                "40",
                "--stop-after-agreement",
                "4",
                "--quiet",
                "--store",
                store,
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in open(store, encoding="utf-8") if line.strip()]
        assert len(rows) == 2
        assert all(row["last_perturbation_round"] == 7 for row in rows)
        assert all("recovered" in row for row in rows)

    def test_run_with_loss_and_delay(self, capsys):
        code = main(
            [
                "run",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--loss",
                "0.1",
                "--delay",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "40",
                "--quiet",
            ]
        )
        assert code == 0
        assert "2 runs (2 executed" in capsys.readouterr().out

    def test_fault_schedule_rejected_for_pulling_algorithms(self, capsys):
        code = main(
            [
                "run",
                "sampled-boosted:sample_size=2",
                "--fault-schedule",
                "churn",
                "--quiet",
            ]
        )
        assert code == 2
        assert "broadcast" in capsys.readouterr().err


class TestCampaignMount:
    def test_define_run_resume_summarize(self, tmp_path, capsys):
        spec_path = str(tmp_path / "demo.campaign.json")
        assert (
            main(
                [
                    "campaign",
                    "define",
                    "--name",
                    "demo",
                    "--algorithm",
                    "naive-majority:n=6,c=3,claimed_resilience=1",
                    "--adversary",
                    "crash",
                    "--runs",
                    "2",
                    "--max-rounds",
                    "60",
                    "--stop-after-agreement",
                    "5",
                    "--out",
                    spec_path,
                ]
            )
            == 0
        )
        store_path = str(tmp_path / "demo.jsonl")
        assert main(["campaign", "run", spec_path, "--store", store_path, "--quiet"]) == 0
        assert "2 executed, 0 resumed" in capsys.readouterr().out
        assert (
            main(["campaign", "resume", spec_path, "--store", store_path, "--quiet"]) == 0
        )
        assert "0 executed, 2 resumed" in capsys.readouterr().out
        assert main(["campaign", "summarize", store_path]) == 0
        assert "Campaign summary" in capsys.readouterr().out


class TestOneGridDescription:
    """``repro run`` and ``campaign define`` build their grid with one builder."""

    ALGORITHM = "naive-majority:n=6,c=3,claimed_resilience=1"

    def spec_for(self, command, *flags):
        from repro.campaigns.cli import campaign_from_args
        from repro.cli import build_parser

        if command == "run":
            argv = ["run", self.ALGORITHM, *flags]
        else:
            flags = ["--num-faults" if flag == "--faults" else flag for flag in flags]
            argv = ["campaign", "define", "--name", "x", "--algorithm",
                    self.ALGORITHM, "--out", "unused.json", *flags]
        return campaign_from_args(build_parser().parse_args(argv))

    @pytest.mark.parametrize("command", ["run", "campaign-define"])
    def test_auto_fault_count_is_none(self, command):
        spec = self.spec_for(command, "--faults", "auto", "--faults", "1")
        assert spec.num_faults == (None, 1)

    @pytest.mark.parametrize("command", ["run", "campaign-define"])
    def test_fault_schedule_defaults_to_fault_free_baseline(self, command):
        spec = self.spec_for(command, "--fault-schedule", "churn:start=3,down=2")
        assert spec.fault_schedule == "churn"
        assert spec.fault_schedule_params == (("down", 2), ("start", 3))
        # No --adversary: the schedule owns the faulty set, so the grid runs
        # fault-free baselines.
        assert spec.adversaries == ("none",)
        assert all(run.faulty == () for run in spec.expand())

    def test_default_name_joins_the_algorithms(self, capsys):
        argv = ["run", "trivial", "naive-majority", "--adversary", "none",
                "--runs", "1", "--quiet"]
        assert main(argv) == 0
        assert "scenario 'trivial+naive-majority': 2 runs" in capsys.readouterr().out
        assert main([*argv, "--name", "demo"]) == 0
        assert "scenario 'demo': 2 runs" in capsys.readouterr().out

    def test_run_writes_the_rows_of_define_then_campaign_run(self, tmp_path, capsys):
        flags = ["--adversary", "crash", "--adversary", "random-state", "--runs", "2",
                 "--max-rounds", "60", "--stop-after-agreement", "5", "--seed", "3"]
        direct = tmp_path / "run.jsonl"
        assert main(["run", self.ALGORITHM, "--faults", "1", *flags, "--quiet",
                     "--store", str(direct)]) == 0
        spec_path = tmp_path / "grid.campaign.json"
        assert main(["campaign", "define", "--name", "grid", "--algorithm",
                     self.ALGORITHM, "--num-faults", "1", *flags,
                     "--out", str(spec_path)]) == 0
        defined = tmp_path / "campaign.jsonl"
        assert main(["campaign", "run", str(spec_path), "--store", str(defined),
                     "--quiet"]) == 0
        rows = lambda path: sorted(path.read_text(encoding="utf-8").splitlines())
        assert len(rows(direct)) == 4
        assert rows(direct) == rows(defined)


class TestVerify:
    def test_verify_trivial_counter(self, capsys):
        assert main(["verify", "trivial:c=3"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "3-counter" in out

    def test_verify_rejects_pulling_algorithms(self, capsys):
        assert main(["verify", "sampled-boosted"]) == 2
        assert "broadcast-model" in capsys.readouterr().err

    def test_verify_rejects_unknown_parameters(self, capsys):
        assert main(["verify", "trivial:bogus=1", "--skip-lint"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown parameter(s) 'bogus' for algorithm 'trivial'; "
            "accepted parameters: c (default 2)\n"
        )


ALGORITHMS = (
    "corollary1, figure2, naive-majority, pseudo-random-boosted, "
    "randomized-follow-majority, sampled-boosted, trivial"
)
ADVERSARIES = (
    "adaptive-split, crash, fixed-state, mimic, none, phase-king-skew, "
    "random-state, split-state"
)


class TestErrorLines:
    """Every bad name or parameter ends in exit 2 and one exact ``error:`` line."""

    CASES = {
        "run-unknown-algorithm": (
            ["run", "bogus"],
            f"unknown algorithm 'bogus'; registered algorithms: {ALGORITHMS}",
        ),
        "run-unknown-adversary": (
            ["run", "trivial", "--adversary", "bogus"],
            f"unknown adversary 'bogus'; registered adversaries: {ADVERSARIES}",
        ),
        "run-adversary-as-algorithm": (
            ["run", "crash"],
            "'crash' is an adversary, not an algorithm; "
            f"registered algorithms: {ALGORITHMS}",
        ),
        "run-algorithm-as-adversary": (
            ["run", "trivial", "--adversary", "trivial"],
            "'trivial' is an algorithm, not an adversary; "
            f"registered adversaries: {ADVERSARIES}",
        ),
        "run-unknown-parameter": (
            ["run", "trivial:bogus=1"],
            "unknown parameter(s) 'bogus' for algorithm 'trivial'; "
            "accepted parameters: c (default 2)",
        ),
        "verify-unknown-algorithm": (
            ["verify", "bogus"],
            f"unknown algorithm 'bogus'; registered algorithms: {ALGORITHMS}",
        ),
        "verify-adversary-as-algorithm": (
            ["verify", "crash"],
            "'crash' is an adversary, not an algorithm; "
            f"registered algorithms: {ALGORITHMS}",
        ),
        "verify-pulling-algorithm": (
            ["verify", "sampled-boosted"],
            "verify needs a broadcast-model algorithm with an enumerable state "
            "space; 'sampled-boosted' is a pulling-model algorithm",
        ),
        "campaign-define-unknown-algorithm": (
            ["campaign", "define", "--name", "x", "--algorithm", "bogus"],
            f"unknown algorithm 'bogus'; registered algorithms: {ALGORITHMS}",
        ),
        "campaign-define-unknown-adversary": (
            ["campaign", "define", "--name", "x", "--algorithm", "trivial",
             "--adversary", "bogus"],
            f"unknown adversary 'bogus'; registered adversaries: {ADVERSARIES}",
        ),
        "run-unknown-algorithm-and-adversary": (
            ["run", "bogus", "--adversary", "bogus2"],
            f"unknown algorithm 'bogus'; registered algorithms: {ALGORITHMS}",
        ),
        "run-string-parameter": (
            ["run", "trivial:c=abc"],
            "parameter 'c' of algorithm 'trivial' must be an integer, got 'abc'",
        ),
        "run-null-parameter": (
            ["run", "trivial:c=null"],
            "parameter 'c' of algorithm 'trivial' must be an integer, got None",
        ),
        "run-float-parameter": (
            ["run", "corollary1:f=1.0"],
            "parameter 'f' of algorithm 'corollary1' must be an integer, got 1.0",
        ),
        "run-fractional-parameter": (
            ["run", "trivial:c=2.5"],
            "parameter 'c' of algorithm 'trivial' must be an integer, got 2.5",
        ),
        "run-bool-parameter": (
            ["run", "figure2:levels=true"],
            "parameter 'levels' of algorithm 'figure2' must be an integer, got True",
        ),
        "campaign-define-string-parameter": (
            ["campaign", "define", "--name", "x", "--algorithm", "trivial:c=abc"],
            "parameter 'c' of algorithm 'trivial' must be an integer, got 'abc'",
        ),
        "verify-null-parameter": (
            ["verify", "trivial:c=null", "--skip-lint"],
            "parameter 'c' of algorithm 'trivial' must be an integer, got None",
        ),
        "verify-fractional-parameter": (
            ["verify", "trivial:c=2.5", "--skip-lint"],
            "parameter 'c' of algorithm 'trivial' must be an integer, got 2.5",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact_error_line(self, case, tmp_path, capsys):
        argv, message = self.CASES[case]
        out = tmp_path / "spec.json"
        if argv[0] == "campaign":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestMalformedCampaignFile:
    """A malformed definition file is one ``error:`` line, and no store."""

    CASES = {
        "no-name": (
            {"algorithms": [{"name": "trivial"}]},
            "campaign definition lacks the required key 'name'",
        ),
        "algorithm-without-name": (
            {"name": "x", "algorithms": [{"params": {"c": 3}}]},
            "algorithm entry lacks the required key 'name'",
        ),
        "top-level-list": (
            [{"name": "trivial"}],
            "campaign definition must be a JSON object, got list",
        ),
        "unknown-algorithm": (
            {"name": "x", "algorithms": [{"name": "bogus"}]},
            f"unknown algorithm 'bogus'; registered algorithms: {ALGORITHMS}",
        ),
        "unknown-parameter": (
            {"name": "x", "algorithms": [{"name": "trivial", "params": {"bogus": 1}}]},
            "unknown parameter(s) 'bogus' for algorithm 'trivial'; "
            "accepted parameters: c (default 2)",
        ),
        "params-not-an-object": (
            {"name": "x", "algorithms": [{"name": "trivial", "params": [1, 2]}]},
            "algorithm 'trivial': params must be a JSON object, got [1, 2]",
        ),
        "auto-fault-count": (
            {"name": "x", "algorithms": [{"name": "trivial"}], "num_faults": ["auto"]},
            "campaign 'x': num_faults entry must be an integer or null, got 'auto'",
        ),
        "string-window": (
            {"name": "x", "algorithms": [{"name": "trivial"}],
             "stop_after_agreement": "5"},
            "campaign 'x': stop_after_agreement must be an integer or null, got '5'",
        ),
        "fractional-runs": (
            {"name": "x", "algorithms": [{"name": "trivial"}], "runs_per_setting": 2.5},
            "campaign 'x': runs_per_setting must be an integer, got 2.5",
        ),
        "scalar-fault-count": (
            {"name": "x", "algorithms": [{"name": "trivial"}], "num_faults": 1},
            "campaign 'x': num_faults must be a list, got 1",
        ),
        "string-adversaries": (
            {"name": "x", "algorithms": [{"name": "trivial"}], "adversaries": "crash"},
            "campaign 'x': adversaries must be a list, got 'crash'",
        ),
        "object-algorithms": (
            {"name": "x", "algorithms": {"name": "trivial"}},
            "campaign 'x': algorithms must be a list, got {'name': 'trivial'}",
        ),
        **{
            f"null-{key}": (
                {"name": "x", "algorithms": [{"name": "trivial"}], key: None},
                f"campaign 'x': {key} must be an integer, got None",
            )
            for key in ("min_tail", "seed", "max_rounds", "runs_per_setting", "delay")
        },
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exact_error_line_and_no_store(self, case, tmp_path, capsys):
        data, message = self.CASES[case]
        spec_path = tmp_path / "bad.campaign.json"
        spec_path.write_text(json.dumps(data), encoding="utf-8")
        store = tmp_path / "bad.jsonl"
        argv = ["campaign", "run", str(spec_path), "--store", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not store.exists()

    @pytest.mark.parametrize("case", ["unknown-algorithm", "unknown-parameter"])
    def test_observed_run_writes_no_file(self, case, tmp_path, capsys):
        data, message = self.CASES[case]
        spec_path = tmp_path / "bad.campaign.json"
        spec_path.write_text(json.dumps(data), encoding="utf-8")
        written = [tmp_path / name for name in ("bad.jsonl", "m.json", "e.jsonl")]
        argv = ["campaign", "run", str(spec_path), "--store", str(written[0]),
                "--metrics-out", str(written[1]), "--events-out", str(written[2])]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(path.exists() for path in written)


class TestStoppingFlags:
    """A window or tail every run would reject fails before anything is written."""

    ALGORITHM = "naive-majority:n=6,c=3,claimed_resilience=1"
    CASES = {
        "--stop-after-agreement": ("-1", "stop_after_agreement must be positive, got -1"),
        "--min-tail": ("0", "min_tail must be at least 1, got 0"),
    }

    @pytest.mark.parametrize("flag", sorted(CASES))
    @pytest.mark.parametrize("command", ["run", "campaign-define"])
    def test_rejected_before_anything_is_written(self, command, flag, tmp_path, capsys):
        value, message = self.CASES[flag]
        if command == "run":
            written = tmp_path / "runs.jsonl"
            argv = ["run", self.ALGORITHM, "--runs", "1", "--max-rounds", "10",
                    "--quiet", "--store", str(written)]
        else:
            written = tmp_path / "spec.json"
            argv = ["campaign", "define", "--name", "x", "--algorithm",
                    self.ALGORITHM, "--out", str(written)]
        assert main([*argv, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not written.exists()

    def test_zero_window_still_disables_early_stopping(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        argv = ["campaign", "define", "--name", "x", "--algorithm", self.ALGORITHM,
                "--stop-after-agreement", "0", "--out", str(spec_path)]
        assert main(argv) == 0
        data = json.loads(spec_path.read_text(encoding="utf-8"))
        assert data["stop_after_agreement"] is None


class TestExperimentCounts:
    """A trial count of zero is a one-line error, not a vacuous table."""

    CASES = {
        "table1-trials": ["table1", "--trials", "0"],
        "table1-randomized-trials": ["table1", "--randomized-trials", "0"],
        "table2-trials": ["table2", "--trials", "0"],
        "figure2-trials": ["figure2", "--trials", "0"],
        "scaling-trials": ["scaling", "--trials", "0"],
        "scaling-measured-trials": ["scaling", "--trials", "1", "--measured-trials", "0"],
        "pulling-trials": ["pulling", "--trials", "0"],
        "pulling-link-seeds": ["pulling", "--trials", "1", "--link-seeds", "0"],
        "ablation-trials": ["ablation", "--trials", "0"],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_zero_count_is_rejected(self, case, capsys, monkeypatch):
        if case == "pulling-link-seeds":
            # The Corollary 4 table runs first; skip its simulation, the
            # link-seed check belongs to Corollary 5.
            import repro.experiments.pulling as pulling
            from repro.experiments.common import ExperimentResult

            monkeypatch.setattr(
                pulling, "run_corollary4", lambda **_: ExperimentResult(name="stub")
            )
        assert main(["experiment", *self.CASES[case]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0] in (
            "error: trials must be at least 1, got 0",
            "error: link_seeds must list at least one seed",
        )


class TestExperimentCommands:
    """Every ``repro experiment X`` runs in-process at reduced parameters."""

    CASES = {
        "figure1": [],
        "figure2": ["--trials", "2"],
        "table1": ["--trials", "2", "--randomized-trials", "3"],
        "table2": ["--trials", "4"],
        "scaling": ["--trials", "1", "--measured-trials", "1"],
        "pulling": ["--trials", "1", "--link-seeds", "1"],
        "ablation": ["--trials", "1"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_experiment_prints_its_table(self, name, capsys):
        assert main(["experiment", name, *self.CASES[name]]) == 0
        assert capsys.readouterr().out


class TestOOResilience:
    def test_cli_help_works_under_python_OO(self):
        """Descriptions are explicit strings, so -OO (stripped docstrings) works."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(REPO_SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        for argv in (
            ["-m", "repro", "--help"],
            ["-m", "repro", "experiment", "--help"],
            ["-m", "repro", "experiment", "scaling", "--help"],
            ["-m", "repro", "campaign", "--help"],
        ):
            completed = subprocess.run(
                [sys.executable, "-OO", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr.decode()
