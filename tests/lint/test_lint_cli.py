"""The ``repro lint`` command line, the JSON artifact, and the self-run gate."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import textwrap
from importlib.util import find_spec
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.cli import add_lint_arguments, command_lint
from repro.lint.runner import default_root

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"


def parse_args(*argv: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="repro lint")
    add_lint_arguments(parser)
    return parser.parse_args(list(argv))


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    return env


class TestCommand:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("def f(rng):\n    return rng.random()\n", encoding="utf-8")
        assert command_lint(parse_args(str(path))) == 0
        out = capsys.readouterr().out
        assert "1 files, 0 error(s)" in out

    def test_violation_exits_nonzero_with_rule_id(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text(
            "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
        )
        assert command_lint(parse_args(str(path))) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert f"{path}:4:" in out

    def test_unknown_rule_id_exits_two(self, capsys):
        assert command_lint(parse_args("--rules", "NOPE999")) == 2
        assert "unknown rule id(s): NOPE999" in capsys.readouterr().out

    def test_list_rules_prints_the_table(self, capsys):
        assert command_lint(parse_args("--list-rules")) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET001", "DET003", "ERR001", "FLW004", "WVR001"):
            assert rule_id in out
        for removed in ("DET004", "CAT001", "META001"):
            assert removed not in out

    def test_show_waived_prints_justifications(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: allow[DET001] -- fixture\n",
            encoding="utf-8",
        )
        assert command_lint(parse_args(str(path))) == 0
        assert "(waived: fixture)" not in capsys.readouterr().out
        assert command_lint(parse_args("--show-waived", str(path))) == 0
        assert "(waived: fixture)" in capsys.readouterr().out

    def test_json_artifact_schema(self, tmp_path, capsys):
        source = tmp_path / "dirty.py"
        source.write_text(
            "import time\n\ndef f():\n    return time.time()\n", encoding="utf-8"
        )
        artifact = tmp_path / "findings.json"
        assert command_lint(parse_args("--json", str(artifact), str(source))) == 1
        data = json.loads(artifact.read_text(encoding="utf-8"))
        assert set(data) == {
            "files_scanned", "elapsed_seconds", "roots", "counts", "findings",
        }
        assert data["files_scanned"] == 1
        assert data["counts"] == {"errors": 1, "warnings": 0, "waived": 0}
        (finding,) = data["findings"]
        assert set(finding) == {
            "rule", "path", "line", "column", "message",
            "severity", "waived", "justification",
        }
        assert finding["rule"] == "DET001"
        assert finding["severity"] == "error"


class TestAcceptance:
    """The ISSUE acceptance criteria, end to end through ``python -m repro``."""

    def test_seeded_kernel_violation_is_reported(self, tmp_path):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(
            textwrap.dedent(
                """
                import time

                class SneakyKernel:
                    def forge(self, states):
                        return time.time()
                """
            ),
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(scratch)],
            capture_output=True,
            text=True,
            env=cli_env(),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 1
        assert "DET001" in result.stdout

    def test_shipped_tree_lints_clean_under_strict(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--strict"],
            capture_output=True,
            text=True,
            env=cli_env(),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 error(s), 0 warning(s)" in result.stdout


class TestSelfRun:
    """The linter's own gate on the shipped tree, in-process."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_lint()

    def test_shipped_tree_has_no_unwaived_findings(self, report):
        assert [f.format() for f in report.unwaived()] == []

    def test_every_waiver_in_the_tree_is_justified(self, report):
        for finding in report.waived():
            assert finding.justification, finding.format()

    def test_the_whole_tree_is_actually_scanned(self, report):
        assert report.files_scanned > 50
        assert Path(report.roots[0]) == default_root()

    def test_run_stays_inside_the_time_budget(self, report):
        assert report.elapsed < 10.0


class TestUnifiedCli:
    def test_lint_subcommand_is_mounted(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lint", "--strict", "src/repro"])
        assert args.strict
        assert args.handler is command_lint

    def test_lint_has_no_changed_option(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--changed"])
        assert "unrecognized arguments: --changed" in capsys.readouterr().err

    def test_verify_grows_a_skip_lint_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["verify", "--skip-lint", "trivial:n=4,c=2"]
        )
        assert args.skip_lint


@pytest.mark.skipif(find_spec("mypy") is None, reason="mypy not installed")
def test_mypy_strict_packages_pass():
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "src/repro"],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
