"""Per-rule fixtures: every rule ID fires on its trigger, not on near-misses."""

from __future__ import annotations

import pytest

from repro.lint import RULES, Report, iter_rules, rule_table, run_lint
from repro.lint.rules import Rule, register_rule


def rule_ids(report: Report) -> list[str]:
    """The unwaived rule IDs present in a report."""
    return sorted({finding.rule for finding in report.unwaived()})


class TestRegistry:
    def test_every_advertised_rule_is_registered(self):
        expected = {
            "DET001", "DET002", "DET003", "ERR001",
            "FLW001", "FLW002", "FLW003", "FLW004",
            "WVR001", "WVR002", "SYN001",
        }
        assert set(RULES) == expected

    def test_unknown_rule_id_raises_instead_of_linting_nothing(self, tmp_path):
        path = tmp_path / "scratch.py"
        path.write_text("import time\n\ndef f():\n    return time.time()\n")
        with pytest.raises(
            ValueError,
            match=r"^unknown rule id\(s\): NOPE999; known: DET001, .*, WVR002$",
        ):
            run_lint([path], rules=["DET001", "NOPE999"])

    def test_iter_rules_is_sorted_by_id(self):
        ids = [rule.id for rule in iter_rules()]
        assert ids == sorted(ids)

    def test_rule_table_rows_are_complete(self):
        for row in rule_table():
            assert set(row) == {"id", "title", "severity", "rationale"}
            assert row["id"] and row["title"] and row["rationale"]
            assert row["severity"] in ("error", "warning")

    def test_duplicate_rule_id_is_rejected(self):
        class Clash(Rule):
            id = "DET001"

        with pytest.raises(ValueError, match="duplicate lint rule id"):
            register_rule(Clash)


class TestWallClockDET001:
    def test_time_time_fires(self, lint_source):
        report = lint_source(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids(report) == ["DET001"]
        (finding,) = report.unwaived()
        assert "wall-clock" in finding.message
        assert finding.line == 5

    def test_datetime_now_and_uuid4_fire(self, lint_source):
        report = lint_source(
            """
            import uuid
            from datetime import datetime

            def f():
                return datetime.now(), uuid.uuid4()
            """
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["DET001", "DET001"]

    def test_os_urandom_via_alias_fires(self, lint_source):
        report = lint_source(
            """
            import os as operating_system

            def f():
                return operating_system.urandom(8)
            """
        )
        assert rule_ids(report) == ["DET001"]

    def test_perf_counter_is_allowed(self, lint_source):
        report = lint_source(
            """
            import time

            def duration(started):
                return time.perf_counter() - started
            """
        )
        assert report.unwaived() == ()

    def test_local_object_named_time_is_not_resolved(self, lint_source):
        # ``clock.time()`` on a parameter must not resolve to ``time.time``.
        report = lint_source(
            """
            def f(clock):
                return clock.time()
            """
        )
        assert report.unwaived() == ()


class TestRngConstructionDET002:
    def test_random_random_constructor_fires(self, lint_source):
        report = lint_source(
            """
            import random

            def f(seed):
                return random.Random(seed)
            """
        )
        assert rule_ids(report) == ["DET002"]
        assert "sanctioned derivation sites" in report.unwaived()[0].message

    def test_numpy_default_rng_fires_without_importing_numpy(self, lint_source):
        # Resolution is purely static — the fixture never imports NumPy.
        report = lint_source(
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        )
        assert rule_ids(report) == ["DET002"]

    def test_module_global_draw_fires(self, lint_source):
        report = lint_source(
            """
            import random

            def f():
                return random.random()
            """
        )
        assert rule_ids(report) == ["DET002"]
        assert "module-global RNG" in report.unwaived()[0].message

    def test_draw_from_passed_generator_is_allowed(self, lint_source):
        report = lint_source(
            """
            def f(rng):
                return rng.random() + rng.randint(0, 3)
            """
        )
        assert report.unwaived() == ()

    def test_repro_util_rng_module_is_sanctioned(self, fake_package):
        root = fake_package(
            "repro.util.rng",
            """
            import random

            def derive(seed):
                return random.Random(seed)
            """,
        )
        report = run_lint([root], rules=["DET002"])
        assert report.unwaived() == ()


class TestUnorderedIterationDET003:
    def test_for_loop_over_set_parameter_fires(self, lint_source):
        report = lint_source(
            """
            def f(nodes: set):
                for node in nodes:
                    print(node)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_for_loop_over_set_literal_local_fires(self, lint_source):
        report = lint_source(
            """
            def f():
                faulty = {3, 1, 2}
                for node in faulty:
                    print(node)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_self_attribute_bound_to_set_fires(self, lint_source):
        report = lint_source(
            """
            class Tracker:
                def __init__(self, nodes):
                    self._faulty = set(nodes)

                def walk(self):
                    for node in self._faulty:
                        print(node)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_list_freezing_a_set_fires(self, lint_source):
        report = lint_source(
            """
            def f(nodes: frozenset):
                return list(nodes)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_sorted_iteration_is_the_fix(self, lint_source):
        report = lint_source(
            """
            def f(nodes: set):
                for node in sorted(nodes):
                    print(node)
                return sorted(nodes)
            """
        )
        assert report.unwaived() == ()

    def test_order_insensitive_consumers_are_allowed(self, lint_source):
        report = lint_source(
            """
            def f(nodes: set):
                total = sum(n for n in nodes)
                if any(n > 3 for n in nodes):
                    return max(nodes), len(nodes), total
                return min(n + 1 for n in nodes)
            """
        )
        assert report.unwaived() == ()

    def test_dict_iteration_is_exempt(self, lint_source):
        # Python dicts are insertion-ordered; only set/frozenset are hazards.
        report = lint_source(
            """
            def f(states: dict):
                for node in states:
                    print(node)
                return list(states)
            """
        )
        assert report.unwaived() == ()

    def test_rule_is_scoped_to_hot_path_modules(self, fake_package):
        root = fake_package(
            "coolpkg.reporting",
            """
            def f(nodes: set):
                for node in nodes:
                    print(node)
            """,
        )
        report = run_lint([root], rules=["DET003"])
        assert report.unwaived() == ()


class TestBareRaiseERR001:
    def test_type_error_raise_fires(self, lint_source):
        report = lint_source(
            """
            def build(name, registry):
                if name not in registry:
                    raise KeyError(name)
                raise TypeError("bad parameters")
            """
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["ERR001", "ERR001"]

    def test_parameter_error_is_the_contract(self, lint_source):
        report = lint_source(
            """
            from repro.core.errors import ParameterError

            def build(name, registry):
                if name not in registry:
                    raise ParameterError(f"unknown component {name!r}")
                raise ValueError("unrelated errors stay allowed")
            """
        )
        assert report.unwaived() == ()

    def test_rule_is_scoped_to_registry_modules(self, fake_package):
        root = fake_package(
            "coolpkg.helpers",
            """
            def f(mapping, key):
                raise KeyError(key)
            """,
        )
        report = run_lint([root], rules=["ERR001"])
        assert report.unwaived() == ()


class TestSyntaxSYN001:
    def test_unparseable_file_is_a_finding_not_a_crash(self, lint_source):
        report = lint_source("def broken(:\n")
        (finding,) = report.unwaived()
        assert finding.rule == "SYN001"
        assert report.exit_code() == 1
