"""The interprocedural flow pass: call graph, lineage lattice, FLW rules."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.context import LintContext, parse_unit
from repro.lint.flow import CallGraph, analyze
from repro.lint.runner import _load_unit, discover_files
from repro.semantics.flowfacts import KernelExpectation, kernel_expectations

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    return env


def unwaived_ids(report):
    return [finding.rule for finding in report.unwaived()]


def context_for(*paths: Path, **overrides) -> LintContext:
    units = [parse_unit(file) for file in discover_files(paths)]
    return LintContext(units=units, **overrides)


def expectation(binding: str, expectation_kind: str = "pure") -> KernelExpectation:
    return KernelExpectation(
        binding=binding,
        kind="algorithm",
        expectation=expectation_kind,
        declared_by=("fixture-entry",),
        root_methods=("step",),
    )


def scalar_adversary_expectation(binding: str) -> KernelExpectation:
    return KernelExpectation(
        binding=binding,
        kind="scalar-adversary",
        expectation="pure",
        declared_by=("fixture-strategy",),
        root_methods=("on_round_start", "forge"),
    )


# ---------------------------------------------------------------------- #
# Call graph
# ---------------------------------------------------------------------- #


class TestCallGraph:
    def test_resolves_self_methods_and_constructor_typed_attrs(self, tmp_path):
        path = tmp_path / "graph.py"
        path.write_text(
            textwrap.dedent(
                """
                class Core:
                    def transition(self, value):
                        return value + 1

                class Wrapper:
                    def __init__(self):
                        self.core = Core()

                    def step(self, value):
                        return self.helper(self.core.transition(value))

                    def helper(self, value):
                        return value
                """
            ),
            encoding="utf-8",
        )
        graph = CallGraph([parse_unit(path)])
        step = graph.functions["<file>graph.Wrapper.step"]
        calls = [
            node
            for node in __import__("ast").walk(step.node)
            if isinstance(node, __import__("ast").Call)
        ]
        resolved = {graph.resolve_call(step, call).qname for call in calls}
        assert resolved == {
            "<file>graph.Wrapper.helper",
            "<file>graph.Core.transition",
        }

    def test_resolves_methods_through_scanned_mro(self, fake_package):
        root = fake_package(
            "mropkg.kernels",
            """
            class Base:
                def step(self, rng):
                    return self.inner(rng)

                def inner(self, rng):
                    return 0

            class Derived(Base):
                def inner(self, rng):
                    return rng.integers(0, 2)
            """,
        )
        graph = CallGraph([parse_unit(root / "kernels.py")])
        derived = graph.classes[("mropkg.kernels", "Derived")]
        # Base.step is reachable on Derived; inner resolves to the override.
        assert graph.resolve_method(derived, "step").qname == (
            "mropkg.kernels.Base.step"
        )
        assert graph.resolve_method(derived, "inner").qname == (
            "mropkg.kernels.Derived.inner"
        )

    def test_to_dict_carries_nodes_and_edges(self, tmp_path):
        path = tmp_path / "tiny.py"
        path.write_text("def f():\n    return g()\n\ndef g():\n    return 1\n")
        context = context_for(path)
        payload = context.flow().to_dict()
        assert {"functions", "classes", "edges", "summaries"} <= set(payload)
        assert payload["edges"]["<file>tiny.f"] == ["<file>tiny.g"]


# ---------------------------------------------------------------------- #
# FLW001 — unknown-lineage draws
# ---------------------------------------------------------------------- #


class TestUnknownLineageFLW001:
    def test_always_draw_on_unknown_value_fires(self, lint_source):
        report = lint_source(
            """
            def f(thing):
                generator = thing.make()
                return generator.getrandbits(8)
            """
        )
        assert unwaived_ids(report) == ["FLW001"]
        assert ".getrandbits()" in report.unwaived()[0].message

    def test_rng_named_receiver_with_ambiguous_method_fires(self, lint_source):
        report = lint_source(
            """
            def f(thing):
                rng = thing.make()
                return rng.choice([1, 2, 3])
            """
        )
        assert unwaived_ids(report) == ["FLW001"]

    def test_ambiguous_method_on_non_rng_receiver_is_silent(self, lint_source):
        # .sample()/.choice() exist on plenty of non-RNG APIs; without a
        # known lineage or an rng-ish name they must not fire.
        report = lint_source(
            """
            def f(population):
                return population.sample(3)
            """
        )
        assert report.unwaived() == ()

    def test_draw_on_parameter_stream_is_allowed(self, lint_source):
        report = lint_source(
            """
            def f(rng):
                return rng.getrandbits(8)
            """
        )
        assert report.unwaived() == ()

    def test_draw_on_derived_stream_is_allowed(self, lint_source):
        report = lint_source(
            """
            from repro.util.rng import derive_rng

            def f(master):
                stream = derive_rng(master, "faults")
                return stream.getrandbits(8)
            """
        )
        assert report.unwaived() == ()

    def test_draw_on_stream_derived_from_a_drawn_base_is_allowed(self, lint_source):
        report = lint_source(
            """
            from repro.util.rng import derivation_base, derive_rng_from_base

            def f(seed):
                base = derivation_base(seed)
                stream = derive_rng_from_base(base, "faults")
                return stream.getrandbits(8)
            """
        )
        assert report.unwaived() == ()

    def test_draw_on_self_attribute_bound_from_parameter(self, lint_source):
        report = lint_source(
            """
            class Runtime:
                def __init__(self, faults_rng):
                    self.rng = faults_rng

                def tick(self):
                    return self.rng.getrandbits(4)
            """
        )
        assert report.unwaived() == ()

    def test_waiver_silences_a_flow_finding(self, lint_source):
        report = lint_source(
            """
            def f(thing):
                generator = thing.make()
                return generator.getrandbits(8)  # repro-lint: allow[FLW001] -- fixture
            """
        )
        assert report.unwaived() == ()
        assert [finding.rule for finding in report.waived()] == ["FLW001"]


# ---------------------------------------------------------------------- #
# FLW002 — cross-plane stream mixing
# ---------------------------------------------------------------------- #


class TestCrossPlaneFLW002:
    def test_faults_stream_into_adversary_slot_fires(self, fake_package):
        root = fake_package(
            "leakpkg.engine",
            """
            from repro.util.rng import derive_rng

            def run(master):
                faults_rng = derive_rng(master, "faults")
                return consume(adversary_rng=faults_rng)

            def consume(adversary_rng=None):
                return adversary_rng
            """,
        )
        report = run_lint([root])
        assert unwaived_ids(report) == ["FLW002"]
        message = report.unwaived()[0].message
        assert "'faults'" in message and "'adversary'" in message

    def test_plane_named_assignment_from_wrong_stream_fires(self, lint_source):
        report = lint_source(
            """
            from repro.util.rng import derive_rng

            def run(master):
                adversary_rng = derive_rng(master, "faults")
                return adversary_rng
            """
        )
        assert unwaived_ids(report) == ["FLW002"]

    def test_stream_from_a_drawn_base_keeps_its_plane(self, lint_source):
        report = lint_source(
            """
            from repro.util.rng import derivation_base, derive_rng_from_base

            def run(seed):
                adversary_rng = derive_rng_from_base(derivation_base(seed), "faults")
                return adversary_rng
            """
        )
        assert unwaived_ids(report) == ["FLW002"]

    def test_matched_planes_are_silent(self, lint_source):
        report = lint_source(
            """
            from repro.network.engine import derive_streams

            def run(master):
                init_rng, adversary_rng = derive_streams(
                    master, "initial-states", "adversary"
                )
                return consume(init_rng=init_rng, adversary_rng=adversary_rng)

            def consume(init_rng=None, adversary_rng=None):
                return init_rng, adversary_rng
            """
        )
        assert report.unwaived() == ()

    def test_positional_argument_mapping_fires(self, lint_source):
        report = lint_source(
            """
            from repro.util.rng import derive_rng

            def run(master):
                return consume(derive_rng(master, "adversary"))

            def consume(faults_rng):
                return faults_rng
            """
        )
        assert unwaived_ids(report) == ["FLW002"]

    def test_near_miss_stream_through_helper_does_not_fire(self, lint_source):
        # The helper's return lineage is unknown (no interprocedural return
        # tracking) — imprecision must err toward silence, not a false leak.
        report = lint_source(
            """
            from repro.util.rng import derive_rng

            def run(master):
                stream = passthrough(derive_rng(master, "faults"))
                return consume(faults_rng=stream)

            def passthrough(rng):
                return rng

            def consume(faults_rng):
                return faults_rng.random()
            """
        )
        assert report.unwaived() == ()

    def test_generic_rng_slot_accepts_any_plane(self, lint_source):
        # run_perturbed_round-style plumbing: a plain `rng` parameter
        # declares no plane, so any stream may flow into it.
        report = lint_source(
            """
            from repro.util.rng import derive_rng

            def run(master):
                faults_rng = derive_rng(master, "faults")
                return step(rng=faults_rng)

            def step(rng=None):
                return rng
            """
        )
        assert report.unwaived() == ()


# ---------------------------------------------------------------------- #
# FLW003 — declared-deterministic kernels must infer RNG-free
# ---------------------------------------------------------------------- #


class TestDeclaredDeterministicFLW003:
    def test_undeclared_draw_in_deterministic_kernel_fires(self, fake_package):
        root = fake_package(
            "detpkg.kernels",
            """
            class QuietBatchKernel:
                def step(self, states, rng):
                    return self._transition(states, rng)

                def _transition(self, states, rng):
                    return rng.integers(0, 3, size=len(states))
            """,
        )
        report = run_lint(
            [root],
            kernel_expectations_override=[
                expectation("detpkg.kernels:QuietBatchKernel")
            ],
        )
        assert unwaived_ids(report) == ["FLW003"]
        message = report.unwaived()[0].message
        # The finding names the full resolved call chain to the draw.
        assert "detpkg.kernels.QuietBatchKernel.step" in message
        assert "detpkg.kernels.QuietBatchKernel._transition" in message
        assert "fixture-entry" in message

    def test_pure_kernel_is_confirmed_silently(self, fake_package):
        root = fake_package(
            "purepkg.kernels",
            """
            class PureBatchKernel:
                def step(self, states, rng):
                    return [state + 1 for state in states]
            """,
        )
        report = run_lint(
            [root],
            kernel_expectations_override=[
                expectation("purepkg.kernels:PureBatchKernel")
            ],
        )
        assert report.unwaived() == ()

    def test_mixed_expectation_is_skipped(self, fake_package):
        # A kernel serving both a deterministic and a randomised catalogue
        # entry cannot be statically proven either way; the empirical
        # semantics selfcheck covers it instead.
        root = fake_package(
            "mixedpkg.kernels",
            """
            class EitherBatchKernel:
                def step(self, states, rng):
                    return rng.integers(0, 3, size=len(states))
            """,
        )
        report = run_lint(
            [root],
            kernel_expectations_override=[
                expectation("mixedpkg.kernels:EitherBatchKernel", "mixed")
            ],
        )
        assert report.unwaived() == ()

    def test_draws_expectation_has_no_purity_obligation(self, fake_package):
        root = fake_package(
            "rndpkg.kernels",
            """
            class NoisyBatchKernel:
                def step(self, states, rng):
                    return rng.integers(0, 3, size=len(states))
            """,
        )
        report = run_lint(
            [root],
            kernel_expectations_override=[
                expectation("rndpkg.kernels:NoisyBatchKernel", "draws")
            ],
        )
        assert report.unwaived() == ()


# ---------------------------------------------------------------------- #
# FLW004 — effect contracts (NullObserver, kernel purity)
# ---------------------------------------------------------------------- #


class TestEffectContractsFLW004:
    def test_null_observer_with_io_fires(self, lint_source):
        report = lint_source(
            """
            class NullObserver:
                def emit(self, event):
                    print(event)
            """
        )
        assert unwaived_ids(report) == ["FLW004"]
        assert "performs IO" in report.unwaived()[0].message

    def test_clean_null_observer_is_silent(self, lint_source):
        report = lint_source(
            """
            class NullObserver:
                def emit(self, event):
                    pass
            """
        )
        assert report.unwaived() == ()

    def test_scratch_kernel_writing_io_fires(self, lint_source):
        report = lint_source(
            """
            class LoggingBatchKernel:
                def step(self, states, rng):
                    print(states)
                    return states
            """
        )
        assert "FLW004" in unwaived_ids(report)

    def test_io_reached_through_call_chain_fires(self, lint_source):
        report = lint_source(
            """
            def report_progress(states):
                print(states)

            class ChattyBatchKernel:
                def step(self, states, rng):
                    report_progress(states)
                    return states
            """
        )
        assert "FLW004" in unwaived_ids(report)


class TestModuleStateFLW004:
    """Module-state writes from catalogue-bound classes, on any path."""

    def test_global_statement_fires(self, lint_source):
        report = lint_source(
            """
            COUNTER = 0

            class ProbeKernel:
                def forge(self):
                    global COUNTER
                    COUNTER = COUNTER + 1
            """
        )
        assert "FLW004" in unwaived_ids(report)

    def test_subscript_write_into_module_state_fires(self, lint_source):
        report = lint_source(
            """
            CACHE = {}

            class ProbeAdversary:
                def forge(self, key):
                    CACHE[key] = 1
            """
        )
        assert unwaived_ids(report) == ["FLW004"]

    def test_mutator_call_on_module_state_fires(self, lint_source):
        report = lint_source(
            """
            SEEN = []

            class ProbeKernel:
                def begin_round(self, r):
                    SEEN.append(r)
            """
        )
        assert unwaived_ids(report) == ["FLW004"]

    def test_instance_state_is_allowed(self, lint_source):
        report = lint_source(
            """
            class ProbeKernel:
                def __init__(self):
                    self.cache = {}
                    self.seen = []

                def begin_round(self, r):
                    self.cache[r] = 1
                    self.seen.append(r)
                    local = []
                    local.append(r)
            """
        )
        assert report.unwaived() == ()

    def test_unbound_class_outside_naming_convention_is_skipped(self, lint_source):
        # Outside a package only *Kernel/*Adversary names are checked.
        report = lint_source(
            """
            REGISTRY = {}

            class Registrar:
                def register(self, name):
                    REGISTRY[name] = self
            """
        )
        assert report.unwaived() == ()

    def test_scope_is_derived_from_catalogue_bindings(self, fake_package):
        root = fake_package(
            "coolpkg.engine",
            """
            STATE = {}

            class Declared:
                def step(self):
                    STATE["hits"] = 1

            class Undeclared:
                def step(self):
                    STATE["hits"] = 1
            """,
        )
        report = run_lint(
            [root],
            rules=["FLW004"],
            kernel_expectations_override=[expectation("coolpkg.engine:Declared")],
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["FLW004"]
        assert findings[0].message.startswith("Declared.step ")

    def test_write_reached_through_a_helper_fires(self, fake_package):
        fake_package(
            "helperpkg.memo",
            """
            _FORGED = []

            def remember(shape):
                _FORGED.append(shape)
            """,
        )
        root = fake_package(
            "helperpkg.kernels",
            """
            from helperpkg.memo import remember

            class StuckBatchKernel:
                def forge(self, shape):
                    remember(shape)
                    return shape
            """,
        )
        report = run_lint(
            [root],
            kernel_expectations_override=[
                expectation("helperpkg.kernels:StuckBatchKernel")
            ],
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["FLW004"]
        assert findings[0].message.startswith(
            "StuckBatchKernel.forge writes module-level state"
        )

    def test_scalar_adversary_class_is_in_scope(self, fake_package):
        root = fake_package(
            "advpkg.adversary",
            """
            SEEN = []

            class StuckAdversary:
                def on_round_start(self, round_index, states, algorithm, rng):
                    SEEN.append(round_index)

                def forge(self, round_index, sender, receiver, states, algorithm, rng):
                    return algorithm.default_state()
            """,
        )
        report = run_lint(
            [root],
            kernel_expectations_override=[
                scalar_adversary_expectation("advpkg.adversary:StuckAdversary")
            ],
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["FLW004"]
        assert findings[0].message.startswith("StuckAdversary.on_round_start ")

    def test_kernel_constructor_is_checked(self, lint_source):
        report = lint_source(
            """
            _REGISTRY = {}

            class FixedBatchKernel:
                def __init__(self, kernel, state=0):
                    _REGISTRY[id(self)] = state
            """
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["FLW004"]
        assert findings[0].message.startswith("FixedBatchKernel.__init__ ")

    def test_numpy_calls_are_not_module_state_writes(self, lint_source):
        report = lint_source(
            """
            import numpy as np

            class ProbeKernel:
                def step(self, states, extra):
                    grown = np.append(states, extra)
                    return np.add(grown, 1)
            """,
            rules=["FLW004"],
        )
        assert report.unwaived() == ()

    def test_from_imported_object_is_module_state(self, lint_source):
        report = lint_source(
            """
            from m import CACHE

            class ProbeKernel:
                def step(self, x):
                    CACHE.append(x)
            """,
            rules=["FLW004"],
        )
        assert unwaived_ids(report) == ["FLW004"]


# ---------------------------------------------------------------------- #
# Effect summaries
# ---------------------------------------------------------------------- #


class TestEffectSummaries:
    def test_draws_propagate_bottom_up_with_witness_chain(self, tmp_path):
        path = tmp_path / "chainmod.py"
        path.write_text(
            textwrap.dedent(
                """
                def outer(rng):
                    return middle(rng)

                def middle(rng):
                    return leaf(rng)

                def leaf(rng):
                    return rng.getrandbits(8)
                """
            ),
            encoding="utf-8",
        )
        analysis = analyze(context_for(path))
        summary = analysis.summaries["<file>chainmod.outer"]
        assert summary.draws_rng
        assert [qname for qname, _ in summary.draw_chain] == [
            "<file>chainmod.outer",
            "<file>chainmod.middle",
            "<file>chainmod.leaf",
        ]

    def test_local_effect_flags(self, tmp_path):
        path = tmp_path / "effects.py"
        path.write_text(
            textwrap.dedent(
                """
                COUNTER = 0

                def writes_global():
                    global COUNTER
                    COUNTER = COUNTER + 1

                def mutates(items):
                    items.append(1)

                def does_io(path):
                    return open(path).read()

                def forwards(rng, helper):
                    return helper(rng)
                """
            ),
            encoding="utf-8",
        )
        analysis = analyze(context_for(path))
        summaries = analysis.summaries
        assert summaries["<file>effects.writes_global"].writes_module_state
        assert summaries["<file>effects.mutates"].mutates_args
        assert summaries["<file>effects.does_io"].performs_io
        assert summaries["<file>effects.forwards"].forwards_rng

    def test_module_state_write_shapes(self, tmp_path):
        path = tmp_path / "shapes.py"
        path.write_text(
            textwrap.dedent(
                """
                import numpy as np
                from registry import TABLE

                CACHE = {}
                SEEN = []

                def stores_subscript(key):
                    CACHE[key] = 1

                def mutates_via_method(r):
                    SEEN.append(r)

                def mutates_imported_object(entries):
                    TABLE.update(entries)

                def calls_numpy(states):
                    return np.append(states, 1)

                def shadows_with_a_parameter(CACHE):
                    CACHE[0] = 1

                def shadows_with_a_local():
                    SEEN = []
                    SEEN.append(1)
                """
            ),
            encoding="utf-8",
        )
        summaries = analyze(context_for(path)).summaries
        writes = {
            qname.rpartition(".")[2]
            for qname, summary in summaries.items()
            if summary.writes_module_state
        }
        assert writes == {
            "stores_subscript",
            "mutates_via_method",
            "mutates_imported_object",
        }

    def test_mutation_propagates_only_through_own_parameters(self, tmp_path):
        path = tmp_path / "mutprop.py"
        path.write_text(
            textwrap.dedent(
                """
                def scribble(items):
                    items.append(1)

                def passes_own(values):
                    scribble(values)

                def passes_local():
                    scribble([])
                """
            ),
            encoding="utf-8",
        )
        analysis = analyze(context_for(path))
        assert analysis.summaries["<file>mutprop.passes_own"].mutates_args
        assert not analysis.summaries["<file>mutprop.passes_local"].mutates_args


# ---------------------------------------------------------------------- #
# The shipped tree: expectations are theorems, not samples
# ---------------------------------------------------------------------- #


class TestShippedTree:
    @pytest.fixture(scope="class")
    def analysis(self):
        return analyze(context_for(SRC_ROOT / "repro"))

    def test_flow_rules_are_clean_on_the_shipped_tree(self):
        report = run_lint(
            [SRC_ROOT / "repro"],
            rules=["FLW001", "FLW002", "FLW003", "FLW004"],
        )
        assert [f.format() for f in report.unwaived()] == []

    def test_every_catalogue_expectation_is_confirmed(self, analysis):
        """Declared DeterminismClass vs inferred effects, every kernel."""
        checked = 0
        for entry in kernel_expectations():
            info = analysis.graph.classes.get((entry.module, entry.class_name))
            assert info is not None, f"{entry.binding} not in scanned tree"
            methods = analysis.graph.methods_of(info)
            roots = [methods[root] for root in entry.root_methods if root in methods]
            assert roots, f"{entry.binding} has no root methods"
            draws = any(
                analysis.summaries[m.qname].draws_rng
                or analysis.summaries[m.qname].forwards_rng
                for m in roots
            )
            if entry.expectation == "pure":
                assert not draws, f"{entry.binding} declared pure but draws"
                checked += 1
            elif entry.expectation == "draws":
                assert draws, (
                    f"{entry.binding} declared randomised but infers RNG-free"
                )
                checked += 1
        assert checked >= 10  # the catalogue binds a dozen kernels today

    def test_every_catalogue_bound_class_is_in_scope(self):
        from repro.semantics import ADVERSARY_SEMANTICS, ALGORITHM_SEMANTICS

        bound = {spec.kernel_binding for spec in ALGORITHM_SEMANTICS.values()}
        for spec in ADVERSARY_SEMANTICS.values():
            bound |= {spec.kernel_binding, spec.scalar_binding} - {None}
        assert {entry.binding for entry in kernel_expectations()} == bound

    def test_the_mixed_kernel_is_the_sampled_boosted_one(self):
        mixed = [
            entry.binding
            for entry in kernel_expectations()
            if entry.expectation == "mixed"
        ]
        assert mixed == ["repro.sampling.kernels:SampledBoostedBatchKernel"]


# ---------------------------------------------------------------------- #
# AST cache (the runner satellite)
# ---------------------------------------------------------------------- #


class TestRunnerSatellites:
    def test_parsed_units_are_cached_between_runs(self, tmp_path):
        path = tmp_path / "cached.py"
        path.write_text("def f(rng):\n    return rng.random()\n", encoding="utf-8")
        first = _load_unit(path.resolve())
        second = _load_unit(path.resolve())
        assert first is second

    def test_cache_invalidates_on_content_change(self, tmp_path):
        path = tmp_path / "stale.py"
        path.write_text("def f():\n    return 1\n", encoding="utf-8")
        first = _load_unit(path.resolve())
        path.write_text("def f():\n    return 2  # changed\n", encoding="utf-8")
        os.utime(path, (0, 0))  # force a distinct stat stamp either way
        second = _load_unit(path.resolve())
        assert first is not second

    def test_cache_hits_reset_waiver_state(self, tmp_path):
        path = tmp_path / "waived.py"
        path.write_text(
            "import time\n\ndef f():\n"
            "    return time.time()  # repro-lint: allow[DET001] -- fixture\n",
            encoding="utf-8",
        )
        for _ in range(2):  # the second run exercises the cache hit
            report = run_lint([path])
            assert report.unwaived() == ()
            assert [f.rule for f in report.waived()] == ["DET001"]


# ---------------------------------------------------------------------- #
# The CI canary, mirrored as a subprocess test
# ---------------------------------------------------------------------- #


class TestSubprocessCanary:
    def test_seeded_flw003_violation_fails_the_lint_gate(self, tmp_path):
        """Copy the tree, inject a draw into a declared-pure kernel, lint."""
        sabotaged = tmp_path / "repro"
        shutil.copytree(SRC_ROOT / "repro", sabotaged)
        batch = sabotaged / "network" / "batch.py"
        source = batch.read_text(encoding="utf-8")
        needle = "default = self.kernel.default_fields()"
        assert needle in source  # CrashBatchKernel.forge, declared pure
        batch.write_text(
            source.replace(
                needle, "default = self.kernel.default_fields() + rng.integers(0, 2)"
            ),
            encoding="utf-8",
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--strict", str(sabotaged)],
            capture_output=True,
            text=True,
            env=cli_env(),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 1, result.stdout + result.stderr
        assert "FLW003" in result.stdout
        assert "CrashBatchKernel.forge" in result.stdout

    def test_flow_graph_artifact_is_written(self, tmp_path):
        source = tmp_path / "tiny.py"
        source.write_text("def f():\n    return g()\n\ndef g():\n    return 1\n")
        artifact = tmp_path / "flow.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "lint",
                "--flow-graph",
                str(artifact),
                str(source),
            ],
            capture_output=True,
            text=True,
            env=cli_env(),
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        import json

        payload = json.loads(artifact.read_text(encoding="utf-8"))
        assert {"functions", "classes", "edges", "summaries"} <= set(payload)
