"""The declarative semantics layer is complete, sound, and single-source.

Four families of checks:

* **completeness** — every catalogue entry carries a description (and every
  algorithm a model), and the batch dispatch and coverage notes span the
  whole strategy vocabulary;
* **self-check** — :func:`repro.semantics.verify` passes on the real
  catalogue and *fails* on tampered copies (a mis-declared determinism
  class, state space or parameter schema, or a broken binding, is caught,
  not trusted);
* **derivation** — the parity-fuzz sweep space, the strategy vocabulary and
  the kernel dispatch tables are generated from the catalogue;
* **error style** — unknown names raise one
  :class:`~repro.core.errors.ParameterError` listing the registered
  alternatives, and unknown parameters raise one carrying the spec's schema
  instead of a bare ``TypeError``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.errors import ParameterError, SimulationError
from repro.network.adversary import build_adversary
from repro.semantics import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    BIT_IDENTICAL,
    FAULT_SCHEDULE_SEMANTICS,
    FLAT_ONLY,
    STATISTICAL,
    DeterminismClass,
    Parameter,
    active_strategy_names,
    adversary_coverage_notes,
    adversary_semantics,
    algorithm_names,
    algorithm_semantics,
    build_algorithm,
    format_schema,
    resolve_binding,
    strategy_names,
    validate_parameters,
    verify,
)

numpy = pytest.importorskip("numpy")


# ---------------------------------------------------------------------- #
# Completeness: every catalogue entry is fully declared
# ---------------------------------------------------------------------- #


class TestCompleteness:
    def test_every_entry_has_a_description(self) -> None:
        for catalogue in (ALGORITHM_SEMANTICS, ADVERSARY_SEMANTICS):
            for name, spec in catalogue.items():
                assert spec.name == name
                assert spec.description, f"{name!r} has no description"

    def test_every_algorithm_has_a_model(self) -> None:
        for name, spec in ALGORITHM_SEMANTICS.items():
            assert spec.model in ("broadcast", "pulling"), name

    def test_algorithm_and_adversary_names_are_disjoint(self) -> None:
        assert not set(ALGORITHM_SEMANTICS) & set(ADVERSARY_SEMANTICS)

    def test_the_paper_counters_are_declared(self) -> None:
        for name in (
            "trivial",
            "naive-majority",
            "randomized-follow-majority",
            "corollary1",
            "figure2",
            "sampled-boosted",
            "pseudo-random-boosted",
        ):
            assert name in algorithm_names()

    def test_adversaries_are_none_plus_the_active_strategies(self) -> None:
        assert set(ADVERSARY_SEMANTICS) == set(strategy_names())
        assert strategy_names() == ("none", *active_strategy_names())
        none = adversary_semantics("none")
        assert none.scalar_binding is None and none.kernel_binding is None
        for name in active_strategy_names():
            spec = adversary_semantics(name)
            assert spec.scalar_binding and spec.kernel_binding, name

    def test_algorithm_coverage_note_follows_batch_determinism(self) -> None:
        for spec in ALGORITHM_SEMANTICS.values():
            note = spec.coverage_note()
            assert note.startswith("vectorised, ")
            assert ("bit-identical" in note) == spec.batch_deterministic, spec.name
            assert ("statistically equivalent" in note) != spec.batch_deterministic

    @pytest.mark.parametrize("name", active_strategy_names())
    def test_batch_kernel_dispatch_covers_every_active_strategy(self, name) -> None:
        from repro.network.batch import (
            adversary_kernel_available,
            build_adversary_kernel,
            build_batch_kernel,
        )

        kernel = build_batch_kernel(build_algorithm("naive-majority"))
        assert adversary_kernel_available(name)
        built = build_adversary_kernel(name, kernel)
        assert type(built) is adversary_semantics(name).kernel_class()

    def test_coverage_notes_cover_the_whole_vocabulary(self) -> None:
        notes = adversary_coverage_notes()
        assert tuple(notes) == strategy_names()
        assert all(notes.values())


# ---------------------------------------------------------------------- #
# Self-check: verify() passes for real, fails for tampered catalogues
# ---------------------------------------------------------------------- #


class TestVerify:
    def test_real_catalogue_is_sound(self) -> None:
        assert verify() == []

    def test_misdeclared_batch_determinism_is_caught(self) -> None:
        # crash's kernel is pure; declaring it statistical must be reported.
        tampered = dict(ADVERSARY_SEMANTICS)
        tampered["crash"] = dataclasses.replace(
            tampered["crash"], determinism=STATISTICAL
        )
        problems = verify(adversaries=tampered)
        assert any("crash" in p and "statistical" in p for p in problems)

    def test_randomised_declaration_of_a_draw_free_encoding_is_caught(
        self,
    ) -> None:
        # phase-king-skew draws nothing against boosted states in either
        # engine; declaring it statistical there must be reported by both
        # probes.
        tampered = dict(ADVERSARY_SEMANTICS)
        tampered["phase-king-skew"] = dataclasses.replace(
            tampered["phase-king-skew"], determinism=STATISTICAL
        )
        problems = verify(adversaries=tampered)
        assert problems == [
            "strategy 'phase-king-skew': determinism class declares "
            "statistical equivalence for boosted encodings but the "
            f"{probe} consumed no randomness"
            for probe in ("scalar forge", "kernel")
        ]

    def test_scalar_draws_on_a_bit_identical_encoding_are_caught(self) -> None:
        # adaptive-split fabricates random boosted states in the scalar
        # forge; declaring it bit-identical everywhere must be reported.
        tampered = dict(ADVERSARY_SEMANTICS)
        tampered["adaptive-split"] = dataclasses.replace(
            tampered["adaptive-split"], determinism=BIT_IDENTICAL
        )
        problems = verify(adversaries=tampered)
        assert any(
            "adaptive-split" in p and "boosted" in p and "scalar forge" in p
            for p in problems
        )

    def test_misdeclared_scalar_determinism_is_caught(self) -> None:
        # random-state draws RNG every forge; declaring it deterministic
        # must be reported.
        tampered = dict(ADVERSARY_SEMANTICS)
        tampered["random-state"] = dataclasses.replace(
            tampered["random-state"], scalar_deterministic=True
        )
        problems = verify(adversaries=tampered)
        assert any(
            "random-state" in p and "scalar-deterministic" in p for p in problems
        )

    def test_misdeclared_state_space_is_caught(self) -> None:
        tampered = dict(ALGORITHM_SEMANTICS)
        tampered["naive-majority"] = dataclasses.replace(
            tampered["naive-majority"], flat_state=False
        )
        problems = verify(algorithms=tampered)
        assert any("naive-majority" in p and "boosted" in p for p in problems)

    def test_missing_fuzz_profile_is_caught(self) -> None:
        tampered = dict(ALGORITHM_SEMANTICS)
        tampered["trivial"] = dataclasses.replace(tampered["trivial"], fuzz=())
        problems = verify(algorithms=tampered)
        assert any("trivial" in p and "fuzz" in p for p in problems)

    @pytest.mark.parametrize(
        ("table", "entry", "field", "binding"),
        [
            (
                "algorithms",
                "trivial",
                "kernel_binding",
                "repro.counters.kernels:NoSuchKernel",
            ),
            (
                "adversaries",
                "crash",
                "scalar_binding",
                "repro.network.adversary:NoSuchAdversary",
            ),
            (
                "adversaries",
                "crash",
                "kernel_binding",
                "repro.network.batch:NoSuchKernel",
            ),
            (
                "schedules",
                "churn",
                "builder_binding",
                "repro.faults.schedule:no_such_builder",
            ),
            ("algorithms", "trivial", "kernel_binding", "repro.counters.kernels"),
        ],
        ids=[
            "algorithm-kernel",
            "adversary-scalar",
            "adversary-kernel",
            "schedule-builder",
            "malformed",
        ],
    )
    def test_a_broken_binding_is_one_problem_naming_the_entry(
        self, table: str, entry: str, field: str, binding: str
    ) -> None:
        catalogue = {
            "algorithms": ALGORITHM_SEMANTICS,
            "adversaries": ADVERSARY_SEMANTICS,
            "schedules": FAULT_SCHEDULE_SEMANTICS,
        }
        tampered = dict(catalogue[table])
        tampered[entry] = dataclasses.replace(tampered[entry], **{field: binding})
        problems = verify(**{table: tampered})
        assert len(problems) == 1, problems
        assert repr(entry) in problems[0]


# ---------------------------------------------------------------------- #
# Derivation: sweep space and dispatch generated from the catalogue
# ---------------------------------------------------------------------- #


class TestDerivedSweep:
    def test_fuzz_algorithms_equal_the_declared_profiles(self) -> None:
        from repro.network.parity import FUZZ_ALGORITHMS

        expected = tuple(
            (name, dict(profile.params), profile.max_faults, profile.max_rounds)
            for name in algorithm_names()
            for profile in algorithm_semantics(name).fuzz
        )
        assert FUZZ_ALGORITHMS == expected
        # Every catalogue algorithm is fuzzable — no second list to forget.
        assert {entry[0] for entry in FUZZ_ALGORITHMS} == set(algorithm_names())

    def test_all_strategies_equal_the_vocabulary(self) -> None:
        from repro.network.parity import ALL_STRATEGIES

        assert ALL_STRATEGIES == strategy_names()
        assert ALL_STRATEGIES == ("none", *sorted(active_strategy_names()))

    def test_distribution_strategies_follow_the_determinism_classes(self) -> None:
        from repro.network.parity import DISTRIBUTION_STRATEGIES

        assert DISTRIBUTION_STRATEGIES == tuple(
            name
            for name in strategy_names()
            if name != "none"
            and not adversary_semantics(name).determinism.bit_identical
        )

    def test_small_sweep_covers_the_whole_registry(self) -> None:
        from repro.network.parity import ALL_STRATEGIES, sample_configs

        configs = sample_configs(len(ALL_STRATEGIES), seed=0)
        assert {c.strategy for c in configs} == set(ALL_STRATEGIES)
        for config in configs:
            assert config.algorithm in set(algorithm_names())

    def test_sampled_adversary_params_come_from_declared_choices(self) -> None:
        from repro.network.parity import sample_configs

        declared = {
            name: {
                param: set(values)
                for param, values in adversary_semantics(name).fuzz_param_choices
            }
            for name in active_strategy_names()
        }
        for config in sample_configs(96, seed=3):
            for param, value in config.adversary_params:
                assert value in declared[config.strategy][param]

    def test_schedule_sweep_derives_from_the_catalogue(self) -> None:
        from repro.network.parity import ALL_SCHEDULES, sample_schedule_configs
        from repro.semantics import fault_schedule_names, fault_schedule_semantics

        assert ALL_SCHEDULES == fault_schedule_names()
        declared = {
            name: {
                param: set(values)
                for param, values in fault_schedule_semantics(
                    name
                ).fuzz_param_choices
            }
            for name in fault_schedule_names()
        }
        for config in sample_schedule_configs(24, seed=3):
            for param, value in config.params:
                assert value in declared[config.schedule][param]


class TestFaultScheduleSemantics:
    def test_accessors_and_unknown_name(self) -> None:
        from repro.semantics import fault_schedule_names, fault_schedule_semantics

        names = fault_schedule_names()
        assert set(names) == {"churn", "rolling", "late-adversary"}
        for name in names:
            spec = fault_schedule_semantics(name)
            assert spec.description
            assert spec.scalar_deterministic
            assert not spec.batch_covered
            assert spec.build().name == name
        with pytest.raises(ParameterError, match="no semantics declared"):
            fault_schedule_semantics("meteor-strike")

    def test_build_validates_parameters(self) -> None:
        from repro.semantics import fault_schedule_semantics

        churn = fault_schedule_semantics("churn")
        schedule = churn.build(start=2, down=3)
        assert schedule.windows[0].start == 2
        assert schedule.windows[0].duration == 3
        with pytest.raises(ParameterError):
            churn.build(onset=2)


# ---------------------------------------------------------------------- #
# Error style: schema-carrying ParameterError everywhere
# ---------------------------------------------------------------------- #


class TestParameterErrors:
    def test_build_adversary_unknown_param_carries_the_schema(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            build_adversary("fixed-state", {0}, bogus=1)
        message = str(excinfo.value)
        assert "bogus" in message
        assert "accepted parameters" in message
        assert "state (default 0)" in message

    def test_build_adversary_parameterless_strategy_says_so(self) -> None:
        with pytest.raises(ParameterError, match=r"no parameters"):
            build_adversary("crash", {0}, bogus=1)

    def test_build_adversary_none_rejects_params(self) -> None:
        with pytest.raises(ParameterError):
            build_adversary("none", (), bogus=1)

    def test_build_adversary_unknown_strategy_is_still_simulation_error(
        self,
    ) -> None:
        with pytest.raises(SimulationError, match="unknown adversary strategy"):
            build_adversary("nope", {0})

    def test_build_algorithm_unknown_param_carries_the_schema(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            build_algorithm("naive-majority", bogus=1)
        message = str(excinfo.value)
        assert "bogus" in message
        assert "accepted parameters" in message
        assert "claimed_resilience" in message

    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_build_algorithm_rejects_a_non_integer_parameter(self, value) -> None:
        with pytest.raises(ParameterError) as excinfo:
            build_algorithm("figure2", levels=value)
        assert str(excinfo.value) == (
            "parameter 'levels' of algorithm 'figure2' must be an integer, "
            f"got {value!r}"
        )

    def test_build_algorithm_accepts_numpy_integers(self) -> None:
        np = pytest.importorskip("numpy")
        assert build_algorithm("trivial", c=np.int64(3)).c == 3


class TestLookups:
    """Names resolve to components in the catalogue, with one error style."""

    ALGORITHMS = (
        "corollary1, figure2, naive-majority, pseudo-random-boosted, "
        "randomized-follow-majority, sampled-boosted, trivial"
    )
    ADVERSARIES = (
        "adaptive-split, crash, fixed-state, mimic, none, phase-king-skew, "
        "random-state, split-state"
    )

    def test_unknown_algorithm_lists_the_registered_alternatives(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            algorithm_semantics("nope")
        assert str(excinfo.value) == (
            f"unknown algorithm 'nope'; registered algorithms: {self.ALGORITHMS}"
        )

    def test_unknown_adversary_lists_the_registered_alternatives(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            adversary_semantics("nope")
        assert str(excinfo.value) == (
            f"unknown adversary 'nope'; registered adversaries: {self.ADVERSARIES}"
        )

    def test_an_adversary_given_as_an_algorithm_is_called_out(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            algorithm_semantics("crash")
        assert str(excinfo.value) == (
            "'crash' is an adversary, not an algorithm; "
            f"registered algorithms: {self.ALGORITHMS}"
        )

    def test_an_algorithm_given_as_an_adversary_is_called_out(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            adversary_semantics("trivial")
        assert str(excinfo.value) == (
            "'trivial' is an algorithm, not an adversary; "
            f"registered adversaries: {self.ADVERSARIES}"
        )

    def test_build_algorithm_by_name(self) -> None:
        from repro.counters.trivial import TrivialCounter

        counter = build_algorithm("trivial", c=4)
        assert isinstance(counter, TrivialCounter)
        assert counter.c == 4

    def test_build_algorithm_forwards_every_parameter(self) -> None:
        corollary1 = build_algorithm("corollary1", c=2, f=1)
        assert (corollary1.n, corollary1.f, corollary1.c) == (4, 1, 2)

    def test_build_algorithm_applies_the_declared_defaults(self) -> None:
        for name in ("trivial", "naive-majority"):
            defaults = {
                parameter.name: parameter.default
                for parameter in algorithm_semantics(name).parameters
            }
            assert build_algorithm(name).c == defaults["c"]

    def test_build_algorithm_unknown_name_fails(self) -> None:
        with pytest.raises(ParameterError, match="unknown algorithm 'does-not-exist'"):
            build_algorithm("does-not-exist")

    def test_build_adversary_builds_the_declared_scalar_class(self) -> None:
        for name in active_strategy_names():
            adversary = build_adversary(name, {1})
            assert type(adversary) is adversary_semantics(name).scalar_class()
            assert adversary.faulty == frozenset({1})

    def test_bindings_resolve_once(self) -> None:
        # The scalar adversary factory resolves a binding per trial; the
        # memo makes every later lookup a cache hit on the same object.
        binding = adversary_semantics("crash").scalar_binding
        first = resolve_binding(binding)
        hits = resolve_binding.cache_info().hits
        assert resolve_binding(binding) is first
        assert resolve_binding.cache_info().hits == hits + 1


# ---------------------------------------------------------------------- #
# Spec primitives
# ---------------------------------------------------------------------- #


class TestSpecPrimitives:
    def test_format_schema(self) -> None:
        assert format_schema(()) == "(no parameters)"
        schema = format_schema((Parameter("state", 0), Parameter("offset", 1)))
        assert schema == "state (default 0), offset (default 1)"

    def test_validate_parameters_accepts_declared_names(self) -> None:
        params = (Parameter("state", 0),)
        validate_parameters("adversary", "fixed-state", params, {"state": 2})
        with pytest.raises(ParameterError, match="unknown parameter"):
            validate_parameters("adversary", "fixed-state", params, {"stat": 2})

    def test_determinism_class_notes_match_the_legacy_strings(self) -> None:
        assert BIT_IDENTICAL.note() == "bit-identical"
        assert FLAT_ONLY.note() == (
            "bit-identical for flat counters, statistically equivalent "
            "for boosted states"
        )
        assert STATISTICAL.note() == "statistically equivalent (NumPy RNG)"

    def test_phase_king_skew_is_bit_identical_on_boosted_states_only(
        self,
    ) -> None:
        determinism = ADVERSARY_SEMANTICS["phase-king-skew"].determinism
        assert determinism == DeterminismClass(flat=False, boosted=True)
        assert determinism.note() == (
            "statistically equivalent for flat counters, bit-identical for "
            "boosted states"
        )

    def test_determinism_class_refines_per_kernel(self) -> None:
        from repro.network.batch import build_batch_kernel

        flat = build_batch_kernel(build_algorithm("naive-majority"))
        boosted = build_batch_kernel(build_algorithm("corollary1"))
        assert FLAT_ONLY.for_kernel(flat) is True
        assert FLAT_ONLY.for_kernel(boosted) is False
        assert BIT_IDENTICAL.for_kernel(boosted) is True
        assert STATISTICAL.for_kernel(flat) is False
        assert DeterminismClass(flat=True, boosted=True).bit_identical

    def test_resolve_binding(self) -> None:
        from repro.network.adversary import CrashAdversary

        assert resolve_binding("repro.network.adversary:CrashAdversary") is (
            CrashAdversary
        )
        with pytest.raises(AttributeError):
            resolve_binding("repro.network.adversary:Missing")
        with pytest.raises(ParameterError, match="malformed binding"):
            resolve_binding("no-colon")


# ---------------------------------------------------------------------- #
# Discovery surface
# ---------------------------------------------------------------------- #


class TestVerboseListing:
    def test_verbose_listing_renders_every_spec(self, capsys) -> None:
        from repro.cli import main

        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        for name in (*algorithm_names(), *strategy_names()):
            assert name in out
        assert "semantics:" in out
        assert "accepted" not in out  # schemas render as "params:", not errors
        for name in strategy_names():
            assert adversary_semantics(name).coverage_note() in out
