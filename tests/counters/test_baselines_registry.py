"""Unit tests for the published-bounds models of the prior-work Table 1 rows."""

from __future__ import annotations

import pytest

from repro.core.errors import ParameterError
from repro.counters.baselines import (
    PRIOR_WORK_MODELS,
    DolevEtAlOneResilientModel,
    DolevHochModel,
    RandomizedFolkloreModel,
)


class TestComplexityModels:
    def test_all_models_produce_rows(self):
        for model in PRIOR_WORK_MODELS:
            row = model.row(n=4, f=1)
            assert row["name"] == model.name
            assert row["stabilization_bound"] > 0
            assert row["state_bits"] > 0
            assert row["measured"] is False

    def test_dolev_hoch_is_deterministic_optimal_resilience(self):
        assert DolevHochModel.deterministic
        assert DolevHochModel.max_resilience(10) == 3
        assert DolevHochModel.max_resilience(3) == 0

    def test_randomized_model_expected_time(self):
        row = RandomizedFolkloreModel.row(n=4, f=1)
        assert row["stabilization_bound"] == 2 ** (2 * 3)

    def test_one_resilient_model_matches_table1(self):
        row = DolevEtAlOneResilientModel.row(n=4, f=1)
        assert row["stabilization_bound"] == 7
        assert row["state_bits"] == 2

    def test_row_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            DolevHochModel.row(n=0, f=0)
