"""Tests for the shared LatencyModel base behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency import (
    AffineLatencyModel,
    LinearLatencyModel,
    MG1LatencyModel,
    MM1LatencyModel,
)

ALL_MODELS = [
    LinearLatencyModel([1.0, 2.0]),
    AffineLatencyModel([0.5, 1.0], [1.0, 2.0]),
    MM1LatencyModel([4.0, 8.0]),
    MG1LatencyModel.exponential([4.0, 8.0]),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
class TestSharedContract:
    def test_total_is_load_times_per_job(self, model):
        x = np.array([0.5, 1.0])
        np.testing.assert_allclose(
            model.total(x), x * model.per_job(x), rtol=1e-12
        )

    def test_total_latency_is_the_sum(self, model):
        x = np.array([0.5, 1.0])
        assert model.total_latency(x) == pytest.approx(float(model.total(x).sum()))

    def test_len_matches_machines(self, model):
        assert len(model) == model.n_machines == 2

    def test_wrong_length_rejected(self, model):
        with pytest.raises(ValueError, match="machines"):
            model.per_job(np.array([1.0, 1.0, 1.0]))

    def test_negative_load_rejected(self, model):
        with pytest.raises(ValueError):
            model.per_job(np.array([-0.1, 0.5]))

    def test_nan_load_rejected(self, model):
        with pytest.raises(ValueError):
            model.per_job(np.array([np.nan, 0.5]))

    def test_marginal_nonnegative_and_increasing(self, model):
        low = model.marginal(np.array([0.1, 0.1]))
        high = model.marginal(np.array([0.5, 0.5]))
        assert np.all(low >= -1e-12)
        assert np.all(high >= low - 1e-12)

    def test_zero_load_is_feasible(self, model):
        # Every model must evaluate cleanly at the empty allocation.
        assert model.total_latency(np.zeros(2)) == pytest.approx(0.0)

    def test_capacity_violation_names_the_machine(self, model):
        cap = model.load_capacity()
        if not np.all(np.isfinite(cap)):
            pytest.skip("unbounded capacity")
        bad = np.array([cap[0], 0.0])
        with pytest.raises(ValueError, match="machine 0"):
            model.per_job(bad)

    def test_repr_names_the_class(self, model):
        assert type(model).__name__ in repr(model)
