"""Unit tests for the linear latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency import LinearLatencyModel


@pytest.fixture
def model() -> LinearLatencyModel:
    return LinearLatencyModel([1.0, 2.0, 5.0])


class TestConstruction:
    def test_parameters_stored(self, model):
        np.testing.assert_allclose(model.t, [1.0, 2.0, 5.0])
        assert model.n_machines == 3
        assert len(model) == 3

    def test_parameters_read_only(self, model):
        with pytest.raises(ValueError):
            model.t[0] = 9.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            LinearLatencyModel([1.0, 0.0])
        with pytest.raises(ValueError):
            LinearLatencyModel([-1.0])

    def test_processing_rates(self, model):
        np.testing.assert_allclose(model.processing_rates, [1.0, 0.5, 0.2])


class TestEvaluation:
    def test_per_job_is_linear(self, model):
        np.testing.assert_allclose(model.per_job([1.0, 1.0, 1.0]), [1.0, 2.0, 5.0])
        np.testing.assert_allclose(model.per_job([2.0, 3.0, 0.5]), [2.0, 6.0, 2.5])

    def test_total_is_quadratic(self, model):
        np.testing.assert_allclose(model.total([2.0, 3.0, 1.0]), [4.0, 18.0, 5.0])

    def test_total_latency_sums(self, model):
        assert model.total_latency([2.0, 3.0, 1.0]) == pytest.approx(27.0)

    def test_zero_load_gives_zero_latency(self, model):
        assert model.total_latency([0.0, 0.0, 0.0]) == 0.0

    def test_marginal(self, model):
        np.testing.assert_allclose(model.marginal([1.0, 1.0, 1.0]), [2.0, 4.0, 10.0])

    def test_marginal_matches_numerical_derivative(self, model):
        x = np.array([1.5, 0.7, 2.2])
        h = 1e-6
        for i in range(3):
            up = x.copy()
            up[i] += h
            down = x.copy()
            down[i] -= h
            numeric = (model.total(up)[i] - model.total(down)[i]) / (2 * h)
            assert model.marginal(x)[i] == pytest.approx(numeric, rel=1e-6)

    def test_marginal_inverse_round_trips(self, model):
        x = np.array([0.5, 1.25, 3.0])
        g = model.marginal(x)
        np.testing.assert_allclose(model.marginal_inverse(g), x)

    def test_marginal_inverse_rejects_negative_slope(self, model):
        with pytest.raises(ValueError):
            model.marginal_inverse(-1.0)

    def test_capacity_is_unbounded(self, model):
        assert np.all(np.isinf(model.load_capacity()))


class TestLoadValidation:
    def test_wrong_length_rejected(self, model):
        with pytest.raises(ValueError, match="machines"):
            model.per_job([1.0, 2.0])

    def test_negative_load_rejected(self, model):
        with pytest.raises(ValueError):
            model.per_job([1.0, -0.1, 0.0])


class TestUtilities:
    def test_with_values(self, model):
        other = model.with_values([3.0, 4.0])
        np.testing.assert_allclose(other.t, [3.0, 4.0])

    def test_repr_mentions_class(self, model):
        assert "LinearLatencyModel" in repr(model)
