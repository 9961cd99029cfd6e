"""Unit tests for the affine latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency import LinearLatencyModel
from repro.latency.affine import AffineLatencyModel


@pytest.fixture
def model() -> AffineLatencyModel:
    return AffineLatencyModel([0.5, 2.0], [1.0, 0.5])


class TestConstruction:
    def test_zero_intercept_allowed(self):
        AffineLatencyModel([0.0, 0.0], [1.0, 2.0])

    def test_negative_intercept_rejected(self):
        with pytest.raises(ValueError):
            AffineLatencyModel([-0.1], [1.0])

    def test_nonpositive_slope_rejected(self):
        with pytest.raises(ValueError):
            AffineLatencyModel([0.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            AffineLatencyModel([0.0, 1.0], [1.0])


class TestEvaluation:
    def test_per_job(self, model):
        np.testing.assert_allclose(model.per_job([1.0, 2.0]), [1.5, 3.0])

    def test_marginal_matches_numerical_derivative(self, model):
        x = np.array([0.7, 1.9])
        h = 1e-7
        for i in range(2):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            numeric = (model.total(up)[i] - model.total(down)[i]) / (2 * h)
            assert model.marginal(x)[i] == pytest.approx(numeric, rel=1e-5)

    def test_marginal_inverse_clips_below_intercept(self, model):
        # Marginal at zero load is the intercept; below that, zero load.
        np.testing.assert_allclose(model.marginal_inverse(0.4), [0.0, 0.0])

    def test_marginal_inverse_round_trips(self, model):
        x = np.array([1.2, 0.3])
        g = model.marginal(x)
        np.testing.assert_allclose(model.marginal_inverse(g), x)

    def test_per_job_inverse(self, model):
        # Level 2.5: machine 0 carries (2.5-0.5)/1 = 2; machine 1 (2.5-2)/0.5 = 1.
        np.testing.assert_allclose(model.per_job_inverse(2.5), [2.0, 1.0])

    def test_per_job_inverse_clips(self, model):
        np.testing.assert_allclose(model.per_job_inverse(1.0), [0.5, 0.0])

    def test_unbounded_capacity(self, model):
        assert np.all(np.isinf(model.load_capacity()))


class TestReductions:
    def test_zero_intercepts_match_linear_model(self):
        affine = AffineLatencyModel([0.0, 0.0, 0.0], [1.0, 2.0, 5.0])
        linear = LinearLatencyModel([1.0, 2.0, 5.0])
        x = np.array([1.0, 2.0, 0.5])
        np.testing.assert_allclose(affine.per_job(x), linear.per_job(x))
        np.testing.assert_allclose(affine.marginal(x), linear.marginal(x))

    def test_without_intercepts(self, model):
        linear = model.without_intercepts()
        np.testing.assert_allclose(linear.t, model.slope)
