"""Unit tests for the M/M/1 latency model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency import MM1LatencyModel


@pytest.fixture
def model() -> MM1LatencyModel:
    return MM1LatencyModel([2.0, 4.0])


class TestConstruction:
    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            MM1LatencyModel([1.0, 0.0])

    def test_mu_read_only(self, model):
        with pytest.raises(ValueError):
            model.mu[0] = 1.0


class TestEvaluation:
    def test_sojourn_formula(self, model):
        np.testing.assert_allclose(model.per_job([1.0, 1.0]), [1.0, 1.0 / 3.0])

    def test_empty_queue_sojourn_is_service_time(self, model):
        np.testing.assert_allclose(model.per_job([0.0, 0.0]), [0.5, 0.25])

    def test_total_is_jobs_in_system(self, model):
        # Little's law: x / (mu - x)
        np.testing.assert_allclose(model.total([1.0, 2.0]), [1.0, 1.0])

    def test_latency_diverges_near_capacity(self, model):
        latency = model.per_job([2.0 - 1e-9, 0.0])[0]
        assert latency > 1e8

    def test_load_at_capacity_rejected(self, model):
        with pytest.raises(ValueError, match="capacity"):
            model.per_job([2.0, 0.0])

    def test_marginal_matches_numerical_derivative(self, model):
        x = np.array([0.9, 2.5])
        h = 1e-7
        for i in range(2):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            numeric = (model.total(up)[i] - model.total(down)[i]) / (2 * h)
            assert model.marginal(x)[i] == pytest.approx(numeric, rel=1e-5)

    def test_marginal_inverse_round_trips(self, model):
        x = np.array([1.3, 2.2])
        g = model.marginal(x)
        np.testing.assert_allclose(model.marginal_inverse(g), x, rtol=1e-12)

    def test_marginal_inverse_clips_at_zero(self, model):
        # At slope below the zero-load marginal (1/mu) the machine gets
        # no load.
        tiny = model.marginal_inverse(1e-6)
        np.testing.assert_allclose(tiny, [0.0, 0.0])

    def test_marginal_inverse_rejects_nonpositive(self, model):
        with pytest.raises(ValueError):
            model.marginal_inverse(0.0)

    def test_capacity_equals_mu(self, model):
        np.testing.assert_allclose(model.load_capacity(), [2.0, 4.0])


class TestUtilities:
    def test_utilisation(self, model):
        np.testing.assert_allclose(model.utilisation([1.0, 1.0]), [0.5, 0.25])

    def test_with_values(self, model):
        np.testing.assert_allclose(model.with_values([8.0]).mu, [8.0])
