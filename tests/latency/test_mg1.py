"""Unit tests for the M/G/1 model and the paper's light-load linearisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency import LinearLatencyModel, MG1LatencyModel, MM1LatencyModel


@pytest.fixture
def model() -> MG1LatencyModel:
    # Exponential service at rates 2 and 4: E[S] = 1/mu, E[S^2] = 2/mu^2.
    return MG1LatencyModel.exponential([2.0, 4.0])


class TestConstruction:
    def test_second_moment_bound_enforced(self):
        # E[S^2] < E[S]^2 is impossible for any distribution.
        with pytest.raises(ValueError, match="second_moment"):
            MG1LatencyModel([1.0], [0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MG1LatencyModel([1.0, 2.0], [2.0])

    def test_deterministic_constructor(self):
        model = MG1LatencyModel.deterministic([0.5])
        assert model.mean_service[0] == 0.5
        assert model.second_moment[0] == 0.25


class TestPollaczekKhinchine:
    def test_waiting_time_formula(self, model):
        # W_q = x E[S^2] / (2 (1 - x E[S]))
        x = np.array([1.0, 1.0])
        expected = x * model.second_moment / (2 * (1 - x * model.mean_service))
        np.testing.assert_allclose(model.per_job(x), expected)

    def test_exponential_service_matches_mm1_waiting(self, model):
        # For M/M/1, waiting = sojourn - service = 1/(mu-x) - 1/mu.
        mm1 = MM1LatencyModel([2.0, 4.0])
        x = np.array([0.7, 1.9])
        expected = mm1.per_job(x) - 1.0 / mm1.mu
        np.testing.assert_allclose(model.per_job(x), expected, rtol=1e-12)

    def test_zero_load_waits_nothing(self, model):
        np.testing.assert_allclose(model.per_job([0.0, 0.0]), [0.0, 0.0])

    def test_capacity_is_inverse_mean_service(self, model):
        np.testing.assert_allclose(model.load_capacity(), [2.0, 4.0])

    def test_marginal_matches_numerical_derivative(self, model):
        x = np.array([0.8, 2.1])
        h = 1e-7
        for i in range(2):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            numeric = (model.total(up)[i] - model.total(down)[i]) / (2 * h)
            assert model.marginal(x)[i] == pytest.approx(numeric, rel=1e-5)

    def test_marginal_inverse_round_trips(self, model):
        x = np.array([1.1, 2.9])
        g = model.marginal(x)
        np.testing.assert_allclose(model.marginal_inverse(g), x, rtol=1e-9)

    def test_marginal_inverse_handles_zero_slope(self, model):
        np.testing.assert_allclose(
            model.marginal_inverse(0.0), [0.0, 0.0], atol=1e-9
        )


class TestLightLoadLinearisation:
    """The paper's Section 2 justification of the linear model."""

    def test_slope_is_half_second_moment(self, model):
        linear = model.light_load_linearization()
        assert isinstance(linear, LinearLatencyModel)
        np.testing.assert_allclose(linear.t, model.second_moment / 2.0)

    def test_linearisation_converges_at_light_load(self, model):
        linear = model.light_load_linearization()
        for scale in (1e-2, 1e-3, 1e-4):
            x = np.full(2, scale)
            exact = model.per_job(x)
            approx = linear.per_job(x)
            # Relative error of the linearisation shrinks with the load.
            rel = np.abs(exact - approx) / exact
            assert np.all(rel < 2 * scale)

    def test_linearisation_underestimates_at_heavy_load(self, model):
        linear = model.light_load_linearization()
        x = np.array([1.8, 3.6])  # 90% utilisation
        assert np.all(linear.per_job(x) < model.per_job(x))
