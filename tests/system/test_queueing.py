"""Unit tests for the vectorised queue simulator, validating the
latency models against queueing theory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.latency import MG1LatencyModel, MM1LatencyModel
from repro.system import simulate_mg1, simulate_mm1
from repro.system.queueing import lindley_waits


class TestLindleyRecursion:
    def test_matches_scalar_recursion(self, rng):
        interarrival = rng.exponential(1.0, size=499)
        service = rng.exponential(0.7, size=500)
        vectorised = lindley_waits(interarrival, service)
        w = 0.0
        scalar = [0.0]
        for k in range(499):
            w = max(0.0, w + service[k] - interarrival[k])
            scalar.append(w)
        np.testing.assert_allclose(vectorised, scalar, atol=1e-12)

    def test_first_job_never_waits(self, rng):
        waits = lindley_waits(rng.exponential(1.0, size=9), rng.exponential(1.0, size=10))
        assert waits[0] == 0.0

    def test_no_waiting_when_arrivals_sparse(self):
        # Service 1s, gaps 10s: nobody ever queues.
        waits = lindley_waits(np.full(9, 10.0), np.ones(10))
        np.testing.assert_allclose(waits, 0.0)

    def test_pure_backlog_when_arrivals_instant(self):
        # All arrive together: job k waits for k prior services.
        waits = lindley_waits(np.zeros(4), np.ones(5))
        np.testing.assert_allclose(waits, [0, 1, 2, 3, 4])

    def test_single_job(self):
        np.testing.assert_allclose(lindley_waits(np.array([]), np.array([2.0])), [0.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lindley_waits(np.ones(5), np.ones(5))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            lindley_waits(np.array([-1.0]), np.ones(2))


class TestMM1Validation:
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_sojourn_matches_latency_model(self, rho, rng):
        mu = 2.0
        x = rho * mu
        stats = simulate_mm1(x, mu, n_jobs=150_000, rng=rng)
        predicted = MM1LatencyModel([mu]).per_job([x])[0]
        assert stats.mean_sojourn == pytest.approx(predicted, rel=0.05)

    def test_utilisation_measured(self, rng):
        stats = simulate_mm1(1.0, 2.0, n_jobs=100_000, rng=rng)
        assert stats.utilisation == pytest.approx(0.5, rel=0.05)

    def test_unstable_rejected(self, rng):
        with pytest.raises(ValueError, match="arrival_rate < service_rate"):
            simulate_mm1(2.0, 2.0, n_jobs=100, rng=rng)

    def test_needs_at_least_two_jobs(self, rng):
        with pytest.raises(ValueError):
            simulate_mm1(1.0, 2.0, n_jobs=1, rng=rng)


class TestMG1Validation:
    def test_deterministic_service_matches_pk(self, rng):
        # M/D/1: W_q = x E[S^2] / (2(1 - rho)) with E[S^2] = s^2.
        s, x = 0.5, 1.2
        service = np.full(200_000, s)
        stats = simulate_mg1(x, service, rng)
        predicted = MG1LatencyModel.deterministic([s]).per_job([x])[0]
        assert stats.mean_wait == pytest.approx(predicted, rel=0.05)

    def test_exponential_service_matches_pk(self, rng):
        mu, x = 2.0, 1.0
        service = rng.exponential(1.0 / mu, size=200_000)
        stats = simulate_mg1(x, service, rng)
        predicted = MG1LatencyModel.exponential([mu]).per_job([x])[0]
        assert stats.mean_wait == pytest.approx(predicted, rel=0.06)

    def test_light_load_linearisation_validated_empirically(self, rng):
        """The paper's Section 2 claim, end to end: at light load the
        M/G/1 waiting time behaves like the linear model t x with
        t = E[S^2]/2."""
        mu = 2.0
        x = 0.05  # 2.5% utilisation
        service = rng.exponential(1.0 / mu, size=400_000)
        stats = simulate_mg1(x, service, rng)
        linear = MG1LatencyModel.exponential([mu]).light_load_linearization()
        predicted = linear.per_job([x])[0]
        assert stats.mean_wait == pytest.approx(predicted, rel=0.15)

    def test_unstable_rejected(self, rng):
        with pytest.raises(ValueError, match="unstable"):
            simulate_mg1(3.0, np.full(100, 0.5), rng)

    def test_negative_service_rejected(self, rng):
        with pytest.raises(ValueError):
            simulate_mg1(0.5, np.array([1.0, -1.0]), rng)
