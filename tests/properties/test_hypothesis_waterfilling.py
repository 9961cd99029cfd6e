"""Property-based optimality tests for the general allocator (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.allocation import water_filling_allocation
from repro.latency import (
    AffineLatencyModel,
    MG1LatencyModel,
    MM1LatencyModel,
)

service_rates = arrays(
    np.float64,
    st.integers(min_value=2, max_value=10),
    elements=st.floats(min_value=0.5, max_value=20.0),
)


def _perturb_and_compare(model, result, rng, trials=25):
    """Moving mass between two machines must never reduce the latency."""
    loads = result.loads
    cap = model.load_capacity()
    n = loads.size
    for _ in range(trials):
        i, j = rng.integers(0, n, size=2)
        if i == j or loads[i] <= 0:
            continue
        eps = float(rng.uniform(0.0, 1.0)) * loads[i] * 0.5
        candidate = loads.copy()
        candidate[i] -= eps
        candidate[j] += eps
        if candidate[j] >= cap[j] * (1 - 1e-9):
            continue
        assert model.total_latency(candidate) >= result.total_latency * (1 - 1e-7)


class TestMM1Optimality:
    @settings(max_examples=60)
    @given(
        mu=service_rates,
        utilisation=st.floats(min_value=0.05, max_value=0.9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_no_pairwise_improvement(self, mu, utilisation, seed):
        model = MM1LatencyModel(mu)
        rate = utilisation * float(mu.sum())
        result = water_filling_allocation(model, rate)
        assert result.loads.sum() == pytest.approx(rate, rel=1e-8)
        _perturb_and_compare(model, result, np.random.default_rng(seed))


class TestMG1Optimality:
    @settings(max_examples=60)
    @given(
        mu=service_rates,
        utilisation=st.floats(min_value=0.05, max_value=0.9),
        cs2=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_no_pairwise_improvement(self, mu, utilisation, cs2, seed):
        # Service SCV cs2 gives E[S^2] = (1 + cs2) E[S]^2: 0 is M/D/1,
        # 1 is M/M/1's service, above 1 burstier than exponential.
        mean_service = 1.0 / mu
        model = MG1LatencyModel(mean_service, (1.0 + cs2) * mean_service**2)
        rate = utilisation * float(mu.sum())
        result = water_filling_allocation(model, rate)
        assert result.loads.sum() == pytest.approx(rate, rel=1e-8)
        _perturb_and_compare(model, result, np.random.default_rng(seed))


class TestAffineOptimality:
    @settings(max_examples=60)
    @given(
        slopes=service_rates,
        intercept_scale=st.floats(min_value=0.0, max_value=5.0),
        rate=st.floats(min_value=0.1, max_value=50.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_no_pairwise_improvement(self, slopes, intercept_scale, rate, seed):
        rng = np.random.default_rng(seed)
        intercepts = rng.uniform(0.0, intercept_scale, size=slopes.size)
        model = AffineLatencyModel(intercepts, slopes)
        result = water_filling_allocation(model, rate)
        assert result.loads.sum() == pytest.approx(rate, rel=1e-8)
        _perturb_and_compare(model, result, rng)

    @settings(max_examples=60)
    @given(slopes=service_rates, rate=st.floats(min_value=0.1, max_value=50.0))
    def test_kkt_water_level_on_supported_machines(self, slopes, rate):
        # Every machine with positive load sits at the same marginal.
        model = AffineLatencyModel(np.zeros(slopes.size), slopes)
        result = water_filling_allocation(model, rate)
        marginals = model.marginal(result.loads)
        supported = result.loads > 1e-9 * rate
        assume(int(supported.sum()) > 1)
        spread = np.ptp(marginals[supported]) / marginals[supported].mean()
        assert spread < 1e-6
