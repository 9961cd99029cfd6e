"""Property-based tests for the allocation layer (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.allocation import (
    optimal_latency_excluding_each,
    optimal_total_latency,
    pr_loads,
    water_filling_allocation,
)
from repro.latency import LinearLatencyModel

# Latency slopes spanning four orders of magnitude; bounded away from
# zero/inf so float64 arithmetic stays well conditioned.
slopes = arrays(
    np.float64,
    st.integers(min_value=1, max_value=24),
    elements=st.floats(min_value=0.01, max_value=100.0),
)
rates = st.floats(min_value=0.01, max_value=1000.0)


class TestPrInvariants:
    @given(t=slopes, rate=rates)
    def test_conservation(self, t, rate):
        assert pr_loads(t, rate).sum() == pytest.approx(rate, rel=1e-9)

    @given(t=slopes, rate=rates)
    def test_positivity(self, t, rate):
        assert np.all(pr_loads(t, rate) > 0.0)

    @given(t=slopes, rate=rates)
    def test_latency_ordering_matches_speed_ordering(self, t, rate):
        # Faster machines (smaller t) always get at least as much load.
        loads = pr_loads(t, rate)
        order = np.argsort(t)
        assert np.all(np.diff(loads[order]) <= 1e-12 * rate)

    @given(t=slopes, rate=rates)
    def test_closed_form_latency_matches_direct_evaluation(self, t, rate):
        loads = pr_loads(t, rate)
        direct = float(np.dot(t, loads**2))
        assert optimal_total_latency(t, rate) == pytest.approx(direct, rel=1e-9)

    @given(t=slopes, rate=rates, data=st.data())
    def test_optimality_against_random_perturbations(self, t, rate, data):
        # Shifting mass between any two machines cannot reduce L.
        loads = pr_loads(t, rate)
        best = optimal_total_latency(t, rate)
        if t.size < 2:
            return
        i = data.draw(st.integers(0, t.size - 1))
        j = data.draw(st.integers(0, t.size - 1))
        if i == j:
            return
        eps = data.draw(st.floats(0.0, 1.0)) * loads[i]
        perturbed = loads.copy()
        perturbed[i] -= eps
        perturbed[j] += eps
        assert float(np.dot(t, perturbed**2)) >= best * (1 - 1e-9)

    @given(t=slopes, rate=rates, scale=st.floats(min_value=0.1, max_value=10.0))
    def test_slope_scale_invariance(self, t, rate, scale):
        np.testing.assert_allclose(
            pr_loads(t, rate), pr_loads(scale * t, rate), rtol=1e-9
        )

    @given(t=slopes, rate=rates)
    def test_rate_homogeneity(self, t, rate):
        np.testing.assert_allclose(
            2.0 * pr_loads(t, rate), pr_loads(t, 2.0 * rate), rtol=1e-9
        )


class TestLeaveOneOutInvariants:
    @given(t=slopes, rate=rates)
    def test_exclusion_never_improves(self, t, rate):
        if t.size < 2:
            return
        base = optimal_total_latency(t, rate)
        excluded = optimal_latency_excluding_each(t, rate)
        assert np.all(excluded >= base * (1 - 1e-12))

    @given(t=slopes, rate=rates)
    def test_excluding_the_fastest_hurts_most(self, t, rate):
        if t.size < 2:
            return
        excluded = optimal_latency_excluding_each(t, rate)
        fastest = int(np.argmin(t))
        assert excluded[fastest] == pytest.approx(float(excluded.max()), rel=1e-12)


class TestWaterFillingAgreement:
    @settings(max_examples=40)
    @given(t=slopes, rate=rates)
    def test_matches_pr_closed_form(self, t, rate):
        model = LinearLatencyModel(t)
        result = water_filling_allocation(model, rate)
        np.testing.assert_allclose(result.loads, pr_loads(t, rate), rtol=1e-6, atol=1e-9 * rate)


class TestIncrementalAllocatorChurn:
    """The supervisor's cross-round allocator under membership churn."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_churn_matches_fresh_pr_with_one_op_per_change(self, data):
        from repro.resilience.supervisor import _IncrementalAllocator

        names = [f"C{k}" for k in range(data.draw(st.integers(2, 10)))]
        bid_values = st.floats(min_value=0.5, max_value=10.0)
        bids = {name: data.draw(bid_values) for name in names}
        rate = 3.0
        allocator = _IncrementalAllocator()
        allocator.allocate(names, np.array([bids[n] for n in names]), rate)
        live = set(names)
        changes = 0
        for _ in range(data.draw(st.integers(1, 8))):
            # At least one member stays, so the state is reconciled,
            # never rebuilt; the others leave, stay or come back at random.
            stay = data.draw(st.sampled_from(sorted(live)))
            members = {n for n in names if n == stay or data.draw(st.booleans())}
            new_bids = {
                n: data.draw(bid_values) if data.draw(st.booleans()) else bids[n]
                for n in names
            }
            changes += len(live ^ members) + sum(
                new_bids[n] != bids[n] for n in live & members
            )
            bids, live = new_bids, members
            order = [n for n in names if n in live]
            vector = np.array([bids[n] for n in order])
            loads = allocator.allocate(order, vector, rate).loads
            np.testing.assert_allclose(loads, pr_loads(vector, rate), rtol=1e-12)
        assert allocator.rebuilds == 1
        assert allocator.incremental_ops == changes
