"""Unit and property tests for the incremental PR state."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation import optimal_total_latency, pr_loads
from repro.allocation.incremental import IncrementalPRState


class TestQueries:
    def test_matches_batch_formulas_initially(self):
        bids = np.array([1.0, 2.0, 5.0])
        state = IncrementalPRState(bids, 9.0)
        assert state.optimal_latency() == pytest.approx(
            optimal_total_latency(bids, 9.0)
        )
        np.testing.assert_allclose(state.loads(), pr_loads(bids, 9.0))

    def test_bids_returns_a_copy(self):
        state = IncrementalPRState(np.array([1.0, 2.0]), 5.0)
        state.bids[0] = 99.0
        assert state.bids[0] == 1.0


class TestUpdates:
    def test_update_bid_matches_fresh_state(self):
        state = IncrementalPRState(np.array([1.0, 2.0, 5.0]), 9.0)
        state.update_bid(1, 3.0)
        fresh = np.array([1.0, 3.0, 5.0])
        assert state.optimal_latency() == pytest.approx(
            optimal_total_latency(fresh, 9.0)
        )
        np.testing.assert_allclose(state.loads(), pr_loads(fresh, 9.0))

    def test_add_machine(self):
        state = IncrementalPRState(np.array([1.0, 2.0]), 6.0)
        index = state.add_machine(4.0)
        assert index == 2
        assert state.n_machines == 3
        assert state.optimal_latency() == pytest.approx(
            optimal_total_latency([1.0, 2.0, 4.0], 6.0)
        )

    def test_remove_machine(self):
        state = IncrementalPRState(np.array([1.0, 2.0, 4.0]), 6.0)
        state.remove_machine(1)
        assert state.n_machines == 2
        assert state.optimal_latency() == pytest.approx(
            optimal_total_latency([1.0, 4.0], 6.0)
        )

    def test_cannot_remove_last_machine(self):
        state = IncrementalPRState(np.array([1.0]), 6.0)
        with pytest.raises(ValueError, match="last machine"):
            state.remove_machine(0)


class TestNumericalDrift:
    def test_hundred_thousand_updates_stay_exact(self):
        rng = np.random.default_rng(0)
        bids = rng.uniform(0.5, 10.0, size=32)
        state = IncrementalPRState(bids.copy(), 20.0)
        current = bids.copy()
        for _ in range(100_000):
            i = int(rng.integers(0, 32))
            b = float(rng.uniform(0.5, 10.0))
            state.update_bid(i, b)
            current[i] = b
        assert state.total_inverse == pytest.approx(
            float(np.sum(1.0 / current)), rel=1e-12
        )

    def test_manual_refresh(self):
        state = IncrementalPRState(np.array([1.0, 2.0]), 5.0, refresh_every=10**9)
        state.update_bid(0, 3.0)
        state.refresh()
        assert state.total_inverse == pytest.approx(1 / 3 + 1 / 2)


class TestPropertyEquivalence:
    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 12),
        steps=st.integers(1, 30),
    )
    def test_random_update_sequences_match_scratch(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        bids = rng.uniform(0.1, 20.0, size=n)
        state = IncrementalPRState(bids.copy(), 7.0)
        for _ in range(steps):
            i = int(rng.integers(0, bids.size))
            b = float(rng.uniform(0.1, 20.0))
            state.update_bid(i, b)
            bids[i] = b
        assert state.optimal_latency() == pytest.approx(
            optimal_total_latency(bids, 7.0), rel=1e-9
        )


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            IncrementalPRState(np.array([]), 5.0)
        with pytest.raises(ValueError):
            IncrementalPRState(np.array([0.0]), 5.0)
        with pytest.raises(ValueError):
            IncrementalPRState(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            IncrementalPRState(np.array([1.0]), 5.0, refresh_every=0)
