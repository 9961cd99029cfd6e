"""Unit tests for the learning dynamics (Hedge bidders)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.learning import (
    MultiplicativeWeightsBidder,
    simulate_learning,
)
from repro.allocation import optimal_total_latency
from repro.mechanism import VerificationMechanism


class _Verification(VerificationMechanism):
    """The same rule under a type without a closed-form kernel."""


class TestBidderMechanics:
    def test_weights_start_uniform(self, rng):
        bidder = MultiplicativeWeightsBidder(2.0, rng)
        np.testing.assert_allclose(bidder.weights, 1.0 / bidder.factors.size)

    def test_update_moves_mass_to_better_factors(self, rng):
        bidder = MultiplicativeWeightsBidder(
            2.0, rng, factors=np.array([0.5, 1.0, 2.0])
        )
        for _ in range(50):
            bidder.update(np.array([0.0, 10.0, 0.0]))
        assert bidder.modal_factor == 1.0
        assert bidder.truthful_mass > 0.99

    def test_weights_stay_normalised(self, rng):
        bidder = MultiplicativeWeightsBidder(2.0, rng)
        for _ in range(20):
            bidder.update(rng.uniform(0, 1, size=bidder.factors.size))
            assert bidder.weights.sum() == pytest.approx(1.0)

    def test_flat_utilities_leave_weights_unchanged(self, rng):
        bidder = MultiplicativeWeightsBidder(2.0, rng)
        before = bidder.weights.copy()
        bidder.update(np.full(bidder.factors.size, 3.0))
        np.testing.assert_allclose(bidder.weights, before)

    def test_sampled_bids_come_from_the_grid(self, rng):
        bidder = MultiplicativeWeightsBidder(2.0, rng)
        for _ in range(30):
            factor = bidder.sample_bid() / 2.0
            assert np.any(np.isclose(bidder.factors, factor))

    def test_grid_must_contain_truth(self, rng):
        with pytest.raises(ValueError, match="1.0"):
            MultiplicativeWeightsBidder(2.0, rng, factors=np.array([0.5, 2.0]))

    def test_utility_vector_length_checked(self, rng):
        bidder = MultiplicativeWeightsBidder(2.0, rng)
        with pytest.raises(ValueError):
            bidder.update(np.array([1.0]))


class TestLearningDynamics:
    """The A14 findings (see module docstring and EXPERIMENTS.md)."""

    @pytest.fixture(scope="class")
    def truthful_trace(self):
        t = np.array([1.0, 2.0, 5.0, 10.0])
        return t, simulate_learning(
            VerificationMechanism(), t, 10.0,
            np.random.default_rng(0), rounds=500, learning_rate=0.3,
        )

    def test_learners_coordinate_on_a_common_scale(self, truthful_trace):
        _t, trace = truthful_trace
        assert np.ptp(trace.modal_factors) == pytest.approx(0.0)

    def test_realised_latency_converges_to_optimum(self, truthful_trace):
        t, trace = truthful_trace
        optimum = optimal_total_latency(t, 10.0)
        late = float(trace.realised_latency[-50:].mean())
        early = float(trace.realised_latency[:20].mean())
        assert late == pytest.approx(optimum, rel=0.01)
        assert late < early  # learning actually improved the system

    def test_declared_variant_learns_inefficient_overbids(self):
        t = np.array([1.0, 2.0, 5.0, 10.0])
        trace = simulate_learning(
            VerificationMechanism("declared"), t, 10.0,
            np.random.default_rng(0), rounds=500, learning_rate=0.3,
        )
        assert trace.modal_factors.max() > 1.0  # overbidding
        optimum = optimal_total_latency(t, 10.0)
        late = float(trace.realised_latency[-50:].mean())
        assert late > optimum * 1.05  # permanent efficiency loss

    def test_trace_shapes(self, truthful_trace):
        _t, trace = truthful_trace
        assert trace.rounds == 500
        assert trace.truthful_mass.shape == (500, 4)
        assert trace.final_truthful_mass().shape == (4,)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_learning(
                VerificationMechanism(), np.array([1.0, 2.0]), 5.0, rng, rounds=0
            )


class TestBatchedKernelRound:
    """The (n, K) broadcast scores the same utilities as the slow path."""

    def test_vectorized_trace_matches_bruteforce(self):
        t = np.array([1.0, 2.0, 5.0])
        fast = simulate_learning(
            VerificationMechanism(), t, 6.0,
            np.random.default_rng(3), rounds=40,
        )
        # A subclass has no kernel mode, so it re-runs the mechanism
        # once per counterfactual factor.
        slow = simulate_learning(
            _Verification(), t, 6.0,
            np.random.default_rng(3), rounds=40,
        )
        # Same rng stream, same utilities (to kernel tolerance), so the
        # Hedge weights — and everything derived — track each other.
        assert np.allclose(fast.truthful_mass, slow.truthful_mass, rtol=1e-9)
        assert np.allclose(
            fast.realised_latency, slow.realised_latency, rtol=1e-9
        )
        assert np.array_equal(fast.modal_factors, slow.modal_factors)
