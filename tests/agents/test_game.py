"""Unit tests for the iterated best-response bidding game."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import BestResponseDynamics


class TestTruthfulMechanismGame:
    def test_truth_is_a_fixed_point(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        trace = game.run(max_rounds=3)
        assert trace.converged
        assert trace.max_drift_from(small_true_values) < 1e-4

    def test_converges_back_from_perturbed_start(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        start = small_true_values * np.array([2.0, 0.5, 1.5, 0.8])
        trace = game.run(start_bids=start, max_rounds=5)
        assert trace.converged
        assert trace.max_drift_from(small_true_values) < 1e-4

    def test_truthful_is_equilibrium(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        assert game.truthful_is_equilibrium()

    def test_history_has_start_row(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        trace = game.run(max_rounds=2)
        np.testing.assert_allclose(trace.bid_history[0], small_true_values)
        assert trace.bid_history.shape[0] == trace.rounds + 1


class TestRatePath:
    def test_constant_path_replays_run_then_keeps_playing(self, declared_mechanism):
        # run() and run_path() share one loop: a constant path plays every
        # round and starts with run()'s history, bit for bit.
        true_values = np.array([1.0, 2.0, 5.0])
        game = BestResponseDynamics(declared_mechanism, true_values, 6.0)
        start = true_values * np.array([2.0, 0.5, 1.5])
        trace = game.run(start_bids=start)
        k = trace.rounds + 3
        path = game.run_path([6.0] * k, start_bids=start)
        assert path.rounds == k
        assert path.bid_history.shape == (k + 1, true_values.size)
        np.testing.assert_array_equal(
            path.bid_history[: trace.rounds + 1], trace.bid_history
        )

    def test_rejects_an_empty_path(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        with pytest.raises(ValueError, match="non-empty"):
            game.run_path([])


class TestDeclaredVariantGame:
    def test_truth_is_not_an_equilibrium(self, declared_mechanism, small_true_values):
        game = BestResponseDynamics(declared_mechanism, small_true_values, 10.0)
        assert not game.truthful_is_equilibrium()

    def test_dynamics_drift_away_from_truth(self, declared_mechanism, small_true_values):
        game = BestResponseDynamics(declared_mechanism, small_true_values, 10.0)
        trace = game.run(max_rounds=4)
        # Agents overbid, so the final profile sits strictly above truth.
        assert np.all(trace.final_bids > small_true_values)


class TestDishonestExecutionGame:
    def test_wider_deviation_space_still_keeps_truth_fixed(
        self, mechanism, small_true_values
    ):
        # honest_execution=False lets best responses also consider slow
        # execution; it is dominated, so the fixed point is unchanged.
        game = BestResponseDynamics(
            mechanism, small_true_values[:3], 6.0, honest_execution=False
        )
        trace = game.run(max_rounds=2)
        assert trace.converged
        assert trace.max_drift_from(small_true_values[:3]) < 1e-4

    def test_equilibrium_check_with_execution_dimension(
        self, mechanism, small_true_values
    ):
        game = BestResponseDynamics(
            mechanism, small_true_values[:3], 6.0, honest_execution=False
        )
        assert game.truthful_is_equilibrium()


class TestValidation:
    def test_start_bids_length_checked(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        with pytest.raises(ValueError):
            game.run(start_bids=np.array([1.0]))

    def test_nonpositive_start_rejected(self, mechanism, small_true_values):
        game = BestResponseDynamics(mechanism, small_true_values, 10.0)
        with pytest.raises(ValueError):
            game.run(start_bids=np.array([1.0, -1.0, 1.0, 1.0]))
