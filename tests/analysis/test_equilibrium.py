"""Unit tests for equilibrium and noisy-verification analyses."""

from __future__ import annotations

import pytest

from repro.analysis import epsilon_truthfulness_under_noise


class TestEpsilonUnderNoise:
    def test_zero_noise_gives_zero_epsilon(self, mechanism, small_true_values, rng):
        eps = epsilon_truthfulness_under_noise(
            mechanism, small_true_values, 10.0, 0, rng,
            noise_relative_std=0.0, n_samples=5,
        )
        assert eps == pytest.approx(0.0, abs=1e-9)

    def test_unbiased_noise_keeps_truthfulness_in_expectation(
        self, mechanism, small_true_values, rng
    ):
        # Structural fact: the payment is independent of the agent's own
        # observed value, so unbiased estimation noise does not open a
        # profitable deviation (up to Monte-Carlo error).
        eps = epsilon_truthfulness_under_noise(
            mechanism, small_true_values, 10.0, 0, rng,
            noise_relative_std=0.05, n_samples=300,
        )
        assert eps < 0.2

    def test_validation(self, mechanism, small_true_values, rng):
        with pytest.raises(ValueError):
            epsilon_truthfulness_under_noise(
                mechanism, small_true_values, 10.0, 0, rng,
                noise_relative_std=-0.1,
            )
        with pytest.raises(ValueError):
            epsilon_truthfulness_under_noise(
                mechanism, small_true_values, 10.0, 0, rng,
                noise_relative_std=0.1, n_samples=0,
            )
