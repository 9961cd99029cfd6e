"""Unit tests for the sensitivity sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    sweep_heterogeneity,
    sweep_system_size,
)


class TestSweepSystemSize:
    def test_parameters_recorded(self, rng):
        results = sweep_system_size([4, 8, 16], rng)
        assert [r.parameter for r in results] == [4.0, 8.0, 16.0]

    def test_frugality_stays_above_one(self, rng):
        for r in sweep_system_size([4, 16, 64], rng):
            assert r.frugality_ratio >= 1.0

    def test_frugality_converges_to_two_with_scale(self, rng):
        # ratio = 1 + sum s_i/(S - s_i) decreases with n and converges
        # to 2 (each machine's rent vanishes, but their sum tends to
        # the whole optimum once more).
        results = sweep_system_size([4, 256], rng)
        assert results[-1].frugality_ratio < results[0].frugality_ratio
        assert results[-1].frugality_ratio == pytest.approx(2.0, abs=0.05)

    def test_small_systems_rejected(self, rng):
        with pytest.raises(ValueError):
            sweep_system_size([1], rng)


class TestSweepHeterogeneity:
    def test_homogeneous_cluster_baseline(self, rng):
        results = sweep_heterogeneity(16, [1.0], rng)
        assert results[0].parameter == 1.0
        assert results[0].canonical_degradation_percent > 0.0

    def test_damage_grows_with_spread(self):
        rng = np.random.default_rng(4)
        results = sweep_heterogeneity(16, [1.0, 10.0, 100.0], rng)
        damages = [r.canonical_degradation_percent for r in results]
        assert damages[-1] > damages[0]

    def test_spread_below_one_rejected(self, rng):
        with pytest.raises(ValueError):
            sweep_heterogeneity(16, [0.5], rng)

    def test_tiny_cluster_rejected(self, rng):
        with pytest.raises(ValueError):
            sweep_heterogeneity(1, [2.0], rng)
