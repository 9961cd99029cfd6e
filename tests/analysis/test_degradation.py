"""Unit tests for degradation metrics and the multi-liar extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import multi_liar_degradation
from repro.analysis.degradation import degradation_percent, realised_latency
from repro.system.cluster import paper_cluster


class TestDegradationPercent:
    def test_zero_at_optimum(self):
        assert degradation_percent(78.43, 78.43) == 0.0

    def test_positive_above_optimum(self):
        assert degradation_percent(100.0, 80.0) == pytest.approx(25.0)

    def test_nonpositive_optimum_rejected(self):
        with pytest.raises(ValueError):
            degradation_percent(1.0, 0.0)


class TestRealisedLatency:
    def test_truthful_everything_is_optimal(self):
        t = paper_cluster().true_values
        assert realised_latency(t, t, t, 20.0) == pytest.approx(400 / 5.1)

    def test_execution_only_deviation(self):
        t = np.array([1.0, 1.0])
        # loads (5, 5); machine 0 runs at 2: L = 2*25 + 1*25 = 75.
        assert realised_latency(t, t, np.array([2.0, 1.0]), 10.0) == pytest.approx(75.0)


class TestMultiLiar:
    def test_zero_liars_means_zero_degradation(self):
        t = paper_cluster().true_values
        degr = multi_liar_degradation(
            t, 20.0, bid_factor=0.5, execution_factor=2.0, max_liars=3
        )
        assert degr[0] == pytest.approx(0.0)

    def test_paper_conjecture_more_liars_more_damage(self):
        # "We expect even larger increase if more than one computer
        # does not report its true value..."
        t = paper_cluster().true_values
        degr = multi_liar_degradation(
            t, 20.0, bid_factor=0.5, execution_factor=2.0, max_liars=6
        )
        assert np.all(np.diff(degr) > 0.0)

    def test_one_liar_matches_low2(self):
        t = paper_cluster().true_values
        degr = multi_liar_degradation(
            t, 20.0, bid_factor=0.5, execution_factor=2.0, max_liars=1
        )
        assert degr[1] == pytest.approx(65.84, abs=0.05)

    def test_full_length_default(self):
        t = np.array([1.0, 2.0, 5.0])
        degr = multi_liar_degradation(t, 5.0, bid_factor=2.0, execution_factor=1.0)
        assert degr.shape == (4,)

    def test_validation(self):
        t = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            multi_liar_degradation(t, 5.0, bid_factor=1.0, execution_factor=0.5)
        with pytest.raises(ValueError):
            multi_liar_degradation(
                t, 5.0, bid_factor=1.0, execution_factor=1.0, max_liars=3
            )
