"""Unit tests for the execution-value estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol import verified_estimates


def _estimate(sojourns, load):
    """``verified_estimates`` for one machine that ran ``sojourns``."""
    sojourns = np.asarray(sojourns, dtype=np.float64)
    return float(
        verified_estimates([1.0], [load], [sojourns.size], [sojourns.mean()])[0]
    )


class TestPointEstimate:
    def test_exact_on_noise_free_observations(self):
        # Sojourn = t̃ x exactly -> estimate = t̃.
        assert _estimate(np.full(100, 6.0), load=3.0) == pytest.approx(2.0)

    def test_unbiased_under_exponential_noise(self, rng):
        t, x = 2.0, 3.0
        sojourns = rng.exponential(t * x, size=200_000)
        assert _estimate(sojourns, x) == pytest.approx(t, rel=0.02)
