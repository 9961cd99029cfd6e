"""Property-based tests for the verification estimator (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol import verified_estimates

scales = st.floats(min_value=0.05, max_value=50.0)
loads = st.floats(min_value=0.05, max_value=50.0)


def _estimate(sojourns, load):
    """``verified_estimates`` for one machine that ran ``sojourns``."""
    return float(
        verified_estimates([1.0], [load], [sojourns.size], [sojourns.mean()])[0]
    )


class TestEstimatorProperties:
    @settings(max_examples=100)
    @given(t=scales, load=loads, seed=st.integers(0, 2**32 - 1))
    def test_estimate_near_truth_on_large_samples(self, t, load, seed):
        rng = np.random.default_rng(seed)
        sojourns = rng.exponential(t * load, size=20_000)
        estimate = _estimate(sojourns, load)
        # cv = 1 for exponential: 20k samples -> ~0.7% std error; 5
        # sigma keeps the property sound across all seeds.
        assert estimate == pytest.approx(t, rel=0.05)

    @settings(max_examples=100)
    @given(t=scales, load=loads)
    def test_noise_free_estimate_is_exact(self, t, load):
        sojourns = np.full(100, t * load)
        assert _estimate(sojourns, load) == pytest.approx(t, rel=1e-12)

    @settings(max_examples=100)
    @given(
        t=scales,
        load=loads,
        scale=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_load_scaling_consistency(self, t, load, scale, seed):
        # The same sojourn sample attributed to a `scale`-times larger
        # load must yield a `scale`-times smaller estimate.
        rng = np.random.default_rng(seed)
        sojourns = rng.exponential(t * load, size=500)
        base = _estimate(sojourns, load)
        scaled = _estimate(sojourns, load * scale)
        assert scaled == pytest.approx(base / scale, rel=1e-9)
