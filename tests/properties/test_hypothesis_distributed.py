"""Property-based tests for the distributed layer (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distributed import (
    DistributedVerificationMechanism,
    PartialSum,
    ShardPartial,
    aggregate_shards,
    random_tree_overlay,
    share_additively,
    star_overlay,
    tree_overlay,
)
from repro.mechanism import VerificationMechanism

values_arrays = arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=-100.0, max_value=100.0),
)
slopes = arrays(
    np.float64,
    st.integers(min_value=2, max_value=16),
    elements=st.floats(min_value=0.05, max_value=50.0),
)


class TestTreeSumProperties:
    @settings(max_examples=100)
    @given(values=values_arrays, seed=st.integers(0, 2**32 - 1), arity=st.integers(1, 4))
    def test_any_tree_computes_the_exact_sum(self, values, seed, arity):
        n = values.size
        rng = np.random.default_rng(seed)
        for overlay in (
            star_overlay(n),
            tree_overlay(n, arity=arity),
            random_tree_overlay(n, rng),
        ):
            partials = [
                ShardPartial(machine, 1, PartialSum(value))
                for machine, value in enumerate(values.tolist())
            ]
            root, stats = aggregate_shards(overlay, partials)
            assert root.inverse_sum.value == pytest.approx(
                float(values.sum()), abs=1e-7
            )
            assert stats.total_messages == 2 * n


class TestSecretSharingProperties:
    @settings(max_examples=100)
    @given(
        value=st.floats(min_value=-1e4, max_value=1e4),
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shares_always_reconstruct(self, value, k, seed):
        shares = share_additively(value, k, np.random.default_rng(seed))
        assert shares.sum() == pytest.approx(value, abs=1e-6)
        assert shares.size == k


class TestDistributedEqualsCentralised:
    @settings(max_examples=60)
    @given(
        t=slopes,
        rate=st.floats(min_value=0.1, max_value=100.0),
        bid_factor=st.floats(min_value=0.2, max_value=5.0),
        exec_factor=st.floats(min_value=1.0, max_value=4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_payments_equal_on_random_instances(
        self, t, rate, bid_factor, exec_factor, seed
    ):
        bids = t.copy()
        bids[0] *= bid_factor
        executions = t.copy()
        executions[0] *= exec_factor
        central = VerificationMechanism().run(bids, rate, executions)
        overlay = random_tree_overlay(t.size, np.random.default_rng(seed))
        distributed = DistributedVerificationMechanism(overlay).run(
            bids, rate, executions
        )
        np.testing.assert_allclose(
            distributed.outcome.payments.payment,
            central.payments.payment,
            rtol=1e-8,
            atol=1e-8 * max(1.0, rate**2),
        )
