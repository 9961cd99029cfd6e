"""Unit tests for additive secret sharing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import (
    DistributedVerificationMechanism,
    SecureSumAggregation,
    reconstruct_sum,
    share_additively,
)


class TestShares:
    def test_shares_sum_to_value(self, rng):
        for value in (-3.5, 0.0, 42.0):
            shares = share_additively(value, 5, rng)
            assert shares.sum() == pytest.approx(value, abs=1e-9)

    def test_single_share_degenerates_to_value(self, rng):
        shares = share_additively(7.0, 1, rng)
        assert shares.tolist() == [7.0]

    def test_invalid_parameters(self, rng):
        with pytest.raises(ValueError):
            share_additively(1.0, 0, rng)
        with pytest.raises(ValueError):
            share_additively(1.0, 2, rng, mask_scale=0.0)

    def test_individual_share_carries_no_signal(self):
        # Across many draws, the correlation between the secret and any
        # single masked share must vanish (statistical hiding).
        rng = np.random.default_rng(0)
        secrets = rng.uniform(0.0, 10.0, size=4000)
        first_shares = np.array(
            [share_additively(v, 3, rng, mask_scale=1e4)[0] for v in secrets]
        )
        correlation = np.corrcoef(secrets, first_shares)[0, 1]
        assert abs(correlation) < 0.05

    def test_residual_share_alone_is_masked(self):
        rng = np.random.default_rng(1)
        secrets = rng.uniform(0.0, 10.0, size=4000)
        last_shares = np.array(
            [share_additively(v, 3, rng, mask_scale=1e4)[-1] for v in secrets]
        )
        correlation = np.corrcoef(secrets, last_shares)[0, 1]
        assert abs(correlation) < 0.05


class TestSecureSumAggregation:
    def test_result_is_exact_sum(self, rng):
        secure = SecureSumAggregation(3, rng, mask_scale=1e3)
        values = [1.5, -2.0, 10.0, 0.25]
        for v in values:
            secure.contribute(v)
        assert secure.result() == pytest.approx(sum(values), abs=1e-9)
        assert secure.n_contributions == 4

    def test_message_count(self, rng):
        secure = SecureSumAggregation(4, rng)
        for v in range(10):
            secure.contribute(float(v))
        assert secure.messages_sent() == 40

    def test_single_aggregator_view_is_not_the_sum(self, rng):
        # With k >= 2, no single aggregator holds the true sum.
        secure = SecureSumAggregation(2, rng, mask_scale=1e6)
        secure.contribute(5.0)
        view = secure.aggregator_view(0)
        assert abs(view - 5.0) > 1.0  # masked far away with high probability

    def test_invalid_aggregator_count(self, rng):
        with pytest.raises(ValueError):
            SecureSumAggregation(0, rng)

    def test_reconstruct_sum_helper(self):
        assert reconstruct_sum(np.array([1.0, 2.0, -0.5])) == pytest.approx(2.5)


class TestAggregatorCount:
    @pytest.mark.parametrize("count", [2.5, float("nan"), "3"])
    def test_non_integer_count_rejected(self, count, rng):
        with pytest.raises(TypeError, match="n_aggregators"):
            DistributedVerificationMechanism(n_aggregators=count, rng=rng)

    def test_numpy_integer_count_accepted(self, rng):
        mechanism = DistributedVerificationMechanism(
            n_aggregators=np.int64(2), rng=rng
        )
        result = mechanism.run(np.array([1.0, 2.0, 4.0]), 3.0)
        assert result.privacy_shares_sent == 2 * 3 * 2
