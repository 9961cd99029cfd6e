"""Unit tests for the fixed agent behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import (
    ManipulativeAgent,
    ScaledBidder,
    SlowExecutor,
    TruthfulAgent,
    profile_bids,
    profile_execution_values,
)


class TestTruthfulAgent:
    def test_bids_truth(self):
        agent = TruthfulAgent(3.0)
        assert agent.bid() == 3.0
        assert agent.execution_value() == 3.0

    def test_rejects_nonpositive_true_value(self):
        with pytest.raises(ValueError):
            TruthfulAgent(0.0)


class TestManipulativeAgent:
    def test_factors_applied(self):
        agent = ManipulativeAgent(2.0, bid_factor=3.0, execution_factor=1.5)
        assert agent.bid() == 6.0
        assert agent.execution_value() == 3.0

    def test_execution_factor_below_one_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ManipulativeAgent(2.0, bid_factor=1.0, execution_factor=0.5)

    def test_nonpositive_bid_factor_rejected(self):
        with pytest.raises(ValueError):
            ManipulativeAgent(2.0, bid_factor=0.0)

    def test_repr_shows_factors(self):
        agent = ManipulativeAgent(2.0, bid_factor=3.0)
        assert "bid_factor=3" in repr(agent)


class TestConvenienceSubclasses:
    def test_scaled_bidder_executes_at_capacity(self):
        agent = ScaledBidder(4.0, bid_factor=0.5)
        assert agent.bid() == 2.0
        assert agent.execution_value() == 4.0

    def test_slow_executor_bids_truth(self):
        agent = SlowExecutor(4.0, execution_factor=2.0)
        assert agent.bid() == 4.0
        assert agent.execution_value() == 8.0


class TestProfiles:
    def test_profile_vectors(self):
        agents = [TruthfulAgent(1.0), ScaledBidder(2.0, 3.0)]
        np.testing.assert_allclose(profile_bids(agents), [1.0, 6.0])
        np.testing.assert_allclose(profile_execution_values(agents), [1.0, 2.0])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            profile_bids([])
        with pytest.raises(ValueError):
            profile_execution_values([])
