"""Cross-module integration stories.

Each test wires several subsystems together the way a user would and
asserts the end-to-end invariant — the seams the unit tests cannot see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BestResponseDynamics,
    ManipulativeAgent,
    TruthfulAgent,
    VerificationMechanism,
    paper_cluster,
)
from repro.analysis.landscape import utility_landscape
from repro.distributed import DistributedVerificationMechanism, tree_overlay
from repro.protocol import run_protocol


class TestGameThenProtocol:
    """Best-response bidding converges to truth; the protocol run at the
    equilibrium profile achieves the optimum end to end."""

    def test_equilibrium_bids_yield_optimal_protocol_round(self):
        t = paper_cluster().true_values[:6]
        game = BestResponseDynamics(VerificationMechanism(), t, 10.0)
        trace = game.run(max_rounds=3)
        assert trace.converged

        agents = [TruthfulAgent(value) for value in trace.final_bids]
        result = run_protocol(
            agents, 10.0, duration=600.0, rng=np.random.default_rng(4)
        )
        optimum = 10.0**2 / float(np.sum(1.0 / t))
        assert result.outcome.realised_latency == pytest.approx(optimum, rel=0.05)


class TestLandscapeFastPathAgreement:
    """The vectorised landscape fast path must equal the scalar loop."""

    def test_fast_and_slow_paths_identical(self, small_true_values):
        mechanism = VerificationMechanism()
        bid_factors = np.array([0.5, 1.0, 2.0])
        exec_factors = np.array([1.0, 1.5])

        fast = utility_landscape(
            mechanism, small_true_values, 10.0, 0,
            bid_factors=bid_factors, exec_factors=exec_factors,
        )

        # Recompute by hand with scalar mechanism runs.
        expected = np.empty((3, 2))
        for i, bf in enumerate(bid_factors):
            for j, ef in enumerate(exec_factors):
                bids = small_true_values.copy()
                bids[0] *= bf
                execs = small_true_values.copy()
                execs[0] *= ef
                outcome = mechanism.run(bids, 10.0, execs)
                expected[i, j] = float(outcome.payments.utility[0])
        np.testing.assert_allclose(fast.utilities, expected, rtol=1e-12)

    def test_declared_variant_uses_its_own_mode(self, small_true_values):
        fast = utility_landscape(
            VerificationMechanism("declared"), small_true_values, 10.0, 0,
            bid_factors=np.array([1.0, 2.0]),
            exec_factors=np.array([1.0]),
        )
        # Declared compensation makes overbidding profitable: the 2x
        # bid beats truth, which would be false under observed mode.
        assert fast.utilities[1, 0] > fast.utilities[0, 0]


class TestProtocolFeedsDistributedMechanism:
    """Verification estimates from a simulated round drive the
    distributed payment computation; the result matches the
    centralised outcome computed from the same estimates."""

    def test_estimates_flow_into_distributed_payments(self):
        cluster = paper_cluster()
        agents = [TruthfulAgent(t) for t in cluster.true_values]
        agents[0] = ManipulativeAgent(1.0, bid_factor=0.5, execution_factor=2.0)
        result = run_protocol(
            agents, 20.0, duration=500.0, rng=np.random.default_rng(9)
        )

        bids = np.array([a.bid() for a in agents])
        estimates = result.estimated_execution_values
        distributed = DistributedVerificationMechanism(tree_overlay(16)).run(
            bids, 20.0, estimates
        )
        np.testing.assert_allclose(
            distributed.outcome.payments.payment,
            result.outcome.payments.payment,
            rtol=1e-9,
        )
