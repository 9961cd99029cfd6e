"""Unit tests for the distributed verification mechanism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.allocation.pr import pr_allocation
from repro.distributed import (
    DistributedVerificationMechanism,
    random_tree_overlay,
    star_overlay,
    tree_overlay,
)
from repro.mechanism import VerificationMechanism
from repro.system.cluster import paper_cluster


@pytest.fixture
def scenario():
    """Bids/executions of the Low2 experiment on the paper cluster."""
    t = paper_cluster().true_values
    bids = t.copy()
    bids[0] = 0.5
    executions = t.copy()
    executions[0] = 2.0
    return t, bids, executions


class TestEquivalenceWithCentralised:
    @pytest.mark.parametrize("shape", ["star", "binary", "chain", "random"])
    def test_payments_identical(self, scenario, shape, rng):
        t, bids, executions = scenario
        overlay = {
            "star": star_overlay(16),
            "binary": tree_overlay(16, arity=2),
            "chain": tree_overlay(16, arity=1),
            "random": random_tree_overlay(16, rng),
        }[shape]
        central = VerificationMechanism().run(bids, 20.0, executions)
        distributed = DistributedVerificationMechanism(overlay).run(
            bids, 20.0, executions
        )
        np.testing.assert_allclose(
            distributed.outcome.payments.payment,
            central.payments.payment,
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            distributed.outcome.loads, central.loads, rtol=1e-12
        )

    def test_realised_latency_matches(self, scenario):
        t, bids, executions = scenario
        central = VerificationMechanism().run(bids, 20.0, executions)
        distributed = DistributedVerificationMechanism().run(bids, 20.0, executions)
        assert distributed.outcome.realised_latency == pytest.approx(
            central.realised_latency
        )

    def test_default_overlay_built_on_demand(self, scenario):
        t, bids, executions = scenario
        outcome = DistributedVerificationMechanism().run(bids, 20.0, executions)
        assert outcome.outcome.allocation.n_machines == 16


class TestMessageComplexity:
    def test_four_messages_per_machine(self, scenario):
        t, bids, executions = scenario
        result = DistributedVerificationMechanism(star_overlay(16)).run(
            bids, 20.0, executions
        )
        # Two aggregation rounds of 2n messages each.
        assert result.total_messages == 4 * 16
        assert result.messages_per_machine == 4.0

    def test_message_count_independent_of_shape(self, scenario, rng):
        t, bids, executions = scenario
        counts = set()
        for overlay in (
            star_overlay(16), tree_overlay(16), random_tree_overlay(16, rng)
        ):
            result = DistributedVerificationMechanism(overlay).run(
                bids, 20.0, executions
            )
            counts.add(result.total_messages)
        assert counts == {64}

    def test_latency_depends_on_shape(self, scenario):
        t, bids, executions = scenario
        star = DistributedVerificationMechanism(star_overlay(16)).run(
            bids, 20.0, executions
        )
        chain = DistributedVerificationMechanism(tree_overlay(16, arity=1)).run(
            bids, 20.0, executions
        )
        assert star.rounds_of_latency < chain.rounds_of_latency


class TestPrivacyMode:
    def test_payments_match_within_masking_noise(self, scenario, rng):
        t, bids, executions = scenario
        central = VerificationMechanism().run(bids, 20.0, executions)
        private = DistributedVerificationMechanism(
            tree_overlay(16), n_aggregators=3, rng=rng
        ).run(bids, 20.0, executions)
        np.testing.assert_allclose(
            private.outcome.payments.payment,
            central.payments.payment,
            atol=1e-5,  # float cancellation against the 1e6 masks
        )

    def test_share_accounting(self, scenario, rng):
        t, bids, executions = scenario
        result = DistributedVerificationMechanism(
            tree_overlay(16), n_aggregators=3, rng=rng
        ).run(bids, 20.0, executions)
        # Two rounds, 16 contributions each, 3 shares per contribution.
        assert result.privacy_shares_sent == 2 * 16 * 3

    def test_privacy_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            DistributedVerificationMechanism(n_aggregators=2)


class TestValidation:
    def test_single_machine_rejected(self):
        with pytest.raises(ValueError, match="two machines"):
            DistributedVerificationMechanism().run(np.array([1.0]), 5.0)

    def test_true_values_checked_like_mechanism_run(self):
        bids = np.array([1.0, 2.0, 4.0])
        for run in (
            VerificationMechanism().run,
            DistributedVerificationMechanism().run,
        ):
            with pytest.raises(ValueError, match="same length"):
                run(bids, 3.0, true_values=np.ones(4))
            with pytest.raises(ValueError, match="capacity"):
                run(bids, 3.0, bids, true_values=bids * 2.0)

    def test_declared_latency_is_the_pr_optimum(self):
        bids = np.array([1.0, 2.0, 4.0])
        outcome = DistributedVerificationMechanism().run(bids, 3.0).outcome
        expected = pr_allocation(bids, 3.0).total_latency  # R^2 / S
        assert outcome.allocation.total_latency == expected

    def test_overlay_size_mismatch(self):
        with pytest.raises(ValueError, match="overlay"):
            DistributedVerificationMechanism(star_overlay(3)).run(
                np.array([1.0, 2.0]), 5.0
            )

    def test_metadata_records_privacy_setting(self, scenario, rng):
        t, bids, executions = scenario
        result = DistributedVerificationMechanism(
            star_overlay(16), n_aggregators=2, rng=rng
        ).run(bids, 20.0, executions)
        assert result.outcome.metadata["privacy"] == 2
