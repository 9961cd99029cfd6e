"""Unit tests for the vectorised batch mechanism evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanism import VerificationMechanism
from repro.mechanism.batch import batch_run


def _random_batch(rng, k=50, n=6):
    t = rng.uniform(0.5, 10.0, size=n)
    bids = t * rng.uniform(0.3, 3.0, size=(k, n))
    execs = bids * rng.uniform(1.0, 2.0, size=(k, n))
    return bids, execs


class TestAgreementWithScalarPath:
    @pytest.mark.parametrize("mode", ["observed", "declared"])
    def test_matches_loop_of_scalar_runs(self, rng, mode):
        bids, execs = _random_batch(rng)
        batch = batch_run(bids, 9.0, execs, compensation=mode)
        mechanism = VerificationMechanism(mode)
        for k in range(bids.shape[0]):
            outcome = mechanism.run(bids[k], 9.0, execs[k])
            assert batch.loads[k].tobytes() == outcome.loads.tobytes()
            assert (
                batch.payment[k].tobytes() == outcome.payments.payment.tobytes()
            )
            assert (
                batch.utility[k].tobytes() == outcome.payments.utility.tobytes()
            )
            assert batch.realised_latency[k] == outcome.realised_latency

    def test_default_executions_are_bids(self, rng):
        bids, _ = _random_batch(rng, k=5)
        batch = batch_run(bids, 9.0)
        explicit = batch_run(bids, 9.0, bids)
        np.testing.assert_allclose(batch.payment, explicit.payment)


class TestBatchInvariants:
    def test_conservation_per_profile(self, rng):
        bids, execs = _random_batch(rng, k=30)
        batch = batch_run(bids, 9.0, execs)
        np.testing.assert_allclose(batch.loads.sum(axis=1), 9.0)

    def test_identities(self, rng):
        bids, execs = _random_batch(rng, k=30)
        batch = batch_run(bids, 9.0, execs)
        np.testing.assert_allclose(
            batch.payment, batch.compensation + batch.bonus
        )
        np.testing.assert_allclose(
            batch.utility, batch.payment + batch.valuation
        )
        assert batch.n_profiles == 30


class TestValidation:
    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-D"):
            batch_run(np.ones(3), 5.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            batch_run(np.ones((2, 3)), 5.0, np.ones((2, 4)))

    def test_rejects_nonpositive(self):
        bad = np.ones((2, 3))
        bad[0, 0] = 0.0
        with pytest.raises(ValueError):
            batch_run(bad, 5.0)

    def test_rejects_single_machine(self):
        with pytest.raises(ValueError, match="two machines"):
            batch_run(np.ones((2, 1)), 5.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="compensation"):
            batch_run(np.ones((2, 3)), 5.0, compensation="bogus")
