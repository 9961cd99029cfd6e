"""Property-based agreement of the batch kernel with the scalar path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.mechanism import VerificationMechanism
from repro.mechanism.batch import batch_run

profile_matrices = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.just(n)),
            elements=st.floats(min_value=0.05, max_value=50.0),
        ),
        arrays(
            np.float64,
            st.just(n),
            elements=st.floats(min_value=1.0, max_value=4.0),
        ),
    )
)


class TestBatchScalarAgreement:
    @settings(max_examples=100)
    @given(
        data=profile_matrices,
        rate=st.floats(min_value=0.1, max_value=100.0),
        mode=st.sampled_from(["observed", "declared"]),
    )
    def test_every_profile_matches_scalar_run(self, data, rate, mode):
        bids, exec_factors = data
        execs = bids * exec_factors[None, :]
        batch = batch_run(bids, rate, execs, compensation=mode)
        mechanism = VerificationMechanism(mode)
        # Spot-check the first and last rows (the scalar path is slow);
        # both price through one kernel, so they agree byte for byte.
        for k in (0, bids.shape[0] - 1):
            outcome = mechanism.run(bids[k], rate, execs[k])
            assert (
                batch.payment[k].tobytes() == outcome.payments.payment.tobytes()
            )
            assert (
                batch.utility[k].tobytes() == outcome.payments.utility.tobytes()
            )

    @settings(max_examples=100)
    @given(data=profile_matrices, rate=st.floats(min_value=0.1, max_value=100.0))
    def test_batch_invariants(self, data, rate):
        bids, exec_factors = data
        execs = bids * exec_factors[None, :]
        batch = batch_run(bids, rate, execs)
        np.testing.assert_allclose(
            batch.loads.sum(axis=1), rate, rtol=1e-9
        )
        # Observed compensation: utility == bonus for every profile.
        np.testing.assert_allclose(
            batch.utility, batch.bonus, rtol=1e-9, atol=1e-9 * max(1.0, rate**2)
        )
