"""The strategic layer prices through the mechanisms' own kernel (hypothesis).

The truthfulness audit and the utility landscape price their deviation
stacks with :func:`repro.mechanism.pricing.price`, so they must equal a
:meth:`Mechanism.run` per deviation bit for bit; the closed-form
utility kernel prices one candidate from the gathered totals, so it
must agree with ``Mechanism.run`` to rounding.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.agents import kernels
from repro.agents.kernels import sufficient_statistics, utility_grid
from repro.analysis.landscape import utility_landscape
from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
    truthfulness_audit,
)

true_values = arrays(
    np.float64,
    st.integers(min_value=2, max_value=6),
    elements=st.floats(min_value=0.05, max_value=50.0),
)
rates = st.floats(min_value=0.1, max_value=100.0)


class _Verification(VerificationMechanism):
    """The same rule; :func:`kernels.kernel_mode_of` gives subclasses none."""


class _VCG(VCGMechanism):
    """The same rule; :func:`kernels.kernel_mode_of` gives subclasses none."""


class _ArcherTardos(ArcherTardosMechanism):
    """The same rule; :func:`kernels.kernel_mode_of` gives subclasses none."""


#: (kernel mode, mechanism, the same rule on the per-deviation fallback)
#: for every rule in ``pricing.RULES``.
RULES = (
    ("observed", VerificationMechanism("observed"), _Verification("observed")),
    ("declared", VerificationMechanism("declared"), _Verification("declared")),
    ("vcg", VCGMechanism(), _VCG()),
    ("archer_tardos", ArcherTardosMechanism(), _ArcherTardos()),
)
rules = st.sampled_from(RULES)


class TestStackedAuditParity:
    @settings(max_examples=25, deadline=None)
    @given(t=true_values, rate=rates, rule=rules)
    def test_stacked_report_equals_fallback(self, t, rate, rule):
        _, mechanism, fallback = rule
        assert kernels.kernel_mode_of(mechanism) is not None
        assert kernels.kernel_mode_of(fallback) is None
        stacked = truthfulness_audit(mechanism, t, rate)
        reference = truthfulness_audit(fallback, t, rate)
        assert repr(stacked) == repr(reference)


class TestLandscapeParity:
    @settings(max_examples=25, deadline=None)
    @given(
        t=true_values,
        rate=rates,
        rule=rules,
        agent_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_landscape_equals_per_point_runs(self, t, rate, rule, agent_seed):
        _, mechanism, _ = rule
        agent = agent_seed % t.size
        bid_factors = np.geomspace(0.25, 4.0, 5)
        exec_factors = np.linspace(1.0, 3.0, 3)
        landscape = utility_landscape(
            mechanism, t, rate, agent,
            bid_factors=bid_factors, exec_factors=exec_factors,
        )
        reference = np.empty((bid_factors.size, exec_factors.size))
        for i, bf in enumerate(bid_factors):
            for j, ef in enumerate(exec_factors):
                bids, executions = t.copy(), t.copy()
                bids[agent] = bf * t[agent]
                executions[agent] = ef * t[agent]
                outcome = mechanism.run(bids, rate, executions)
                reference[i, j] = outcome.payments.utility[agent]
        assert landscape.utilities.tobytes() == reference.tobytes()


class TestKernelAgreesWithRun:
    @settings(max_examples=50, deadline=None)
    @given(
        bids=true_values,
        exec_factors=arrays(
            np.float64, 6, elements=st.floats(min_value=1.0, max_value=4.0)
        ),
        rate=rates,
        rule=rules,
    )
    def test_kernel_within_rounding_of_run(self, bids, exec_factors, rate, rule):
        # Relative to the grid's largest |U|: utilities cross zero, where
        # a plain relative error is unbounded.
        mode, mechanism, _ = rule
        executions = bids * exec_factors[: bids.size]
        bid_grid = bids[0] * np.geomspace(0.2, 5.0, 7)
        exec_grid = bids[0] * np.linspace(1.0, 3.0, 4)
        s_minus, q_minus = sufficient_statistics(bids, executions)
        surface = utility_grid(
            bid_grid, exec_grid, s_minus[0], q_minus[0], rate, mode=mode
        )
        reference = np.empty_like(surface)
        for r, e in enumerate(exec_grid):
            for c, b in enumerate(bid_grid):
                profile, realised = bids.copy(), executions.copy()
                profile[0], realised[0] = b, e
                outcome = mechanism.run(profile, rate, realised)
                reference[r, c] = outcome.payments.utility[0]
        scale = np.abs(reference).max()
        assert np.abs(surface - reference).max() <= 1e-12 * scale
