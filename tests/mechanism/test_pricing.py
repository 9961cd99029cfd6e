"""One parity suite for every path that prices through repro.mechanism.pricing.

Each backend pair is held to its declared contract (DESIGN.md §14.3):

* bit-identical — stacked ``(U, n)`` rows vs ``U`` lone ``Mechanism.run``
  calls, and ``batch_run`` vs the scalar path, compared by ``tobytes()``;
* ≤1e-12 relative — the paths that gather their totals in another
  summation order: shard scalar-mode ``local_payments`` (from the
  broadcast ``(S, Q)``) and the ``DistributedVerificationMechanism``
  (the gathered ``(S, Q)``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.agents import SlowExecutor
from repro.allocation.pr import optimal_latency_excluding_each
from repro.distributed import CoordinatorShard, DistributedVerificationMechanism
from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
    batch_run,
    pricing,
)

MECHANISMS = {
    "observed": VerificationMechanism("observed"),
    "declared": VerificationMechanism("declared"),
    "vcg": VCGMechanism(),
    "archer_tardos": ArcherTardosMechanism(),
}

rules = st.sampled_from(sorted(pricing.RULES))
rates = st.floats(min_value=0.1, max_value=100.0)


@st.composite
def stacks(draw, max_units: int = 6):
    """``(bids, executions, rates)`` with ``U`` rows of ``n`` machines."""
    n = draw(st.integers(2, 70))
    units = draw(st.integers(1, max_units))
    bids = draw(
        arrays(np.float64, (units, n), elements=st.floats(0.05, 50.0))
    )
    factors = draw(
        arrays(np.float64, (units, n), elements=st.floats(1.0, 4.0))
    )
    row_rates = draw(arrays(np.float64, (units,), elements=rates))
    return bids, bids * factors, row_rates


def _same_bytes(actual, expected) -> bool:
    return np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


def _relative_gap(actual, expected, scale=None) -> float:
    """Largest gap, relative to ``scale`` (default: the largest entry).

    Payments are differences of two large terms (``L_{-i}* - L``), so
    their gaps are measured against the leave-one-out optimum they are
    computed from, not against the possibly tiny difference.
    """
    actual, expected = np.asarray(actual), np.asarray(expected)
    if scale is None:
        scale = np.max(np.abs(expected))
    return float(np.max(np.abs(actual - expected)) / scale)


class TestStackedRowsAreLoneProfiles:
    @settings(max_examples=150, deadline=None)
    @given(rule=rules, data=stacks())
    def test_rows_equal_scalar_runs_bytewise(self, rule, data):
        bids, executions, row_rates = data
        priced = pricing.price(rule, bids, executions, row_rates[:, None])
        mechanism = MECHANISMS[rule]
        for k in range(bids.shape[0]):
            outcome = mechanism.run(bids[k], row_rates[k], executions[k])
            payments = outcome.payments
            assert _same_bytes(priced.loads[k], outcome.loads)
            assert _same_bytes(
                priced.declared_latency[k], outcome.allocation.total_latency
            )
            assert _same_bytes(
                priced.realised_latency[k], outcome.realised_latency
            )
            assert _same_bytes(priced.compensation[k], payments.compensation)
            assert _same_bytes(priced.bonus[k], payments.bonus)
            assert _same_bytes(priced.valuation[k], payments.valuation)

    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(["observed", "declared"]),
        data=stacks(),
        rate=rates,
    )
    def test_batch_run_equals_scalar_path_bytewise(self, mode, data, rate):
        bids, executions, _ = data
        batch = batch_run(bids, rate, executions, compensation=mode)
        mechanism = MECHANISMS[mode]
        for k in range(bids.shape[0]):
            outcome = mechanism.run(bids[k], rate, executions[k])
            assert _same_bytes(batch.loads[k], outcome.loads)
            assert _same_bytes(
                batch.realised_latency[k], outcome.realised_latency
            )
            assert _same_bytes(batch.payment[k], outcome.payments.payment)
            assert _same_bytes(batch.utility[k], outcome.payments.utility)

    @pytest.mark.parametrize("rule", sorted(pricing.RULES))
    def test_rates_whose_pow_square_is_not_x_times_x(self, rule, rng):
        # For about one rate in a thousand, libm ``pow(R, 2)`` (a lone
        # profile's Python-float rate) and NumPy's ``R * R`` (a rate
        # column) round apart; stacked rows must still match.
        candidates = rng.uniform(0.1, 100.0, 20_000)
        odd = np.array([r for r in candidates.tolist() if r**2 != r * r][:8])
        assert odd.size > 0
        bids = np.tile(rng.uniform(0.5, 8.0, 5), (odd.size, 1))
        priced = pricing.price(rule, bids, bids, odd[:, None])
        for k, rate in enumerate(odd.tolist()):
            outcome = MECHANISMS[rule].run(bids[k], rate)
            assert _same_bytes(priced.bonus[k], outcome.payments.bonus)
            assert _same_bytes(
                priced.declared_latency[k], outcome.allocation.total_latency
            )

    def test_row_dots_is_np_dot_per_row(self, rng):
        for n in (2, 7, 16, 33, 1000, 10_000):
            left = rng.uniform(0.01, 50.0, (3, n))
            right = rng.uniform(0.01, 50.0, (3, n))
            stacked = pricing.row_dots(left, right)
            for k in range(3):
                assert _same_bytes(stacked[k], np.dot(left[k], right[k]))
            assert _same_bytes(
                pricing.row_dots(left[0], right[0]), np.dot(left[0], right[0])
            )


class TestHorizonPhaseB:
    def test_fused_rounds_equal_sequential_at_an_odd_rate(self):
        # 3.393604011690069 ** 2 (libm pow) and 3.393604011690069 * itself
        # round apart: the stacked Phase B must price like the
        # sequential loop's lone profiles anyway.
        from repro.resilience import RoundSupervisor

        rate = 3.393604011690069
        assert rate**2 != rate * rate

        def rounds(horizon: bool):
            values = np.random.default_rng(3).uniform(1.0, 8.0, 6)
            supervisor = RoundSupervisor(
                [SlowExecutor(float(t), 1.0) for t in values],
                rate,
                duration=5.0,
                rng=np.random.default_rng(5),
                horizon=horizon,
            )
            return [repr(r) for r in supervisor.run(12).rounds]

        assert rounds(True) == rounds(False)


class TestGatheredTotalsWithinTolerance:
    @settings(max_examples=60, deadline=None)
    @given(data=stacks(max_units=1))
    def test_shard_local_payments(self, data):
        bids, executions, row_rates = data
        rate = float(row_rates[0])
        names = [f"C{i + 1}" for i in range(bids.shape[1])]
        shard = CoordinatorShard(
            0,
            names,
            [
                SlowExecutor(float(b), float(e / b))
                for b, e in zip(bids[0], executions[0])
            ],
            rate,
            rng=np.random.default_rng(0),
        )
        shard.begin_round()
        shard.collect_bids()
        inverse_sum = float(np.sum(1.0 / bids[0]))
        shard.allocate_from_total(inverse_sum)
        # One job per machine: each estimate is its observed slope.
        report = shard.execute(np.zeros(len(names)), np.ones(len(names)))
        amounts = shard.local_payments(
            inverse_sum, float(np.sum(report["quotients"]))
        )
        outcome = MECHANISMS["observed"].run(
            bids[0], rate, report["estimates"]
        )
        paid = amounts[:, 0]
        scale = np.max(optimal_latency_excluding_each(bids[0], rate))
        assert _relative_gap(paid, outcome.payments.payment, scale) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(data=stacks(max_units=1))
    def test_distributed_mechanism(self, data):
        bids, executions, row_rates = data
        rate = float(row_rates[0])
        distributed = DistributedVerificationMechanism().run(
            bids[0], rate, executions[0]
        ).outcome
        outcome = MECHANISMS["observed"].run(bids[0], rate, executions[0])
        scale = np.max(optimal_latency_excluding_each(bids[0], rate))
        assert _relative_gap(distributed.loads, outcome.loads) <= 1e-12
        assert (
            _relative_gap(
                distributed.payments.compensation, outcome.payments.compensation
            )
            <= 1e-12
        )
        assert (
            _relative_gap(
                distributed.payments.payment, outcome.payments.payment, scale
            )
            <= 1e-12
        )
        assert distributed.allocation.total_latency == pytest.approx(
            outcome.allocation.total_latency, rel=1e-12
        )


class TestRuleTable:
    def test_rules_are_the_kernel_modes(self):
        from repro.agents import kernels

        assert set(pricing.RULES) == {
            kernels.kernel_mode_of(m) for m in MECHANISMS.values()
        }
