"""Unit tests for the mechanism property audits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mechanism import (
    VerificationMechanism,
    best_deviation_gain,
    frugality_ratio,
    truthfulness_audit,
    voluntary_participation_margin,
)


class TestBestDeviationGain:
    def test_truthful_mechanism_shows_no_gain(self, mechanism, small_true_values):
        result = best_deviation_gain(mechanism, small_true_values, 10.0, 0)
        assert result.gain <= 1e-9

    def test_declared_variant_shows_gain(self, declared_mechanism, small_true_values):
        result = best_deviation_gain(declared_mechanism, small_true_values, 10.0, 0)
        assert result.gain > 0.01
        assert result.best_bid > small_true_values[0]  # overbidding wins

    def test_execution_factor_below_one_rejected(self, mechanism, small_true_values):
        with pytest.raises(ValueError, match=">= 1"):
            best_deviation_gain(
                mechanism, small_true_values, 10.0, 0, exec_factors=(0.5,)
            )

    @pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("stacked", [True, False])
    def test_invalid_bid_factor_rejected(self, small_true_values, factor, stacked):
        # A deviating bid must be finite and positive on the stacked path
        # and on the per-deviation fallback alike.
        class Subclass(VerificationMechanism):
            pass

        mechanism = VerificationMechanism() if stacked else Subclass()
        with pytest.raises(ValueError):
            best_deviation_gain(
                mechanism, small_true_values, 10.0, 0, bid_factors=(1.0, factor)
            )

    def test_agent_index_validated(self, mechanism, small_true_values):
        with pytest.raises(IndexError):
            best_deviation_gain(mechanism, small_true_values, 10.0, 99)

    def test_truthful_utility_recorded(self, mechanism, small_true_values):
        result = best_deviation_gain(mechanism, small_true_values, 10.0, 1)
        direct = mechanism.run(
            small_true_values, 10.0, small_true_values
        ).payments.utility[1]
        assert result.truthful_utility == pytest.approx(direct)


class TestTruthfulnessAudit:
    def test_verification_mechanism_passes(self, mechanism, small_true_values):
        report = truthfulness_audit(mechanism, small_true_values, 10.0)
        assert report.is_truthful
        assert len(report.deviations) == small_true_values.size

    def test_declared_variant_fails(self, declared_mechanism, small_true_values):
        report = truthfulness_audit(declared_mechanism, small_true_values, 10.0)
        assert not report.is_truthful
        assert report.worst().gain == report.max_gain

    def test_audit_covers_every_agent(self, mechanism, small_true_values):
        report = truthfulness_audit(mechanism, small_true_values, 10.0)
        assert [d.agent for d in report.deviations] == list(
            range(small_true_values.size)
        )


class TestVoluntaryParticipation:
    def test_margin_nonnegative_for_paper_mechanism(self, mechanism, cluster):
        margin = voluntary_participation_margin(mechanism, cluster.true_values, 20.0)
        assert margin >= 0.0

    def test_margin_is_min_utility(self, mechanism, small_true_values):
        margin = voluntary_participation_margin(mechanism, small_true_values, 10.0)
        outcome = mechanism.run(small_true_values, 10.0, small_true_values)
        assert margin == pytest.approx(float(outcome.payments.utility.min()))

    def test_margin_scales_with_rate_squared(self, mechanism, small_true_values):
        m1 = voluntary_participation_margin(mechanism, small_true_values, 10.0)
        m2 = voluntary_participation_margin(mechanism, small_true_values, 20.0)
        assert m2 == pytest.approx(4.0 * m1)


class TestFrugalityRatio:
    def test_matches_outcome_property(self, mechanism, cluster):
        t = cluster.true_values
        outcome = mechanism.run(t, 20.0, t)
        assert frugality_ratio(outcome) == outcome.frugality_ratio

    def test_truthful_ratio_at_least_one(self, mechanism, cluster):
        t = cluster.true_values
        outcome = mechanism.run(t, 20.0, t)
        assert frugality_ratio(outcome) >= 1.0
