"""Unit tests for the figure data generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    figure1_data,
    figure2_data,
    figure345_data,
    figure6_data,
    figure6_truthful_structure,
    run_all_scenarios,
)


def record_of(name: str):
    return next(r for r in run_all_scenarios() if r.scenario.name == name)


class TestRunScenario:
    """One scenario's record, as the campaign rebuilds it."""

    def test_record_fields_consistent(self):
        record = record_of("High1")
        assert record.total_latency == record.outcome.realised_latency
        assert record.c1_payment == pytest.approx(
            float(record.outcome.payments.payment[0])
        )
        assert record.degradation_percent(record.total_latency) == 0.0

    def test_true_values_recorded(self):
        record = record_of("True1")
        assert record.outcome.true_values is not None
        assert record.outcome.true_values[0] == 1.0


class TestFigure1:
    def test_all_scenarios_present(self):
        data = figure1_data()
        assert set(data) == {
            "True1", "True2", "High1", "High2", "High3", "High4", "Low1", "Low2",
        }

    def test_values_positive(self):
        assert all(v > 0 for v in figure1_data().values())


class TestFigure2:
    def test_returns_pairs(self):
        data = figure2_data()
        for payment, utility in data.values():
            assert isinstance(payment, float)
            assert isinstance(utility, float)

    def test_mechanism_override_changes_low_payments(self):
        observed = figure2_data()
        declared = figure2_data(records=run_all_scenarios(variant="declared"))
        assert observed["Low1"][0] != declared["Low1"][0]
        # True scenarios coincide: bid == execution there... for True1 only.
        assert observed["True1"] == pytest.approx(declared["True1"])


class TestFigures345:
    @pytest.mark.parametrize("name", ["True1", "High1", "Low1"])
    def test_per_computer_arrays(self, name):
        data = figure345_data(name)
        for key in ("payment", "utility", "compensation", "bonus", "valuation"):
            assert data[key].shape == (16,)

    def test_identities_hold(self):
        data = figure345_data("High1")
        np.testing.assert_allclose(
            data["payment"], data["compensation"] + data["bonus"]
        )
        np.testing.assert_allclose(
            data["utility"], data["payment"] + data["valuation"]
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            figure345_data("Mid1")


class TestFigure6:
    def test_totals_consistent(self):
        data = figure6_data()
        for row in data.values():
            if row["total_valuation"] > 0:
                assert row["ratio"] == pytest.approx(
                    row["total_payment"] / row["total_valuation"]
                )

    def test_truthful_structure_identities(self):
        structure = figure6_truthful_structure()
        np.testing.assert_allclose(
            structure["ratio"], structure["payment"] / structure["valuation"]
        )

    def test_slower_machines_have_smaller_ratio(self):
        # Bonus scales with the machine's marginal contribution, which
        # is largest for the fastest machines.
        ratios = figure6_truthful_structure()["ratio"]
        assert ratios[0] == ratios.max()
        assert ratios[-1] == ratios.min()


class TestRunAllScenarios:
    def test_custom_mechanism_is_used(self):
        records = run_all_scenarios(variant="declared")
        low2 = next(r for r in records if r.scenario.name == "Low2")
        assert low2.c1_payment < 0.0
