"""Unit tests for the Table 2 scenario definitions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    PAPER_SCENARIOS,
    Scenario,
    build_bid_and_execution_vectors,
    scenario_by_name,
)


class TestScenarioDefinitions:
    def test_eight_scenarios_in_paper_order(self):
        names = [s.name for s in PAPER_SCENARIOS]
        assert names == [
            "True1", "True2", "High1", "High2", "High3", "High4", "Low1", "Low2",
        ]

    def test_classes_match_bid_factor(self):
        for s in PAPER_SCENARIOS:
            if s.name.startswith("True"):
                assert s.bid_factor == 1.0
            elif s.name.startswith("High"):
                assert s.bid_factor > 1.0
            else:
                assert s.bid_factor < 1.0

    def test_execution_factors_at_least_one(self):
        assert all(s.execution_factor >= 1.0 for s in PAPER_SCENARIOS)

    def test_unknown_scenario_raises_with_known_names(self):
        assert scenario_by_name("low2").name == "Low2"  # case-insensitive
        with pytest.raises(KeyError, match="True1"):
            scenario_by_name("Mid1")

    def test_invalid_scenario_construction(self):
        with pytest.raises(ValueError):
            Scenario("X", 0.0, 1.0, "")
        with pytest.raises(ValueError):
            Scenario("X", 1.0, 0.5, "")


class TestVectorConstruction:
    def test_only_manipulator_changes(self):
        t = np.array([1.0, 2.0, 5.0])
        bids, executions = build_bid_and_execution_vectors(
            t, scenario_by_name("High1")
        )
        np.testing.assert_allclose(bids, [3.0, 2.0, 5.0])
        np.testing.assert_allclose(executions, [3.0, 2.0, 5.0])

    def test_custom_manipulator_index(self):
        t = np.array([1.0, 2.0, 5.0])
        bids, executions = build_bid_and_execution_vectors(
            t, scenario_by_name("Low2"), manipulator=2
        )
        np.testing.assert_allclose(bids, [1.0, 2.0, 2.5])
        np.testing.assert_allclose(executions, [1.0, 2.0, 10.0])

    def test_coalition_applies_the_factors_to_every_member(self):
        t = np.array([1.0, 2.0, 5.0])
        bids, executions = build_bid_and_execution_vectors(
            t, scenario_by_name("High3"), manipulator=(0, 2)
        )
        np.testing.assert_allclose(bids, [3.0, 2.0, 15.0])
        np.testing.assert_allclose(executions, [2.0, 2.0, 10.0])

    def test_input_not_mutated(self):
        t = np.array([1.0, 2.0])
        build_bid_and_execution_vectors(t, scenario_by_name("High1"))
        np.testing.assert_allclose(t, [1.0, 2.0])

    def test_manipulator_index_validated(self):
        with pytest.raises(IndexError):
            build_bid_and_execution_vectors(
                np.array([1.0]), scenario_by_name("True1"), manipulator=3
            )
