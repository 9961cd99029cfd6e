"""Headline paper-reproduction assertions (Section 4).

Every number the paper's prose reports that we could recover is pinned
here; EXPERIMENTS.md documents the paper-vs-measured comparison in
full.  These tests are the ground truth for "does the reproduction
still reproduce".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    figure1_data,
    figure2_data,
    figure6_data,
    figure6_truthful_structure,
    run_all_scenarios,
    scenario_by_name,
    table1_configuration,
)


class TestTable1:
    def test_sixteen_machines(self, config):
        assert config.cluster.n_machines == 16

    def test_speed_groups(self, config):
        t = config.cluster.true_values
        assert list(t[:2]) == [1.0, 1.0]
        assert list(t[2:5]) == [2.0, 2.0, 2.0]
        assert list(t[5:10]) == [5.0] * 5
        assert list(t[10:]) == [10.0] * 6

    def test_arrival_rate_is_twenty(self, config):
        assert config.arrival_rate == 20.0

    def test_aggregate_speed(self, config):
        # sum 1/t = 5.1 is what pins L* = 400/5.1 = 78.43
        assert config.cluster.total_inverse == pytest.approx(5.1)


class TestFigure1:
    """Total latency per experiment ('performance degradation')."""

    def test_true1_is_the_paper_optimum(self):
        data = figure1_data()
        assert data["True1"] == pytest.approx(78.43, abs=0.005)

    def test_low1_increase_is_about_11_percent(self):
        data = figure1_data()
        increase = data["Low1"] / data["True1"] - 1.0
        assert increase == pytest.approx(0.11, abs=0.005)

    def test_low2_increase_is_about_66_percent(self):
        data = figure1_data()
        increase = data["Low2"] / data["True1"] - 1.0
        assert increase == pytest.approx(0.66, abs=0.005)

    def test_true1_is_the_minimum_over_all_experiments(self):
        data = figure1_data()
        assert min(data.values()) == data["True1"]

    def test_high_orderings_match_the_prose(self):
        # High2 (full capacity) < High3 (faster than bid) < High1
        # (executes at bid) < High4 (slower than bid).
        data = figure1_data()
        assert data["High2"] < data["High3"] < data["High1"] < data["High4"]

    def test_slow_execution_alone_raises_latency(self):
        data = figure1_data()
        assert data["True2"] > data["True1"]


class TestFigure2:
    """Payment and utility of the manipulating computer C1."""

    def test_true1_gives_c1_its_highest_utility(self):
        data = figure2_data()
        utilities = {name: u for name, (_p, u) in data.items()}
        assert max(utilities, key=utilities.get) == "True1"

    def test_c1_utility_is_negative_in_low2(self):
        _, utility = figure2_data()["Low2"]
        assert utility < 0.0

    def test_low2_negative_payment_under_declared_compensation(self):
        # The paper's prose says Low2's *payment* is negative; that holds
        # for the declared-compensation variant (see DESIGN.md §2).
        data = figure2_data(records=run_all_scenarios(variant="declared"))
        payment, utility = data["Low2"]
        assert payment < 0.0
        assert utility < 0.0

    def test_high_experiments_pay_c1_less_than_true1(self):
        data = figure2_data()
        true1_payment = data["True1"][0]
        for name in ("High1", "High2", "High3", "High4"):
            assert data[name][0] < true1_payment

    def test_lying_always_lowers_c1_utility(self):
        data = figure2_data()
        true1_utility = data["True1"][1]
        for name, (_p, u) in data.items():
            if name != "True1":
                assert u < true1_utility


class TestFigures345:
    """Per-computer payment/utility for True1, High1 and Low1."""

    def test_low1_c1_utility_drops_about_45_percent(self):
        records = {r.scenario.name: r for r in run_all_scenarios()}
        drop = 1.0 - records["Low1"].c1_utility / records["True1"].c1_utility
        assert drop == pytest.approx(0.45, abs=0.025)

    def test_high1_c1_utility_drops_about_62_percent(self):
        records = {r.scenario.name: r for r in run_all_scenarios()}
        drop = 1.0 - records["High1"].c1_utility / records["True1"].c1_utility
        assert drop == pytest.approx(0.62, abs=0.025)

    def test_low1_other_computers_get_lower_utility_than_true1(self):
        # "The other computers (C2 - C16) obtain lower utilities" (Fig 5).
        records = {r.scenario.name: r for r in run_all_scenarios()}
        true1 = records["True1"].outcome.payments.utility
        low1 = records["Low1"].outcome.payments.utility
        assert np.all(low1[1:] < true1[1:])

    def test_high1_other_computers_get_higher_utility_than_true1(self):
        # "The other computers (C2 - C16) obtain higher utilities" (Fig 4).
        records = {r.scenario.name: r for r in run_all_scenarios()}
        true1 = records["True1"].outcome.payments.utility
        high1 = records["High1"].outcome.payments.utility
        assert np.all(high1[1:] > true1[1:])


class TestFigure6:
    """Payment structure / frugality."""

    def test_truthful_total_payment_at_most_2_5x_valuation(self):
        structure = figure6_data()["True1"]
        assert 1.0 <= structure["ratio"] <= 2.5

    def test_truthful_per_computer_ratio_within_band(self):
        ratios = figure6_truthful_structure()["ratio"]
        assert np.all(ratios >= 1.0)
        assert np.all(ratios <= 2.5)

    def test_payment_lower_bound_is_the_valuation(self):
        # VP means payment_i >= |valuation_i| for every truthful agent.
        structure = figure6_truthful_structure()
        assert np.all(structure["payment"] >= structure["valuation"] - 1e-9)


class TestTable2Definitions:
    def test_eight_experiments(self):
        assert len(run_all_scenarios()) == 8

    def test_low2_manipulation_matches_the_prose(self):
        s = scenario_by_name("Low2")
        # "bids 2 times less than its true value ... two times slower"
        assert s.bid_factor == 0.5
        assert s.execution_factor == 2.0

    def test_high1_manipulation_matches_the_prose(self):
        s = scenario_by_name("High1")
        # "bids three times higher ... execution value equal to the bid"
        assert s.bid_factor == 3.0
        assert s.execution_factor == 3.0


class TestProtocolComplexity:
    def test_o_n_messages(self):
        # "The total number of messages sent by the above protocol is O(n)."
        from repro.agents import TruthfulAgent
        from repro.protocol import run_protocol

        config = table1_configuration()
        agents = [TruthfulAgent(t) for t in config.cluster.true_values]
        result = run_protocol(
            agents, config.arrival_rate, duration=5.0,
            rng=np.random.default_rng(0),
        )
        n = config.cluster.n_machines
        assert result.network.total_messages == 5 * n
