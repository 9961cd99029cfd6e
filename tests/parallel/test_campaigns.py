"""Prebuilt campaigns and the payload -> ExperimentRecord reconstruction."""

from __future__ import annotations

import numpy as np

from repro.experiments.figures import ExperimentRecord
from repro.experiments.table1 import table1_configuration
from repro.experiments.table2 import (
    PAPER_SCENARIOS,
    build_bid_and_execution_vectors,
)
from repro.mechanism import VerificationMechanism
from repro.parallel import (
    CampaignEngine,
    figures_campaign_units,
    protocol_units,
    records_from_campaign,
    scenario_units,
)


def direct_records(config) -> list[ExperimentRecord]:
    """Every Table 2 scenario scored by ``Mechanism.run`` on its profile."""
    mechanism = VerificationMechanism()
    true_values = config.cluster.true_values
    records = []
    for scenario in PAPER_SCENARIOS:
        bids, executions = build_bid_and_execution_vectors(true_values, scenario)
        outcome = mechanism.run(
            bids, config.arrival_rate, executions, true_values=true_values
        )
        records.append(ExperimentRecord(scenario=scenario, outcome=outcome))
    return records


class TestUnitBuilders:
    def test_scenario_units_cover_table2(self):
        units = scenario_units()
        assert [u.scenario for u in units] == [
            s.name for s in PAPER_SCENARIOS
        ]
        assert all(u.kind == "scenario" for u in units)

    def test_protocol_units_cross_scenarios_and_seeds(self):
        units = protocol_units(seeds=(0, 1, 2), duration=30.0)
        assert len(units) == 8 * 3
        assert {u.seed for u in units} == {0, 1, 2}
        assert all(u.duration == 30.0 for u in units)

    def test_figures_campaign_composition(self):
        assert len(figures_campaign_units()) == 8
        assert len(figures_campaign_units(seeds=(0, 1))) == 8 + 16


class TestRecordReconstruction:
    def test_records_bit_identical_to_inline(self):
        config = table1_configuration()
        campaign = CampaignEngine(workers=0).run(scenario_units(config))
        rebuilt = records_from_campaign(campaign)
        inline = direct_records(config)
        assert len(rebuilt) == len(inline)
        for ours, theirs in zip(rebuilt, inline):
            assert ours.scenario == theirs.scenario
            assert ours.total_latency == theirs.total_latency
            assert ours.c1_payment == theirs.c1_payment
            assert ours.c1_utility == theirs.c1_utility
            np.testing.assert_array_equal(
                ours.outcome.payments.payment, theirs.outcome.payments.payment
            )
            np.testing.assert_array_equal(
                ours.outcome.payments.utility, theirs.outcome.payments.utility
            )
            assert ours.outcome.frugality_ratio == theirs.outcome.frugality_ratio

    def test_cache_round_trip_preserves_records(self, tmp_path):
        config = table1_configuration()
        cache = tmp_path / "cache"
        CampaignEngine(workers=0, cache=cache).run(scenario_units(config))
        cached = CampaignEngine(workers=0, cache=cache).run(
            scenario_units(config)
        )
        assert cached.stats.cache_hits == 8
        rebuilt = records_from_campaign(cached)
        inline = direct_records(config)
        for ours, theirs in zip(rebuilt, inline):
            assert ours.total_latency == theirs.total_latency


class TestRunFiguresCampaign:
    def test_default_engine_serial(self):
        result = CampaignEngine().run(figures_campaign_units())
        records = records_from_campaign(result)
        assert len(records) == 8
        assert result.stats.n_units == 8
        assert round(records[0].total_latency, 2) == 78.43

    def test_protocol_payloads_keyed_by_scenario_seed(self):
        result = CampaignEngine().run(
            figures_campaign_units(seeds=(0,), duration=20.0)
        )
        payloads = {
            (unit.scenario, unit.seed): payload
            for unit, payload in zip(result.units, result.payloads)
            if unit.kind == "protocol"
        }
        assert set(payloads) == {(s.name, 0) for s in PAPER_SCENARIOS}
        assert all(p["jobs_routed"] > 0 for p in payloads.values())
