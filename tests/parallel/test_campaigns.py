"""Prebuilt campaigns and the payload -> ExperimentRecord reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import run_all_scenarios
from repro.experiments.table1 import table1_configuration
from repro.experiments.table2 import PAPER_SCENARIOS
from repro.parallel import (
    CampaignEngine,
    figures_campaign_units,
    protocol_units,
    records_from_campaign,
    run_figures_campaign,
    scenario_units,
)


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
        inline = run_all_scenarios(config)
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
        inline = run_all_scenarios(config)
        for ours, theirs in zip(rebuilt, inline):
            assert ours.total_latency == theirs.total_latency


class TestRunFiguresCampaign:
    def test_default_engine_serial(self):
        campaign = run_figures_campaign()
        assert len(campaign.records) == 8
        assert campaign.stats.n_units == 8
        assert round(campaign.records[0].total_latency, 2) == 78.43

    def test_protocol_payloads_keyed_by_scenario_seed(self):
        campaign = run_figures_campaign(
            seeds=(0,), duration=20.0,
        )
        result = campaign.result
        payloads = {
            (unit.scenario, unit.seed): payload
            for unit, payload in zip(result.units, result.payloads)
            if unit.kind == "protocol"
        }
        assert set(payloads) == {(s.name, 0) for s in PAPER_SCENARIOS}
        assert all(p["jobs_routed"] > 0 for p in payloads.values())


class TestEnginePathInRunAllScenarios:
    def test_engine_path_matches_inline(self):
        engine = CampaignEngine(workers=0)
        via_engine = run_all_scenarios(engine=engine)
        inline = run_all_scenarios()
        for ours, theirs in zip(via_engine, inline):
            assert ours.total_latency == theirs.total_latency

    def test_engine_plus_mechanism_rejected(self):
        from repro.mechanism import VCGMechanism

        with pytest.raises(ValueError):
            run_all_scenarios(
                mechanism=VCGMechanism(), engine=CampaignEngine(workers=0)
            )
