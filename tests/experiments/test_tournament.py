"""The cross-mechanism tournament: patterns, units, scoring, export."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.agents import BestResponseDynamics
from repro.experiments import table1_configuration
from repro.experiments.tournament import (
    TOURNAMENT_VARIANTS,
    ManipulationPattern,
    run_tournament,
    tournament_patterns,
    tournament_units,
)
from repro.parallel.engine import CampaignEngine
from repro.parallel.units import execute_unit, unit_cache_key


@pytest.fixture(scope="module")
def result():
    # One serial tournament shared by every assertion in this module.
    return run_tournament()


class TestPatterns:
    def test_grid_has_every_family(self):
        patterns = tournament_patterns(16)
        kinds = {p.kind for p in patterns}
        assert kinds == {"truthful", "single", "multi", "collusion"}

    def test_single_liars_cover_the_lying_table2_scenarios(self):
        singles = [p for p in tournament_patterns(16) if p.kind == "single"]
        assert {p.name for p in singles} == {
            "True2", "High1", "High2", "High3", "High4", "Low1", "Low2"
        }
        assert all(p.manipulators == (0,) for p in singles)

    def test_multi_liar_prefixes_grow_to_max_liars(self):
        patterns = tournament_patterns(16, max_liars=3)
        multi = [p for p in patterns if p.kind == "multi"]
        assert [p.manipulators for p in multi] == [
            (0, 1), (0, 1, 2), (0, 1), (0, 1, 2)
        ]

    def test_collusion_pairs_are_speed_group_representatives(self):
        pairs = [
            p.manipulators
            for p in tournament_patterns(16)
            if p.kind == "collusion"
        ]
        assert pairs == [
            (0, 2), (0, 5), (0, 10), (2, 5), (2, 10), (5, 10)
        ]

    def test_small_systems_still_get_a_pair(self):
        pairs = [
            p.manipulators
            for p in tournament_patterns(2)
            if p.kind == "collusion"
        ]
        assert pairs == [(0, 1)]

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError, match="at least two"):
            tournament_patterns(1)
        with pytest.raises(ValueError, match="max_liars"):
            tournament_patterns(4, max_liars=5)


class TestUnits:
    def test_one_unit_per_mechanism_pattern_cell(self):
        units = tournament_units()
        patterns = tournament_patterns(16)
        assert len(units) == len(TOURNAMENT_VARIANTS) * len(patterns)
        assert {u.variant for u in units} == set(TOURNAMENT_VARIANTS)

    def test_units_are_cacheable_and_executable(self):
        units = tournament_units()
        keys = {unit_cache_key(u) for u in units}
        assert len(keys) == len(units)
        payload = execute_unit(units[0])
        assert "frugality_ratio" in payload

    def test_declared_variant_is_not_a_contender(self):
        assert "declared" not in TOURNAMENT_VARIANTS


class TestScoring:
    def test_truthful_rows_sit_at_the_optimum(self, result):
        for row in result.rows:
            if row.pattern_kind == "truthful":
                assert row.degradation_percent == pytest.approx(0.0, abs=1e-9)
                assert row.robustness_gain == 0.0

    def test_lying_never_improves_the_latency(self, result):
        for row in result.rows:
            assert row.degradation_percent >= -1e-9

    def test_individual_lying_is_unprofitable_for_all_three(self, result):
        for row in result.rows:
            if row.pattern_kind in ("single", "multi"):
                assert not row.profitable, (row.mechanism, row.pattern)

    def test_collusion_splits_the_field(self, result):
        # The A11 finding, now cross-mechanism: joint overbidding pays
        # under the verification mechanism but not under VCG / AT.
        by_mechanism = {
            s["mechanism"]: s["profitable_collusion_patterns"]
            for s in result.standings()
        }
        assert by_mechanism["observed"] > 0
        assert by_mechanism["vcg"] == 0
        assert by_mechanism["archer-tardos"] == 0

    def test_mechanisms_coincide_at_the_truthful_profile(self, result):
        ratios = [
            row.frugality_ratio
            for row in result.rows
            if row.pattern_kind == "truthful"
        ]
        assert len(ratios) == len(TOURNAMENT_VARIANTS)
        for ratio in ratios[1:]:
            assert ratio == pytest.approx(ratios[0], rel=1e-12)

    def test_equilibrium_returns_to_the_truth(self, result):
        assert len(result.equilibrium) == len(TOURNAMENT_VARIANTS)
        for eq in result.equilibrium:
            assert eq.converged
            assert eq.final_degradation_percent == pytest.approx(0.0, abs=1e-6)
            assert eq.max_drift_from_truth < 1e-6

    def test_standings_cover_every_mechanism(self, result):
        standings = result.standings()
        assert [s["mechanism"] for s in standings] == list(TOURNAMENT_VARIANTS)
        for s in standings:
            assert s["worst_degradation_percent"] > 0.0
            assert s["max_individual_gain"] < 0.0


class TestRunnerPlumbing:
    def test_requires_the_truthful_baseline(self):
        lying_only = tuple(
            p for p in tournament_patterns(16) if not p.is_truthful
        )
        with pytest.raises(ValueError, match="truthful baseline"):
            run_tournament(patterns=lying_only)

    def test_engine_cache_serves_a_rerun(self, tmp_path, result, monkeypatch):
        patterns = (
            ManipulationPattern("Truthful", "truthful", 1.0, 1.0, (0,)),
            ManipulationPattern("High1 x2", "multi", 3.0, 3.0, (0, 1)),
        )
        calls = []
        original = BestResponseDynamics.run

        def counted_run(self, *args, **kwargs):
            calls.append(type(self.mechanism).__name__)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(BestResponseDynamics, "run", counted_run)
        engine = CampaignEngine(workers=0, cache=str(tmp_path / "cache"))
        first = run_tournament(engine, patterns=patterns)
        assert len(calls) == len(TOURNAMENT_VARIANTS)
        # The equilibrium rows are cached units too: a rerun plays no
        # best-response dynamics at all.
        calls.clear()
        engine2 = CampaignEngine(workers=0, cache=str(tmp_path / "cache"))
        second = run_tournament(engine2, patterns=patterns)
        assert calls == []
        assert first.rows == second.rows
        assert first.equilibrium == second.equilibrium
        assert len(second.equilibrium) == len(TOURNAMENT_VARIANTS)
        assert first.rows == tuple(
            r for r in result.rows if r.pattern in ("Truthful", "High1 x2")
        )

    def test_dynamics_flag_skips_the_equilibrium_stage(self):
        patterns = tournament_patterns(16)[:2]
        quick = run_tournament(patterns=patterns, dynamics=False)
        assert quick.equilibrium == ()

    def test_custom_configuration_threads_through(self, result):
        config = table1_configuration()
        assert result.true_values == tuple(
            config.cluster.true_values.tolist()
        )
        assert result.arrival_rate == config.arrival_rate
        assert result.optimal_latency == pytest.approx(
            config.arrival_rate**2
            / np.sum(1.0 / config.cluster.true_values)
        )


class TestExport:
    def test_json_round_trips_and_matches_the_rows(self, result):
        blob = json.loads(json.dumps(result.to_json()))
        assert blob["schema_version"] == 1
        assert len(blob["rows"]) == len(result.rows)
        assert blob["standings"] == result.standings()
        by_cell = {
            (r["mechanism"], r["pattern"]): r for r in blob["rows"]
        }
        for row in result.rows:
            cell = by_cell[(row.mechanism, row.pattern)]
            assert cell["degradation_percent"] == row.degradation_percent
            assert cell["robustness_gain"] == row.robustness_gain
            assert cell["profitable"] == row.profitable
