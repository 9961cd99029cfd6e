"""Fused campaign backend: cohort grouping, bit-parity, engine wiring.

The contract under test (DESIGN.md §14): fusion is a *scheduling*
change, never a numerical one — a fused payload is ``repr``-identical
to ``execute_unit``'s for the same unit, cohort results land in the
cache under unchanged keys, and everything without a stacked closed
form falls back to the per-unit path untouched.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.table1 import table1_configuration
from repro.observability import instrumented
from repro.parallel import (
    CampaignEngine,
    ExperimentUnit,
    default_chunk_size,
    execute_unit,
    protocol_units,
    scenario_units,
)
from repro.parallel.fusion import (
    cohort_key,
    execute_cohort,
    fusable,
    partition_pending,
)

FUSABLE_VARIANTS = ("observed", "declared", "vcg", "archer-tardos")

BENCH_ARTIFACT = (
    Path(__file__).resolve().parent.parent.parent
    / "benchmarks" / "results" / "BENCH_campaign_fusion.json"
)


def _unit(
    variant: str = "observed",
    true_values: tuple = (1.0, 2.0, 4.0),
    **overrides,
) -> ExperimentUnit:
    defaults = dict(
        kind="scenario",
        scenario="t",
        bid_factor=1.0,
        execution_factor=1.0,
        true_values=true_values,
        arrival_rate=1.25 * len(true_values),
        variant=variant,
    )
    defaults.update(overrides)
    return ExperimentUnit(**defaults)


# ---------------------------------------------------------- cohort rules


class TestCohortRules:
    @pytest.mark.parametrize("variant", FUSABLE_VARIANTS)
    def test_closed_form_scenario_units_are_fusable(self, variant):
        assert fusable(_unit(variant))

    def test_dynamics_and_protocol_are_not(self):
        assert not fusable(_unit(kind="dynamics"))
        protocol = protocol_units(seeds=(0,), duration=20.0)[0]
        assert not fusable(protocol)

    def test_cohort_key_is_variant_and_machine_count(self):
        assert cohort_key(_unit("vcg")) == ("vcg", 3)
        assert cohort_key(_unit("vcg", true_values=(1.0, 2.0))) == ("vcg", 2)

    def test_off_fuses_nothing(self):
        pending = list(enumerate([_unit(), _unit()]))
        cohorts, fallback = partition_pending(pending, "off")
        assert cohorts == [] and fallback == pending

    def test_auto_leaves_singleton_cohorts_on_the_per_unit_path(self):
        pending = list(enumerate([_unit("observed"), _unit("vcg")]))
        cohorts, fallback = partition_pending(pending, "auto")
        assert cohorts == [] and fallback == pending

    def test_on_fuses_singletons_too(self):
        pending = list(enumerate([_unit("observed"), _unit("vcg")]))
        cohorts, fallback = partition_pending(pending, "on")
        assert len(cohorts) == 2 and fallback == []

    def test_partition_preserves_submission_order(self):
        units = [
            _unit("observed", bid_factor=0.5),
            _unit(kind="dynamics"),
            _unit("vcg"),
            _unit("observed", bid_factor=2.0),
            _unit(kind="dynamics", bid_factor=0.5),
            _unit("vcg", bid_factor=2.0),
        ]
        cohorts, fallback = partition_pending(list(enumerate(units)), "auto")
        assert [[i for i, _ in c] for c in cohorts] == [[0, 3], [2, 5]]
        assert [i for i, _ in fallback] == [1, 4]

    def test_unknown_mode_rejected_everywhere(self):
        with pytest.raises(ValueError, match="fuse"):
            partition_pending([], "sometimes")
        with pytest.raises(ValueError, match="fuse"):
            CampaignEngine(fuse="sometimes")

    def test_execute_cohort_rejects_mixed_and_unfusable(self):
        with pytest.raises(ValueError, match="mixes"):
            execute_cohort([_unit("observed"), _unit("vcg")])
        with pytest.raises(ValueError, match="no fused evaluation"):
            execute_cohort([_unit(kind="dynamics")])
        assert execute_cohort([]) == []


# ------------------------------------------------------------ bit-parity


@st.composite
def _cohorts(draw):
    """A homogeneous cohort with varied profiles and coalitions."""
    variant = draw(st.sampled_from(FUSABLE_VARIANTS))
    n = draw(st.integers(min_value=2, max_value=6))
    size = draw(st.integers(min_value=1, max_value=7))
    units = []
    for _ in range(size):
        true_values = tuple(
            draw(
                st.lists(
                    st.floats(min_value=0.1, max_value=10.0),
                    min_size=n, max_size=n,
                )
            )
        )
        coalition = draw(
            st.one_of(
                st.none(),
                st.sets(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1, max_size=n,
                ).map(lambda s: tuple(sorted(s))),
            )
        )
        units.append(
            _unit(
                variant,
                true_values=true_values,
                bid_factor=draw(st.floats(min_value=0.1, max_value=5.0)),
                execution_factor=draw(st.floats(min_value=1.0, max_value=4.0)),
                arrival_rate=draw(st.floats(min_value=0.5, max_value=30.0)),
                manipulator=draw(st.integers(min_value=0, max_value=n - 1)),
                manipulators=coalition,
            )
        )
    return units


class TestBitParity:
    @given(units=_cohorts())
    @settings(max_examples=60, deadline=None)
    def test_fused_payloads_repr_identical_to_execute_unit(self, units):
        # repr-level equality is the cache's own round-trip fidelity:
        # identical reprs serialize to identical JSON payloads.
        fused = execute_cohort(units)
        for unit, payload in zip(units, fused):
            expected = execute_unit(unit)
            assert payload.keys() == expected.keys()
            for field, value in expected.items():
                assert repr(payload[field]) == repr(value), (
                    unit.variant, field,
                )

    def test_paper_grid_parity_through_the_engine(self):
        config = table1_configuration()
        units = []
        for variant in FUSABLE_VARIANTS:
            units += scenario_units(config, variant=variant)
        off = CampaignEngine(workers=0, fuse="off").run(units)
        on = CampaignEngine(workers=0, fuse="on").run(units)
        assert on.keys == off.keys
        assert [repr(p) for p in on.payloads] == [
            repr(p) for p in off.payloads
        ]


# --------------------------------------------------------- engine wiring


class TestEngineFusion:
    def test_auto_fuses_the_scenario_campaign(self):
        result = CampaignEngine(workers=0).run(scenario_units())
        assert result.stats.fused_cohorts == 1
        assert result.stats.fused_units == 8
        assert result.stats.fallback_units == 0
        assert result.stats.chunks == 0
        assert len(result.stats.unit_seconds) == 8

    def test_mixed_campaign_splits_by_fusability(self):
        units = scenario_units() + protocol_units(
            seeds=(0,), duration=20.0, scenarios=("True1", "Low2")
        )
        result = CampaignEngine(workers=0).run(units)
        assert result.stats.fused_units == 8
        assert result.stats.fallback_units == 2
        assert (
            result.stats.fused_units + result.stats.fallback_units
            == result.stats.cache_misses
        )
        fresh = CampaignEngine(workers=0, fuse="off").run(units)
        assert result.payloads == fresh.payloads

    def test_chunks_are_sized_over_fallback_misses_only(self):
        # 8 fusable + 3 protocol units at 2 workers: the pool must see
        # chunks sized for the 3 fallback misses, not the 11 submitted.
        units = scenario_units() + protocol_units(
            seeds=(0, 1, 2), duration=20.0, scenarios=("True1",)
        )
        engine = CampaignEngine(workers=2)
        result = engine.run(units)
        workers = min(2, result.stats.fallback_units)
        expected_size = default_chunk_size(
            result.stats.fallback_units, workers
        )
        expected_chunks = -(-result.stats.fallback_units // expected_size)
        assert result.stats.chunks == expected_chunks

    def test_fused_cache_serves_per_unit_runs(self, tmp_path):
        cache = tmp_path / "cache"
        units = scenario_units()
        cold = CampaignEngine(workers=0, cache=cache, fuse="on").run(units)
        warm = CampaignEngine(workers=0, cache=cache, fuse="off").run(units)
        assert cold.stats.fused_units == 8
        assert warm.stats.hit_rate == 1.0
        assert warm.stats.chunks == 0
        assert warm.payloads == cold.payloads

    def test_fusion_counters_and_cohort_spans_recorded(self, tmp_path):
        with instrumented() as instr:
            CampaignEngine(workers=0, cache=tmp_path / "c").run(
                scenario_units()
            )
        snapshot = instr.metrics.snapshot()
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters["campaign.fused.cohorts"] == 1
        assert counters["campaign.fused.units"] == 8
        assert counters["campaign.fallback.units"] == 0
        histograms = {h["name"]: h["count"] for h in snapshot["histograms"]}
        assert histograms["campaign.unit.seconds"] == 8
        names = [s.name for s in instr.tracer.finished]
        assert names.count("campaign.cohort") == 1
        assert names.count("campaign.unit") == 0

    def test_fuse_off_keeps_the_per_unit_span_contract(self):
        result = CampaignEngine(workers=0, fuse="off").run(scenario_units())
        assert result.stats.fused_units == 0
        assert result.stats.fallback_units == 8
        assert len(result.worker_spans) == 8


# ------------------------------------------------------ pinned artifact


class TestCommittedBenchArtifact:
    """The committed A26 record must exist and show a passing gate."""

    def test_committed_summary_passes_its_own_gate(self):
        assert BENCH_ARTIFACT.exists(), (
            "benchmarks/results/BENCH_campaign_fusion.json is missing; "
            "regenerate it with "
            "`PYTHONPATH=src python benchmarks/bench_campaign_fusion.py`"
        )
        summary = json.loads(BENCH_ARTIFACT.read_text())
        assert summary["speedup_target"] >= 10.0
        gated = set(summary["gated_campaigns"])
        assert {"tournament", "figures"} <= set(
            e["campaign"] for e in summary["campaigns"]
        )
        for entry in summary["campaigns"]:
            assert entry["payload_mismatches"] == 0
            assert entry["keys_identical"]
            assert entry["warm_hit_rate"] == 1.0
            assert entry["warm_chunks"] == 0
            if entry["campaign"] in gated:
                assert entry["speedup"] >= summary["speedup_target"]
