"""Campaign engine: scheduling, caching, determinism, observability."""

from __future__ import annotations

import pytest

from repro.experiments.table1 import table1_configuration
from repro.observability import instrumented
from repro.parallel.cache import ResultCache
from repro.parallel.campaigns import protocol_units, scenario_units
from repro.parallel.engine import CampaignEngine, default_chunk_size


class TestChunking:
    def test_default_chunk_size_targets_oversubscription(self):
        # 64 units over 4 workers -> 16 chunks of 4.
        assert default_chunk_size(64, 4) == 4

    def test_degenerate_inputs(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(3, 16) == 1
        assert default_chunk_size(5, 0) == 2


@pytest.fixture
def units():
    return scenario_units(table1_configuration())


class TestEngineValidation:
    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(workers=-1)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            CampaignEngine(chunk_size=0)

    def test_cache_path_coerced(self, tmp_path):
        engine = CampaignEngine(cache=tmp_path / "c")
        assert isinstance(engine.cache, ResultCache)


class TestSerialRun:
    def test_true1_optimum(self, units):
        result = CampaignEngine(workers=0).run(units)
        assert round(result.payloads[0]["realised_latency"], 2) == 78.43
        assert result.stats.n_units == 8
        assert result.stats.cache_misses == 8
        assert result.stats.cache_hits == 0

    def test_payload_for_looks_up_by_value(self, units):
        result = CampaignEngine(workers=0).run(units)
        assert result.payload_for(units[3]) is result.payloads[3]

    def test_empty_campaign(self):
        result = CampaignEngine(workers=0).run([])
        assert result.stats.n_units == 0
        assert result.payloads == ()


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path, units):
        cache = tmp_path / "cache"
        first = CampaignEngine(workers=0, cache=cache).run(units)
        second = CampaignEngine(workers=0, cache=cache).run(units)
        assert first.stats.cache_misses == 8
        assert second.stats.cache_hits == 8
        assert second.payloads == first.payloads
        assert second.stats.chunks == 0

    def test_reuse_cache_false_recomputes_but_writes(self, tmp_path, units):
        cache = tmp_path / "cache"
        CampaignEngine(workers=0, cache=cache).run(units)
        refresh = CampaignEngine(
            workers=0, cache=cache, reuse_cache=False
        ).run(units)
        assert refresh.stats.cache_hits == 0
        assert refresh.stats.cache_misses == 8
        assert len(ResultCache(cache)) == 8

    def test_changed_config_misses(self, tmp_path, units):
        cache = tmp_path / "cache"
        CampaignEngine(workers=0, cache=cache).run(units)
        changed = scenario_units(table1_configuration(), variant="vcg")
        result = CampaignEngine(workers=0, cache=cache).run(changed)
        assert result.stats.cache_hits == 0


class TestParallelDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        units = scenario_units() + protocol_units(
            seeds=(0, 1), duration=20.0
        )
        serial = CampaignEngine(workers=0).run(units)
        parallel = CampaignEngine(workers=2).run(units)
        assert parallel.payloads == serial.payloads
        assert parallel.keys == serial.keys

    def test_mixed_cache_and_compute(self, tmp_path):
        units = protocol_units(seeds=(0, 1, 2), duration=20.0,
                               scenarios=("True1",))
        cache = tmp_path / "cache"
        CampaignEngine(workers=0, cache=cache).run(units[:2])
        result = CampaignEngine(workers=0, cache=cache).run(units)
        assert result.stats.cache_hits == 2
        assert result.stats.cache_misses == 1
        fresh = CampaignEngine(workers=0).run(units)
        assert result.payloads == fresh.payloads


class TestObservability:
    def test_counters_histograms_and_spans(self, tmp_path, units):
        cache = tmp_path / "cache"
        with instrumented() as instr:
            CampaignEngine(workers=0, cache=cache).run(units)
            CampaignEngine(workers=0, cache=cache).run(units)
        snapshot = instr.metrics.snapshot()
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters["campaign.cache.hits"] == 8
        assert counters["campaign.cache.misses"] == 8
        histograms = {h["name"]: h["count"] for h in snapshot["histograms"]}
        assert histograms["campaign.unit.seconds"] == 8
        names = [s.name for s in instr.tracer.finished]
        assert names.count("campaign.run") == 2

    def test_worker_spans_exported_jsonl(self, tmp_path, units):
        import json

        # Worker-side campaign.unit spans are a per-unit-path contract:
        # fused cohorts trace one ambient campaign.cohort span instead.
        result = CampaignEngine(workers=0, fuse="off").run(units)
        destination = tmp_path / "spans.jsonl"
        count = result.export_worker_spans(destination)
        assert count == 8
        lines = destination.read_text().splitlines()
        assert len(lines) == 8
        span = json.loads(lines[0])
        assert span["name"] == "campaign.unit"
        assert span["attributes"]["kind"] == "scenario"
        assert "pid" in span["attributes"]
