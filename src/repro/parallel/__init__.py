"""Parallel campaign engine with content-addressed result caching.

Experiment campaigns — the Table 1/2 sweep, Figures 1–6, the A-series
ablations — are embarrassingly parallel: every unit
(seed x bid-profile x mechanism-variant) is a pure function of its
config.  This subpackage exploits exactly that and nothing more:

* :mod:`repro.parallel.units` — :class:`ExperimentUnit`, the pure
  :func:`execute_unit` evaluator, and the SHA-256 cache key over the
  canonicalised unit config + package version;
* :mod:`repro.parallel.cache` — :class:`ResultCache`, a directory of
  atomic JSON entries addressed by content (staleness is impossible:
  changed configs change keys);
* :mod:`repro.parallel.engine` — :class:`CampaignEngine`, chunked
  scheduling over a ``multiprocessing`` pool, cache-hit short-circuit,
  cache hit/miss counters and per-unit latency histograms via the
  observability layer, per-worker span export;
* :mod:`repro.parallel.fusion` — the fused backend (1.9.0): homogeneous
  closed-form cache misses grouped into ``(variant, n_machines)``
  cohorts and evaluated as single stacked broadcasts, bit-identical to
  :func:`execute_unit` and cached under unchanged keys
  (``CampaignEngine(fuse="auto"|"on"|"off")``);
* :mod:`repro.parallel.campaigns` — the paper's evaluation as unit
  lists, and the exact payload→record reconstruction the figure
  generators consume.

Serial and parallel runs are **bit-identical** per unit, and a warm
cache short-circuits whole campaigns (``repro campaign --resume``);
``benchmarks/bench_parallel.py`` (A20) enforces both.

>>> from repro.parallel import CampaignEngine, scenario_units
>>> campaign = CampaignEngine(workers=0).run(scenario_units())
>>> round(campaign.payloads[0]["realised_latency"], 2)   # True1 optimum
78.43
>>> campaign.stats.cache_misses   # no cache attached: all computed
8
"""

from repro.parallel.cache import NullCache, ResultCache
from repro.parallel.engine import (
    CampaignEngine,
    CampaignResult,
    CampaignStats,
    default_chunk_size,
)
from repro.parallel.fusion import (
    FUSE_MODES,
    cohort_key,
    execute_cohort,
    fusable,
    partition_pending,
)
from repro.parallel.units import (
    ExperimentUnit,
    canonical_config,
    canonical_json,
    canonicalise,
    execute_unit,
    unit_cache_key,
)
from repro.parallel.campaigns import (
    figures_campaign_units,
    protocol_units,
    record_from_payload,
    records_from_campaign,
    scenario_units,
)

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "CampaignStats",
    "ExperimentUnit",
    "FUSE_MODES",
    "NullCache",
    "ResultCache",
    "canonical_config",
    "canonical_json",
    "canonicalise",
    "cohort_key",
    "default_chunk_size",
    "execute_cohort",
    "execute_unit",
    "figures_campaign_units",
    "fusable",
    "partition_pending",
    "protocol_units",
    "record_from_payload",
    "records_from_campaign",
    "scenario_units",
    "unit_cache_key",
]
