"""The campaign engine: fan units across a worker pool, cache results.

``CampaignEngine.run`` takes a list of
:class:`~repro.parallel.units.ExperimentUnit`, consults the
content-addressed cache, and evaluates only the missing units — either
in-process (``workers <= 1``) or across a ``multiprocessing`` pool
with **chunked scheduling**: units are grouped into chunks of
``ceil(pending / (workers * 4))`` so each worker receives a few large
pickles instead of thousands of tiny ones, while the x4 oversubscription
keeps the pool load-balanced when unit costs are uneven (protocol units
cost ~1000x scenario units).

Determinism is structural, not statistical: every unit is a pure
function of its config (workers never share state or RNG streams), and
results are reassembled in submission order — so a parallel campaign's
per-unit payloads are bit-identical to a serial run's, regardless of
completion order.  ``benchmarks/bench_parallel.py`` (A20) asserts this
on every run.

Fusion (1.9.0): before anything reaches the pool, cache-miss units
with a stacked closed form — scenario units — are grouped into cohorts by ``(variant, n_machines)``
and each cohort is evaluated in-process as one ``(U, n)`` broadcast
(:mod:`repro.parallel.fusion`), bit-identical to ``execute_unit`` and
scattered into the cache under unchanged keys.  ``fuse="auto"``
(default) fuses cohorts of two or more units, ``"on"`` fuses every
fusable unit, ``"off"`` restores the pure per-unit path.  Only the
remaining *fallback* units (protocol, dynamics, drift, or
non-cohorted singletons) are chunked — chunk sizing is computed over
that post-fusion miss count, never over the submitted total, so a
warm or mostly-fused campaign does not fan near-empty chunks to the
pool.

Observability: the engine opens a ``campaign.run`` span, counts
``campaign.cache.hits`` / ``campaign.cache.misses``, records per-unit
wall time into the ``campaign.unit.seconds`` histogram, and collects a
``campaign.unit`` span per computed unit (stamped with the worker PID)
that :meth:`CampaignResult.export_worker_spans` writes as JSONL in the
tracer's schema.  Fused cohorts are counted by ``campaign.fused.*`` /
``campaign.fallback.units`` and traced as ambient ``campaign.cohort``
spans instead — a fused unit never produces a worker-side
``campaign.unit`` span (there is no per-unit execution to trace), and
its ``campaign.unit.seconds`` observation is its equal share of the
cohort's wall time.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import IO, Sequence, TypeVar

from repro.observability.instrumentation import (
    annotate,
    observe_value,
    record_counter,
    trace_span,
)
from repro.observability.metrics import sorted_quantile
from repro.parallel.cache import NullCache, ResultCache
from repro.parallel.fusion import FUSE_MODES, execute_cohort, partition_pending
from repro.parallel.units import ExperimentUnit, execute_unit, unit_cache_key

__all__ = [
    "CampaignEngine",
    "CampaignResult",
    "CampaignStats",
    "default_chunk_size",
]

T = TypeVar("T")

#: Chunks per worker the scheduler aims for; >1 so uneven unit costs
#: rebalance, small enough that per-chunk IPC stays negligible.
OVERSUBSCRIPTION = 4


def _pool_context():
    """``fork`` where the platform offers it (cheap workers that inherit
    the warmed interpreter), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def default_chunk_size(n_items: int, workers: int) -> int:
    """Chunk size giving each worker ~``OVERSUBSCRIPTION`` chunks."""
    if n_items <= 0:
        return 1
    workers = max(1, workers)
    return max(1, math.ceil(n_items / (workers * OVERSUBSCRIPTION)))


def _chunked(items: Sequence[T], size: int) -> list[Sequence[T]]:
    return [items[i : i + size] for i in range(0, len(items), size)]


# ------------------------------------------------------- campaign engine


def _run_chunk(batch: list[tuple[int, dict]]) -> list[dict]:
    """Worker-side chunk executor: evaluate units, time and trace each.

    Runs in the worker process.  Spans are recorded on a private tracer
    (workers never see the parent's instrumentation) and shipped back
    as plain dicts in the JSONL schema.
    """
    from repro.observability.tracing import Tracer

    pid = os.getpid()
    tracer = Tracer()
    out: list[dict] = []
    for index, config in batch:
        unit = ExperimentUnit.from_config(config)
        start = time.perf_counter()
        with tracer.span(
            "campaign.unit",
            index=index,
            pid=pid,
            kind=unit.kind,
            scenario=unit.scenario,
            variant=unit.variant,
            seed=unit.seed,
        ):
            payload = execute_unit(unit)
        out.append(
            {
                "index": index,
                "payload": payload,
                "seconds": time.perf_counter() - start,
                "pid": pid,
            }
        )
    spans = [span.to_dict() for span in tracer.finished]
    for record, span in zip(out, spans):
        record["span"] = span
    return out


@dataclass(frozen=True)
class CampaignStats:
    """What one :meth:`CampaignEngine.run` cost."""

    n_units: int
    cache_hits: int
    cache_misses: int
    workers: int
    chunks: int
    wall_seconds: float
    unit_seconds: tuple[float, ...]
    #: Fusion accounting (1.9.0): how the cache misses were evaluated.
    #: ``fused_units + fallback_units == cache_misses`` always holds.
    fused_cohorts: int = 0
    fused_units: int = 0
    fallback_units: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of units served from the cache."""
        return self.cache_hits / self.n_units if self.n_units else 0.0

    @property
    def computed_seconds(self) -> float:
        """Total compute time across workers (not wall-clock)."""
        return float(sum(self.unit_seconds))

    @property
    def unit_p50(self) -> float:
        """Median per-unit compute latency (seconds; nan if all cached)."""
        return sorted_quantile(sorted(self.unit_seconds), 0.50)

    @property
    def unit_p95(self) -> float:
        """95th-percentile per-unit compute latency (seconds)."""
        return sorted_quantile(sorted(self.unit_seconds), 0.95)


@dataclass(frozen=True)
class CampaignResult:
    """Ordered unit payloads plus the campaign's cost accounting."""

    units: tuple[ExperimentUnit, ...]
    keys: tuple[str, ...]
    payloads: tuple[dict, ...]
    stats: CampaignStats
    worker_spans: tuple[dict, ...]

    def export_worker_spans(self, destination: str | IO[str]) -> int:
        """Write per-worker ``campaign.unit`` spans as JSON Lines."""
        import json

        lines = "".join(
            json.dumps(span, sort_keys=True) + "\n" for span in self.worker_spans
        )
        if hasattr(destination, "write"):
            destination.write(lines)
        else:
            with open(destination, "w", encoding="utf-8") as handle:
                handle.write(lines)
        return len(self.worker_spans)


class CampaignEngine:
    """Runs unit lists through the cache and (optionally) a worker pool.

    Parameters
    ----------
    workers:
        ``<= 1`` evaluates in-process (deterministically identical, no
        multiprocessing); ``n > 1`` fans missing units over ``n``
        processes.
    cache:
        A :class:`~repro.parallel.cache.ResultCache`, a path (string or
        ``Path``) to open one at, or ``None`` for no caching.
    reuse_cache:
        When ``False`` the engine still *writes* results but never
        reads them — every unit recomputes (the CLI's ``--no-resume``).
    fuse:
        ``"auto"`` (default) evaluates cohorts of two or more
        homogeneous closed-form misses as single stacked broadcasts,
        ``"on"`` fuses every fusable miss (singletons included),
        ``"off"`` keeps the pure per-unit path.  Fused payloads are
        bit-identical to the per-unit ones and cached under the same
        keys, so the setting never changes results or cache behaviour
        — only how the misses are computed.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        cache: ResultCache | NullCache | str | os.PathLike | None = None,
        reuse_cache: bool = True,
        fuse: str = "auto",
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if fuse not in FUSE_MODES:
            raise ValueError(f"fuse must be one of {FUSE_MODES}, got {fuse!r}")
        self.workers = int(workers)
        if cache is None:
            cache = NullCache()
        elif isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        self.cache = cache
        self.reuse_cache = bool(reuse_cache)
        self.fuse = fuse

    def run(self, units: Sequence[ExperimentUnit]) -> CampaignResult:
        """Evaluate every unit, serving cache hits and computing misses."""
        units = tuple(units)
        started = time.perf_counter()
        keys = tuple(unit_cache_key(unit) for unit in units)
        payloads: list[dict | None] = [None] * len(units)
        unit_seconds: list[float] = []
        worker_spans: list[dict] = []
        hits = 0

        with trace_span(
            "campaign.run",
            n_units=len(units),
            workers=self.workers,
            fuse=self.fuse,
        ):
            pending: list[tuple[int, ExperimentUnit]] = []
            for index, (unit, key) in enumerate(zip(units, keys)):
                cached = self.cache.get(key) if self.reuse_cache else None
                if cached is not None:
                    payloads[index] = cached
                    hits += 1
                    record_counter("campaign.cache.hits")
                else:
                    pending.append((index, unit))
            record_counter("campaign.cache.misses", len(pending))

            cohorts, fallback = partition_pending(pending, self.fuse)
            fused_units = sum(len(cohort) for cohort in cohorts)
            if cohorts:
                record_counter("campaign.fused.cohorts", len(cohorts))
                record_counter("campaign.fused.units", fused_units)
            if pending:
                record_counter("campaign.fallback.units", len(fallback))
            for cohort in cohorts:
                self._compute_cohort(cohort, keys, payloads, unit_seconds)

            chunks: list[Sequence[tuple[int, dict]]] = []
            if fallback:
                chunks = self._compute(
                    [(index, unit.as_config()) for index, unit in fallback],
                    units, keys, payloads, unit_seconds, worker_spans,
                )

        stats = CampaignStats(
            n_units=len(units),
            cache_hits=hits,
            cache_misses=len(units) - hits,
            workers=self.workers,
            chunks=len(chunks),
            wall_seconds=time.perf_counter() - started,
            unit_seconds=tuple(unit_seconds),
            fused_cohorts=len(cohorts),
            fused_units=fused_units,
            fallback_units=len(fallback),
        )
        return CampaignResult(
            units=units,
            keys=keys,
            payloads=tuple(payloads),  # type: ignore[arg-type]
            stats=stats,
            worker_spans=tuple(worker_spans),
        )

    # ------------------------------------------------------------ internal

    def _compute_cohort(
        self,
        cohort: list[tuple[int, ExperimentUnit]],
        keys: tuple[str, ...],
        payloads: list[dict | None],
        unit_seconds: list[float],
    ) -> None:
        """Evaluate one fused cohort in-process and scatter its results.

        The cohort's wall time is split equally across its units for
        the ``campaign.unit.seconds`` accounting — there is no per-unit
        execution to time individually.
        """
        members = [unit for _, unit in cohort]
        start = time.perf_counter()
        with trace_span(
            "campaign.cohort",
            units=len(members),
            variant=members[0].variant,
            n_machines=len(members[0].true_values),
        ):
            results = execute_cohort(members)
        share = (time.perf_counter() - start) / len(members)
        for (index, unit), payload in zip(cohort, results):
            payloads[index] = payload
            unit_seconds.append(share)
            observe_value("campaign.unit.seconds", share)
            self.cache.put(keys[index], payload, unit_config=unit.as_config())

    def _compute(
        self,
        pending: list[tuple[int, dict]],
        units: tuple[ExperimentUnit, ...],
        keys: tuple[str, ...],
        payloads: list[dict | None],
        unit_seconds: list[float],
        worker_spans: list[dict],
    ) -> list[Sequence[tuple[int, dict]]]:
        # Size pool work over what actually reaches the pool: the
        # post-fusion fallback misses, never the submitted total — a
        # warm or mostly-fused campaign must not fan near-empty chunks.
        workers = min(self.workers, len(pending))
        chunks = _chunked(pending, default_chunk_size(len(pending), workers))

        if workers <= 1:
            # In-process: same chunk walk, ambient tracer, no pool.
            results = [_run_chunk(list(chunk)) for chunk in chunks]
        else:
            with _pool_context().Pool(processes=workers) as pool:
                results = list(pool.imap_unordered(_run_chunk, chunks))

        for chunk_result in results:
            pids = sorted({record["pid"] for record in chunk_result})
            annotate("campaign.chunk", units=len(chunk_result), pids=pids)
            for record in chunk_result:
                index = record["index"]
                payloads[index] = record["payload"]
                unit_seconds.append(record["seconds"])
                observe_value("campaign.unit.seconds", record["seconds"])
                worker_spans.append(record["span"])
                self.cache.put(
                    keys[index],
                    record["payload"],
                    unit_config=units[index].as_config(),
                )
        return chunks
