"""Zero-dependency metrics primitives: counters, gauges, histograms.

The registry is the passive half of the observability layer: code on
the hot path records *numbers* (how many retries, how long an
allocation took) and the registry stores them cheaply enough that the
instrumentation can stay enabled in production.  Three metric kinds,
modelled on the Prometheus vocabulary but with no wire format or
external dependency:

* :class:`Counter` — a monotonically increasing total (retries issued,
  rounds voided, checkpoints written);
* :class:`Gauge` — a value that goes both ways (machines currently
  quarantined);
* :class:`Histogram` — a distribution sketch with exact count / total /
  min / max and a **bounded reservoir** for quantiles: Vitter's
  Algorithm R keeps a uniform sample of fixed size however many values
  stream through, so memory stays O(reservoir) over a million-round
  campaign.  The reservoir RNG is seeded per histogram, keeping runs
  deterministic (the repo-wide convention: no global RNG state).

Metrics are identified by a name plus optional key=value labels
(``registry.counter("protocol.phase_transitions", src="bidding",
dst="executing")``); each distinct label set is its own series.  The
registry is append-only and single-threaded by design — the DES
substrate never runs concurrent handlers, so there are no locks on the
record path.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "sorted_quantile"]

# A metric series key: (name, ((label, value), ...)) with labels sorted.
SeriesKey = tuple[str, tuple[tuple[str, str], ...]]


def sorted_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation ``q``-quantile of an already-sorted sequence.

    ``nan`` when the sequence is empty.
    """
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def _series_key(name: str, labels: dict[str, object]) -> SeriesKey:
    if not name:
        raise ValueError("metric name must be non-empty")
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_series(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    """Render ``name{k=v,...}`` the way the summary tables print it."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0.0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount


class Gauge:
    """A value that can rise and fall (e.g. machines in quarantine)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the value up by ``amount``."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Move the value down by ``amount``."""
        self.value -= amount


class Histogram:
    """A streaming distribution sketch with a bounded uniform reservoir.

    Exact aggregates (``count``, ``total``, ``min``, ``max``) are kept
    for every observation; quantiles are estimated from a fixed-size
    uniform sample maintained by Vitter's Algorithm R.  Until the
    reservoir fills, quantiles are exact.

    Parameters
    ----------
    reservoir_size:
        Maximum number of observations retained for quantile
        estimation.
    seed:
        Seed for the reservoir's replacement decisions; fixed per
        histogram so identical runs produce identical summaries.

    Examples
    --------
    >>> h = Histogram(reservoir_size=8)
    >>> for v in [1.0, 2.0, 3.0, 4.0]:
    ...     h.observe(v)
    >>> h.count, h.total, h.min, h.max
    (4, 10.0, 1.0, 4.0)
    >>> h.quantile(0.5)
    2.5
    """

    __slots__ = ("reservoir_size", "count", "total", "min", "max", "_sample", "_rng")

    def __init__(self, reservoir_size: int = 1024, seed: int = 0) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be at least 1")
        self.reservoir_size = int(reservoir_size)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._sample: list[float] = []
        self._rng = random.Random(seed)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._sample) < self.reservoir_size:
            self._sample.append(value)
        else:
            # Algorithm R: the new value replaces a random slot with
            # probability reservoir_size / count, keeping the sample
            # uniform over everything seen so far.
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self._sample[slot] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (``nan`` when empty)."""
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (linear interpolation over the sample)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        return sorted_quantile(sorted(self._sample), q)

    def summary(self) -> dict[str, float]:
        """JSON-ready aggregate view (count/total/mean/min/max/p50/p95/p99)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": None if empty else self.mean,
            "min": None if empty else self.min,
            "max": None if empty else self.max,
            "p50": None if empty else self.quantile(0.50),
            "p95": None if empty else self.quantile(0.95),
            "p99": None if empty else self.quantile(0.99),
        }


class MetricsRegistry:
    """Get-or-create home for every metric series of one run.

    ``counter`` / ``gauge`` / ``histogram`` return the existing series
    for (name, labels) or create it; asking for the same name with a
    different metric kind is an error — a name means one thing.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("rounds").inc()
    >>> registry.counter("rounds").inc(2.0)
    >>> registry.counter("rounds").value
    3.0
    >>> registry.histogram("latency").observe(0.5)
    >>> registry.snapshot()["counters"]
    [{'name': 'rounds', 'labels': {}, 'value': 3.0}]
    """

    def __init__(self, default_reservoir_size: int = 1024) -> None:
        self.default_reservoir_size = int(default_reservoir_size)
        self._series: dict[SeriesKey, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, kind: type, key: SeriesKey, factory):
        series = self._series.get(key)
        if series is None:
            series = factory()
            self._series[key] = series
        elif not isinstance(series, kind):
            raise TypeError(
                f"metric {format_series(*key)!r} already registered as "
                f"{type(series).__name__}, not {kind.__name__}"
            )
        return series

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter series for (name, labels), created on first use."""
        return self._get_or_create(Counter, _series_key(name, labels), Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge series for (name, labels), created on first use."""
        return self._get_or_create(Gauge, _series_key(name, labels), Gauge)

    def histogram(
        self, name: str, *, reservoir_size: int | None = None, **labels: object
    ) -> Histogram:
        """The histogram series for (name, labels), created on first use."""
        size = reservoir_size or self.default_reservoir_size
        return self._get_or_create(
            Histogram, _series_key(name, labels), lambda: Histogram(size)
        )

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self._series)

    def series(self) -> Iterator[tuple[str, dict[str, str], Counter | Gauge | Histogram]]:
        """Iterate ``(name, labels, metric)`` in registration order."""
        for (name, labels), metric in self._series.items():
            yield name, dict(labels), metric

    def snapshot(self) -> dict[str, list[dict]]:
        """JSON-ready dump: counters, gauges, and histogram summaries.

        Each section is sorted by rendered series name so the output is
        stable across runs regardless of registration order.
        """
        counters, gauges, histograms = [], [], []
        for name, labels, metric in self.series():
            entry: dict = {"name": name, "labels": labels}
            if isinstance(metric, Counter):
                counters.append({**entry, "value": metric.value})
            elif isinstance(metric, Gauge):
                gauges.append({**entry, "value": metric.value})
            else:
                histograms.append({**entry, **metric.summary()})
        order = lambda e: format_series(e["name"], tuple(sorted(e["labels"].items())))
        return {
            "counters": sorted(counters, key=order),
            "gauges": sorted(gauges, key=order),
            "histograms": sorted(histograms, key=order),
        }
