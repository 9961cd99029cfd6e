"""Online verification: detect execution slowdowns mid-round.

The batch estimator (:mod:`repro.protocol.estimator`) only produces
``t̂`` after all jobs drain.  A long round gives a manipulating machine
a long free ride; this module monitors the stream of per-job sojourn
times *as they complete* and raises a flag as soon as the observed
behaviour is inconsistent with the machine's bid.

Detector: a one-sided CUSUM on standardised sojourn times.  Under the
declared behaviour a job's sojourn has mean ``b_i x_i`` (exponential in
the reference machine model, so standard deviation equals the mean).
For each completion we accumulate

    ``S <- max(0, S + (sojourn / (b_i x_i) - 1) - slack)``

and flag when ``S`` exceeds a threshold.  ``slack`` (kappa) absorbs
in-control noise; the threshold trades detection delay against false
alarms.  The defaults (slack 0.5, threshold 25) were calibrated on the
exponential reference model: ~0 false alarms over 20k honest jobs while
catching a 2x slowdown within ~50 completions (see
``bench_monitoring.py`` for the measured operating curve).

:func:`slowdown_alerts` checks a finished round's machine-sorted
sojourn column (one array plus per-machine job counts) in one
elementwise pass and runs a detector only on the machines with a
positive standardised excess; both supervised round paths (sequential
and horizon-fused) detect through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._validation import check_positive_scalar

__all__ = [
    "SlowdownAlert",
    "CusumSlowdownDetector",
    "detection_delay",
    "slowdown_alerts",
]


@dataclass(frozen=True)
class SlowdownAlert:
    """Raised evidence that a machine executes slower than declared."""

    jobs_observed: int
    statistic: float
    mean_sojourn: float


class CusumSlowdownDetector:
    """One-sided CUSUM on the standardised sojourn stream of one machine.

    Parameters
    ----------
    declared_value:
        The machine's bid ``b_i`` (the slope it promised).
    allocated_load:
        The arrival rate ``x_i`` routed to it, so the in-control mean
        sojourn is ``b_i * x_i``.
    threshold:
        Alarm level ``h`` for the cumulative statistic; larger values
        mean fewer false alarms but slower detection.
    slack:
        Per-observation drift allowance ``kappa`` (in units of the
        in-control mean); slowdowns inside the slack band are
        undetectable by design.
    """

    def __init__(
        self,
        declared_value: float,
        allocated_load: float,
        *,
        threshold: float = 25.0,
        slack: float = 0.5,
    ) -> None:
        declared_value = check_positive_scalar(declared_value, "declared_value")
        allocated_load = check_positive_scalar(allocated_load, "allocated_load")
        self.expected_sojourn = declared_value * allocated_load
        self.threshold = check_positive_scalar(threshold, "threshold")
        if slack < 0.0:
            raise ValueError("slack must be non-negative")
        self.slack = float(slack)
        self.statistic = 0.0
        self.jobs_observed = 0
        self._sojourn_total = 0.0
        self.alert: SlowdownAlert | None = None

    def observe(self, sojourn: float) -> SlowdownAlert | None:
        """Feed one completed job; returns the alert if it fires now."""
        if sojourn < 0.0:
            raise ValueError("sojourn must be non-negative")
        self.jobs_observed += 1
        self._sojourn_total += sojourn
        standardised = sojourn / self.expected_sojourn - 1.0
        self.statistic = max(0.0, self.statistic + standardised - self.slack)
        if self.alert is None and self.statistic > self.threshold:
            self.alert = SlowdownAlert(
                jobs_observed=self.jobs_observed,
                statistic=self.statistic,
                mean_sojourn=self._sojourn_total / self.jobs_observed,
            )
            return self.alert
        return None

    def observe_many(self, sojourns: np.ndarray) -> SlowdownAlert | None:
        """Feed a batch of completions in order; return the latched alert.

        Contract (pinned by ``tests/protocol/test_monitoring.py``):

        * The detector is **one-shot**: the first threshold crossing
          latches ``self.alert`` permanently.  The batch is consumed
          only up to that first crossing — the remaining observations
          are *not* fed, so ``jobs_observed`` and ``statistic`` freeze
          at the firing point.  A batch whose statistic would cross the
          threshold several times still yields exactly one alert, the
          first.
        * Calling again on an already-alerted detector returns the
          *same* latched :class:`SlowdownAlert` without consuming any
          further observations (``observe`` keeps accumulating if
          called directly, but never fires twice).
        * If no crossing happens in (or before) this batch, returns
          ``None``.
        """
        if self.alert is not None:
            return self.alert
        for sojourn in np.asarray(sojourns, dtype=np.float64):
            alert = self.observe(float(sojourn))
            if alert is not None:
                return alert
        return None

    @property
    def flagged(self) -> bool:
        """Whether the detector has raised an alert."""
        return self.alert is not None


def slowdown_alerts(
    names: Sequence[str],
    declared: Sequence[float],
    loads: Sequence[float],
    sojourns: Sequence[float],
    counts: Sequence[int],
    *,
    threshold: float,
    slack: float,
) -> list[str]:
    """Names whose CUSUM detector fires on one round's sojourns, in order.

    ``sojourns`` is the round's machine-sorted column and ``counts`` the
    per-machine job counts (the shape
    :func:`~repro.protocol.execution.serve_batch` returns): machine
    ``k``'s jobs are the ``counts[k]`` entries after ``counts[:k].sum()``.
    Machine ``k`` is checked against its declared value and load; one
    with no load or no jobs is skipped.  While a machine's standardised
    excess ``s/(b x) - 1 - slack`` is non-positive at every job its
    statistic provably stays at 0, so one elementwise pass over the
    column picks the machines to run a detector on, and only those run
    one.

    >>> slowdown_alerts(["A", "B"], [1.0, 1.0], [1.0, 1.0],
    ...                 [1.0] * 10 + [3.0] * 10, [10, 10],
    ...                 threshold=5.0, slack=0.5)
    ['B']
    """
    declared = np.asarray(declared, dtype=np.float64)
    loads = np.asarray(loads, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    sojourns = np.asarray(sojourns, dtype=np.float64)
    live = (loads > 0.0) & (counts > 0)
    # Skipped machines divide by 1.0, so they raise no division warning.
    expected = np.where(live, declared * loads, 1.0)
    excess = sojourns / np.repeat(expected, counts) - 1.0 - slack > 0.0
    if not excess.any():
        return []
    ends = np.cumsum(counts)
    suspects = np.unique(np.searchsorted(ends, np.flatnonzero(excess), side="right"))
    alerts = []
    for k in suspects[live[suspects]].tolist():
        detector = CusumSlowdownDetector(
            float(declared[k]), float(loads[k]), threshold=threshold, slack=slack
        )
        if detector.observe_many(sojourns[ends[k] - counts[k] : ends[k]]) is not None:
            alerts.append(names[k])
    return alerts


def detection_delay(
    declared_value: float,
    true_execution_value: float,
    allocated_load: float,
    rng: np.random.Generator,
    *,
    threshold: float = 25.0,
    slack: float = 0.5,
    max_jobs: int = 100_000,
) -> int | None:
    """Jobs until detection of a machine running at ``true_execution_value``.

    Simulates the reference machine model (exponential sojourns with
    mean ``t̃ x``) against a detector calibrated to the bid.

    Returns
    -------
    int | None
        The number of completions observed when the alarm fired —
        between 1 and ``max_jobs`` inclusive (a detection exactly on
        the last simulated job counts) — or **explicitly ``None``**
        when the detector never fires within the ``max_jobs`` horizon
        (e.g. an honest machine, or a slowdown inside the slack band).
        ``None`` is a censored observation, not a large delay: callers
        aggregating delays must filter it out (or treat it as
        ``float("inf")``), never coerce it to 0 or to ``max_jobs``.
    """
    if max_jobs < 1:
        raise ValueError("max_jobs must be at least 1")
    true_execution_value = check_positive_scalar(
        true_execution_value, "true_execution_value"
    )
    detector = CusumSlowdownDetector(
        declared_value, allocated_load, threshold=threshold, slack=slack
    )
    mean = true_execution_value * allocated_load
    sojourns = rng.exponential(mean, size=max_jobs)
    alert = detector.observe_many(sojourns)
    return alert.jobs_observed if alert is not None else None
