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

:func:`slowdown_alerts` runs one detector per machine over a finished
round's sojourns; every round path (sequential, sharded, horizon-fused)
detects through it.
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
    sojourns: Sequence[Sequence[float] | None],
    *,
    threshold: float,
    slack: float,
) -> list[str]:
    """Names whose CUSUM detector fires on one round's sojourns, in order.

    Machine ``k`` is checked against its declared value and load; one
    with no load or no sojourns (``None`` or empty) is skipped.  When
    every standardised excess ``s/(b x) - 1 - slack`` is non-positive
    the statistic provably stays at 0, so no detector is run at all.

    >>> slowdown_alerts(["A", "B"], [1.0, 1.0], [1.0, 1.0],
    ...                 [[1.0] * 10, [3.0] * 10], threshold=5.0, slack=0.5)
    ['B']
    """
    alerts = []
    for name, bid, load, observed in zip(names, declared, loads, sojourns):
        if load <= 0.0 or observed is None or len(observed) == 0:
            continue
        bid, load = float(bid), float(load)
        observed = np.asarray(observed, dtype=np.float64)
        if not np.any(observed / (bid * load) - 1.0 - slack > 0.0):
            continue
        detector = CusumSlowdownDetector(
            bid, load, threshold=threshold, slack=slack
        )
        if detector.observe_many(observed) is not None:
            alerts.append(name)
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
