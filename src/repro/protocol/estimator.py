"""Estimating a machine's execution value from observed completions.

The paper assumes the verification step outright: "we assume that the
processing rate with which the jobs were actually executed is known to
the mechanism."  In practice the mechanism only sees job completions.
Under the linear latency model the expected sojourn of a job at machine
``i`` is ``t̃_i x_i``, so with the allocated rate ``x_i`` known to the
mechanism, the natural estimator from ``m`` observed sojourn times is

    ``t̂_i = mean(sojourn) / x_i``,

which is unbiased with relative standard error ``~ cv / sqrt(m)``
(``cv`` = coefficient of variation of the sojourn distribution; 1 for
exponential service).  The returned estimate carries a normal-theory
confidence interval so callers can reason about how much payment error
the verification noise induces (benchmarked in
``benchmarks/bench_noisy_verification.py``).

:func:`verified_estimates` is the round-level form every coordinator
(sequential, fault-tolerant, supervised, sharded, horizon-fused) prices
from: one ``t̂`` per machine from its reported job count and mean
sojourn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_float_array, check_nonnegative, check_positive_scalar

__all__ = ["ExecutionEstimate", "estimate_execution_value", "verified_estimates"]

#: two-sided 95% normal quantile
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class ExecutionEstimate:
    """Point estimate of ``t̃`` with sampling-uncertainty bounds."""

    value: float
    stderr: float
    n_observations: int

    @property
    def ci95(self) -> tuple[float, float]:
        """Two-sided 95% confidence interval (normal approximation)."""
        return (
            self.value - _Z95 * self.stderr,
            self.value + _Z95 * self.stderr,
        )

    def clamped(self, lower: float) -> "ExecutionEstimate":
        """The estimate with its value clamped from below.

        Used to impose prior knowledge such as a declared bid: under a
        truthful mechanism a machine never executes *faster* than its
        capacity, so an estimate below a trusted lower bound is noise.
        """
        if self.value >= lower:
            return self
        return ExecutionEstimate(
            value=float(lower), stderr=self.stderr, n_observations=self.n_observations
        )


def estimate_execution_value(
    sojourn_times: np.ndarray,
    allocated_load: float,
) -> ExecutionEstimate:
    """Estimate ``t̃`` from per-job sojourn times at a known load.

    Parameters
    ----------
    sojourn_times:
        Observed per-job completion times at one machine (seconds).
    allocated_load:
        The arrival rate ``x_i`` the mechanism routed to the machine.

    Raises
    ------
    ValueError
        On empty observations or a non-positive load: a machine with no
        assigned work produces no evidence about its execution value.
    """
    sojourn_times = as_float_array(sojourn_times, "sojourn_times")
    check_nonnegative(sojourn_times, "sojourn_times")
    allocated_load = check_positive_scalar(allocated_load, "allocated_load")

    n = sojourn_times.size
    mean = float(sojourn_times.mean())
    if n > 1:
        spread = float(sojourn_times.std(ddof=1))
        stderr = spread / (np.sqrt(n) * allocated_load)
    else:
        stderr = float("inf")
    return ExecutionEstimate(
        value=mean / allocated_load,
        stderr=stderr,
        n_observations=int(n),
    )


def verified_estimates(
    bids: np.ndarray,
    loads: np.ndarray,
    jobs: np.ndarray,
    mean_sojourns: np.ndarray,
    withheld: np.ndarray | None = None,
    missing_report_factor: float = 4.0,
) -> np.ndarray:
    """The round's execution-value estimates ``t̂``, one per machine.

    ``t̂_i = mean_sojourn_i / x_i`` for a machine that ran jobs; a
    machine with no completed jobs (or no load) produced no evidence
    against its bid and is estimated at the bid; a machine flagged in
    ``withheld`` never reported and is imputed the pessimistic
    ``missing_report_factor * bid``.

    >>> verified_estimates([1.0, 2.0, 3.0], [2.0, 1.0, 0.5], [10, 0, 4],
    ...                    [3.0, 0.0, 1.0], withheld=[False, False, True])
    array([ 1.5,  2. , 12. ])
    """
    bids = np.asarray(bids, dtype=np.float64)
    loads = np.asarray(loads, dtype=np.float64)
    mean_sojourns = np.asarray(mean_sojourns, dtype=np.float64)
    estimates = bids.copy()
    ran = (np.asarray(jobs) != 0) & (loads != 0.0)
    estimates[ran] = mean_sojourns[ran] / loads[ran]
    if withheld is not None:
        missing = np.asarray(withheld, dtype=bool)
        estimates[missing] = missing_report_factor * bids[missing]
    return estimates
