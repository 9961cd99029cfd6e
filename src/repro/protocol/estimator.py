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
exponential service).  How much payment error that verification noise
induces is benchmarked in ``benchmarks/bench_noisy_verification.py``.

:func:`verified_estimates` is that estimator at round level, the one
every coordinator (sequential, fault-tolerant, supervised, sharded,
horizon-fused) prices from: one ``t̂`` per machine from its reported
job count and mean sojourn.
"""

from __future__ import annotations

import numpy as np

__all__ = ["verified_estimates"]


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
