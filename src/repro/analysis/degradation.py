"""Latency degradation caused by misreporting and slow execution.

Includes the paper's conjectured extension: "We expect even larger
increase if more than one computer does not report its true value and
does not use its full processing capacity."  ``multi_liar_degradation``
quantifies it by applying the same manipulation to a growing set of
machines.
"""

from __future__ import annotations

import numpy as np

from repro._validation import as_float_array, check_positive, check_positive_scalar
from repro.allocation.pr import optimal_total_latency, pr_loads

__all__ = [
    "degradation_percent",
    "multi_liar_degradation",
]


def degradation_percent(realised: float, optimum: float) -> float:
    """Latency increase over the optimum, in percent."""
    optimum = check_positive_scalar(optimum, "optimum")
    return 100.0 * (realised / optimum - 1.0)


def realised_latency(
    true_values: np.ndarray,
    bids: np.ndarray,
    execution_values: np.ndarray,
    arrival_rate: float,
) -> float:
    """Realised ``L`` when allocation follows bids but execution follows t̃."""
    loads = pr_loads(bids, arrival_rate)
    execution_values = np.asarray(execution_values, dtype=np.float64)
    return float(np.dot(execution_values, loads**2))


def multi_liar_degradation(
    true_values: np.ndarray,
    arrival_rate: float,
    *,
    bid_factor: float,
    execution_factor: float,
    max_liars: int | None = None,
) -> np.ndarray:
    """Degradation as the same manipulation spreads to more machines.

    Machines ``0 .. k-1`` apply (bid_factor, execution_factor) for
    ``k = 0 .. max_liars``; entry ``k`` of the returned array is the
    percent degradation with ``k`` liars.  Entry 0 is always 0 (all
    truthful).  The sequence is monotonically context-dependent but, as
    the paper conjectures, grows with ``k`` for latency-increasing
    manipulations (verified in the A1 bench).
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    check_positive_scalar(bid_factor, "bid_factor")
    if execution_factor < 1.0:
        raise ValueError("execution_factor must be >= 1")
    n = true_values.size
    if max_liars is None:
        max_liars = n
    if not 0 <= max_liars <= n:
        raise ValueError(f"max_liars must be in [0, {n}]")

    optimum = optimal_total_latency(true_values, arrival_rate)
    out = np.empty(max_liars + 1)
    for k in range(max_liars + 1):
        bids = true_values.copy()
        executions = true_values.copy()
        bids[:k] *= bid_factor
        executions[:k] *= execution_factor
        realised = realised_latency(true_values, bids, executions, arrival_rate)
        out[k] = degradation_percent(realised, optimum)
    return out
