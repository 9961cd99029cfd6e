"""Vectorised single-server queue simulation (Lindley recursion).

Used by the test suite to validate the analytic latency models against
an independent empirical source: the M/M/1 sojourn time must match
``1/(mu - x)`` and the M/G/1 waiting time must match Pollaczek–Khinchine
(and hence, at light load, the paper's linear model).

The waiting-time recursion ``W_{n+1} = max(0, W_n + S_n - A_{n+1})``
looks inherently sequential, but with prefix sums ``P_n`` of
``U_i = S_i - A_{i+1}`` it has the closed form
``W_{n+1} = P_n - min_{k <= n} P_k``, so the whole sample path is two
``numpy`` scans (``cumsum`` + ``minimum.accumulate``) — no Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_scalar

__all__ = ["QueueStats", "lindley_waits", "simulate_mm1", "simulate_mg1"]


@dataclass(frozen=True)
class QueueStats:
    """Summary statistics of one queue simulation run."""

    n_jobs: int
    mean_wait: float
    mean_sojourn: float
    std_sojourn: float
    utilisation: float


def lindley_waits(interarrival: np.ndarray, service: np.ndarray) -> np.ndarray:
    """Waiting times of a FIFO G/G/1 queue, fully vectorised.

    Parameters
    ----------
    interarrival:
        ``A_2..A_n``: gaps between consecutive arrivals (length n-1 for
        n jobs; the first job arrives to an empty system).
    service:
        ``S_1..S_n``: service times (length n).

    Returns
    -------
    numpy.ndarray
        ``W_1..W_n`` with ``W_1 = 0``.
    """
    interarrival = np.asarray(interarrival, dtype=np.float64)
    service = np.asarray(service, dtype=np.float64)
    if service.ndim != 1 or interarrival.ndim != 1:
        raise ValueError("interarrival and service must be 1-D arrays")
    if interarrival.size != service.size - 1:
        raise ValueError(
            "interarrival must have exactly one fewer entry than service"
        )
    if np.any(interarrival < 0.0) or np.any(service < 0.0):
        raise ValueError("interarrival and service times must be non-negative")

    if service.size == 1:
        return np.zeros(1)

    increments = service[:-1] - interarrival  # U_1..U_{n-1}
    prefix = np.empty(service.size)
    prefix[0] = 0.0
    np.cumsum(increments, out=prefix[1:])
    running_min = np.minimum.accumulate(prefix)
    return prefix - running_min


def _stats(
    waits: np.ndarray,
    service: np.ndarray,
    total_time: float,
    warmup_fraction: float,
) -> QueueStats:
    n = waits.size
    skip = int(warmup_fraction * n)
    sojourn = waits[skip:] + service[skip:]
    return QueueStats(
        n_jobs=int(sojourn.size),
        mean_wait=float(waits[skip:].mean()),
        mean_sojourn=float(sojourn.mean()),
        std_sojourn=float(sojourn.std()),
        utilisation=float(service.sum() / total_time) if total_time > 0 else 0.0,
    )


def simulate_mm1(
    arrival_rate: float,
    service_rate: float,
    n_jobs: int,
    rng: np.random.Generator,
    *,
    warmup_fraction: float = 0.2,
) -> QueueStats:
    """Simulate an M/M/1 queue and summarise sojourn times.

    Requires a stable system (``arrival_rate < service_rate``).
    """
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    service_rate = check_positive_scalar(service_rate, "service_rate")
    if arrival_rate >= service_rate:
        raise ValueError("M/M/1 requires arrival_rate < service_rate")
    if n_jobs < 2:
        raise ValueError("n_jobs must be at least 2")

    interarrival = rng.exponential(1.0 / arrival_rate, size=n_jobs - 1)
    service = rng.exponential(1.0 / service_rate, size=n_jobs)
    waits = lindley_waits(interarrival, service)
    total_time = float(interarrival.sum() + waits[-1] + service[-1])
    return _stats(waits, service, total_time, warmup_fraction)


def simulate_mg1(
    arrival_rate: float,
    service_times: np.ndarray,
    rng: np.random.Generator,
    *,
    warmup_fraction: float = 0.2,
) -> QueueStats:
    """Simulate an M/G/1 queue with caller-supplied service samples.

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate; must keep ``rho = rate * mean(S) < 1``.
    service_times:
        One sampled service time per job (defines G).
    rng:
        Generator for the arrival process.
    """
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    service = np.asarray(service_times, dtype=np.float64)
    if service.ndim != 1 or service.size < 2:
        raise ValueError("service_times must be a 1-D array with at least 2 entries")
    if np.any(service < 0.0):
        raise ValueError("service_times must be non-negative")
    rho = arrival_rate * float(service.mean())
    if rho >= 1.0:
        raise ValueError(f"unstable queue: utilisation {rho:g} >= 1")

    interarrival = rng.exponential(1.0 / arrival_rate, size=service.size - 1)
    waits = lindley_waits(interarrival, service)
    total_time = float(interarrival.sum() + waits[-1] + service[-1])
    return _stats(waits, service, total_time, warmup_fraction)
