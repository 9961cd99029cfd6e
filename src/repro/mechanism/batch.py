"""Vectorised batch evaluation of the verification mechanism.

The audits, landscapes, and collusion scans evaluate the mechanism at
thousands of (bids, executions) profiles.  Each profile is closed form,
so the whole batch is too: this module evaluates ``K`` profiles in a
handful of ``(K, n)`` array operations instead of ``K`` Python-level
mechanism runs — the classic vectorise-the-outer-loop optimisation
(~50x at K = 10^4; measured in ``bench_batch.py``).

Exactness is part of the contract: every row of ``batch_run`` is
byte-identical to :class:`~repro.mechanism.VerificationMechanism` run
on that profile alone, because both price through the one kernel in
:mod:`repro.mechanism.pricing` (tested by ``tobytes()`` comparison on
random batches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_scalar
from repro.mechanism import pricing

__all__ = ["BatchOutcome", "batch_run"]


@dataclass(frozen=True)
class BatchOutcome:
    """Per-profile mechanism results, all arrays of shape ``(K, n)``.

    ``payment = compensation + bonus`` and ``utility = payment +
    valuation`` hold element-wise, exactly as in
    :class:`~repro.types.PaymentResult`.
    """

    loads: np.ndarray
    realised_latency: np.ndarray  # shape (K,)
    compensation: np.ndarray
    bonus: np.ndarray
    valuation: np.ndarray

    @property
    def payment(self) -> np.ndarray:
        """Per-profile per-agent payments."""
        return self.compensation + self.bonus

    @property
    def utility(self) -> np.ndarray:
        """Per-profile per-agent utilities."""
        return self.payment + self.valuation

    @property
    def n_profiles(self) -> int:
        """Number of profiles in the batch."""
        return int(self.loads.shape[0])


def _validate_matrix(values: np.ndarray, name: str) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"{name} must be 2-D (profiles x machines)")
    if values.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(values <= 0.0):
        raise ValueError(f"all entries of {name} must be strictly positive")
    return values


def batch_run(
    bids: np.ndarray,
    arrival_rate: float,
    execution_values: np.ndarray | None = None,
    *,
    compensation: str = "observed",
) -> BatchOutcome:
    """Evaluate the verification mechanism at ``K`` profiles at once.

    Parameters
    ----------
    bids:
        Shape ``(K, n)``: one bid vector per row.
    arrival_rate:
        Common arrival rate ``R`` for the whole batch.
    execution_values:
        Shape ``(K, n)``; defaults to the bids.
    compensation:
        ``"observed"`` (Definition 3.3) or ``"declared"`` — the same
        modes as :class:`~repro.mechanism.VerificationMechanism`.
    """
    bids = _validate_matrix(bids, "bids")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    if execution_values is None:
        execution_values = bids
    else:
        execution_values = _validate_matrix(execution_values, "execution_values")
        if execution_values.shape != bids.shape:
            raise ValueError("execution_values must have the same shape as bids")
    if compensation not in ("observed", "declared"):
        raise ValueError("compensation must be 'observed' or 'declared'")
    if bids.shape[1] < 2:
        raise ValueError("leave-one-out bonuses require at least two machines")

    priced = pricing.price(compensation, bids, execution_values, arrival_rate)
    return BatchOutcome(
        loads=priced.loads,
        realised_latency=priced.realised_latency,
        compensation=priced.compensation,
        bonus=priced.bonus,
        valuation=priced.valuation,
    )

