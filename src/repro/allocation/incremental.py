"""Incremental PR state: O(1) updates when one bid changes.

The repeated settings (dynamic rounds, best-response dynamics, learning
agents) re-run the mechanism after changing *one* machine's bid.  All
the closed forms depend on the bids only through ``S = sum 1/b_j``, so
a single-bid change is a rank-1 update:

* ``S' = S - 1/b_old + 1/b_new``                    (O(1))
* ``L*' = R^2 / S'``                                 (O(1))

This class maintains that state with add/remove/update operations and
serves the aggregate queries without touching the other ``n-1``
machines.  Equivalence with the from-scratch formulas is enforced by
property tests; the speedup (O(1) vs O(n) per step for aggregate
queries) is measured in ``bench_incremental.py``.

Numerical note: repeated add/subtract on ``S`` accumulates rounding at
~1 ulp per operation.  :meth:`refresh` recomputes ``S`` exactly; the
class also refreshes itself automatically every ``refresh_every``
updates, keeping drift below measurable levels (tested at 10^5
updates).
"""

from __future__ import annotations

import numpy as np

from repro._validation import (
    check_index,
    check_positive_scalar,
)

__all__ = ["IncrementalPRState", "IncrementalStrategicState"]


class IncrementalPRState:
    """Mutable PR-allocation state over a changing bid vector."""

    def __init__(
        self,
        bids: np.ndarray,
        arrival_rate: float,
        *,
        refresh_every: int = 4096,
    ) -> None:
        bids = np.array(bids, dtype=np.float64)
        if bids.ndim != 1 or bids.size == 0:
            raise ValueError("bids must be a non-empty 1-D array")
        if np.any(bids <= 0.0) or not np.all(np.isfinite(bids)):
            raise ValueError("bids must be strictly positive and finite")
        self._bids = bids
        self.arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
        if refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self._refresh_every = int(refresh_every)
        self._updates_since_refresh = 0
        self._total_inverse = float(np.sum(1.0 / bids))

    # ------------------------------------------------------------ queries

    @property
    def n_machines(self) -> int:
        """Current number of machines."""
        return int(self._bids.size)

    @property
    def bids(self) -> np.ndarray:
        """A copy of the current bid vector."""
        return self._bids.copy()

    @property
    def total_inverse(self) -> float:
        """``S = sum 1/b_j`` (maintained incrementally)."""
        return self._total_inverse

    def optimal_latency(self) -> float:
        """``L* = R^2 / S`` at the current bids (O(1))."""
        return self.arrival_rate**2 / self._total_inverse

    def loads(self) -> np.ndarray:
        """The full PR load vector (O(n), provided for convenience)."""
        inv = 1.0 / self._bids
        return self.arrival_rate * inv / self._total_inverse

    # ------------------------------------------------------------ updates

    def update_bid(self, index: int, new_bid: float) -> None:
        """Change one machine's bid: O(1) state update."""
        index = check_index(index, self._bids.size, "index")
        new_bid = check_positive_scalar(new_bid, "new_bid")
        self._total_inverse += 1.0 / new_bid - 1.0 / self._bids[index]
        self._bids[index] = new_bid
        self._tick()

    def add_machine(self, bid: float) -> int:
        """Add a machine; returns its index."""
        bid = check_positive_scalar(bid, "bid")
        self._bids = np.append(self._bids, bid)
        self._total_inverse += 1.0 / bid
        self._tick()
        return self._bids.size - 1

    def remove_machine(self, index: int) -> None:
        """Remove a machine (the remaining indices shift down)."""
        index = check_index(index, self._bids.size, "index")
        if self._bids.size == 1:
            raise ValueError("cannot remove the last machine")
        self._total_inverse -= 1.0 / self._bids[index]
        self._bids = np.delete(self._bids, index)
        self._tick()

    def refresh(self) -> None:
        """Recompute ``S`` from scratch, discarding rounding drift."""
        self._total_inverse = float(np.sum(1.0 / self._bids))
        self._updates_since_refresh = 0

    def _tick(self) -> None:
        self._updates_since_refresh += 1
        if self._updates_since_refresh >= self._refresh_every:
            self.refresh()


class IncrementalStrategicState:
    """Rank-1-updatable sufficient statistics for the strategic layer.

    The closed-form utility kernels (:mod:`repro.agents.kernels`)
    reduce agent ``i``'s whole dependence on the others to two
    aggregates over the current ``(bids, executions)`` profile:

    * ``S = sum_j 1 / b_j`` — the PR allocation normaliser, and
    * ``Q = sum_j t~_j / b_j**2`` — the others' realised-latency mass.

    Best-response dynamics change *one* agent per step, so both
    aggregates admit O(1) rank-1 updates, and the leave-one-out values
    a step needs are O(1) subtractions::

        S_{-i} = S - 1 / b_i
        Q_{-i} = Q - t~_i / b_i**2

    Like :class:`IncrementalPRState`, the state re-sums itself every
    ``refresh_every`` updates to shed floating-point drift.

    Examples
    --------
    >>> state = IncrementalStrategicState([1.0, 2.0, 4.0])
    >>> state.statistics_excluding(0)
    (0.75, 0.75)
    >>> state.update(0, 2.0)
    >>> round(state.total_inverse, 6)
    1.25
    """

    def __init__(
        self,
        bids: np.ndarray,
        executions: np.ndarray | None = None,
        *,
        refresh_every: int = 4096,
    ) -> None:
        bids = np.array(bids, dtype=np.float64)
        if bids.ndim != 1 or bids.size == 0:
            raise ValueError("bids must be a non-empty 1-D array")
        if np.any(bids <= 0.0) or not np.all(np.isfinite(bids)):
            raise ValueError("bids must be strictly positive and finite")
        if executions is None:
            executions = bids.copy()
        else:
            executions = np.array(executions, dtype=np.float64)
            if executions.shape != bids.shape:
                raise ValueError("executions must have one entry per machine")
            if np.any(executions <= 0.0) or not np.all(np.isfinite(executions)):
                raise ValueError("executions must be strictly positive and finite")
        self._bids = bids
        self._executions = executions
        if refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self._refresh_every = int(refresh_every)
        self._updates_since_refresh = 0
        self.refresh()

    # ------------------------------------------------------------ queries

    @property
    def n_machines(self) -> int:
        """Current number of machines."""
        return int(self._bids.size)

    @property
    def bids(self) -> np.ndarray:
        """A copy of the current bid vector."""
        return self._bids.copy()

    @property
    def executions(self) -> np.ndarray:
        """A copy of the current execution-value vector."""
        return self._executions.copy()

    @property
    def total_inverse(self) -> float:
        """``S = sum 1/b_j`` (maintained incrementally)."""
        return self._total_inverse

    def statistics_excluding(self, index: int) -> tuple[float, float]:
        """``(S_{-i}, Q_{-i})`` for one agent — two O(1) subtractions."""
        index = check_index(index, self._bids.size, "index")
        if self._bids.size < 2:
            raise ValueError("leave-one-out statistics require at least two machines")
        inv = 1.0 / self._bids[index]
        return (
            self._total_inverse - inv,
            self._total_weighted - self._executions[index] * inv * inv,
        )

    # ------------------------------------------------------------ updates

    def update(
        self, index: int, new_bid: float, new_execution: float | None = None
    ) -> None:
        """Change one machine's bid (and execution value): O(1).

        ``new_execution`` defaults to the new bid — the convention of
        the dynamics loops, where every machine is presumed to execute
        exactly as it declared.
        """
        index = check_index(index, self._bids.size, "index")
        new_bid = check_positive_scalar(new_bid, "new_bid")
        if new_execution is None:
            new_execution = new_bid
        else:
            new_execution = check_positive_scalar(new_execution, "new_execution")
        old_inv = 1.0 / self._bids[index]
        new_inv = 1.0 / new_bid
        self._total_inverse += new_inv - old_inv
        self._total_weighted += (
            new_execution * new_inv * new_inv
            - self._executions[index] * old_inv * old_inv
        )
        self._bids[index] = new_bid
        self._executions[index] = new_execution
        self._updates_since_refresh += 1
        if self._updates_since_refresh >= self._refresh_every:
            self.refresh()

    def refresh(self) -> None:
        """Re-sum both aggregates from scratch, discarding drift."""
        inv = 1.0 / self._bids
        self._total_inverse = float(inv.sum())
        self._total_weighted = float(np.sum(self._executions * inv * inv))
        self._updates_since_refresh = 0
