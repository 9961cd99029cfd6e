"""Numeric best response of a single agent under a given mechanism.

For a truthful mechanism the best response is the truth (Theorem 3.1);
for the non-truthful declared-compensation variant the optimiser finds
the profitable overbid.  The search evaluates a shared ``(execution x
bid)`` candidate grid — log-spaced bids across ``bid_bounds_factor``,
linear execution values over ``[t, exec_cap * t]`` — then polishes the
grid argmax with bounded golden-section refinement.

Two interchangeable evaluation methods fill the grid:

* ``"bruteforce"`` — one full :meth:`Mechanism.run` per candidate,
  O(grid * n); works for every mechanism.
* ``"vectorized"`` — the closed-form sufficient-statistic kernel of
  :mod:`repro.agents.kernels`, O(n + grid); available for
  :class:`~repro.mechanism.VerificationMechanism` (both compensation
  modes), :class:`~repro.mechanism.VCGMechanism`, and
  :class:`~repro.mechanism.ArcherTardosMechanism`.  ``"auto"`` (the
  default) picks it whenever it applies.

**Tie-break contract** (shared by both methods, pinned by the property
tests and ``benchmarks/bench_best_response.py``): the grid argmax is
the first maximal entry of the ``(execution x bid)`` surface in
C (row-major) order — ties resolve to the lowest execution index,
then the lowest bid index — and the truth is kept whenever the search
does not *strictly* beat the truthful utility.  With ``refine=False``
the two methods therefore select bit-identical ``(bid, execution)``
grid pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import (
    as_float_array,
    check_index,
    check_positive,
    check_positive_scalar,
)
from repro.agents import kernels
from repro.mechanism.base import Mechanism

__all__ = ["BestResponse", "best_response"]

_METHODS = ("auto", "bruteforce", "vectorized")


@dataclass(frozen=True)
class BestResponse:
    """Result of a single-agent best-response computation."""

    agent: int
    bid: float
    execution_value: float
    utility: float
    truthful_utility: float

    @property
    def gain(self) -> float:
        """Utility improvement over bidding/executing truthfully."""
        return self.utility - self.truthful_utility

    @property
    def is_truthful(self) -> bool:
        """Whether the best response coincides with truth-telling.

        Judged by utility (gain below numerical noise) rather than by
        the argmax, since flat regions can move the argmax harmlessly.
        """
        return self.gain <= 1e-7 * max(1.0, abs(self.truthful_utility))


def _grid_utilities(utility, bid_grid: np.ndarray, exec_grid: np.ndarray) -> np.ndarray:
    """Brute-force fill of the full candidate surface.

    One mechanism run per cell, hoisted out of the per-execution
    comprehension so both methods produce the same ``(execution x
    bid)``-shaped array and share one argmax/tie-break call.
    """
    return np.array(
        [[utility(float(b), float(e)) for b in bid_grid] for e in exec_grid]
    )


def best_response(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    *,
    other_bids: np.ndarray | None = None,
    bid_bounds_factor: tuple[float, float] = (0.05, 20.0),
    execution_cap_factor: float = 4.0,
    scan_points: int = 48,
    exec_points: int = 8,
    method: str = "auto",
    refine: bool = True,
) -> BestResponse:
    """Best (bid, execution) pair for ``agent`` given the others' bids.

    Parameters
    ----------
    mechanism:
        The mechanism the agent plays against.
    true_values:
        True slopes of all agents; agent ``agent``'s entry is its own
        private type.
    arrival_rate:
        Total rate ``R``.
    other_bids:
        Bids of the other agents.  Defaults to their true values
        (everyone else truthful); pass a full-length vector whose
        ``agent`` entry is ignored to study other profiles.
    bid_bounds_factor:
        Multiplicative search range for the bid around the true value.
    execution_cap_factor:
        Execution values are searched in ``[t, cap * t]``.
    scan_points:
        Size of the log-spaced bid grid.
    exec_points:
        Size of the linear execution grid (collapsed to one honest
        point when the cap is 1).
    method:
        ``"bruteforce"``, ``"vectorized"``, or ``"auto"`` (vectorized
        whenever the mechanism has the closed-form kernel).
    refine:
        Polish the grid argmax with bounded scalar refinement.
        ``refine=False`` returns the raw grid selection, which is
        bit-identical across methods.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if method == "auto":
        method = "vectorized" if kernels.supports(mechanism) else "bruteforce"

    if method == "vectorized":
        return kernels.best_response_fast(
            mechanism,
            true_values,
            arrival_rate,
            agent,
            other_bids=other_bids,
            bid_bounds_factor=bid_bounds_factor,
            execution_cap_factor=execution_cap_factor,
            scan_points=scan_points,
            exec_points=exec_points,
            refine=refine,
        )

    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    agent = check_index(agent, true_values.size, "agent")

    base = true_values.copy()
    if other_bids is not None:
        other_bids = as_float_array(other_bids, "other_bids")
        check_positive(other_bids, "other_bids")
        if other_bids.size != true_values.size:
            raise ValueError("other_bids must have one entry per agent")
        base = other_bids.copy()
        base[agent] = true_values[agent]

    t_i = float(true_values[agent])

    def utility(bid: float, execution: float) -> float:
        bids = base.copy()
        bids[agent] = bid
        execs = base.copy()
        execs[agent] = execution
        outcome = mechanism.run(bids, arrival_rate, execs, true_values=None)
        return float(outcome.payments.utility[agent])

    truthful = utility(t_i, t_i)

    bid_grid, exec_grid = kernels.strategy_grids(
        t_i,
        bid_bounds_factor=bid_bounds_factor,
        execution_cap_factor=execution_cap_factor,
        scan_points=scan_points,
        exec_points=exec_points,
    )
    surface = _grid_utilities(utility, bid_grid, exec_grid)
    row, col = kernels.grid_argmax(surface)
    best = (float(surface[row, col]), float(bid_grid[col]), float(exec_grid[row]))
    if refine:
        best = kernels.refine_from_grid(
            utility,
            bid_grid,
            exec_grid,
            row,
            col,
            best[0],
            t_i,
            execution_cap_factor,
        )
    u_star, b_star, e_star = best

    # Keep truth if the search did not strictly beat it (flat optimum).
    if truthful >= u_star:
        return BestResponse(agent, t_i, t_i, truthful, truthful)
    return BestResponse(agent, b_star, e_star, u_star, truthful)

