"""Numeric best response of a single agent under a given mechanism.

For a truthful mechanism the best response is the truth (Theorem 3.1);
for the non-truthful declared-compensation variant the optimiser finds
the profitable overbid.  The search evaluates a shared ``(execution x
bid)`` candidate grid — log-spaced bids across ``bid_bounds_factor``,
linear execution values over ``[t, exec_cap * t]`` — then polishes the
grid argmax with bounded golden-section refinement.

The search itself is :func:`repro.agents.kernels.search`; only the
evaluator depends on the mechanism, chosen by its exact type
(:func:`repro.agents.kernels.kernel_mode_of`):

* a mechanism with a kernel mode —
  :class:`~repro.mechanism.VerificationMechanism` (both compensation
  modes), :class:`~repro.mechanism.VCGMechanism` and
  :class:`~repro.mechanism.ArcherTardosMechanism` — is scored by the
  closed-form sufficient-statistic kernel, O(n + grid);
* any other mechanism, subclasses of those three included, by one
  :meth:`Mechanism.run` per candidate
  (:func:`repro.mechanism.properties.deviation_utility`), O(grid * n).

**Tie-break contract** (pinned by the property tests and
``benchmarks/bench_best_response.py``): the grid argmax is the first
maximal entry of the ``(execution x bid)`` surface in C (row-major)
order — ties resolve to the lowest execution index, then the lowest bid
index — and the truth is kept whenever the search does not *strictly*
beat the truthful utility.  With ``refine=False`` the two evaluators
therefore select bit-identical ``(bid, execution)`` grid pairs.
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
from repro.mechanism.properties import deviation_utility

__all__ = ["BestResponse", "best_response"]


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
    refine:
        Polish the grid argmax with bounded scalar refinement.
        ``refine=False`` returns the raw grid selection, which is
        bit-identical across evaluators.
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    agent = check_index(agent, true_values.size, "agent")
    if true_values.size < 2:
        raise ValueError("a best response needs at least two machines")

    base = true_values.copy()
    if other_bids is not None:
        other_bids = as_float_array(other_bids, "other_bids")
        check_positive(other_bids, "other_bids")
        if other_bids.size != true_values.size:
            raise ValueError("other_bids must have one entry per agent")
        base = other_bids.copy()
        base[agent] = true_values[agent]

    t_i = float(true_values[agent])
    grid = dict(
        bid_bounds_factor=bid_bounds_factor,
        execution_cap_factor=execution_cap_factor,
        scan_points=scan_points,
        exec_points=exec_points,
        refine=refine,
    )
    mode = kernels.kernel_mode_of(mechanism)
    if mode is not None:
        s_minus, q_minus = kernels.sufficient_statistics(base)
        return BestResponse(agent, *kernels.best_response_given_stats(
            float(s_minus[agent]), float(q_minus[agent]), t_i, arrival_rate,
            mode=mode, **grid,
        ))

    def utility(bid: float, execution: float) -> float:
        bids = base.copy()
        bids[agent] = bid
        execs = base.copy()
        execs[agent] = execution
        return deviation_utility(mechanism, bids, execs, arrival_rate, agent)

    def surface(bid_grid: np.ndarray, exec_grid: np.ndarray) -> np.ndarray:
        return np.array(
            [[utility(float(b), float(e)) for b in bid_grid] for e in exec_grid]
        )

    return BestResponse(agent, *kernels.search(utility, surface, t_i, **grid))
