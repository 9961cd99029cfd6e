"""Iterated best-response dynamics of the induced bidding game.

Each round, agents (in index order) replace their bid with a best
response to the current bids of the others.  Under a truthful mechanism
the truthful profile is a fixed point reached immediately; under the
non-truthful declared-compensation variant the dynamics drift away from
the truth — the demonstration that verification-style payments are what
keeps the system at the efficient allocation.

:class:`BestResponseDynamics` plays that loop for every mechanism; only
its agent step depends on the payment rule:

* for every mechanism with a kernel mode
  (:func:`repro.agents.kernels.kernel_mode_of`: the verification
  mechanism, VCG, and Archer–Tardos) the sufficient statistics
  ``S = sum 1/b_j`` and ``Q = sum t~_j/b_j**2`` live in an
  :class:`~repro.allocation.IncrementalStrategicState` and each step
  goes through :func:`repro.agents.kernels.best_response_given_stats`,
  so a round costs O(n * grid) arithmetic;
* any other mechanism steps through
  :func:`~repro.agents.best_response.best_response`, one
  :meth:`Mechanism.run` per grid candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

import numpy as np

from repro._validation import as_float_array, check_positive, check_positive_scalar
from repro.agents import kernels
from repro.agents.best_response import BestResponse, best_response
from repro.allocation.incremental import IncrementalStrategicState
from repro.mechanism.base import Mechanism

__all__ = ["GameTrace", "BestResponseDynamics"]


@dataclass(frozen=True)
class GameTrace:
    """History of one iterated best-response run."""

    bid_history: np.ndarray  # shape (rounds + 1, n): row 0 is the start profile
    converged: bool
    rounds: int

    @property
    def final_bids(self) -> np.ndarray:
        """Bid profile after the last round."""
        return self.bid_history[-1]

    def max_drift_from(self, reference: np.ndarray) -> float:
        """Largest relative distance of the final bids from ``reference``."""
        reference = np.asarray(reference, dtype=np.float64)
        return float(np.max(np.abs(self.final_bids - reference) / reference))


@dataclass
class BestResponseDynamics:
    """Simultaneous-bid game induced by a mechanism on fixed true values.

    Every non-deviating machine is presumed to execute exactly as it
    declared (``t~_j = b_j``), so the state's execution vector tracks
    the bid vector across rounds.

    Parameters
    ----------
    mechanism:
        Mechanism mapping bids (and executions) to payments.
    true_values:
        Agents' private types (at least two).
    arrival_rate:
        Total rate ``R``.
    honest_execution:
        When true (default), agents always execute at capacity and only
        optimise their bids; otherwise each step also searches
        execution values up to four times the true value.
    """

    mechanism: Mechanism
    true_values: np.ndarray
    arrival_rate: float
    honest_execution: bool = True
    _tolerance: float = field(default=1e-6, repr=False)

    def __post_init__(self) -> None:
        self.true_values = as_float_array(self.true_values, "true_values")
        check_positive(self.true_values, "true_values")
        if self.true_values.size < 2:
            raise ValueError("best-response dynamics require at least two agents")
        self.arrival_rate = check_positive_scalar(self.arrival_rate, "arrival_rate")
        self._mode = kernels.kernel_mode_of(self.mechanism)

    @property
    def _execution_cap(self) -> float:
        return 1.0 if self.honest_execution else 4.0

    def _best_response(
        self,
        state: IncrementalStrategicState,
        bids: np.ndarray,
        agent: int,
        rate: float,
    ) -> BestResponse:
        """One agent's best response to the others' current bids."""
        if self._mode is None:
            return best_response(
                self.mechanism,
                self.true_values,
                rate,
                agent,
                other_bids=bids,
                execution_cap_factor=self._execution_cap,
            )
        s_minus, q_minus = state.statistics_excluding(agent)
        bid, execution, utility, truthful = kernels.best_response_given_stats(
            s_minus,
            q_minus,
            float(self.true_values[agent]),
            rate,
            mode=self._mode,
            execution_cap_factor=self._execution_cap,
        )
        return BestResponse(agent, bid, execution, utility, truthful)

    def _play(
        self,
        rates: Iterable[float],
        start_bids: np.ndarray | None,
        *,
        stop_when_converged: bool,
    ) -> GameTrace:
        """Gauss–Seidel rounds, one per rate; ``converged`` is the last round's."""
        bids = (
            self.true_values.copy()
            if start_bids is None
            else as_float_array(start_bids, "start_bids").copy()
        )
        if bids.size != self.true_values.size:
            raise ValueError("start_bids must have one entry per agent")
        check_positive(bids, "start_bids")

        state = IncrementalStrategicState(bids)
        history = [bids.copy()]
        converged = False
        for rate in rates:
            previous = bids.copy()
            for agent in range(bids.size):
                new_bid = self._best_response(state, bids, agent, rate).bid
                state.update(agent, new_bid)
                bids[agent] = new_bid
            history.append(bids.copy())
            converged = bool(
                np.max(np.abs(bids - previous) / previous) < self._tolerance
            )
            if converged and stop_when_converged:
                break
        return GameTrace(
            bid_history=np.array(history),
            converged=converged,
            rounds=len(history) - 1,
        )

    def run(
        self,
        start_bids: np.ndarray | None = None,
        max_rounds: int = 20,
    ) -> GameTrace:
        """Iterate best responses until bids stop moving or rounds run out."""
        return self._play(
            repeat(self.arrival_rate, max_rounds),
            start_bids,
            stop_when_converged=True,
        )

    def run_path(
        self,
        rates: np.ndarray,
        start_bids: np.ndarray | None = None,
    ) -> GameTrace:
        """Best-response dynamics along a nonstationary rate path.

        One best-response round is played per entry of ``rates`` — pass
        e.g. ``[schedule.mean_rate(k*d, (k+1)*d) for k in range(T)]``
        to chase an :class:`~repro.system.workload.ArrivalSchedule`.
        Unlike :meth:`run`, the dynamics never stop early: the target
        moves every round, so all ``len(rates)`` rounds are played and
        ``converged`` reports whether the *last* round left the profile
        within tolerance (the dynamics kept up with the drift).
        """
        rates = as_float_array(rates, "rates")
        check_positive(rates, "rates")
        return self._play(rates.tolist(), start_bids, stop_when_converged=False)

    def truthful_is_equilibrium(self) -> bool:
        """Whether no agent gains by deviating from the all-truthful profile."""
        state = IncrementalStrategicState(self.true_values)
        return all(
            self._best_response(
                state, self.true_values, agent, self.arrival_rate
            ).is_truthful
            for agent in range(self.true_values.size)
        )
