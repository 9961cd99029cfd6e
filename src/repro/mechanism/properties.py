"""Audits for the game-theoretic properties the paper proves.

* **Truthfulness** (Theorem 3.1): for every agent, bidding its true
  value and executing at full capacity is a dominant strategy.  The
  audit scans a grid of (bid, execution) deviations for each agent and
  reports the largest utility gain found; a truthful mechanism must
  show a gain of at most numerical noise.
* **Voluntary participation** (Theorem 3.2): a truthful agent's utility
  is never negative; the audit reports the minimum truthful utility.
* **Frugality** (Section 4, Fig. 6): total payment over total agent
  cost; the paper observes the ratio stays below about 2.5.

These audits are used both by the test suite (including the
hypothesis-driven property tests) and by the benchmark harness for the
ablation comparing compensation variants.
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
from repro.mechanism import pricing
from repro.mechanism.base import Mechanism
from repro.types import MechanismOutcome

__all__ = [
    "DeviationResult",
    "TruthfulnessReport",
    "best_deviation_gain",
    "deviation_utilities",
    "truthfulness_audit",
    "voluntary_participation_margin",
    "frugality_ratio",
]

#: default multiplicative deviations applied to an agent's true value
DEFAULT_BID_FACTORS = (0.1, 0.25, 0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0)
#: execution can only be slower than capacity (factor >= 1)
DEFAULT_EXEC_FACTORS = (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)


@dataclass(frozen=True)
class DeviationResult:
    """Most profitable deviation found for one agent."""

    agent: int
    truthful_utility: float
    best_utility: float
    best_bid: float
    best_execution: float

    @property
    def gain(self) -> float:
        """Utility improvement of the best deviation over truth-telling."""
        return self.best_utility - self.truthful_utility


@dataclass(frozen=True)
class TruthfulnessReport:
    """Aggregate of per-agent deviation scans."""

    deviations: tuple[DeviationResult, ...]

    @property
    def max_gain(self) -> float:
        """Largest deviation gain over all agents (<= 0 for a truthful mechanism)."""
        return max(d.gain for d in self.deviations)

    @property
    def is_truthful(self) -> bool:
        """Whether no scanned deviation beats truth-telling (tolerance 1e-9)."""
        return self.max_gain <= 1e-9

    def worst(self) -> DeviationResult:
        """The deviation result with the largest gain."""
        return max(self.deviations, key=lambda d: d.gain)


def _agent_utility(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    bid: float,
    execution: float,
) -> float:
    """Utility of ``agent`` deviating to (bid, execution); others truthful."""
    bids = true_values.copy()
    bids[agent] = bid
    execs = true_values.copy()
    execs[agent] = execution
    outcome = mechanism.run(bids, arrival_rate, execs, true_values=true_values)
    return float(outcome.payments.utility[agent])


def deviation_utilities(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    bids: np.ndarray,
    executions: np.ndarray,
) -> np.ndarray:
    """Utility of ``agent`` at each ``(bids[k], executions[k])``, others truthful.

    For a mechanism with a payment rule in
    :data:`~repro.mechanism.pricing.RULES` (:func:`repro.agents.kernels.supports`)
    the deviations form one ``(K, n)`` profile stack priced by one
    :func:`~repro.mechanism.pricing.price` call; each row is byte-identical
    to :meth:`Mechanism.run` on that profile, and the utility is summed as
    ``(compensation + bonus) + valuation``, the order of
    :attr:`~repro.types.PaymentResult.utility`.  Any other mechanism runs
    once per deviation.  Inputs are checked as a run would check them.
    """
    from repro.agents import kernels  # deferred: kernels imports repro.mechanism

    bids = np.asarray(bids, dtype=np.float64)
    executions = np.asarray(executions, dtype=np.float64)
    for name, values in (("bids", bids), ("executions", executions)):
        if not (np.all(np.isfinite(values)) and np.all(values > 0.0)):
            raise ValueError(f"deviation {name} must be finite and strictly positive")
    if np.any(executions < true_values[agent] - 1e-12):
        raise ValueError("machines cannot execute faster than their capacity")
    if not kernels.supports(mechanism):
        return np.array([
            _agent_utility(mechanism, true_values, arrival_rate, agent, b, e)
            for b, e in zip(bids, executions)
        ])
    stack_bids = np.tile(true_values, (bids.size, 1))
    stack_bids[:, agent] = bids
    stack_executions = np.tile(true_values, (bids.size, 1))
    stack_executions[:, agent] = executions
    priced = pricing.price(
        kernels.kernel_mode_of(mechanism), stack_bids, stack_executions,
        arrival_rate,
    )
    return (
        (priced.compensation[:, agent] + priced.bonus[:, agent])
        + priced.valuation[:, agent]
    )


def best_deviation_gain(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    bid_factors: tuple[float, ...] = DEFAULT_BID_FACTORS,
    exec_factors: tuple[float, ...] = DEFAULT_EXEC_FACTORS,
) -> DeviationResult:
    """Scan a deviation grid for one agent and return the best deviation.

    Parameters
    ----------
    mechanism:
        Mechanism under audit.
    true_values:
        True latency slopes of all agents.
    arrival_rate:
        Total rate ``R``.
    agent:
        Index of the deviating agent; all other agents bid truthfully
        and execute at capacity.
    bid_factors, exec_factors:
        Multiplicative deviations applied to the agent's true value.
        Execution factors below 1 are rejected (capacity constraint).

    The truthful point and every ``(bid, execution)`` pair are priced
    together by :func:`deviation_utilities`; the first maximal deviation
    in ``bid_factors``-major order wins.
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    agent = check_index(agent, true_values.size, "agent")
    if any(f < 1.0 for f in exec_factors):
        raise ValueError("execution factors must be >= 1 (cannot beat capacity)")

    t_i = true_values[agent]
    bid_grid = np.asarray(bid_factors, dtype=np.float64) * t_i
    exec_grid = np.asarray(exec_factors, dtype=np.float64) * t_i
    bids = np.concatenate(([t_i], np.repeat(bid_grid, exec_grid.size)))
    executions = np.concatenate(([t_i], np.tile(exec_grid, bid_grid.size)))
    utilities = deviation_utilities(
        mechanism, true_values, arrival_rate, agent, bids, executions
    )

    best_utility, best_bid, best_exec = -np.inf, t_i, t_i
    if utilities.size > 1:
        k = 1 + int(np.argmax(utilities[1:]))
        best_utility, best_bid, best_exec = float(utilities[k]), bids[k], executions[k]
    return DeviationResult(
        agent=agent,
        truthful_utility=float(utilities[0]),
        best_utility=best_utility,
        best_bid=float(best_bid),
        best_execution=float(best_exec),
    )


def truthfulness_audit(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    bid_factors: tuple[float, ...] = DEFAULT_BID_FACTORS,
    exec_factors: tuple[float, ...] = DEFAULT_EXEC_FACTORS,
) -> TruthfulnessReport:
    """Run :func:`best_deviation_gain` for every agent."""
    true_values = as_float_array(true_values, "true_values")
    results = tuple(
        best_deviation_gain(
            mechanism, true_values, arrival_rate, agent, bid_factors, exec_factors
        )
        for agent in range(true_values.size)
    )
    return TruthfulnessReport(deviations=results)


def voluntary_participation_margin(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
) -> float:
    """Minimum utility over agents when everyone is truthful.

    Non-negative for any mechanism satisfying the voluntary
    participation condition (Theorem 3.2).
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    outcome = mechanism.run(
        true_values, arrival_rate, true_values, true_values=true_values
    )
    return float(np.min(outcome.payments.utility))


def frugality_ratio(outcome: MechanismOutcome) -> float:
    """Total payment over total agent cost for one mechanism outcome."""
    return outcome.frugality_ratio
