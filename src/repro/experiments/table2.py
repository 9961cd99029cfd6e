"""Table 2: the eight experiment scenarios.

All machines except C1 bid truthfully and execute at capacity; the
scenarios vary C1's bid factor and execution factor.  The factors below
were reconstructed from the paper's prose (see DESIGN.md §2): Low1/Low2
are pinned exactly by the reported +11% / +66% latency increases;
High1–High4's "three times higher" bid and faster/slower executions are
stated outright; True2's execution multiplier is the one unrecoverable
entry — we use 2.0 ("two times slower", the same manipulation Low2
describes), which preserves the figure's shape (paper +17%, ours +19.6%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._validation import check_index

__all__ = [
    "Scenario",
    "PAPER_SCENARIOS",
    "scenario_by_name",
    "build_bid_and_execution_vectors",
]


@dataclass(frozen=True)
class Scenario:
    """One Table 2 experiment: C1's declared and actual behaviour.

    Attributes
    ----------
    name:
        The paper's experiment label (``True1`` .. ``Low2``).
    bid_factor:
        ``b_1 = bid_factor * t_1``.
    execution_factor:
        ``t̃_1 = execution_factor * t_1`` (>= 1: capacity constraint).
    characterization:
        The paper's one-line description of the manipulation class.
    """

    name: str
    bid_factor: float
    execution_factor: float
    characterization: str

    def __post_init__(self) -> None:
        if self.bid_factor <= 0.0:
            raise ValueError("bid_factor must be positive")
        if self.execution_factor < 1.0:
            raise ValueError("execution_factor must be >= 1")

    def as_config(self) -> dict:
        """JSON-safe dict of the result-affecting fields.

        The ``characterization`` string is presentation, not behaviour,
        so it is deliberately excluded — two scenarios that act the
        same hash the same in campaign cache keys.
        """
        return {
            "name": self.name,
            "bid_factor": float(self.bid_factor),
            "execution_factor": float(self.execution_factor),
        }


#: Table 2, in the paper's order.
PAPER_SCENARIOS: tuple[Scenario, ...] = (
    Scenario("True1", 1.0, 1.0, "True: b1 = t1, t̃1 = t1"),
    Scenario("True2", 1.0, 2.0, "True: b1 = t1, t̃1 > t1"),
    Scenario("High1", 3.0, 3.0, "High: b1 > t1, t̃1 = b1"),
    Scenario("High2", 3.0, 1.0, "High: b1 > t1, t̃1 = t1"),
    Scenario("High3", 3.0, 2.0, "High: b1 > t1, t1 < t̃1 < b1"),
    Scenario("High4", 3.0, 4.0, "High: b1 > t1, t̃1 > b1"),
    Scenario("Low1", 0.5, 1.0, "Low: b1 < t1, t̃1 = t1"),
    Scenario("Low2", 0.5, 2.0, "Low: b1 < t1, t̃1 > t1"),
)


def scenario_by_name(name: str) -> Scenario:
    """Look up a Table 2 scenario by its paper label (case-insensitive)."""
    for scenario in PAPER_SCENARIOS:
        if scenario.name.lower() == name.lower():
            return scenario
    known = ", ".join(s.name for s in PAPER_SCENARIOS)
    raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")


def build_bid_and_execution_vectors(
    true_values: np.ndarray,
    scenario: Scenario,
    manipulator: int | Sequence[int] = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Bid and execution vectors for a scenario applied to one machine or a coalition.

    ``manipulator`` is one machine index (C1 by default) or a coalition
    of indices that all apply the scenario's factors; every other
    machine bids its true value and executes at capacity.  Anything
    with ``bid_factor`` and ``execution_factor`` serves as the
    scenario, such as a campaign's
    :class:`~repro.parallel.units.ExperimentUnit`.
    """
    true_values = np.asarray(true_values, dtype=np.float64)
    liars = [
        check_index(index, true_values.size, "manipulator")
        for index in np.atleast_1d(manipulator).tolist()
    ]
    bids = true_values.copy()
    executions = true_values.copy()
    bids[liars] *= scenario.bid_factor
    executions[liars] *= scenario.execution_factor
    return bids, executions
