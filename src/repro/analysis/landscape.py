"""Utility landscapes over the (bid, execution) deviation plane.

For documentation, debugging, and teaching: evaluate one agent's
utility on a dense grid of bid and execution factors (others truthful)
and summarise the geometry — where the maximum sits, how steep the
punishment gradient is, and an ASCII rendering for terminal inspection.
The test suite uses the landscape to assert the *global* structure that
the pointwise audits only sample: under the truthful mechanism the
unique maximum of the whole surface is the truth-telling corner.
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
from repro.mechanism.base import Mechanism
from repro.mechanism.properties import deviation_utilities

__all__ = ["UtilityLandscape", "utility_landscape"]


@dataclass(frozen=True)
class UtilityLandscape:
    """Utility surface of one agent over deviation factors.

    ``utilities[i, j]`` is the agent's utility when bidding
    ``bid_factors[i] * t`` and executing at ``exec_factors[j] * t``.
    """

    agent: int
    bid_factors: np.ndarray
    exec_factors: np.ndarray
    utilities: np.ndarray

    @property
    def argmax(self) -> tuple[float, float]:
        """(bid_factor, exec_factor) of the utility maximum."""
        i, j = np.unravel_index(int(np.argmax(self.utilities)), self.utilities.shape)
        return float(self.bid_factors[i]), float(self.exec_factors[j])

    @property
    def max_utility(self) -> float:
        """Largest utility on the grid."""
        return float(self.utilities.max())

    def utility_at_truth(self) -> float:
        """Utility at the grid point closest to (1, 1)."""
        i = int(np.argmin(np.abs(self.bid_factors - 1.0)))
        j = int(np.argmin(np.abs(self.exec_factors - 1.0)))
        return float(self.utilities[i, j])

    def truth_is_global_max(self, tolerance: float = 1e-9) -> bool:
        """Whether no grid point beats the truthful corner."""
        return self.max_utility <= self.utility_at_truth() + tolerance

    def render(self, width: int = 8) -> str:
        """ASCII heat map: '#' near the max, '.' near the min."""
        lo, hi = self.utilities.min(), self.utilities.max()
        span = hi - lo if hi > lo else 1.0
        glyphs = " .:-=+*#"
        lines = ["exec\\bid " + " ".join(f"{b:>{width}.2f}" for b in self.bid_factors)]
        for j, ef in enumerate(self.exec_factors):
            cells = []
            for i in range(self.bid_factors.size):
                level = int((self.utilities[i, j] - lo) / span * (len(glyphs) - 1))
                cells.append(glyphs[level] * width)
            lines.append(f"{ef:>8.2f} " + " ".join(cells))
        return "\n".join(lines)


def utility_landscape(
    mechanism: Mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    *,
    bid_factors: np.ndarray | None = None,
    exec_factors: np.ndarray | None = None,
) -> UtilityLandscape:
    """Evaluate one agent's utility over the full deviation grid.

    Other agents bid truthfully and execute at capacity.  Execution
    factors below 1 are rejected (capacity constraint).  The grid is
    priced as one stack by
    :func:`~repro.mechanism.properties.deviation_utilities`, so every
    entry is bit-identical to a :meth:`Mechanism.run` at that point.
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    agent = check_index(agent, true_values.size, "agent")

    if bid_factors is None:
        bid_factors = np.geomspace(0.2, 5.0, 21)
    else:
        bid_factors = as_float_array(bid_factors, "bid_factors")
        check_positive(bid_factors, "bid_factors")
    if exec_factors is None:
        exec_factors = np.linspace(1.0, 3.0, 11)
    else:
        exec_factors = as_float_array(exec_factors, "exec_factors")
        if np.any(exec_factors < 1.0):
            raise ValueError("exec_factors must be >= 1 (capacity constraint)")

    t_i = true_values[agent]
    bid_grid = bid_factors * t_i
    exec_grid = exec_factors * t_i
    utilities = deviation_utilities(
        mechanism, true_values, arrival_rate, agent,
        np.repeat(bid_grid, exec_grid.size), np.tile(exec_grid, bid_grid.size),
    ).reshape(bid_grid.size, exec_grid.size)

    return UtilityLandscape(
        agent=agent,
        bid_factors=bid_factors,
        exec_factors=exec_factors,
        utilities=utilities,
    )
