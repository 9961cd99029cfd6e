"""Concrete agent behaviours used by experiments and simulations.

The paper's Table 2 manipulations are expressed as a
:class:`ManipulativeAgent` with independent bid and execution factors;
the other behaviours cover the broader strategy space the property
tests and the multi-liar ablation explore.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._validation import check_positive_scalar
from repro.agents.base import Agent

__all__ = [
    "TruthfulAgent",
    "ScaledBidder",
    "SlowExecutor",
    "ManipulativeAgent",
    "profile_bids",
    "profile_execution_values",
]


class TruthfulAgent(Agent):
    """Bids its true value and executes at full capacity."""

    def bid(self) -> float:
        return self.true_value

    def execution_value(self) -> float:
        return self.true_value


class ManipulativeAgent(Agent):
    """Scales both the bid and the execution value independently.

    This is the general form of the paper's Table 2 manipulations:
    ``bid = bid_factor * t`` and ``t̃ = execution_factor * t`` with
    ``execution_factor >= 1``.
    """

    def __init__(
        self, true_value: float, bid_factor: float, execution_factor: float = 1.0
    ) -> None:
        super().__init__(true_value)
        self.bid_factor = check_positive_scalar(bid_factor, "bid_factor")
        self.execution_factor = check_positive_scalar(
            execution_factor, "execution_factor"
        )
        if self.execution_factor < 1.0:
            raise ValueError("execution_factor must be >= 1 (capacity constraint)")

    def bid(self) -> float:
        return self.bid_factor * self.true_value

    def execution_value(self) -> float:
        return self._check_execution(self.execution_factor * self.true_value)

    def __repr__(self) -> str:
        return (
            f"ManipulativeAgent(true_value={self.true_value:g}, "
            f"bid_factor={self.bid_factor:g}, "
            f"execution_factor={self.execution_factor:g})"
        )


class ScaledBidder(ManipulativeAgent):
    """Misreports the bid by a fixed factor but executes at capacity."""

    def __init__(self, true_value: float, bid_factor: float) -> None:
        super().__init__(true_value, bid_factor, execution_factor=1.0)


class SlowExecutor(ManipulativeAgent):
    """Bids truthfully but executes slower than capacity."""

    def __init__(self, true_value: float, execution_factor: float) -> None:
        super().__init__(true_value, bid_factor=1.0, execution_factor=execution_factor)


def profile_bids(agents: Sequence[Agent]) -> np.ndarray:
    """Collect the bid vector of an agent profile."""
    if len(agents) == 0:
        raise ValueError("agent profile must be non-empty")
    return np.array([a.bid() for a in agents], dtype=np.float64)


def profile_execution_values(agents: Sequence[Agent]) -> np.ndarray:
    """Collect the execution-value vector of an agent profile."""
    if len(agents) == 0:
        raise ValueError("agent profile must be non-empty")
    return np.array([a.execution_value() for a in agents], dtype=np.float64)
