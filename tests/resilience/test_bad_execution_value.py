"""A bad ``agent.execution_value()`` raises one named error on every path.

The sequential round builds machines, the horizon-fused round and the
sharded service serve plain arrays through the batched kernel; all
three validate the execution values the same way, so a zero, negative
or NaN value names ``execution_value`` instead of failing later inside
the pricing or the service draw.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.agents.base import Agent
from repro.distributed.service import ShardedCoordinatorService
from repro.resilience import RoundSupervisor


class _ExecutesAt(Agent):
    """Bids its true value but reports an arbitrary execution value."""

    def __init__(self, true_value: float, executes: float) -> None:
        super().__init__(true_value)
        self._executes = executes

    def bid(self) -> float:
        return self.true_value

    def execution_value(self) -> float:
        return self._executes


@pytest.mark.parametrize("path", ["sequential", "horizon", "sharded"])
@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_bad_execution_value_raises_one_named_error(path, deterministic, value):
    agents = [TruthfulAgent(t) for t in (1.0, 2.0, 3.0)]
    agents.append(_ExecutesAt(2.0, value))
    rng = np.random.default_rng(0)
    with pytest.raises(
        ValueError, match="execution_value must be a finite positive number"
    ):
        if path == "sharded":
            # Raised at construction, before any round runs.
            ShardedCoordinatorService(
                agents, 2.0, shards=2, deterministic_service=deterministic, rng=rng
            )
        else:
            RoundSupervisor(
                agents,
                2.0,
                deterministic_service=deterministic,
                rng=rng,
                horizon=path == "horizon",
            ).run(1)
