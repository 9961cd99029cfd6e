"""Agent behaviour models, best-response computation, and bidding games.

The paper's agents are machines that choose a *bid* (declared latency
slope) and an *execution value* (the slope they actually run at,
``t̃ >= t``).  This subpackage provides:

* :mod:`repro.agents.behaviors` — fixed strategy profiles (truthful,
  over/under bidders, slow executors) used by the experiments and the
  protocol simulation;
* :mod:`repro.agents.best_response` — numeric best response of a single
  agent to the others' bids under a given mechanism;
* :mod:`repro.agents.kernels` — closed-form utility kernels that
  collapse the best-response search to O(n + grid) arithmetic via the
  sufficient statistics ``(S_{-i}, Q_{-i})``;
* :mod:`repro.agents.game` — iterated best-response dynamics of the
  induced bidding game, demonstrating that the truthful profile is the
  unique fixed point under the verification mechanism.
"""

from repro.agents.base import Agent
from repro.agents.behaviors import (
    TruthfulAgent,
    ScaledBidder,
    SlowExecutor,
    ManipulativeAgent,
    profile_bids,
    profile_execution_values,
)
from repro.agents.best_response import best_response, BestResponse
from repro.agents.game import BestResponseDynamics, GameTrace
from repro.agents.kernels import (
    sufficient_statistics,
    utility_kernel,
    utility_grid,
)
from repro.agents.learning import (
    LearningTrace,
    MultiplicativeWeightsBidder,
    simulate_learning,
)

__all__ = [
    "Agent",
    "TruthfulAgent",
    "ScaledBidder",
    "SlowExecutor",
    "ManipulativeAgent",
    "profile_bids",
    "profile_execution_values",
    "best_response",
    "BestResponse",
    "BestResponseDynamics",
    "GameTrace",
    "sufficient_statistics",
    "utility_kernel",
    "utility_grid",
    "LearningTrace",
    "MultiplicativeWeightsBidder",
    "simulate_learning",
]
