"""VCG (Vickrey–Clarke–Groves) baseline mechanism.

The paper notes (Related work) that VCG mechanisms apply to objective
functions that are the sum of the agents' valuations.  The load
balancing objective qualifies: ``L(x) = sum_i t_i x_i^2 = -sum_i V_i``,
so minimising the total latency is exactly maximising social welfare.

The Clarke-pivot VCG payment is

    ``P_i = L_{-i}(b_{-i}) - sum_{j != i} b_j x_j(b)^2``,

which decomposes — mirroring the paper's compensation/bonus split — as
a *declared-cost* compensation ``b_i x_i^2`` plus the bonus
``L_{-i}(b_{-i}) - L(x(b), b)`` evaluated at the **declared** latencies.

VCG is truthful in bids but has **no verification**: the payment cannot
depend on the observed execution values, so a machine that executes
slower than it bid is neither detected nor penalised through the
payment (it only bears its own increased cost).  The verification
mechanism doubles that penalty — see
``benchmarks/bench_baselines.py`` for the quantitative comparison.

Strategic-layer queries (``best_response``, ``BestResponseDynamics``,
``simulate_learning``) run vectorized for this mechanism through the
``"vcg"`` mode of :mod:`repro.agents.kernels`; the payment formulas
and kernel derivation are worked through in ``docs/mechanisms.md``.
"""

from __future__ import annotations

import numpy as np

from repro.allocation.pr import pr_allocation
from repro.mechanism.base import Mechanism
from repro.mechanism.pricing import price_allocation
from repro.types import AllocationResult, PaymentResult

__all__ = ["VCGMechanism"]


class VCGMechanism(Mechanism):
    """Clarke-pivot VCG mechanism for linear-latency load balancing."""

    uses_verification = False

    def allocate(self, bids: np.ndarray, arrival_rate: float) -> AllocationResult:
        """PR allocation on the declared slopes (welfare-maximising)."""
        return pr_allocation(bids, arrival_rate)

    def payments(
        self,
        allocation: AllocationResult,
        execution_values: np.ndarray,
    ) -> PaymentResult:
        """Clarke payments; ``execution_values`` only affect valuations."""
        return price_allocation("vcg", allocation, execution_values)

    def __repr__(self) -> str:
        return "VCGMechanism()"
