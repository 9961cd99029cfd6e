"""The distributed verification mechanism.

Key observation enabling full distribution: under Definition 3.3, every
machine can compute its own allocation and payment from just **two
global sums** plus its local state —

* ``S = sum_j 1/b_j`` (from the bidding phase) gives machine ``i`` its
  own load ``x_i = R (1/b_i) / S`` *and* its leave-one-out term
  ``L_{-i} = R^2 / (S - 1/b_i)``;
* ``Q = sum_j t̃_j / b_j^2`` (from the execution phase) gives the
  realised latency ``L = (R/S)^2 Q``, completing its bonus
  ``B_i = L_{-i} - L``; with the locally known compensation
  ``t̃_i x_i^2`` the payment is ``P_i = C_i + B_i``.

These are the sharded service's two sufficient statistics, so the
protocol is that service's gather with every machine as its own
one-agent shard: two :func:`~repro.distributed.gather.aggregate_shards`
rounds (4 messages per machine on any spanning tree) and zero central
computation — the root only relays sums — priced through the same
:func:`~repro.mechanism.pricing.price_gathered` step as a shard's
settle.  With privacy enabled, each machine's contribution is
additively secret-shared across ``k`` aggregators instead, so no
single party (root included) learns any machine's bid or observed cost.

The outcome equals the centralised mechanism's to ~1e-12 (tested), and
``bench_distributed.py`` compares message counts and latency across
overlay shapes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from repro._validation import check_mechanism_inputs
from repro.distributed.gather import PartialSum, ShardPartial, aggregate_shards
from repro.distributed.privacy import SecureSumAggregation
from repro.distributed.topology import Overlay, tree_overlay
from repro.mechanism import pricing
from repro.types import AllocationResult, MechanismOutcome, PaymentResult

__all__ = ["DistributedOutcome", "DistributedVerificationMechanism"]


@dataclass(frozen=True)
class DistributedOutcome:
    """Result of one distributed mechanism round."""

    outcome: MechanismOutcome
    total_messages: int
    rounds_of_latency: int
    privacy_shares_sent: int

    @property
    def messages_per_machine(self) -> float:
        """Control messages per participating machine (constant in n)."""
        return self.total_messages / self.outcome.allocation.n_machines


class DistributedVerificationMechanism:
    """Definition 3.3 computed by the machines themselves over a tree.

    Parameters
    ----------
    overlay:
        The spanning tree to aggregate over; defaults to a binary tree.
    n_aggregators:
        When > 0, the two global sums are computed through additive
        secret sharing across this many independent aggregators
        (privacy mode); 0 disables sharing (plain tree sums).
    rng:
        Randomness source for the privacy masks (required when
        ``n_aggregators > 0``).
    """

    def __init__(
        self,
        overlay: Overlay | None = None,
        *,
        n_aggregators: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.overlay = overlay
        try:
            n_aggregators = operator.index(n_aggregators)
        except TypeError:
            raise TypeError(
                f"n_aggregators must be an integer, got {n_aggregators!r}"
            ) from None
        if n_aggregators < 0:
            raise ValueError("n_aggregators must be non-negative")
        if n_aggregators > 0 and rng is None:
            raise ValueError("privacy mode requires an rng for the masks")
        self.n_aggregators = n_aggregators
        self._rng = rng

    # ------------------------------------------------------------ protocol

    def _partials(
        self, inverse: np.ndarray, quotient: np.ndarray | None = None
    ) -> list[ShardPartial]:
        """One partial per machine, each machine its own one-agent shard.

        In privacy mode a machine's tree message carries masked shares
        instead of its plain terms, so its partial is empty.
        """
        if self.n_aggregators:
            return [ShardPartial(machine, 1) for machine in range(inverse.size)]
        quotients = (
            [None] * inverse.size
            if quotient is None
            else [PartialSum(q) for q in quotient.tolist()]
        )
        return [
            ShardPartial(machine, 1, PartialSum(s), q)
            for machine, (s, q) in enumerate(zip(inverse.tolist(), quotients))
        ]

    def _total(
        self, gathered: PartialSum | None, values: np.ndarray
    ) -> tuple[float, int]:
        """A gathered sum and the privacy shares sent (none).

        In privacy mode the sum is the aggregators' secure sum of
        ``values`` instead.
        """
        if not self.n_aggregators:
            assert gathered is not None
            return gathered.value, 0
        assert self._rng is not None
        secure = SecureSumAggregation(self.n_aggregators, self._rng)
        for value in values:
            secure.contribute(float(value))
        return secure.result(), secure.messages_sent()

    def run(
        self,
        bids: np.ndarray,
        arrival_rate: float,
        execution_values: np.ndarray | None = None,
        *,
        true_values: np.ndarray | None = None,
    ) -> DistributedOutcome:
        """Execute the two-round distributed protocol.

        Inputs are checked exactly as :meth:`Mechanism.run
        <repro.mechanism.Mechanism.run>` checks them.
        """
        bids, arrival_rate, execution_values, true_values = check_mechanism_inputs(
            bids, arrival_rate, execution_values, true_values
        )
        if bids.size < 2:
            raise ValueError("the distributed mechanism needs at least two machines")

        overlay = self.overlay or tree_overlay(bids.size)
        if overlay.n_machines != bids.size:
            raise ValueError(
                f"overlay has {overlay.n_machines} machines but {bids.size} bids given"
            )

        inverse = 1.0 / bids
        quotient = execution_values / bids**2

        # --- Round 1 (bids): gather S = sum 1/b_j; every node learns it. ---
        root, stats1 = aggregate_shards(overlay, self._partials(inverse))
        total_inverse, shares1 = self._total(root.inverse_sum, inverse)

        # --- Round 2 (execution): gather S and Q = sum t̃_j / b_j^2. ---
        root, stats2 = aggregate_shards(overlay, self._partials(inverse, quotient))
        total_quotient, shares2 = self._total(root.quotient_sum, quotient)

        # --- Local payment computation at every machine. ---
        loads, compensation, bonus, valuation = pricing.price_gathered(
            "observed", bids, execution_values, total_inverse, total_quotient,
            arrival_rate,
        )

        allocation = AllocationResult(
            loads=loads,
            arrival_rate=arrival_rate,
            bids=bids,
            total_latency=arrival_rate**2 / total_inverse,
        )
        payments = PaymentResult(
            compensation=compensation, bonus=bonus, valuation=valuation
        )
        outcome = MechanismOutcome(
            allocation=allocation,
            payments=payments,
            execution_values=execution_values,
            true_values=true_values,
            metadata={
                "mechanism": "DistributedVerificationMechanism",
                "overlay_depth": overlay.depth(),
                "privacy": self.n_aggregators,
            },
        )
        return DistributedOutcome(
            outcome=outcome,
            total_messages=stats1.total_messages + stats2.total_messages,
            rounds_of_latency=stats1.rounds_of_latency + stats2.rounds_of_latency,
            privacy_shares_sent=shares1 + shares2,
        )
