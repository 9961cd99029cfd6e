"""Partial-sum gathering: the one tree aggregation.

The mechanism needs exactly two global scalars per round (DESIGN.md §13,
``docs/distributed.md``):

* ``S = sum_j 1/b_j`` — fixes the PR allocation ``x_i = R (1/b_i) / S``
  and the leave-one-out optima ``L_{-i} = R^2 / (S - 1/b_i)``;
* ``Q = sum_j t̂_j / b_j^2`` — fixes the realised latency through
  ``L = (R/S)^2 Q``, hence every bonus ``B_i = L_{-i} - L``.

Both are plain sums, so each participant contributes one
:class:`PartialSum` and :func:`aggregate_shards` combines them over an
overlay tree (:mod:`repro.distributed.topology`): one message per edge
up (convergecast), one per edge down (broadcast).  The participants are
the coordinator shards of the sharded service, or the machines
themselves in :class:`~repro.distributed.DistributedVerificationMechanism`
(each machine its own one-agent shard).

Floating-point care: a sum's value depends on association order, so a
naive partial-sum merge would make payments depend on how agents were
partitioned.  Two measures bound that dependence:

* within a shard the partial is one vectorised ``np.sum`` (pairwise
  summation);
* across shards the partials merge with Neumaier's compensated two-sum,
  carrying the rounding error of every merge explicitly, so the merged
  value is order-insensitive to ~1 ulp regardless of the tree shape.

This makes ``aggregation="scalar"`` mode accurate to ~1e-12 relative
for any partition (property-tested in
``tests/properties/test_hypothesis_sharding.py``); when *bit*-identity
with the monolithic coordinator is required, shards attach their raw
vectors as payload (``aggregation="exact"``) and the root reduces the
reassembled arrays with the exact same NumPy reductions the
single-coordinator path uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.distributed.topology import ROOT, Overlay

__all__ = [
    "AggregationStats",
    "PartialSum",
    "ShardPartial",
    "aggregate_shards",
    "concatenate_payload",
]


@dataclass(frozen=True)
class AggregationStats:
    """Accounting for one aggregation round."""

    messages_up: int
    messages_down: int
    rounds_of_latency: int

    @property
    def total_messages(self) -> int:
        """Messages over the wire for the full round."""
        return self.messages_up + self.messages_down


@dataclass
class PartialSum:
    """A compensated running sum that merges order-robustly.

    ``total`` carries the rounded sum and ``compensation`` the
    accumulated rounding error (Neumaier's variant of Kahan summation),
    so merging partials in any association order yields the same value
    to ~1 ulp.
    """

    total: float = 0.0
    compensation: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> "PartialSum":
        """One shard's contribution: a single vectorised reduction."""
        return cls(total=float(np.sum(np.asarray(values, dtype=np.float64))))

    def merge(self, other: "PartialSum") -> "PartialSum":
        """Combine two partials, carrying both rounding residues.

        The core is the exact two-sum: ``s = a + b`` rounds, but the
        error ``(a - s') + (b - (s - s'))`` is representable and is
        folded into the compensation term instead of being lost.
        """
        a, b = self.total, other.total
        s = a + b
        if abs(a) >= abs(b):
            err = (a - s) + b
        else:
            err = (b - s) + a
        return PartialSum(
            total=s,
            compensation=self.compensation + other.compensation + err,
        )

    @property
    def value(self) -> float:
        """The best available estimate of the true sum."""
        return self.total + self.compensation


@dataclass
class ShardPartial:
    """Everything one shard sends up the aggregation tree for a phase.

    Attributes
    ----------
    shard_id:
        Originating shard (``-1`` once partials have been merged).
    n_agents:
        Live agents covered by this partial.
    inverse_sum:
        Partial ``S`` contribution (``sum 1/b_j`` over the shard).
    quotient_sum:
        Partial ``Q`` contribution (``sum t̂_j/b_j^2``); ``None``
        during the bidding phase, before estimates exist.
    payload:
        Optional per-shard named vectors (``shard_id -> {key: array}``)
        riding along for ``aggregation="exact"`` mode; merging partials
        unions the dicts, so the root receives every shard's vectors
        and can reassemble the canonical global arrays.
    """

    shard_id: int
    n_agents: int
    inverse_sum: PartialSum = field(default_factory=PartialSum)
    quotient_sum: PartialSum | None = None
    payload: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)

    def merge(self, other: "ShardPartial") -> "ShardPartial":
        """Combine two partials (an internal node of the tree)."""
        if self.quotient_sum is None or other.quotient_sum is None:
            quotient = None
        else:
            quotient = self.quotient_sum.merge(other.quotient_sum)
        overlap = self.payload.keys() & other.payload.keys()
        if overlap:
            raise ValueError(f"duplicate shard payloads: {sorted(overlap)}")
        return ShardPartial(
            shard_id=-1,
            n_agents=self.n_agents + other.n_agents,
            inverse_sum=self.inverse_sum.merge(other.inverse_sum),
            quotient_sum=quotient,
            payload={**self.payload, **other.payload},
        )


def aggregate_shards(
    overlay: Overlay,
    partials: Sequence[ShardPartial],
) -> tuple[ShardPartial, AggregationStats]:
    """Convergecast shard partials up the overlay tree to the root.

    The overlay's machine nodes ``0 .. k-1`` stand for the ``k``
    shards; walking :meth:`Overlay.bottom_up_order`, every internal
    node merges its children's partials into its own before forwarding
    one message (a :class:`ShardPartial`) to its parent.

    Returns the fully merged partial as the root sees it, plus the
    message accounting (one message per edge per direction; the
    broadcast leg carries the globals back down to the shards).
    """
    if len(partials) != overlay.n_machines:
        raise ValueError(
            f"need one partial per shard ({overlay.n_machines}), "
            f"got {len(partials)}"
        )
    by_shard = {p.shard_id: p for p in partials}
    if sorted(by_shard) != list(range(overlay.n_machines)):
        raise ValueError("shard ids must be exactly 0 .. n_shards-1")

    merged: dict[int | str, ShardPartial] = {}
    messages_up = 0
    for node in overlay.bottom_up_order():
        if node == ROOT:
            own = ShardPartial(shard_id=-1, n_agents=0)
            if all(p.quotient_sum is not None for p in partials):
                own.quotient_sum = PartialSum()
        else:
            own = by_shard[node]
            messages_up += 1
        for child in overlay.children(node):
            own = own.merge(merged[child])
        merged[node] = own

    stats = AggregationStats(
        messages_up=messages_up,
        messages_down=overlay.n_edges,
        rounds_of_latency=2 * overlay.depth(),
    )
    return merged[ROOT], stats


def concatenate_payload(partial: ShardPartial, key: str) -> np.ndarray:
    """Reassemble one named vector in canonical (ascending-shard) order.

    Shards hold contiguous slices of the global agent order, so
    concatenating their payload vectors by ascending ``shard_id``
    restores the exact array the monolithic coordinator would have
    built — the root then applies the identical NumPy reductions,
    which is what makes ``aggregation="exact"`` bit-identical.
    """
    if not partial.payload:
        raise ValueError("partial carries no payload vectors")
    pieces = [partial.payload[sid][key] for sid in sorted(partial.payload)]
    return np.concatenate(pieces) if len(pieces) > 1 else pieces[0].copy()
