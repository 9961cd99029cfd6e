"""Distributed handling of payments and agent privacy.

The paper closes with: "Future work will address the problem of
distributed handling of payments and the agents privacy."  This
subpackage implements both, in the style of the distributed algorithmic
mechanism design line the paper cites (Feigenbaum et al., refs [4-6]):

* :mod:`repro.distributed.topology` — overlay topologies (star, k-ary
  tree, random spanning tree), each a rooted parent map;
* :mod:`repro.distributed.gather` — the one tree aggregation:
  compensated partial sums merged up an overlay (convergecast) and
  broadcast back down, one message per edge each way;
* :mod:`repro.distributed.privacy` — additive secret sharing so that no
  single aggregator learns any individual bid or cost;
* :mod:`repro.distributed.mechanism` — the distributed verification
  mechanism: every machine computes its *own* payment from two global
  aggregates (``S = sum 1/b_j`` and ``Q = sum t̃_j/b_j^2``) gathered
  with each machine as its own shard, with no central trusted payment
  computer.  Its outcome equals the centralised mechanism's to ~1e-12
  (tested);
* :mod:`repro.distributed.shard` / :mod:`~repro.distributed.service` —
  the sharded coordinator service:
  agents partitioned across long-lived coordinator workers, rounds run
  as staged fan-outs, only the (S, Q) partial sums crossing shard
  boundaries, per-shard crash recovery through the checkpoint/ledger
  path.  Operator's guide: ``docs/distributed.md``.
"""

from repro.distributed.topology import (
    Overlay,
    star_overlay,
    tree_overlay,
    random_tree_overlay,
)
from repro.distributed.privacy import (
    share_additively,
    reconstruct_sum,
    SecureSumAggregation,
)
from repro.distributed.mechanism import (
    DistributedOutcome,
    DistributedVerificationMechanism,
)
from repro.distributed.gather import (
    AggregationStats,
    PartialSum,
    ShardPartial,
    aggregate_shards,
    concatenate_payload,
)
from repro.distributed.shard import (
    CoordinatorShard,
    ShardCrash,
    partition_names,
)
from repro.distributed.service import (
    AGGREGATION_MODES,
    SHARD_EXECUTORS,
    WORKLOAD_MODES,
    ShardedCoordinatorService,
    ShardedRound,
    ShardedRoundResult,
)

__all__ = [
    "Overlay",
    "star_overlay",
    "tree_overlay",
    "random_tree_overlay",
    "AggregationStats",
    "share_additively",
    "reconstruct_sum",
    "SecureSumAggregation",
    "DistributedOutcome",
    "DistributedVerificationMechanism",
    "PartialSum",
    "ShardPartial",
    "aggregate_shards",
    "concatenate_payload",
    "CoordinatorShard",
    "ShardCrash",
    "partition_names",
    "AGGREGATION_MODES",
    "SHARD_EXECUTORS",
    "WORKLOAD_MODES",
    "ShardedCoordinatorService",
    "ShardedRound",
    "ShardedRoundResult",
]
