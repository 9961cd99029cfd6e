"""Tree aggregation over per-machine partials (each machine its own shard)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import (
    PartialSum,
    ShardPartial,
    aggregate_shards,
    random_tree_overlay,
    star_overlay,
    tree_overlay,
)


def gather(overlay, values):
    """Sum one value per machine up ``overlay``: ``(total, stats)``."""
    partials = [
        ShardPartial(machine, 1, PartialSum(value))
        for machine, value in enumerate(np.asarray(values, dtype=float).tolist())
    ]
    root, stats = aggregate_shards(overlay, partials)
    return root.inverse_sum.value, stats


class TestCorrectness:
    @pytest.mark.parametrize("make", [star_overlay, tree_overlay])
    def test_sum_is_exact(self, make, rng):
        overlay = make(12)
        values = rng.uniform(-5.0, 5.0, size=12)
        total, _stats = gather(overlay, values)
        assert total == pytest.approx(values.sum(), rel=1e-12)

    def test_random_overlay_sum(self, rng):
        overlay = random_tree_overlay(25, rng)
        values = rng.uniform(0.0, 1.0, size=25)
        total, _ = gather(overlay, values)
        assert total == pytest.approx(values.sum())

    def test_root_adds_nothing(self):
        root, _ = aggregate_shards(
            star_overlay(3), [ShardPartial(k, 1, PartialSum(1.0)) for k in range(3)]
        )
        assert root.inverse_sum.value == 3.0
        assert root.n_agents == 3

    def test_length_mismatch_rejected(self):
        overlay = star_overlay(3)
        with pytest.raises(ValueError, match="one partial per shard"):
            gather(overlay, np.ones(4))


class TestMessageAccounting:
    @pytest.mark.parametrize("n", [1, 5, 16, 64])
    def test_two_messages_per_edge(self, n, rng):
        for overlay in (star_overlay(n), tree_overlay(n), random_tree_overlay(n, rng)):
            _, stats = gather(overlay, np.ones(n))
            assert stats.messages_up == overlay.n_edges
            assert stats.messages_down == overlay.n_edges
            assert stats.total_messages == 2 * n  # n edges in any shape

    def test_latency_is_twice_the_depth(self):
        star = star_overlay(16)
        chain = tree_overlay(16, arity=1)
        _, star_stats = gather(star, np.ones(16))
        _, chain_stats = gather(chain, np.ones(16))
        assert star_stats.rounds_of_latency == 2
        assert chain_stats.rounds_of_latency == 32
