"""Unit tests for one coordinator shard (repro.distributed.shard)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.distributed import CoordinatorShard, ShardCrash, partition_names
from repro.resilience import CheckpointStore


def make_shard(values=(1.0, 2.0, 4.0), store=None, **kwargs):
    names = [f"C{i + 1}" for i in range(len(values))]
    return CoordinatorShard(
        0,
        names,
        [TruthfulAgent(t) for t in values],
        7.0,
        rng=np.random.default_rng(3),
        checkpoint_store=store,
        **kwargs,
    )


class TestPartitionNames:
    def test_contiguous_and_balanced(self):
        names = [f"C{i}" for i in range(10)]
        parts = partition_names(names, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [n for p in parts for n in p] == names

    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_concatenation_restores_global_order(self, n_shards):
        names = [f"C{i}" for i in range(7)]
        parts = partition_names(names, n_shards)
        assert [n for p in parts for n in p] == names

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError, match="cannot spread"):
            partition_names(["a", "b"], 3)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            partition_names(["a"], 0)


class TestRoundStages:
    def test_bids_allocation_and_quotients(self):
        shard = make_shard()
        shard.begin_round()
        bids = shard.collect_bids()
        assert np.array_equal(bids, [1.0, 2.0, 4.0])
        # Global S for these three members alone: 1 + 1/2 + 1/4.
        loads = shard.allocate_from_total(1.75)
        assert np.allclose(loads, 7.0 * np.array([1.0, 0.5, 0.25]) / 1.75)
        partial, meta = shard.run_execution(include_payload=True)
        # Deterministic service: estimates equal the true values, so the
        # quotient partial is sum t_i / b_i^2 = 1 + 2/4 + 4/16 = 1.75.
        assert partial.quotient_sum.value == pytest.approx(1.75)
        assert meta["alerts"] == []

    def test_bid_overrides_only_raise(self):
        shard = make_shard(bid_overrides={"C1": 3.0, "C3": 0.1})
        shard.begin_round()
        bids = shard.collect_bids()
        assert np.array_equal(bids, [3.0, 2.0, 4.0])  # C3's lowball ignored

    def test_settle_is_write_ahead_and_at_most_once(self):
        store = CheckpointStore()
        shard = make_shard(store=store)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(1.75)
        shard.run_execution()
        amounts = {n: (1.0, 0.5, 0.5) for n in shard.machine_names}
        shard.settle(amounts)
        # A second settle (the service's recovery re-map) sends nothing.
        shard.settle(amounts)
        assert all(c == 1 for c in shard.payment_notices.values())
        ckpt = store.load()
        assert set(ckpt.payments_sent) == set(shard.machine_names)

    @pytest.mark.parametrize("members", [3, 50])
    def test_settle_writes_one_ledger_record_whatever_the_size(self, members):
        store = CheckpointStore()
        shard = make_shard(values=[1.0 + k % 4 for k in range(members)], store=store)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(float(np.sum(1.0 / shard.bids_vector())))
        shard.run_execution()
        saves, appends = store.saves, store.appends
        shard.settle({n: (1.0, 0.5, 0.5) for n in shard.machine_names})
        assert (store.saves - saves, store.appends - appends) == (0, 1)
        assert len(store.load().payments_sent) == members

    def test_crash_hook_persists_ledger_before_raising(self):
        store = CheckpointStore()
        shard = make_shard(store=store, fail_after_payments=1)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(1.75)
        shard.run_execution()
        amounts = {n: (1.0, 0.5, 0.5) for n in shard.machine_names}
        with pytest.raises(ShardCrash):
            shard.settle(amounts)
        assert len(store.load().payments_sent) == 1


class TestMembershipCaching:
    """The PR-4 reset-path contract, shard edition (ISSUE 7 satellite)."""

    def test_set_membership_invalidates_bids_cache(self):
        shard = make_shard()
        shard.begin_round()
        shard.collect_bids()
        before = shard.bids_vector()
        assert before.size == 3
        dropped = shard.set_membership(["C1", "C3"])
        assert dropped == ["C2"]
        after = shard.bids_vector()
        assert np.array_equal(after, [1.0, 4.0])

    def test_unchanged_shard_cache_still_resets(self):
        # A shard that lost nobody must also drop its cache: the stale
        # array object must not be served by identity after churn.
        shard = make_shard()
        shard.begin_round()
        shard.collect_bids()
        shard.bids_vector()  # populate the cache
        assert shard._bids_cache is not None
        shard.set_membership(["C1", "C2", "C3"])  # no-op membership
        assert shard._bids_cache is None  # cache dropped regardless

    def test_begin_round_restores_full_membership(self):
        shard = make_shard()
        shard.begin_round()
        shard.collect_bids()
        shard.set_membership(["C2"])
        shard.begin_round()
        assert shard.machine_names == ["C1", "C2", "C3"]


class TestCheckpointRestore:
    def test_restore_resumes_with_ledger_and_estimates(self):
        store = CheckpointStore()
        shard = make_shard(store=store, fail_after_payments=2)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(1.75)
        shard.run_execution()
        amounts = shard.local_payments(1.75, 1.75)
        with pytest.raises(ShardCrash):
            shard.settle(amounts)

        restored = CoordinatorShard.restore(
            store.load(),
            shard_id=0,
            agents=shard.agents,
            rng=np.random.default_rng(3),
            checkpoint_store=store,
        )
        assert restored.fail_after_payments is None  # hook cleared
        assert len(restored.payments_sent) == 2
        assert np.allclose(restored._estimates, shard._estimates)
        ledger = restored.settle(amounts)
        assert set(ledger) == {"C1", "C2", "C3"}
        # The two pre-crash members were never re-notified.
        assert restored.payment_notices["C1"] == 0
        assert restored.payment_notices["C2"] == 0
        assert restored.payment_notices["C3"] == 1
