"""Unit tests for one coordinator shard (repro.distributed.shard)."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.agents import TruthfulAgent
from repro.distributed import CoordinatorShard, ShardCrash, partition_names
from repro.distributed.shard import LedgerRows, NamedRows
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


class TestNamedRows:
    """``values()``/``items()`` read all rows at once; per-key reads are the oracle."""

    @staticmethod
    def assert_reads_match_per_key(view):
        per_key = [view[name] for name in view]
        assert list(view.values()) == per_key
        assert list(view.items()) == list(zip(view, per_key))
        for got, want in zip(view.values(), per_key):
            assert type(got) is type(want)
            if isinstance(want, tuple):
                assert len(got) == 3
                assert all(type(x) is float for x in got)
            assert repr(got) == repr(want)
        assert repr(view) == f"{type(view).__name__}({dict(zip(view, per_key))!r})"

    @pytest.mark.parametrize("shape", [(7,), (7, 3)])
    def test_bulk_reads_equal_per_key_reads(self, shape):
        rows = np.random.default_rng(3).normal(size=shape)
        rows.flat[0] = -0.0
        names = [f"M{k}" for k in (4, 0, 6, 2, 5, 1, 3)]
        index = {name: k for k, name in enumerate(names)}
        self.assert_reads_match_per_key(NamedRows(index, rows))
        # Rows in another order than the member list: reads follow the index.
        shuffled = dict(zip(names, (6, 2, 0, 5, 1, 3, 4)))
        self.assert_reads_match_per_key(NamedRows(shuffled, rows))

    def test_bulk_reads_see_ledger_writes(self):
        ledger = LedgerRows({"A": 0, "B": 1}, np.zeros((2, 3)))
        ledger["B"] = (1.0, 2.0, -1.0)
        assert list(ledger.values()) == [(0.0, 0.0, 0.0), (1.0, 2.0, -1.0)]
        self.assert_reads_match_per_key(ledger)

    def test_empty_view(self):
        assert list(NamedRows({}, np.empty(0)).items()) == []
        assert list(NamedRows({}, np.empty((0, 3))).values()) == []


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
        assert set(meta) == {"jobs", "simulated_time"}

    def test_settle_is_write_ahead_and_at_most_once(self):
        store = CheckpointStore()
        shard = make_shard(store=store)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(1.75)
        shard.run_execution()
        amounts = np.tile([1.0, 0.5, 0.5], (3, 1))
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
        shard.settle(np.tile([1.0, 0.5, 0.5], (members, 1)))
        assert (store.saves - saves, store.appends - appends) == (0, 1)
        assert len(store.load().payments_sent) == members

    def test_crash_hook_persists_ledger_before_raising(self):
        store = CheckpointStore()
        shard = make_shard(store=store, fail_after_payments=1)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(1.75)
        shard.run_execution()
        amounts = np.tile([1.0, 0.5, 0.5], (3, 1))
        with pytest.raises(ShardCrash):
            shard.settle(amounts)
        assert len(store.load().payments_sent) == 1


class TestStageSnapshot:
    def test_execution_snapshot_writes_each_name_once(self):
        # bids and reports are keyed by machine_names in order, so the
        # snapshot lists the names once and stores only value columns.
        store = CheckpointStore()
        shard = make_shard(values=[1.0 + k % 4 for k in range(2500)], store=store)
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(float(np.sum(1.0 / shard.bids_vector())))
        shard.run_execution()
        snapshot = shard.checkpoint()
        assert len(snapshot.bids) == len(snapshot.reports) == 2500
        assert store.load() == snapshot
        strings = Counter(re.findall(r'"[^"]*"', snapshot.to_json()))
        assert all(strings[json.dumps(n)] == 1 for n in shard.machine_names)


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

    def test_settle_returns_the_callers_copy_of_the_rows_by_name(self):
        shard = make_shard()
        shard.begin_round()
        shard.collect_bids()
        shard.allocate_from_total(1.75)
        shard.run_execution()
        amounts = shard.local_payments(1.75, 1.75)
        ledger = shard.settle(amounts)
        assert ledger.rows.tobytes() == amounts.tobytes()
        assert list(ledger) == ["C1", "C2", "C3"]
        assert ledger["C2"] == tuple(amounts[1].tolist())
        with pytest.raises(KeyError):
            ledger["nobody"]
        ledger["C1"] = (0.0, 0.0, 0.0)
        assert ledger.rows[0].tolist() == [0.0, 0.0, 0.0]
        # The shard's own ledger is untouched.
        assert shard.payments_sent["C1"] == tuple(amounts[0].tolist())

    def test_restore_rejects_a_ledger_that_is_not_a_member_prefix(self):
        # Settle pays in member order, so a checkpoint whose paid
        # members skip one cannot have come from a shard.
        store = CheckpointStore()
        shard = make_shard(store=store)
        shard.begin_round()
        shard.collect_bids()
        checkpoint = replace(
            shard.checkpoint(), payments_sent={"C2": (1.0, 0.5, 0.5)}
        )
        with pytest.raises(ValueError, match="prefix"):
            CoordinatorShard.restore(
                checkpoint,
                shard_id=0,
                agents=shard.agents,
                rng=np.random.default_rng(3),
            )
