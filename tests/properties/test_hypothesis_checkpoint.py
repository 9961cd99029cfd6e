"""Property: the checkpoint store always holds the coordinator's state.

The write-ahead contract of :mod:`repro.resilience.checkpoint`: at any
point a coordinator can crash, ``store.load()`` must rebuild exactly
the record the live coordinator would snapshot right then — same
values, same key order (compared as serialised JSON) — however the
store chose to persist it.  Crash points are the moments between
delivered messages and the instant after each payment.

* supervised rounds under hypothesis-drawn fault plans: message drops,
  machine crashes and withheld bids/reports, all three coordinator
  crash kinds at varying payment counts, and a round voided below
  ``min_participants``;
* one coordinator shard over a drawn subset of the machines (down to
  a lone member) after every stage and every payment, through a
  mid-settle crash, the restored re-settle, and a post-settle restore
  whose re-settle pays nobody twice.

A shard does not snapshot when settle moves it past ``EXECUTING`` (the
ledger on top of the execution snapshot is its record), so during and
after settle the shard's phase is left out of the comparison.

A shard encodes its snapshots from the arrays it keeps in member
order; every string it writes must equal ``to_json`` of the same state
held as dicts, the coordinator's own format.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.agents import TruthfulAgent
from repro.distributed import CoordinatorShard, ShardCrash
from repro.resilience import (
    CheckpointStore,
    CoordinatorCheckpoint,
    FaultPlan,
    MachineFault,
    RoundFaults,
    RoundSupervisor,
    SupervisedCoordinator,
)

NAMES = ["C1", "C2", "C3", "C4", "C5"]
VALUES = [1.0, 2.0, 5.0, 10.0, 3.0]


def assert_stored(store: CheckpointStore, checkpoint, *, phase: bool = True):
    loaded = store.load()
    assert loaded is not None
    if not phase:
        checkpoint = replace(checkpoint, phase=loaded.phase)
    assert loaded.to_json() == checkpoint.to_json()


class _Checked(SupervisedCoordinator):
    """Checks the store after every delivered message and every payment."""

    checks = 0

    def handle(self, message, sim):
        try:
            super().handle(message, sim)
        finally:
            self._check()

    def _pay(self, name, amounts):
        try:
            super()._pay(name, amounts)
        finally:
            self._check()

    def _check(self):
        assert_stored(self.checkpoint_store, self.checkpoint())
        _Checked.checks += 1


machine_faults = st.one_of(
    st.builds(
        MachineFault,
        kind=st.just("crash"),
        point=st.sampled_from(["immediately", "after_bid"]),
    ),
    st.builds(
        MachineFault,
        kind=st.sampled_from(["withhold_bid", "withhold_report"]),
        count=st.integers(1, 3),
    ),
    st.builds(
        MachineFault, kind=st.just("slow_execution"), slowdown=st.just(3.0)
    ),
)

round_faults = st.builds(
    RoundFaults,
    drop_probability=st.sampled_from([0.0, 0.0, 0.2, 0.4]),
    machine_faults=st.dictionaries(
        st.sampled_from(NAMES), machine_faults, max_size=3
    ),
    coordinator_crash=st.sampled_from(
        [None, "during_bidding", "after_allocation", "mid_payment"]
    ),
    crash_after_payments=st.integers(0, len(NAMES)),
)

_VOID_BELOW_MIN = FaultPlan(
    [
        RoundFaults(
            machine_faults={name: MachineFault("crash") for name in NAMES[1:]}
        )
    ]
)


class TestSupervisedCrashPoints:
    @settings(max_examples=40, deadline=None)
    @given(
        rounds=st.lists(round_faults, min_size=1, max_size=3),
        deterministic=st.booleans(),
    )
    @example(rounds=_VOID_BELOW_MIN.rounds, deterministic=True)
    @example(
        rounds=[
            RoundFaults(coordinator_crash="mid_payment", crash_after_payments=0)
        ],
        deterministic=False,
    )
    def test_store_matches_coordinator_at_every_crash_point(
        self, rounds, deterministic
    ):
        supervisor = RoundSupervisor(
            [TruthfulAgent(v) for v in VALUES],
            8.0,
            duration=10.0,
            deterministic_service=deterministic,
            rng=np.random.default_rng(1),
        )
        _Checked.checks = 0
        target = "repro.resilience.supervisor.SupervisedCoordinator"
        with mock.patch(target, _Checked):
            report = supervisor.run(len(rounds), FaultPlan(rounds))
        assert _Checked.checks > 0
        for result in report.rounds:
            assert all(count <= 1 for count in result.payment_notices.values())


class _Watched(dict):
    """A payment-notice counter that runs a check after each notice."""

    def __init__(self, counts, on_notice):
        super().__init__(counts)
        self.on_notice = on_notice

    def __setitem__(self, name, count):
        super().__setitem__(name, count)
        self.on_notice()


def _watch(shard: CoordinatorShard, store: CheckpointStore) -> None:
    shard.payment_notices = _Watched(
        shard.payment_notices,
        lambda: assert_stored(store, shard.checkpoint(), phase=False),
    )


class TestShardCrashPoints:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=9),
        dropped=st.sets(st.integers(0, 8), max_size=4),
        crash_after=st.none() | st.integers(0, 9),
        deterministic=st.booleans(),
    )
    def test_store_matches_shard_after_every_stage_and_payment(
        self, values, dropped, crash_after, deterministic
    ):
        names = [f"C{i + 1}" for i in range(len(values))]
        live = [n for k, n in enumerate(names) if k not in dropped] or names[:1]
        agents = {
            n: TruthfulAgent(v) for n, v in zip(names, values) if n in live
        }
        store = CheckpointStore()
        shard = CoordinatorShard(
            0,
            live,
            list(agents.values()),
            7.0,
            rng=np.random.default_rng(2),
            deterministic_service=deterministic,
            checkpoint_store=store,
            fail_after_payments=crash_after,
        )
        shard.begin_round()
        shard.collect_bids()
        assert_stored(store, shard.checkpoint())
        total = float(np.sum(1.0 / shard.bids_vector()))
        shard.allocate_from_total(total)
        assert_stored(store, shard.checkpoint())
        partial, _ = shard.run_execution()
        assert_stored(store, shard.checkpoint())
        with np.errstate(divide="ignore", invalid="ignore"):
            # A lone live member has S_-i = 0: non-finite amounts.
            amounts = shard.local_payments(total, partial.quotient_sum.value)

        def restore():
            restored = CoordinatorShard.restore(
                store.load(),
                shard_id=0,
                agents=agents,
                rng=np.random.default_rng(2),
                checkpoint_store=store,
            )
            _watch(restored, store)
            return restored

        _watch(shard, store)
        try:
            ledger = shard.settle(amounts)
        except ShardCrash:
            assert_stored(store, shard.checkpoint())
            paid_before = dict(shard.payments_sent)
            shard = restore()
            assert repr(shard.payments_sent) == repr(paid_before)
            ledger = shard.settle(amounts)
            assert all(shard.payment_notices[n] == 0 for n in paid_before)
        assert_stored(store, shard.checkpoint(), phase=False)
        # Bytes: a NaN amount must compare equal to itself.
        assert ledger.rows.tobytes() == amounts.tobytes()

        again = restore()
        assert again.settle(amounts).rows.tobytes() == ledger.rows.tobytes()
        assert not any(again.payment_notices.values())


def as_dicts(shard: CoordinatorShard) -> CoordinatorCheckpoint:
    """The shard's round state as the coordinator's name-keyed dicts."""
    names = shard.machine_names
    reported = shard._jobs is not None
    return CoordinatorCheckpoint(
        phase=shard.phase.value,
        machine_names=list(names),
        arrival_rate=shard.arrival_rate,
        bids={} if shard._bids is None else dict(zip(names, shard._bids.tolist())),
        loads=None if shard._loads is None else shard._loads.tolist(),
        reports=(
            dict(zip(names, zip(shard._jobs.tolist(), shard._means.tolist())))
            if reported
            else {}
        ),
        payments_sent=shard.payments_sent,
    )


class _EncodingChecked(CheckpointStore):
    """A store that checks every shard snapshot against the dict encoding."""

    def __init__(self):
        super().__init__()
        self.shard = None
        self.snapshots = 0

    def save(self, checkpoint):
        assert isinstance(checkpoint, str)  # encoded from the arrays
        assert checkpoint == as_dicts(self.shard).to_json()
        self.snapshots += 1
        super().save(checkpoint)


class TestShardSnapshotEncoding:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=9),
        crash_after=st.none() | st.integers(0, 9),
        deterministic=st.booleans(),
        stages=st.booleans(),
    )
    def test_stage_snapshots_equal_the_dict_encoding(
        self, values, crash_after, deterministic, stages
    ):
        names = [f"C{i + 1}" for i in range(len(values))]
        agents = {n: TruthfulAgent(v) for n, v in zip(names, values)}
        store = _EncodingChecked()
        shard = store.shard = CoordinatorShard(
            0,
            names,
            list(agents.values()),
            7.0,
            rng=np.random.default_rng(2),
            deterministic_service=deterministic,
            checkpoint_store=store,
            fail_after_payments=crash_after,
        )

        def check(live):
            assert live.checkpoint_json() == as_dicts(live).to_json()

        shard.begin_round()
        check(shard)  # empty sections: before bidding and execution
        if stages:
            shard.collect_bids()
            total = float(np.sum(1.0 / shard.bids_vector()))
            shard.allocate_from_total(total)
            partial, _ = shard.run_execution()
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = shard.local_payments(total, partial.quotient_sum.value)
        else:
            # Settle with no stage before it: the base snapshot holds
            # empty sections and the journal the ledger.
            rows = np.arange(3.0 * len(names)).reshape(-1, 3)
        shard.payment_notices = _Watched(
            shard.payment_notices, lambda: check(shard)
        )
        try:
            shard.settle(rows)
        except ShardCrash:
            check(shard)  # a partial ledger: its names are listed
            shard = store.shard = CoordinatorShard.restore(
                store.load(),
                shard_id=0,
                agents=agents,
                rng=np.random.default_rng(2),
                checkpoint_store=store,
            )
            check(shard)
            shard.payment_notices = _Watched(
                shard.payment_notices, lambda: check(shard)
            )
            shard.settle(rows)
        check(shard)
        assert store.snapshots >= (3 if stages else 1)
