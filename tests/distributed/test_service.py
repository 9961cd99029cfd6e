"""Parity and recovery suite for the sharded coordinator service.

The load-bearing contract (ISSUE 7): with exact aggregation, a global
workload, and the serial executor, a sharded round is **bit-identical**
to the single-coordinator path on the same seed — same loads, payments,
estimates, job count, and clock — for any shard count.  Everything else
here guards the supporting claims: scalar-mode agreement, concurrent
executors, and crash recovery with at-most-once payments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import ManipulativeAgent, TruthfulAgent
from repro.distributed import ShardCrash, ShardedCoordinatorService
from repro.protocol import run_protocol

TRUE_VALUES = (1.0, 2.0, 4.0, 3.0, 1.5, 2.5, 0.8, 5.0)
RATE = 7.0
DURATION = 40.0


def agents():
    return [TruthfulAgent(t) for t in TRUE_VALUES]


def monolithic(seed, *, deterministic=True, agent_list=None):
    return run_protocol(
        agent_list if agent_list is not None else agents(),
        RATE,
        duration=DURATION,
        rng=np.random.default_rng(seed),
        deterministic_service=deterministic,
    )


def service(seed, **kwargs):
    kwargs.setdefault("duration", DURATION)
    return ShardedCoordinatorService(
        kwargs.pop("agent_list", None) or agents(),
        RATE,
        rng=np.random.default_rng(seed),
        **kwargs,
    )


class TestBitParity:
    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_deterministic_round_is_bit_identical(self, shards):
        mono = monolithic(42)
        svc = service(42, shards=shards)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert np.array_equal(
            np.array([result.loads[n] for n in result.names]),
            mono.outcome.loads,
        )
        assert np.array_equal(
            result.outcome.payments.payment, mono.outcome.payments.payment
        )
        assert np.array_equal(
            result.outcome.payments.compensation,
            mono.outcome.payments.compensation,
        )
        assert np.array_equal(
            result.estimated_execution_values,
            mono.estimated_execution_values,
        )
        assert result.jobs_routed == mono.jobs_routed
        assert result.simulated_time == mono.simulated_time

    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_stochastic_serial_round_is_bit_identical(self, shards):
        # The serial executor threads one shared RNG through every
        # shard, so even noisy service times consume the monolithic
        # stream exactly.
        mono = monolithic(123, deterministic=False)
        svc = service(123, shards=shards, deterministic_service=False)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert np.array_equal(
            result.outcome.payments.payment, mono.outcome.payments.payment
        )
        assert np.array_equal(
            result.estimated_execution_values,
            mono.estimated_execution_values,
        )

    def test_manipulative_agents_are_bit_identical(self):
        def liars():
            built = agents()
            built[2] = ManipulativeAgent(TRUE_VALUES[2], 2.0, 1.5)
            return built

        mono = monolithic(7, agent_list=liars())
        svc = service(7, shards=4, agent_list=liars())
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert np.array_equal(
            result.outcome.payments.payment, mono.outcome.payments.payment
        )

    @pytest.mark.parametrize("executor", ["async", "process"])
    def test_concurrent_executors_match_under_deterministic_service(
        self, executor
    ):
        mono = monolithic(42)
        svc = service(42, shards=4, executor=executor)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert np.array_equal(
            result.outcome.payments.payment, mono.outcome.payments.payment
        )

    def test_multi_round_service_stays_in_lockstep(self):
        # The service reuses long-lived machines; three consecutive
        # rounds must match three fresh monolithic runs on one stream.
        rng = np.random.default_rng(5)
        svc = service(5, shards=4)
        try:
            results = svc.run(3)
        finally:
            svc.close()
        for result in results:
            mono = run_protocol(
                agents(), RATE, duration=DURATION, rng=rng,
                deterministic_service=True,
            )
            assert np.array_equal(
                result.outcome.payments.payment,
                mono.outcome.payments.payment,
            )
            assert result.jobs_routed == mono.jobs_routed


class TestScalarMode:
    def test_scalar_payments_agree_to_1e12(self):
        mono = monolithic(42)
        svc = service(42, shards=4, aggregation="scalar")
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert result.outcome is None  # never materialised globally
        payments = np.array([result.payments[n][0] for n in result.names])
        assert np.allclose(
            payments, mono.outcome.payments.payment, rtol=1e-12
        )

    def test_scalar_messages_are_constant_per_shard(self):
        svc = service(0, shards=4, aggregation="scalar")
        try:
            result = svc.run_round()
        finally:
            svc.close()
        # One partial up + one broadcast down per edge, two phases.
        assert result.total_messages == 2 * 2 * svc.overlay.n_edges


class TestWorkloadModes:
    def test_local_workload_routes_and_pays(self):
        svc = service(9, shards=4, workload="local")
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert result.jobs_routed > 0
        assert len(result.payments) == len(TRUE_VALUES)
        assert all(np.isfinite(v[0]) for v in result.payments.values())


class TestCrashRecovery:
    @pytest.mark.parametrize("executor", ["serial", "async", "process"])
    def test_mid_settle_crash_recovers_with_at_most_once_payments(
        self, executor
    ):
        mono = monolithic(7)
        svc = service(7, shards=4, executor=executor)
        svc.arm_shard_crash(1, after_payments=1)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert result.shard_restarts == 1
        # The recovered round still pays exactly the monolithic amounts,
        # and nobody ever saw a second payment notice.
        assert np.array_equal(
            result.outcome.payments.payment, mono.outcome.payments.payment
        )
        assert len(result.payments) == len(TRUE_VALUES)
        assert max(result.payment_notices.values()) == 1

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_restored_shard_keeps_the_notices_it_sent(self, executor):
        # Shard 1 (C4..C6) dies after paying C4; its replacement must
        # still count C4's notice, in this round and the next.
        svc = ShardedCoordinatorService(
            [TruthfulAgent(t) for t in (1.0, 2.0, 4.0, 3.0, 5.0, 6.0)],
            RATE,
            shards=2,
            executor=executor,
            rng=np.random.default_rng(0),
        )
        svc.arm_shard_crash(1, after_payments=1)
        try:
            first = svc.run_round()
            second = svc.run_round()
        finally:
            svc.close()
        assert first.shard_restarts == 1
        assert "C4" in first.payments
        assert set(first.payment_notices.values()) == {1}
        assert set(second.payment_notices.values()) == {2}

    def test_process_store_holds_each_shipped_snapshot_verbatim(self):
        # After every stage reply (a crash included) the parent's store
        # loads back exactly the string the worker's shard serialised.
        svc = service(7, shards=2, executor="process")
        executor = svc._executor
        conns = executor._conns = [_Recording(c) for c in executor._conns]
        receive = executor._receive
        checked = []

        def checked_receive(k):
            status = receive(k)
            reply = conns[k].replies[-1]
            shipped = reply[2] if reply[0] == "ok" else reply[1]
            assert svc.stores[k]._payload is shipped  # not re-encoded
            assert svc.stores[k].load().to_json() == shipped
            checked.append(reply[0])
            return status

        executor._receive = checked_receive
        try:
            svc.arm_shard_crash(1, after_payments=1)
            result = svc.run_round()
        finally:
            svc.close()
        assert result.shard_restarts == 1
        assert "crash" in checked
        assert len(checked) == sum(store.saves for store in svc.stores)

    def test_restart_budget_exhaustion_raises(self):
        svc = service(7, shards=4, max_shard_restarts=0)
        svc.arm_shard_crash(0, after_payments=0)
        try:
            with pytest.raises(ShardCrash):
                svc.run_round()
        finally:
            svc.close()

    def test_service_recovers_across_rounds(self):
        # A crash in round 1 must not leak state into round 2.
        rng = np.random.default_rng(11)
        svc = service(11, shards=2)
        svc.arm_shard_crash(0, after_payments=2)
        try:
            first = svc.run_round()
            second = svc.run_round()
        finally:
            svc.close()
        assert first.shard_restarts == 1
        assert second.shard_restarts == 0
        mono1 = run_protocol(agents(), RATE, duration=DURATION, rng=rng,
                             deterministic_service=True)
        mono2 = run_protocol(agents(), RATE, duration=DURATION, rng=rng,
                             deterministic_service=True)
        assert np.array_equal(
            first.outcome.payments.payment, mono1.outcome.payments.payment
        )
        assert np.array_equal(
            second.outcome.payments.payment, mono2.outcome.payments.payment
        )


class TestStages:
    @pytest.mark.parametrize(
        ("aggregation", "methods"),
        [
            ("exact", ["begin_round", "run_bidding", "apply_allocation",
                       "run_execution", "run_settle"]),
            ("scalar", ["begin_round", "run_bidding", "allocate_from_total",
                        "run_execution", "settle_from_totals"]),
        ],
    )
    def test_serial_round_calls_five_shard_methods_per_shard(
        self, aggregation, methods
    ):
        # The settle reply carries the notice counts, so no sixth stage
        # collects them.
        svc = service(3, shards=4, aggregation=aggregation)
        executor = svc._executor
        fan_out = executor.map
        calls = {k: [] for k in range(svc.n_shards)}

        def recording_map(method, args_per_shard, only=None):
            outcomes = fan_out(method, args_per_shard, only)
            for k in outcomes:
                calls[k].append(method)
            return outcomes

        executor.map = recording_map
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert calls == {k: methods for k in range(svc.n_shards)}
        assert set(result.payment_notices.values()) == {1}


class TestResultViews:
    def test_views_equal_the_name_keyed_dicts(self):
        svc = service(42, shards=3)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        outcome = result.outcome
        loads = {
            name: float(load) for name, load in zip(result.names, outcome.loads)
        }
        paid = outcome.payments.payment.tolist()
        comp = outcome.payments.compensation.tolist()
        bonus = outcome.payments.bonus.tolist()
        payments = {
            name: (paid[k], comp[k], bonus[k])
            for k, name in enumerate(result.names)
        }
        assert dict(result.loads) == loads
        assert dict(result.payments) == payments
        assert repr(dict(result.payments)) == repr(payments)

    def test_views_iterate_in_names_order(self):
        names = [f"M{k}" for k in (3, 1, 2, 0, 5, 4, 7, 6)]
        svc = service(1, shards=3, machine_names=names)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        assert result.names == names
        assert list(result.loads) == list(result.payments) == names
        assert [name for name, _ in result.payments.items()] == names
        assert len(result.loads) == len(result.payments) == len(names)

    def test_views_are_read_only_and_reject_unknown_names(self):
        svc = service(1, shards=2)
        try:
            result = svc.run_round()
        finally:
            svc.close()
        with pytest.raises(KeyError):
            result.loads["nobody"]
        with pytest.raises(KeyError):
            result.payments["nobody"]
        assert "nobody" not in result.payments and "C1" in result.payments
        with pytest.raises(TypeError):
            result.payments["C1"] = (0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            result.loads["C1"] = 0.0
        with pytest.raises(TypeError):
            del result.loads["C1"]


class TestValidation:
    def test_rejects_unknown_modes(self):
        with pytest.raises(ValueError, match="aggregation"):
            service(0, aggregation="nope")
        with pytest.raises(ValueError, match="executor"):
            service(0, executor="nope")
        with pytest.raises(ValueError, match="workload"):
            service(0, workload="nope")

    def test_rejects_more_shards_than_agents(self):
        with pytest.raises(ValueError, match="cannot spread"):
            service(0, shards=100)

    def test_closed_service_refuses_rounds(self):
        svc = service(0, shards=2)
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.run_round()


class _Recording:
    """A worker pipe end that keeps every reply it receives."""

    def __init__(self, conn):
        self.conn = conn
        self.replies = []

    def recv(self):
        reply = self.conn.recv()
        self.replies.append(reply)
        return reply

    def __getattr__(self, name):
        return getattr(self.conn, name)
