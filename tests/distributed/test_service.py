"""Parity and recovery suite for the sharded coordinator service.

The load-bearing contract (ISSUE 7): with exact aggregation, a global
workload, and the serial executor, a sharded round is **bit-identical**
to the single-coordinator path on the same seed — same loads, payments,
estimates, job count, and clock — for any shard count.  Everything else
here guards the supporting claims: scalar-mode agreement, concurrent
executors, mid-round churn, and crash recovery with at-most-once
payments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents import ManipulativeAgent, TruthfulAgent
from repro.distributed import ShardCrash, ShardedCoordinatorService
from repro.parallel.units import ExperimentUnit, execute_unit
from repro.protocol import run_protocol
from repro.resilience import RoundSupervisor

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


class TestMembershipChurn:
    def test_mid_round_churn_invalidates_every_shard(self):
        # Drop members on two different shards between bidding and
        # allocation; the surviving 6-agent allocation must equal a
        # monolithic run over the survivors (a stale cached bids vector
        # on any shard would poison the reassembled global array).
        svc = service(42, shards=4)
        try:
            round_ = svc.begin_round()
            round_.collect_bids()
            dropped = round_.remove_agents(["C3", "C6"])
            round_.allocate()
            round_.execute()
            round_.settle()
            result = round_.result()
        finally:
            svc.close()
        assert dropped == ["C3", "C6"]
        survivors = [
            TruthfulAgent(t)
            for i, t in enumerate(TRUE_VALUES)
            if i not in (2, 5)
        ]
        mono = monolithic(42, agent_list=survivors)
        assert np.array_equal(
            np.array([result.loads[n] for n in result.names]),
            mono.outcome.loads,
        )
        assert sorted(result.payments) == [
            "C1", "C2", "C4", "C5", "C7", "C8",
        ]

    def test_restrict_limits_participants_before_bidding(self):
        svc = service(0, shards=4)
        try:
            result = svc.run_round(
                participants=["C1", "C2", "C5", "C6", "C7", "C8"]
            )
        finally:
            svc.close()
        assert "C3" not in result.payments
        assert "C4" not in result.payments
        assert sorted(result.dropped) == ["C3", "C4"]


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


class TestSupervisorIntegration:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_supervised_rounds_are_bit_identical(self, shards):
        def supervisor(n_shards):
            return RoundSupervisor(
                agents(), RATE, rng=np.random.default_rng(9), shards=n_shards
            )

        mono = supervisor(1).run(3)
        sharded = supervisor(shards).run(3)
        for a, b in zip(mono.rounds, sharded.rounds):
            assert a.payments == b.payments
            assert a.loads == b.loads
            assert a.jobs_routed == b.jobs_routed
            assert a.alerts == b.alerts
            assert np.array_equal(
                a.outcome.payments.payment, b.outcome.payments.payment
            )

    def test_supervised_stochastic_parity(self):
        def supervisor(n_shards):
            return RoundSupervisor(
                agents(), RATE, rng=np.random.default_rng(9),
                deterministic_service=False, shards=n_shards,
            )

        mono = supervisor(1).run(2)
        sharded = supervisor(4).run(2)
        for a, b in zip(mono.rounds, sharded.rounds):
            assert a.payments == b.payments

    def test_faulted_rounds_fall_back_to_monolithic_path(self):
        from repro.resilience import FaultPlan

        supervisor = RoundSupervisor(
            agents(), RATE, rng=np.random.default_rng(3), shards=4
        )
        plan = FaultPlan.generate(
            5, supervisor.machine_names, seed=3, p_machine_fault=0.9
        )
        report = supervisor.run(5, fault_plan=plan)
        assert len(report.rounds) == 5  # chaos rounds still complete


class TestCampaignUnits:
    def test_sharded_protocol_unit_payload_matches_monolithic(self):
        base = dict(
            kind="protocol", scenario="s1", bid_factor=2.0,
            execution_factor=1.5, true_values=TRUE_VALUES,
            arrival_rate=RATE, seed=11, duration=60.0,
        )
        mono = execute_unit(ExperimentUnit(**base))
        sharded = execute_unit(ExperimentUnit(**base, shards=3))
        for key in mono:
            if key == "total_messages":
                # The sharded run reports the aggregation tree's count.
                assert sharded[key] < mono[key]
            else:
                assert mono[key] == sharded[key], key

    def test_event_protocol_unit_stays_single_coordinator(self):
        # The shards run only the batched engine; an event unit must not
        # be silently re-run on it (its stochastic payload would change).
        base = dict(
            kind="protocol", scenario="s1", bid_factor=2.0,
            execution_factor=1.5, true_values=TRUE_VALUES,
            arrival_rate=RATE, seed=11, duration=60.0, execution="event",
        )
        mono = execute_unit(ExperimentUnit(**base))
        sharded = execute_unit(ExperimentUnit(**base, shards=3))
        assert sharded == mono

    def test_shards_only_enter_cache_key_when_sharded(self):
        base = dict(
            kind="protocol", scenario="s1", bid_factor=1.0,
            execution_factor=1.0, true_values=TRUE_VALUES,
            arrival_rate=RATE, seed=0,
        )
        assert "shards" not in ExperimentUnit(**base).as_config()
        sharded = ExperimentUnit(**base, shards=4)
        assert sharded.as_config()["shards"] == 4
        assert ExperimentUnit.from_config(sharded.as_config()) == sharded


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
