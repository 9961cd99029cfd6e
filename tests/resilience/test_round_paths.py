"""Differential oracle over the supervised round paths.

The sequential round, the horizon-fused round and the sharded round
share one estimate/detect/override/result code path, so their results
must agree **bit for bit** on the same seed: every ``RoundResult``
field through ``repr``, every outcome array through ``tobytes()``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.agents import SlowExecutor, TruthfulAgent
from repro.mechanism import ArcherTardosMechanism, VCGMechanism
from repro.observability.instrumentation import instrumented
from repro.resilience import FaultPlan, RoundResult, RoundSupervisor
from repro.system.workload import PiecewiseConstantSchedule, SinusoidalSchedule

N = 8

_FIELDS = [f.name for f in dataclasses.fields(RoundResult) if f.name != "outcome"]

_OUTCOME_ARRAYS = {
    "loads": lambda o: o.loads,
    "bids": lambda o: o.allocation.bids,
    "execution_values": lambda o: o.execution_values,
    "compensation": lambda o: o.payments.compensation,
    "bonus": lambda o: o.payments.bonus,
    "valuation": lambda o: o.payments.valuation,
    "payment": lambda o: o.payments.payment,
    "utility": lambda o: o.payments.utility,
}


def supervisor(
    *,
    seed: int = 7,
    deterministic: bool = True,
    schedule: str | None = None,
    slow: bool = False,
    overrides: bool = False,
    **kwargs,
) -> RoundSupervisor:
    true_values = np.random.default_rng(123).uniform(1.0, 8.0, size=N)
    agents = [TruthfulAgent(float(t)) for t in true_values]
    if slow:
        # Three times slower than declared: alerts open the circuit and
        # probes re-admit it, so membership churns mid-horizon.
        agents[-1] = SlowExecutor(float(true_values[-1]), execution_factor=3.0)
    rate = 0.4 * N
    arrival_schedule = {
        None: None,
        "sinusoidal": SinusoidalSchedule(rate, amplitude=0.6, period=1480.0),
        "piecewise": PiecewiseConstantSchedule(
            [0.0, 400.0, 1000.0], [0.5 * rate, 1.5 * rate, rate]
        ),
    }[schedule]
    sup = RoundSupervisor(
        agents,
        rate,
        duration=80.0 if slow else 40.0,
        deterministic_service=deterministic,
        rng=np.random.default_rng(seed),
        arrival_schedule=arrival_schedule,
        **kwargs,
    )
    if overrides:
        # One override raises a bid, one is below the bid and must not apply.
        sup.bid_overrides.update({"C1": 50.0, "C4": 0.1})
    return sup


def assert_identical(left, right) -> None:
    assert len(left.rounds) == len(right.rounds)
    for a, b in zip(left.rounds, right.rounds):
        for name in _FIELDS:
            assert repr(getattr(a, name)) == repr(getattr(b, name)), (a.index, name)
        assert (a.outcome is None) == (b.outcome is None), a.index
        if a.outcome is None:
            continue
        for name, get in _OUTCOME_ARRAYS.items():
            assert get(a.outcome).tobytes() == get(b.outcome).tobytes(), (
                a.index,
                name,
            )
        assert repr(a.outcome.allocation.total_latency) == repr(
            b.outcome.allocation.total_latency
        )


FUSED_CASES = {
    "clean-deterministic": (dict(), 10),
    "clean-stochastic": (dict(deterministic=False), 10),
    "sinusoidal-schedule": (dict(schedule="sinusoidal"), 10),
    "piecewise-stochastic": (dict(schedule="piecewise", deterministic=False), 10),
    "quarantine-churn": (dict(slow=True), 20),
    "bid-overrides": (dict(overrides=True), 6),
    "vcg": (dict(mechanism=VCGMechanism()), 6),
    "archer-tardos": (dict(mechanism=ArcherTardosMechanism()), 6),
}


class TestFusedEqualsSequential:
    @pytest.mark.parametrize("case", FUSED_CASES)
    def test_round_results_are_bit_identical(self, case):
        kwargs, rounds = FUSED_CASES[case]
        sequential = supervisor(**kwargs).run(rounds)
        fused = supervisor(horizon=True, **kwargs).run(rounds)
        assert_identical(sequential, fused)
        if case == "quarantine-churn":
            assert any(r.alerts for r in sequential.rounds)
            assert any(r.probes for r in sequential.rounds)

    def test_chaos_defusion_is_bit_identical(self):
        def run(horizon: bool):
            sup = supervisor(seed=17, horizon=horizon)
            return sup.run(16, FaultPlan.generate(16, sup.machine_names, seed=99))

        sequential = run(False)
        assert any(r.fault_kinds for r in sequential.rounds)
        assert_identical(sequential, run(True))


class TestShardedEqualsMonolithic:
    @pytest.mark.parametrize(
        "kwargs, rounds",
        [(dict(), 4), (dict(slow=True), 12), (dict(overrides=True), 3)],
        ids=["clean", "slow-machine", "bid-overrides"],
    )
    def test_round_results_are_bit_identical(self, kwargs, rounds):
        def run(shards: int):
            with instrumented() as instr:
                report = supervisor(shards=shards, **kwargs).run(rounds)
            overrides = instr.metrics.counter("remediation.bid_overrides").value
            return report, overrides

        mono, mono_overrides = run(1)
        sharded, sharded_overrides = run(4)
        assert_identical(mono, sharded)
        assert sharded_overrides == mono_overrides
        if kwargs.get("slow"):
            assert any(r.alerts for r in mono.rounds)
        if kwargs.get("overrides"):
            assert mono_overrides == rounds
