"""Parity suite for the batched job-event execution engine.

DESIGN.md §11 states the contract: with ``deterministic_service=True``
the batched engine must be *bit-identical* to the per-job event engine
— same RNG stream, same sojourn floats, same mechanism outcome, same
final clock — while with stochastic service it consumes the same
stream shape and matches the verification estimates to statistical
tolerance.  These tests pin both halves, plus the paper's 16-machine
truthful round through the batched path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import ManipulativeAgent, TruthfulAgent
from repro.observability.instrumentation import instrumented
from repro.protocol import run_protocol
from repro.protocol.execution import (
    EXECUTION_MODES,
    dispatch_batched,
    resolve_execution,
)
from repro.protocol.messages import (
    AllocationNotice,
    BidReply,
    BidRequest,
    CompletionReport,
    PaymentNotice,
)
from repro.system.cluster import paper_cluster
from repro.system.des import Simulator
from repro.system.machine import LinearLatencyMachine


def _truthful_agents():
    return [TruthfulAgent(t) for t in paper_cluster().true_values]


def _round(execution, *, seed, agents, rate, duration=8.0, drop=0.0,
           deterministic=True):
    """One protocol round with a fresh generator (stream parity needs it)."""
    return run_protocol(
        agents,
        rate,
        duration=duration,
        rng=np.random.default_rng(seed),
        deterministic_service=deterministic,
        drop_probability=drop,
        execution=execution,
    )


def _assert_bit_identical(event, batched):
    """Every observable of the round must match exactly, not approximately."""
    assert np.array_equal(
        event.estimated_execution_values, batched.estimated_execution_values
    )
    assert np.array_equal(event.outcome.loads, batched.outcome.loads)
    assert np.array_equal(
        event.outcome.payments.payment, batched.outcome.payments.payment
    )
    assert np.array_equal(
        event.outcome.payments.utility, batched.outcome.payments.utility
    )
    assert event.outcome.realised_latency == batched.outcome.realised_latency
    assert event.jobs_routed == batched.jobs_routed
    assert event.simulated_time == batched.simulated_time
    assert event.network.total_messages == batched.network.total_messages


class TestResolveExecution:
    def test_auto_picks_batched(self):
        assert resolve_execution("auto") == "batched"

    @pytest.mark.parametrize("mode", ["event", "batched"])
    def test_explicit_modes_honoured(self, mode):
        assert resolve_execution(mode) == mode

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="execution"):
            resolve_execution("vectorised")

    def test_run_protocol_validates_execution(self, rng):
        with pytest.raises(ValueError, match="execution"):
            run_protocol(
                [TruthfulAgent(1.0)], 2.0, rng=rng, execution="bogus"
            )

    def test_modes_tuple_is_the_public_contract(self):
        assert EXECUTION_MODES == ("event", "batched", "auto")


class TestBitIdentity:
    """Deterministic service: the two engines are the same computation."""

    @given(
        n=st.integers(min_value=2, max_value=6),
        rate=st.sampled_from([2.0, 5.0, 11.0]),
        drop=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_equals_event_across_rounds(self, n, rate, drop, seed):
        values = np.random.default_rng(seed).uniform(1.0, 5.0, size=n)
        agents = [TruthfulAgent(float(t)) for t in values]
        event = _round("event", seed=seed + 1, agents=agents, rate=rate,
                       drop=drop)
        batched = _round("batched", seed=seed + 1, agents=agents, rate=rate,
                         drop=drop)
        _assert_bit_identical(event, batched)

    def test_paper_cluster_round_identical(self):
        event = _round("event", seed=7, agents=_truthful_agents(), rate=20.0,
                       duration=50.0)
        batched = _round("batched", seed=7, agents=_truthful_agents(),
                         rate=20.0, duration=50.0)
        _assert_bit_identical(event, batched)

    def test_identical_with_manipulative_agents(self):
        agents = _truthful_agents()
        agents[0] = ManipulativeAgent(1.0, bid_factor=0.5, execution_factor=2.0)
        event = _round("event", seed=3, agents=agents, rate=20.0, duration=30.0)
        batched = _round("batched", seed=3, agents=agents, rate=20.0,
                         duration=30.0)
        _assert_bit_identical(event, batched)

    def test_identical_over_lossy_links(self):
        event = _round("event", seed=11, agents=_truthful_agents(), rate=20.0,
                       duration=20.0, drop=0.25)
        batched = _round("batched", seed=11, agents=_truthful_agents(),
                         rate=20.0, duration=20.0, drop=0.25)
        _assert_bit_identical(event, batched)

    def test_auto_is_bit_identical_to_batched(self):
        auto = _round("auto", seed=5, agents=_truthful_agents(), rate=20.0)
        batched = _round("batched", seed=5, agents=_truthful_agents(),
                         rate=20.0)
        _assert_bit_identical(auto, batched)


class TestStochasticTolerance:
    """Exponential service: same stream shape, estimates agree statistically."""

    def test_estimates_match_truth_within_tolerance(self):
        batched = _round("batched", seed=2, agents=_truthful_agents(),
                         rate=20.0, duration=300.0, deterministic=False)
        assert batched.estimation_relative_error.mean() < 0.10

    def test_both_engines_estimate_the_same_truth(self):
        event = _round("event", seed=2, agents=_truthful_agents(), rate=20.0,
                       duration=300.0, deterministic=False)
        batched = _round("batched", seed=2, agents=_truthful_agents(),
                         rate=20.0, duration=300.0, deterministic=False)
        # Different draw granularity => different noise, same target.
        assert np.allclose(
            event.estimated_execution_values,
            batched.estimated_execution_values,
            rtol=0.35,
        )
        assert event.jobs_routed == batched.jobs_routed
        assert event.network.total_messages == batched.network.total_messages

    def test_detects_a_slow_executor_through_the_batched_path(self):
        agents = _truthful_agents()
        agents[0] = ManipulativeAgent(1.0, bid_factor=1.0, execution_factor=3.0)
        result = _round("batched", seed=4, agents=agents, rate=20.0,
                        duration=500.0, deterministic=False)
        assert result.estimated_execution_values[0] == pytest.approx(
            3.0, rel=0.15
        )


class TestPaperRegression:
    """The 16-machine L* = 400/5.1 ≈ 78.43 round survives batching."""

    def test_batched_truthful_latency_pins_paper_optimum(self):
        result = _round("batched", seed=0, agents=_truthful_agents(),
                        rate=20.0, duration=200.0)
        assert result.outcome.realised_latency == pytest.approx(
            400 / 5.1, rel=0.05
        )
        assert np.allclose(
            result.estimated_execution_values,
            paper_cluster().true_values,
            rtol=0.05,
        )

    def test_message_complexity_claim_untouched(self, rng):
        result = run_protocol(
            _truthful_agents(), 20.0, duration=5.0, rng=rng,
            execution="batched",
        )
        assert result.network.total_messages == 5 * 16
        for message_type in (
            BidRequest, BidReply, AllocationNotice, CompletionReport,
            PaymentNotice,
        ):
            assert result.network.messages_of(message_type) == 16


class TestEventHorizonSkip:
    def test_events_skipped_gauge_counts_the_saved_heap_events(self):
        with instrumented() as instr:
            result = _round("batched", seed=9, agents=_truthful_agents(),
                            rate=20.0, duration=10.0)
        skipped = instr.metrics.gauge("protocol.events_skipped").value
        # Two heap events per job in the event engine, one horizon no-op here.
        assert skipped == 2 * result.jobs_routed - 1

    def test_empty_stream_schedules_nothing(self, rng):
        sim = Simulator()
        machine = LinearLatencyMachine("C1", 1.0, rng)
        machine.configure(1.0)
        routed = dispatch_batched(sim, [machine], [np.empty(0)])
        assert routed == 0
        assert sim.pending() == 0

    def test_horizon_matches_latest_completion(self, rng):
        event = _round("event", seed=13, agents=_truthful_agents(), rate=20.0,
                       duration=25.0)
        batched = _round("batched", seed=13, agents=_truthful_agents(),
                         rate=20.0, duration=25.0)
        assert batched.simulated_time == event.simulated_time
