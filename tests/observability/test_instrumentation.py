"""Unit tests for the global instrumentation switchboard."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.observability import (
    Instrumentation,
    active,
    annotate,
    disable,
    enable,
    instrumented,
    observe_value,
    record_counter,
    record_gauge,
    timed_section,
    trace_span,
)
from repro.observability.instrumentation import _NULL


@pytest.fixture(autouse=True)
def _clean_global():
    """Every test starts and ends with instrumentation disabled."""
    disable()
    yield
    disable()


def _tick_instrumentation() -> Instrumentation:
    ticks = itertools.count()
    return Instrumentation(clock=lambda: float(next(ticks)))


class TestGlobalSlot:
    def test_enable_disable_roundtrip(self):
        assert active() is None
        installed = enable()
        assert active() is installed
        assert disable() is installed
        assert active() is None

    def test_instrumented_restores_previous(self):
        outer = enable()
        with instrumented() as inner:
            assert active() is inner
            assert inner is not outer
        assert active() is outer

    def test_instrumented_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with instrumented():
                raise RuntimeError("boom")
        assert active() is None

    def test_enable_accepts_custom_bundle(self):
        custom = _tick_instrumentation()
        assert enable(custom) is custom
        assert active() is custom


class TestDisabledHelpers:
    def test_all_helpers_are_noops(self):
        record_counter("c")
        record_gauge("g", 1.0)
        observe_value("h", 1.0)
        annotate("msg")
        with trace_span("s"):
            pass
        with timed_section("t"):
            pass
        # Nothing was installed, nothing recorded anywhere.
        assert active() is None

    def test_disabled_contexts_share_the_null_singleton(self):
        assert trace_span("a") is _NULL
        assert timed_section("b") is _NULL


class TestEnabledHelpers:
    def test_counter_gauge_histogram_route_to_registry(self):
        with instrumented() as instr:
            record_counter("events", kind="x")
            record_counter("events", 2.0, kind="x")
            record_gauge("depth", 7.0)
            observe_value("size", 3.0)
        assert instr.metrics.counter("events", kind="x").value == 3.0
        assert instr.metrics.gauge("depth").value == 7.0
        assert instr.metrics.histogram("size").count == 1

    def test_trace_span_and_annotate_route_to_tracer(self):
        with instrumented(_tick_instrumentation()) as instr:
            with trace_span("round", index=1):
                annotate("note", key="value")
        record = instr.tracer.finished[0]
        assert record.name == "round"
        assert record.annotations[0]["key"] == "value"

    def test_timed_section_records_seconds(self):
        with instrumented(_tick_instrumentation()) as instr:
            with timed_section("section.seconds"):
                pass
        histogram = instr.metrics.histogram("section.seconds")
        assert histogram.count == 1
        assert histogram.total == 1.0  # one clock tick

    def test_snapshot_bundles_metrics_and_spans(self):
        with instrumented(_tick_instrumentation()) as instr:
            record_counter("c")
            with trace_span("s"):
                pass
        snapshot = instr.snapshot()
        assert snapshot["counters"][0]["name"] == "c"
        assert list(snapshot["spans"]) == ["s"]
        assert snapshot["spans_dropped"] == 0


class TestWiredHotPaths:
    def test_protocol_round_records_phases_and_spans(self):
        from repro.agents import TruthfulAgent
        from repro.protocol import run_protocol

        with instrumented() as instr:
            run_protocol(
                [TruthfulAgent(1.0), TruthfulAgent(2.0)],
                3.0,
                duration=5.0,
                rng=np.random.default_rng(0),
            )
        assert sorted(instr.tracer.summary()) == ["protocol.round"]
        transitions = [
            (c["labels"]["src"], c["labels"]["dst"])
            for c in instr.metrics.snapshot()["counters"]
            if c["name"] == "protocol.phase_transitions"
        ]
        assert ("idle", "bidding") in transitions
        assert ("verifying", "done") in transitions
        # Phase changes are also annotated onto the protocol.round span.
        annotations = instr.tracer.finished[-1].annotations
        assert any(a["message"] == "protocol.phase" for a in annotations)

    def test_supervised_round_records_stage_spans_and_counters(self):
        from repro.agents import TruthfulAgent
        from repro.resilience import RoundSupervisor

        supervisor = RoundSupervisor(
            [TruthfulAgent(1.0), TruthfulAgent(2.0), TruthfulAgent(5.0)],
            6.0,
            duration=10.0,
            rng=np.random.default_rng(3),
        )
        with instrumented() as instr:
            supervisor.run(2)
        spans = instr.tracer.summary()
        for name in (
            "supervisor.round",
            "supervisor.bidding",
            "supervisor.execution",
            "supervisor.reporting",
            "supervisor.detection",
        ):
            assert spans[name]["count"] == 2
        assert instr.metrics.counter("supervisor.rounds").value == 2.0
        assert instr.metrics.counter("resilience.checkpoint.saves").value > 0
        assert instr.metrics.counter("resilience.checkpoint.appends").value > 0
        assert instr.metrics.histogram("supervisor.jobs_routed").count == 2

    def test_chaos_round_annotates_injected_faults(self):
        from repro.agents import TruthfulAgent
        from repro.resilience import (
            ChaosHarness,
            FaultPlan,
            MachineFault,
            RoundFaults,
            RoundSupervisor,
        )

        supervisor = RoundSupervisor(
            [TruthfulAgent(t) for t in (1.0, 2.0, 5.0, 10.0)],
            6.0,
            duration=10.0,
            rng=np.random.default_rng(5),
        )
        plan = FaultPlan(
            [
                RoundFaults(
                    machine_faults={"C2": MachineFault("withhold_bid")}
                ),
                RoundFaults(),
            ]
        )
        with instrumented() as instr:
            ChaosHarness(supervisor, plan).run()
        chaos_spans = [
            s for s in instr.tracer.finished if s.name == "chaos.round"
        ]
        assert len(chaos_spans) == 2
        injected = [
            a
            for a in chaos_spans[0].annotations
            if a["message"] == "fault.injected"
        ]
        assert injected == [
            {
                "message": "fault.injected",
                "at": injected[0]["at"],
                "machine": "C2",
                "kind": "withhold_bid",
            }
        ]
        assert instr.metrics.counter("chaos.faults_injected").value == 1.0
