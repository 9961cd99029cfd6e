"""Unit tests for detection: signals → typed incidents."""

from __future__ import annotations

import pytest

from repro.remediation import INCIDENT_KINDS, Incident, IncidentDetector
from repro.resilience import MachineFault, RoundFaults
from repro.resilience.invariants import InvariantViolation

from tests.remediation.conftest import build_supervisor, make_result, slow_round


class TestIncidentRecord:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Incident(kind="gremlins", round_index=0)

    def test_str_names_round_and_machine(self):
        incident = Incident(kind="slowdown", round_index=7, machine="m3")
        assert "round 7" in str(incident)
        assert "m3" in str(incident)

    def test_taxonomy_is_fixed(self):
        assert INCIDENT_KINDS == (
            "message_loss",
            "unverified",
            "slowdown",
            "circuit_trip",
            "invariant",
        )


class TestSlowdownDetection:
    def test_cusum_alert_becomes_slowdown_incident(self, alert_round):
        supervisor, result = alert_round
        incidents = IncidentDetector().scan(result, supervisor.quarantine)
        slowdowns = [i for i in incidents if i.kind == "slowdown"]
        assert len(slowdowns) == 1
        incident = slowdowns[0]
        assert incident.machine == supervisor.machine_names[0]
        assert incident.round_index == result.index
        # Evidence carries the verified estimate, not just the alarm:
        # the 3x fault must show up as a factor well above 1.
        assert incident.evidence["slowdown_factor"] > 1.5
        assert incident.evidence["estimated"] > incident.evidence["declared"]

    def test_clean_round_yields_no_incidents(self, supervisor):
        result = supervisor.run_round()
        assert IncidentDetector().scan(result, supervisor.quarantine) == []


class TestUnverifiedDetection:
    def test_withheld_report_becomes_unverified_incident(self, supervisor):
        target = supervisor.machine_names[1]
        result = supervisor.run_round(
            RoundFaults(
                machine_faults={target: MachineFault("withhold_report", count=10)}
            )
        )
        assert target in result.withheld
        incidents = IncidentDetector().scan(result, supervisor.quarantine)
        unverified = [i for i in incidents if i.kind == "unverified"]
        assert [i.machine for i in unverified] == [target]


class TestCircuitTripDetection:
    def test_participant_ending_open_is_a_trip(self):
        supervisor = build_supervisor(failure_threshold=2)
        detector = IncidentDetector()
        target = supervisor.machine_names[0]
        result = None
        for _ in range(2):  # two consecutive alert rounds trip the circuit
            result = slow_round(supervisor)
        assert target in supervisor.quarantine.quarantined()
        incidents = detector.scan(result, supervisor.quarantine)
        trips = [i for i in incidents if i.kind == "circuit_trip"]
        assert [i.machine for i in trips] == [target]
        assert trips[0].evidence["reason"] == "slowdown_alert"

    def test_already_open_nonparticipant_is_not_re_reported(self, supervisor):
        supervisor.quarantine.force_open(supervisor.machine_names[0], "test")
        result = supervisor.run_round()
        incidents = IncidentDetector().scan(result, supervisor.quarantine)
        assert [i for i in incidents if i.kind == "circuit_trip"] == []


class TestInvariantPassThrough:
    def test_violations_become_round_incidents(self, supervisor):
        result = supervisor.run_round()
        violation = InvariantViolation(
            round_index=result.index, invariant="feasibility", detail="boom"
        )
        incidents = IncidentDetector().scan(
            result, supervisor.quarantine, [violation]
        )
        broken = [i for i in incidents if i.kind == "invariant"]
        assert len(broken) == 1
        assert broken[0].machine is None
        assert broken[0].evidence["invariant"] == "feasibility"


class TestMessageLossDetection:
    def test_spike_over_quiet_baseline_alarms(self):
        detector = IncidentDetector()
        quarantine = build_supervisor().quarantine
        for index in range(3):  # quiet history builds a ~0 baseline
            assert detector.scan(make_result(index), quarantine) == []
        spike = make_result(3, bid_retries=5, report_retries=3)
        incidents = detector.scan(spike, quarantine)
        loss = [i for i in incidents if i.kind == "message_loss"]
        assert len(loss) == 1
        assert loss[0].machine is None
        assert loss[0].evidence["retries"] == 8

    def test_small_retry_counts_never_alarm(self):
        detector = IncidentDetector()
        quarantine = build_supervisor().quarantine
        result = make_result(0, bid_retries=3)
        assert detector.scan(result, quarantine) == []

    def test_sustained_loss_stops_alarming_as_baseline_adapts(self, monkeypatch):
        # Instant adaptation: the baseline becomes the newest round.
        monkeypatch.setattr("repro.remediation.incidents._EMA_ALPHA", 1.0)
        detector = IncidentDetector()
        quarantine = build_supervisor().quarantine
        first = detector.scan(make_result(0, bid_retries=10), quarantine)
        second = detector.scan(make_result(1, bid_retries=10), quarantine)
        assert [i.kind for i in first] == ["message_loss"]
        assert second == []  # 10 retries is the new normal
