"""QuarantinePolicy: the closed → open → half-open lifecycle."""

from __future__ import annotations

import pytest

from repro.resilience import CircuitState, QuarantinePolicy


def _policy(**kwargs) -> QuarantinePolicy:
    defaults = dict(
        failure_threshold=2,
        cooldown_rounds=2,
        max_cooldown_rounds=8,
        probe_successes_required=2,
        readmission_reputation=0.0,  # lifecycle tests gate on probes only
        reputation_alpha=0.5,
    )
    defaults.update(kwargs)
    policy = QuarantinePolicy(**defaults)
    policy.admit("A")
    policy.admit("B")
    return policy


class TestOpening:
    def test_single_failure_keeps_circuit_closed(self):
        policy = _policy()
        policy.record_failure("A", "missed_bid")
        assert policy.state_of("A") is CircuitState.CLOSED

    def test_consecutive_failures_open_circuit(self):
        policy = _policy()
        policy.record_failure("A", "missed_bid")
        policy.record_failure("A", "missed_bid")
        assert policy.state_of("A") is CircuitState.OPEN
        assert policy.quarantined() == ["A"]
        assert policy.health_of("A").times_opened == 1

    def test_success_resets_the_failure_streak(self):
        policy = _policy()
        policy.record_failure("A", "missed_bid")
        policy.record_success("A")
        policy.record_failure("A", "slowdown_alert")
        assert policy.state_of("A") is CircuitState.CLOSED

    def test_open_machine_excluded_from_rounds(self):
        policy = _policy()
        policy.record_failure("A", "x")
        policy.record_failure("A", "x")
        assert policy.begin_round() == ["B"]

    def test_last_failure_reason_recorded(self):
        policy = _policy()
        policy.record_failure("A", "slowdown_alert")
        assert policy.health_of("A").last_failure_reason == "slowdown_alert"


class TestHalfOpenProbes:
    def _opened(self) -> QuarantinePolicy:
        policy = _policy()
        policy.record_failure("A", "x")
        policy.record_failure("A", "x")
        return policy

    def test_cooldown_elapses_into_half_open(self):
        policy = self._opened()
        assert policy.begin_round() == ["B"]  # cooldown 2 -> 1
        admitted = policy.begin_round()  # cooldown 1 -> 0: probe
        assert admitted == ["B", "A"] or set(admitted) == {"A", "B"}
        assert policy.state_of("A") is CircuitState.HALF_OPEN
        assert policy.probes() == ["A"]

    def test_probe_successes_close_the_circuit(self):
        policy = self._opened()
        policy.begin_round()
        policy.begin_round()
        policy.record_success("A")
        assert policy.state_of("A") is CircuitState.HALF_OPEN  # needs 2
        policy.record_success("A")
        assert policy.state_of("A") is CircuitState.CLOSED

    def test_failed_probe_reopens_with_doubled_cooldown(self):
        policy = self._opened()
        policy.begin_round()
        policy.begin_round()
        policy.record_failure("A", "x")
        assert policy.state_of("A") is CircuitState.OPEN
        assert policy.health_of("A").current_cooldown == 4

    def test_cooldown_doubling_is_capped(self):
        policy = self._opened()
        for _ in range(5):  # repeatedly fail every probe
            while policy.state_of("A") is CircuitState.OPEN:
                policy.begin_round()
            policy.record_failure("A", "x")
        assert policy.health_of("A").current_cooldown == 8  # the cap

    def test_closing_resets_cooldown_progression(self):
        policy = self._opened()
        policy.begin_round()
        policy.begin_round()
        policy.record_success("A")
        policy.record_success("A")
        # Re-trip: cooldown restarts at the base value, not doubled.
        policy.record_failure("A", "x")
        policy.record_failure("A", "x")
        assert policy.health_of("A").current_cooldown == 2


class TestReputation:
    def test_reputation_tracks_outcomes(self):
        policy = _policy(reputation_alpha=0.5)
        assert policy.health_of("A").reputation == 1.0
        policy.record_failure("A", "x")
        assert policy.health_of("A").reputation == pytest.approx(0.5)
        policy.record_success("A")
        assert policy.health_of("A").reputation == pytest.approx(0.75)

    def test_low_reputation_blocks_readmission(self):
        policy = _policy(readmission_reputation=0.9, reputation_alpha=0.1)
        policy.record_failure("A", "x")
        policy.record_failure("A", "x")
        policy.begin_round()
        policy.begin_round()
        policy.record_success("A")
        policy.record_success("A")
        # Probes passed but the long-run record is still poor.
        assert policy.state_of("A") is CircuitState.HALF_OPEN
        while policy.health_of("A").reputation < 0.9:
            policy.record_success("A")
        assert policy.state_of("A") is CircuitState.CLOSED


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_rounds": 0},
            {"max_cooldown_rounds": 1, "cooldown_rounds": 2},
            {"probe_successes_required": 0},
            {"readmission_reputation": 1.5},
            {"reputation_alpha": 0.0},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QuarantinePolicy(**kwargs)

    def test_admit_is_idempotent(self):
        policy = QuarantinePolicy()
        policy.admit("A")
        policy.record_failure("A", "x")
        policy.admit("A")  # must not reset health
        assert policy.health_of("A").failures_total == 1

    def test_unknown_machine_raises(self):
        policy = QuarantinePolicy()
        with pytest.raises(KeyError):
            policy.state_of("ghost")
