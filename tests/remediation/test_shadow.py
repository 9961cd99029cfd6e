"""Unit tests for shadow verification: dry runs in a shadow world."""

from __future__ import annotations

import pytest

from repro.observability import instrumentation
from repro.observability.instrumentation import Instrumentation
from repro.remediation import RemediationAction, ShadowVerifier
from repro.resilience.quarantine import CircuitState

from tests.remediation.conftest import build_supervisor


def _requarantine(supervisor, machine=0, round_index=None):
    return RemediationAction(
        kind="requarantine",
        machine=supervisor.machine_names[machine],
        reason="test",
        round_index=round_index if round_index is not None else 0,
    )


class TestVerdicts:
    def test_requarantining_the_slow_machine_is_accepted(self, alert_round):
        supervisor, result = alert_round
        action = _requarantine(supervisor, round_index=result.index)
        (verdict,) = ShadowVerifier().verify(supervisor, result, [action])
        assert verdict.accepted
        # The evidence round really was degraded: the no-action shadow
        # carries a verification gap well above 1 ...
        assert verdict.baseline_excess > 1.2
        # ... and removing the liar shrinks it.  (It does not fully
        # close: the default 2-round horizon sees the quarantined
        # machine return as a still-slow probe in shadow round 2.)
        assert verdict.predicted_excess < verdict.baseline_excess

    def test_one_round_horizon_sees_the_gap_fully_close(
        self, alert_round, monkeypatch
    ):
        monkeypatch.setattr("repro.remediation.shadow._SHADOW_ROUNDS", 1)
        supervisor, result = alert_round
        action = _requarantine(supervisor, round_index=result.index)
        (verdict,) = ShadowVerifier().verify(supervisor, result, [action])
        assert verdict.accepted
        assert verdict.predicted_excess == pytest.approx(1.0, abs=0.01)

    def test_healthy_round_has_unit_baseline(self, supervisor):
        result = supervisor.run_round()
        action = _requarantine(supervisor, round_index=result.index)
        (verdict,) = ShadowVerifier().verify(supervisor, result, [action])
        assert verdict.baseline_excess == pytest.approx(1.0, abs=0.05)

    def test_action_that_starves_the_fleet_is_rejected(self, monkeypatch):
        # Requarantining one of two machines voids the next shadow
        # round outright; a 1-round horizon therefore predicts an
        # infinite gap and rejects.  (The longer default horizon sees
        # the probe return and accepts — live application would still
        # be stopped by the post-apply check.)
        monkeypatch.setattr("repro.remediation.shadow._SHADOW_ROUNDS", 1)
        supervisor = build_supervisor(n_machines=2)
        result = supervisor.run_round()
        action = _requarantine(supervisor, round_index=result.index)
        (verdict,) = ShadowVerifier().verify(supervisor, result, [action])
        assert not verdict.accepted
        assert verdict.predicted_excess == float("inf")
        # The rejection never reached the live supervisor.
        assert (
            supervisor.quarantine.state_of(supervisor.machine_names[0])
            is CircuitState.CLOSED
        )

    def test_void_round_is_judged_on_invariants_alone(self, alert_round):
        supervisor, result = alert_round
        action = RemediationAction(
            kind="void_round", reason="test", round_index=result.index
        )
        (verdict,) = ShadowVerifier().verify(supervisor, result, [action])
        assert verdict.accepted
        assert "invariant" in verdict.reason

    def test_verdicts_follow_proposal_order(self, alert_round):
        supervisor, result = alert_round
        actions = [
            _requarantine(supervisor, round_index=result.index),
            RemediationAction(
                kind="sharpen_detector", factor=0.75, round_index=result.index
            ),
        ]
        verdicts = ShadowVerifier().verify(supervisor, result, actions)
        assert [v.action_id for v in verdicts] == [a.action_id for a in actions]

    def test_no_actions_no_dry_runs(self, supervisor):
        result = supervisor.run_round()
        assert ShadowVerifier().verify(supervisor, result, []) == []


class TestIsolation:
    def test_dry_run_leaves_live_state_untouched(self, alert_round):
        supervisor, result = alert_round
        states_before = {
            n: supervisor.quarantine.state_of(n)
            for n in supervisor.machine_names
        }
        overrides_before = dict(supervisor.bid_overrides)
        threshold_before = supervisor.detector_threshold
        skip_before = supervisor.skip_rounds

        actions = [
            _requarantine(supervisor, round_index=result.index),
            RemediationAction(
                kind="reweight",
                machine=supervisor.machine_names[0],
                factor=3.0,
                round_index=result.index,
            ),
            RemediationAction(kind="void_round", round_index=result.index),
        ]
        ShadowVerifier().verify(supervisor, result, actions)

        assert {
            n: supervisor.quarantine.state_of(n)
            for n in supervisor.machine_names
        } == states_before
        assert supervisor.bid_overrides == overrides_before
        assert supervisor.detector_threshold == threshold_before
        assert supervisor.skip_rounds == skip_before

    def test_dry_run_emits_no_metrics(self, alert_round):
        supervisor, result = alert_round
        action = _requarantine(supervisor, round_index=result.index)
        inst = Instrumentation()
        previous = instrumentation.enable(inst)
        try:
            before = inst.metrics.snapshot()
            ShadowVerifier().verify(supervisor, result, [action])
            assert inst.metrics.snapshot() == before
        finally:
            instrumentation.disable()
            if previous is not None:
                instrumentation.enable(previous)

    def test_verification_is_deterministic(self, alert_round):
        supervisor, result = alert_round
        action = _requarantine(supervisor, round_index=result.index)
        first = ShadowVerifier(seed=42).verify(supervisor, result, [action])
        second = ShadowVerifier(seed=42).verify(supervisor, result, [action])
        assert first == second
