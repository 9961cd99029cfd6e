"""Unit tests for proposing and applying actions (with undo)."""

from __future__ import annotations

import pytest

from repro.observability.instrumentation import instrumented
from repro.remediation import (
    ACTION_KINDS,
    RemediationAction,
    apply_action,
    post_apply_check,
    propose_actions,
    rollback_action,
)
from repro.remediation.incidents import Incident
from repro.resilience.quarantine import CircuitState

from tests.remediation.conftest import build_supervisor


def _slowdown(factor: float, machine: str = "m", round_index: int = 3) -> Incident:
    return Incident(
        kind="slowdown",
        round_index=round_index,
        machine=machine,
        evidence={"slowdown_factor": factor},
    )


class TestRemediationAction:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            RemediationAction(kind="reboot")

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError, match="factor"):
            RemediationAction(kind="reweight", machine="m", factor=0.0)

    def test_action_id_includes_round_kind_machine(self):
        action = RemediationAction(kind="readmit", machine="m2", round_index=5)
        assert action.action_id == "5:readmit:m2"
        round_level = RemediationAction(kind="void_round", round_index=5)
        assert round_level.action_id == "5:void_round:*"


class TestProposerPlaybook:
    def test_mild_slowdown_only_requarantines(self, supervisor):
        actions = propose_actions([_slowdown(1.1)], supervisor)
        assert [a.kind for a in actions] == ["requarantine"]

    def test_moderate_slowdown_adds_reweight(self, supervisor):
        actions = propose_actions([_slowdown(1.5)], supervisor)
        assert [a.kind for a in actions] == ["requarantine", "reweight"]
        reweight = actions[1]
        assert reweight.factor == pytest.approx(1.5)

    def test_severe_slowdown_also_sharpens_detector(self, supervisor):
        actions = propose_actions([_slowdown(3.0)], supervisor)
        assert [a.kind for a in actions] == [
            "requarantine",
            "reweight",
            "sharpen_detector",
        ]

    def test_unverified_report_requarantines(self, supervisor):
        incident = Incident(kind="unverified", round_index=2, machine="m1")
        actions = propose_actions([incident], supervisor)
        assert [a.kind for a in actions] == ["requarantine"]
        assert actions[0].machine == "m1"

    def test_trip_during_loss_spike_is_forgiven(self, supervisor):
        trip = Incident(
            kind="circuit_trip",
            round_index=4,
            machine="m0",
            evidence={"reason": "missed_bid"},
        )
        loss = Incident(kind="message_loss", round_index=4)
        actions = propose_actions([trip, loss], supervisor)
        assert [a.kind for a in actions] == ["reset_circuit"]

    def test_organic_trip_without_loss_is_left_alone(self, supervisor):
        trip = Incident(
            kind="circuit_trip",
            round_index=4,
            machine="m0",
            evidence={"reason": "slowdown_alert"},
        )
        assert propose_actions([trip], supervisor) == []

    def test_invariant_voids_the_round(self, supervisor):
        incident = Incident(kind="invariant", round_index=6)
        actions = propose_actions([incident], supervisor)
        assert [a.kind for a in actions] == ["void_round"]

    def test_opportunistic_readmit_needs_reputation_and_cooldown(self):
        supervisor = build_supervisor()
        name = supervisor.machine_names[0]
        quarantine = supervisor.quarantine
        quarantine.force_open(name, "test")
        health = quarantine.health_of(name)
        health.cooldown_remaining = 4
        health.reputation = 0.9  # clears the 0.6 bar
        trigger = Incident(kind="message_loss", round_index=5)
        actions = propose_actions([trigger], supervisor)
        assert [a.kind for a in actions] == ["readmit"]
        # Drop the reputation below the bar: no readmit any more.
        health.reputation = 0.2
        assert propose_actions([trigger], supervisor) == []

    def test_duplicate_incidents_propose_once(self, supervisor):
        actions = propose_actions(
            [_slowdown(1.1), _slowdown(1.1)], supervisor
        )
        assert len(actions) == 1


class TestApplierEffectsAndUndo:
    def _action(self, kind, supervisor, **kwargs):
        machine = kwargs.pop(
            "machine",
            None if kind in ("void_round", "sharpen_detector")
            else supervisor.machine_names[0],
        )
        return RemediationAction(kind=kind, machine=machine, **kwargs)

    def test_requarantine_opens_and_rolls_back(self, supervisor):
        name = supervisor.machine_names[0]
        undo = apply_action(supervisor, self._action("requarantine", supervisor))
        assert supervisor.quarantine.state_of(name) is CircuitState.OPEN
        rollback_action(supervisor, undo)
        assert supervisor.quarantine.state_of(name) is CircuitState.CLOSED
        assert supervisor.quarantine.health_of(name).times_opened == 0

    def test_readmit_moves_open_machine_to_probe(self, supervisor):
        name = supervisor.machine_names[0]
        supervisor.quarantine.force_open(name, "test")
        undo = apply_action(supervisor, self._action("readmit", supervisor))
        assert supervisor.quarantine.state_of(name) is CircuitState.HALF_OPEN
        rollback_action(supervisor, undo)
        assert supervisor.quarantine.state_of(name) is CircuitState.OPEN

    def test_reweight_overrides_and_restores_bid(self, supervisor):
        name = supervisor.machine_names[0]
        declared = supervisor.agents[name].bid()
        undo = apply_action(
            supervisor, self._action("reweight", supervisor, factor=2.0)
        )
        assert supervisor.bid_overrides[name] == pytest.approx(2.0 * declared)
        rollback_action(supervisor, undo)
        assert name not in supervisor.bid_overrides

    def test_sharpen_respects_the_floor(self, supervisor):
        before = supervisor.detector_threshold
        undo = apply_action(
            supervisor, self._action("sharpen_detector", supervisor, factor=0.75)
        )
        assert supervisor.detector_threshold == pytest.approx(0.75 * before)
        rollback_action(supervisor, undo)
        assert supervisor.detector_threshold == before
        # A pathological factor cannot push the threshold below 2.
        apply_action(
            supervisor,
            self._action("sharpen_detector", supervisor, factor=1e-6),
        )
        assert supervisor.detector_threshold >= 2.0

    def test_void_round_skips_exactly_one_round(self, supervisor):
        apply_action(supervisor, self._action("void_round", supervisor))
        assert supervisor.skip_rounds == 1
        voided = supervisor.run_round()
        assert voided.voided
        clean = supervisor.run_round()
        assert not clean.voided

    def test_apply_counts_track_at_most_once_evidence(self, supervisor):
        # Every apply is counted under its kind and hands back an undo
        # tagged with the action's id: a second apply of the same id shows.
        action = self._action("requarantine", supervisor)
        with instrumented() as instr:
            undos = [apply_action(supervisor, action) for _ in range(2)]
        counter = instr.metrics.counter(
            "remediation.actions_applied", kind="requarantine"
        )
        assert counter.value == 2.0
        assert [u.action_id for u in undos] == [action.action_id] * 2


class TestPostApplyCheck:
    def test_clean_supervisor_has_no_problems(self, supervisor):
        assert post_apply_check(supervisor) == []

    def test_flags_a_fleet_reduced_below_two(self):
        supervisor = build_supervisor(n_machines=2)
        supervisor.quarantine.force_open(supervisor.machine_names[0], "test")
        problems = post_apply_check(supervisor)
        assert any("remain admissible" in p for p in problems)

    def test_flags_override_below_declared(self, supervisor):
        name = supervisor.machine_names[0]
        supervisor.bid_overrides[name] = 0.5 * supervisor.agents[name].bid()
        problems = post_apply_check(supervisor)
        assert any("below its" in p for p in problems)

    def test_action_kinds_are_ordered_least_to_most_disruptive(self):
        assert ACTION_KINDS[0] == "readmit"
        assert ACTION_KINDS[-1] == "void_round"
