"""Closed-loop tests: the full pipeline wired into a supervisor."""

from __future__ import annotations

import pytest

from repro.remediation import (
    Incident,
    RemediationAction,
    RemediationPipeline,
    ShadowVerdict,
    default_scenarios,
    measure_mttr,
    run_scenario,
    scenario_fault_plan,
)
from repro.remediation.pipeline import _BASE_RISK, _risk
from repro.resilience.chaos import ChaosHarness
from repro.resilience.quarantine import CircuitState

from tests.remediation.conftest import build_supervisor, slow_round


def _verdict(action, predicted=1.0, baseline=1.5, accepted=True):
    return ShadowVerdict(
        action_id=action.action_id,
        accepted=accepted,
        reason="test verdict",
        predicted_excess=predicted,
        baseline_excess=baseline,
    )


def _stub_round(monkeypatch, pipeline, supervisor, gaps):
    """One round in which machine 0 is reported 3x slow.

    The detector and the shadow verifier are stubbed, so the round
    proposes requarantine, reweight and sharpen_detector (in that order)
    and each action's verdict comes from ``gaps``: kind -> (predicted,
    baseline) gaps, or ``None`` to reject.
    """
    incident = Incident(
        kind="slowdown",
        round_index=0,
        machine=supervisor.machine_names[0],
        evidence={"slowdown_factor": 3.0},
    )
    monkeypatch.setattr(pipeline.detector, "scan", lambda *args: [incident])

    def verify(supervisor, result, actions):
        return [
            _verdict(a, *gaps[a.kind])
            if gaps[a.kind] is not None
            else _verdict(a, 2.0, 1.0, accepted=False)
            for a in actions
        ]

    monkeypatch.setattr(pipeline.verifier, "verify", verify)
    supervisor.run_round()
    return pipeline.history[-1]


class TestRisk:
    def test_base_order_tracks_invasiveness(self):
        kinds = ["readmit", "reset_circuit", "sharpen_detector", "reweight",
                 "requarantine", "void_round"]
        weights = [_BASE_RISK[k] for k in kinds]
        assert weights == sorted(weights)

    def test_gap_improvement_lowers_risk(self):
        action = RemediationAction(kind="requarantine", machine="m")
        improving = _verdict(action, predicted=1.0, baseline=1.6)
        neutral = _verdict(action, predicted=1.6, baseline=1.6)
        assert _risk(action, improving) < _risk(action, neutral)

    def test_infinite_gaps_fall_back_to_base_weight(self):
        action = RemediationAction(kind="requarantine", machine="m")
        verdict = _verdict(action, predicted=float("inf"))
        assert _risk(action, verdict) == _BASE_RISK["requarantine"]


class TestRiskOrderedApply:
    def test_drains_in_ascending_risk_order(self, monkeypatch):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        flat = (1.5, 1.5)
        report = _stub_round(
            monkeypatch,
            pipeline,
            supervisor,
            {"requarantine": flat, "reweight": flat, "sharpen_detector": flat},
        )
        assert [a.kind for a in report.proposed] == [
            "requarantine",
            "reweight",
            "sharpen_detector",
        ]
        assert [a.kind for a in report.applied] == [
            "sharpen_detector",
            "reweight",
            "requarantine",
        ]
        assert report.rejected == [] and report.rolled_back == []

    def test_ties_keep_proposal_order(self, monkeypatch):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        gaps = {
            "requarantine": (0.9, 1.0),  # 0.6 - 0.1: ties the reweight
            "reweight": (1.5, 1.5),
            "sharpen_detector": (1.5, 1.5),
        }
        requarantine = RemediationAction(kind="requarantine", machine="m")
        reweight = RemediationAction(kind="reweight", machine="m")
        assert _risk(requarantine, _verdict(requarantine, *gaps["requarantine"])) == (
            _risk(reweight, _verdict(reweight, *gaps["reweight"]))
        )
        report = _stub_round(monkeypatch, pipeline, supervisor, gaps)
        assert [a.kind for a in report.applied] == [
            "sharpen_detector",
            "requarantine",
            "reweight",
        ]

    def test_rejected_actions_are_never_applied(self, monkeypatch):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        flat = (1.5, 1.5)
        report = _stub_round(
            monkeypatch,
            pipeline,
            supervisor,
            {"requarantine": None, "reweight": flat, "sharpen_detector": flat},
        )
        assert [a.kind for a in report.rejected] == ["requarantine"]
        assert [a.kind for a in report.applied] == ["sharpen_detector", "reweight"]
        assert report.rolled_back == []
        name = supervisor.machine_names[0]
        assert supervisor.quarantine.state_of(name) is CircuitState.CLOSED

    def test_failed_post_apply_check_rolls_back(self, monkeypatch):
        # Quarantining one machine of a 2-fleet passes application but
        # fails the post-apply check; the mutation must be undone.
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(n_machines=2, remediation=pipeline)
        flat = (1.5, 1.5)
        report = _stub_round(
            monkeypatch,
            pipeline,
            supervisor,
            {"requarantine": flat, "reweight": flat, "sharpen_detector": flat},
        )
        assert [a.kind for a in report.rolled_back] == ["requarantine"]
        assert [a.kind for a in report.applied] == ["sharpen_detector", "reweight"]
        name = supervisor.machine_names[0]
        assert supervisor.quarantine.state_of(name) is CircuitState.CLOSED


class TestClosedLoop:
    def test_slowdown_is_quarantined_within_one_round(self):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        target = supervisor.machine_names[0]
        slow_round(supervisor)
        # One alert round is enough: the pipeline requarantined the
        # machine without waiting for failure_threshold organic trips.
        assert supervisor.quarantine.state_of(target) is CircuitState.OPEN
        report = pipeline.history[-1]
        assert report.acted
        assert {a.kind for a in report.applied} >= {"requarantine"}
        # The very next round runs clean on the remaining machines.
        result = supervisor.run_round()
        assert not result.voided
        gap = result.outcome.realised_latency / result.outcome.allocation.total_latency
        assert gap == pytest.approx(1.0, abs=0.05)

    def test_healthy_rounds_produce_no_pipeline_activity(self):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        for _ in range(3):
            supervisor.run_round()
        assert len(pipeline.history) == 3
        assert all(not h.incidents for h in pipeline.history)
        assert all(not h.acted for h in pipeline.history)

    def test_wal_ordering_for_every_applied_action(self):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        for _ in range(2):
            slow_round(supervisor)
        applied_ids = [
            a.action_id for h in pipeline.history for a in h.applied
        ]
        assert applied_ids
        # Each applied action was proposed and accepted by the shadow
        # verifier in the round that applied it, and applied only once.
        for h in pipeline.history:
            proposed = {a.action_id for a in h.proposed}
            accepted = {v.action_id for v in h.verdicts if v.accepted}
            for action in h.applied:
                assert action.action_id in proposed
                assert action.action_id in accepted
        assert len(applied_ids) == len(set(applied_ids))

    @pytest.mark.parametrize(
        "scenario", default_scenarios(), ids=lambda scenario: scenario.name
    )
    def test_no_action_applied_twice(self, scenario):
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(
            scenario.n_machines, remediation=pipeline
        )
        plan = scenario_fault_plan(scenario, supervisor.machine_names)
        ChaosHarness(supervisor, plan, stop_on_violation=False).run()
        applied = [a.action_id for h in pipeline.history for a in h.applied]
        assert applied
        assert len(applied) == len(set(applied))
        for h in pipeline.history:
            accepted = {v.action_id for v in h.verdicts if v.accepted}
            assert {a.action_id for a in h.applied} <= accepted

    def test_max_actions_per_round_caps_the_queue(self, monkeypatch):
        monkeypatch.setattr("repro.remediation.pipeline._MAX_ACTIONS_PER_ROUND", 1)
        pipeline = RemediationPipeline()
        supervisor = build_supervisor(remediation=pipeline)
        slow_round(supervisor)  # would propose 3 actions uncapped
        report = pipeline.history[-1]
        assert len(report.proposed) == 1
        assert len(report.applied) <= 1


class TestScenarioSuite:
    def test_fault_plan_covers_exactly_the_fault_window(self):
        scenario = default_scenarios()[0]
        plan = scenario_fault_plan(scenario, [f"m{i}" for i in range(4)])
        faulted = [
            index
            for index, round_faults in enumerate(plan.rounds)
            if round_faults.machine_faults
        ]
        assert faulted == list(
            range(scenario.onset, scenario.onset + scenario.fault_rounds)
        )

    def test_unknown_fault_kind_is_rejected(self):
        scenario = default_scenarios()[0]
        bad = type(scenario)(name="bad", fault_kind="meteor-strike")
        with pytest.raises(ValueError, match="fault kind"):
            scenario_fault_plan(bad, ["m0", "m1", "m2", "m3"])

    def test_remediation_beats_organic_recovery(self):
        scenario = default_scenarios()[0]  # creeping-slowdown
        on = run_scenario(scenario, remediation=True, seed=0)
        off = run_scenario(scenario, remediation=False, seed=0)
        assert on.recovered and off.recovered
        assert on.mttr_rounds < off.mttr_rounds
        assert on.violations == 0
        assert off.violations == 0
        assert on.actions_applied > 0

    def test_measure_mttr_meets_the_acceptance_gate(self):
        comparison = measure_mttr(default_scenarios()[:2], seed=0)
        assert comparison.improvement >= 2.0
        assert comparison.violations_from_actions == 0
