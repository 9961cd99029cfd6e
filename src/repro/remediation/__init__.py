"""Closed-loop auto-remediation: detect → propose → verify → apply.

The resilience layer (:mod:`repro.resilience`) lets the mechanism
*survive* faults; this package makes it *repair* them.  After every
completed supervised round, :class:`RemediationPipeline` runs one loop:

1. :class:`IncidentDetector` adapts existing signals — CUSUM slowdown
   alerts, withheld reports, circuit trips, invariant violations,
   message-loss spikes — into typed :class:`Incident` records;
2. :func:`propose_actions` maps incidents to candidate
   :class:`RemediationAction`\\ s (requarantine, early readmit, circuit
   reset, bid reweight, detector sharpening, round void), at most four
   per round;
3. :class:`ShadowVerifier` dry-runs each candidate against a forked,
   batched shadow simulation and rejects anything that breaks an
   invariant or worsens the predicted verification gap;
4. the accepted actions are applied in ascending risk order, each
   followed by a post-apply check that rolls it back if it fails.

Each round's incidents, proposals, verdicts and applied, rejected and
rolled-back actions are appended to ``RemediationPipeline.history`` as
one :class:`RoundRemediation`.

Wire it up with ``RoundSupervisor(..., remediation=RemediationPipeline())``;
measure what it buys with :func:`measure_mttr` (benchmark A23).
"""

from repro.remediation.actions import (
    ACTION_KINDS,
    ActionUndo,
    RemediationAction,
    apply_action,
    post_apply_check,
    propose_actions,
    rollback_action,
)
from repro.remediation.incidents import INCIDENT_KINDS, Incident, IncidentDetector
from repro.remediation.mttr import (
    DegradationScenario,
    MTTRComparison,
    ScenarioRun,
    default_scenarios,
    measure_mttr,
    run_scenario,
    scenario_fault_plan,
)
from repro.remediation.pipeline import RemediationPipeline, RoundRemediation
from repro.remediation.shadow import ShadowVerdict, ShadowVerifier

__all__ = [
    "ACTION_KINDS",
    "INCIDENT_KINDS",
    "ActionUndo",
    "DegradationScenario",
    "Incident",
    "IncidentDetector",
    "MTTRComparison",
    "RemediationAction",
    "RemediationPipeline",
    "RoundRemediation",
    "ScenarioRun",
    "ShadowVerdict",
    "ShadowVerifier",
    "apply_action",
    "default_scenarios",
    "measure_mttr",
    "post_apply_check",
    "propose_actions",
    "rollback_action",
    "run_scenario",
    "scenario_fault_plan",
]
