"""The closed loop: detect → propose → shadow-verify → apply.

:class:`RemediationPipeline` is the object a
:class:`~repro.resilience.RoundSupervisor` is constructed with
(``remediation=...``); the supervisor calls :meth:`process_round` after
every completed round, and whatever actions survive the full pipeline
mutate the supervisor *before the next round runs* — quarantining a
verified-slow machine immediately instead of after
``failure_threshold`` organic failures, re-pricing it at its verified
execution value so its readmission probes come back clean, forgiving
circuit trips caused by a lossy network, and voiding rounds outright
when an invariant breaks.

Every stage is instrumented (``remediation.{detect,propose,verify,
schedule}`` spans and per-stage counters) and every round's decisions
are kept in :attr:`RemediationPipeline.history`, so a post-incident
review can read exactly what the loop saw, proposed, predicted, and did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.observability.instrumentation import annotate, record_counter, trace_span
from repro.remediation.actions import (
    RemediationAction,
    apply_action,
    post_apply_check,
    propose_actions,
    rollback_action,
)
from repro.remediation.incidents import Incident, IncidentDetector
from repro.remediation.shadow import ShadowVerdict, ShadowVerifier
from repro.resilience.invariants import check_round_invariants

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.supervisor import RoundResult, RoundSupervisor

__all__ = ["RoundRemediation", "RemediationPipeline"]

#: Cap on actions *verified* per round; the excess (latest proposals
#: first) waits for re-detection.  Keeps a noisy round from flooding
#: the supervisor.
_MAX_ACTIONS_PER_ROUND = 4

#: Base risk per action kind: how invasive the mutation is.
_BASE_RISK = {
    "readmit": 0.2,
    "reset_circuit": 0.3,
    "sharpen_detector": 0.4,
    "reweight": 0.5,
    "requarantine": 0.6,
    "void_round": 1.0,
}


def _risk(action: RemediationAction, verdict: ShadowVerdict) -> float:
    """Risk of one accepted action; the pipeline applies lowest first.

    The base weight of the action's kind plus the shadow-predicted
    change in the verification gap: an action whose dry run *shrank*
    the gap scores below its base weight.
    """
    risk = _BASE_RISK.get(action.kind, 1.0)
    baseline = verdict.baseline_excess
    predicted = verdict.predicted_excess
    if predicted < float("inf") and baseline < float("inf"):
        risk += predicted - baseline
    return risk


@dataclass
class RoundRemediation:
    """What the pipeline saw and did for one supervised round."""

    round_index: int
    incidents: list[Incident] = field(default_factory=list)
    proposed: list[RemediationAction] = field(default_factory=list)
    verdicts: list[ShadowVerdict] = field(default_factory=list)
    applied: list[RemediationAction] = field(default_factory=list)
    rejected: list[RemediationAction] = field(default_factory=list)
    rolled_back: list[RemediationAction] = field(default_factory=list)

    @property
    def acted(self) -> bool:
        """Whether any action reached the live supervisor."""
        return bool(self.applied)


class RemediationPipeline:
    """Closed-loop auto-remediation for a :class:`RoundSupervisor`.

    ``seed`` is the base seed of the shadow verifier's forked RNG
    streams.  Stateless between rounds except for the detector's retry
    baseline and :attr:`history`, one :class:`RoundRemediation` per
    processed round.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self.detector = IncidentDetector()
        self.verifier = ShadowVerifier(seed=seed)
        self.history: list[RoundRemediation] = []

    def process_round(
        self, supervisor: "RoundSupervisor", result: "RoundResult"
    ) -> RoundRemediation:
        """Run the full pipeline on one completed round."""
        report = RoundRemediation(round_index=result.index)
        self.history.append(report)

        with trace_span("remediation.detect", index=result.index):
            violations = check_round_invariants(
                result, honest_names=supervisor.honest_names()
            )
            report.incidents = self.detector.scan(
                result, supervisor.quarantine, violations
            )
        if not report.incidents:
            return report

        with trace_span("remediation.propose", index=result.index):
            proposed = propose_actions(report.incidents, supervisor)
            dropped = len(proposed) - _MAX_ACTIONS_PER_ROUND
            if dropped > 0:
                record_counter("remediation.actions_deferred", dropped)
            report.proposed = proposed[:_MAX_ACTIONS_PER_ROUND]
        record_counter("remediation.actions_proposed", len(report.proposed))

        with trace_span("remediation.verify", index=result.index):
            report.verdicts = self.verifier.verify(
                supervisor, result, report.proposed
            )

        with trace_span("remediation.schedule", index=result.index):
            accepted = []
            for action, verdict in zip(report.proposed, report.verdicts):
                if verdict.accepted:
                    accepted.append((_risk(action, verdict), action))
                else:
                    record_counter("remediation.actions_rejected", kind=action.kind)
                    report.rejected.append(action)
            # Safest first; ``sorted`` is stable, so ties keep proposal order.
            for _, action in sorted(accepted, key=lambda pair: pair[0]):
                undo = apply_action(supervisor, action)
                problems = post_apply_check(supervisor)
                if problems:
                    rollback_action(supervisor, undo)
                    annotate(
                        "remediation.rolled_back",
                        action=action.action_id,
                        problems="; ".join(problems),
                    )
                else:
                    report.applied.append(action)
            report.rolled_back = [
                a for _, a in accepted if a not in report.applied
            ]
        return report
