"""Detection, the first stage of remediation: signals → typed incidents.

The resilience layer already *produces* every signal a self-healing
loop needs — CUSUM slowdown alerts (``protocol/monitoring.py``),
circuit-breaker trips (``resilience/quarantine.py``), mechanism
invariant violations (``resilience/invariants.py``), and the retry
counters that spike when links drop messages (``protocol/faults.py``
via the supervisor's backoff loop).  What it lacks is a common shape:
each signal lives in a different object with different semantics.

An :class:`Incident` is that common shape: one typed, self-contained
record of *something went wrong in round k*, carrying enough evidence
(the verified execution estimate, the trip reason, the retry baseline)
for the proposer to choose a candidate action without reaching back
into live supervisor state.  The :class:`IncidentDetector` adapts one
:class:`~repro.resilience.RoundResult` per round into a list of
incidents; it is stateful only for the message-loss baseline (an EMA
of per-round retry counts, so a *spike* is judged against recent
history rather than an absolute constant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.observability.instrumentation import annotate, record_counter
from repro.resilience.invariants import InvariantViolation
from repro.resilience.quarantine import CircuitState, QuarantinePolicy
from repro.resilience.supervisor import RoundResult

__all__ = ["INCIDENT_KINDS", "Incident", "IncidentDetector"]

#: The incident taxonomy, in rough order of increasing gravity.
INCIDENT_KINDS = (
    "message_loss",
    "unverified",
    "slowdown",
    "circuit_trip",
    "invariant",
)

#: A round's retry count must exceed this multiple of the EMA baseline
#: to count as a message-loss spike ...
_LOSS_SPIKE_FACTOR = 3.0
#: ... and reach this absolute floor, so the first mildly lossy round
#: of a quiet campaign does not alarm.
_LOSS_SPIKE_MIN = 4
#: EMA weight of the newest round in the retry baseline.
_EMA_ALPHA = 0.3


@dataclass(frozen=True)
class Incident:
    """One detected anomaly in one supervised round.

    Attributes
    ----------
    kind:
        One of :data:`INCIDENT_KINDS`.
    round_index:
        The supervised round the evidence comes from.
    machine:
        The implicated machine, or ``None`` for round-level incidents
        (message-loss spikes, invariant violations).
    evidence:
        Kind-specific facts frozen at detection time (declared bid,
        verified estimate, trip reason, retry counts, ...).
    """

    kind: str
    round_index: int
    machine: str | None = None
    evidence: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in INCIDENT_KINDS:
            raise ValueError(f"kind must be one of {INCIDENT_KINDS}")

    def __str__(self) -> str:
        where = self.machine if self.machine is not None else "<round>"
        return f"[{self.kind}] round {self.round_index} {where}"


class IncidentDetector:
    """Adapt per-round resilience signals into typed incidents.

    Stateful only for the message-loss baseline: an EMA of per-round
    retry counts (weight ``_EMA_ALPHA`` on the newest round).  A round
    whose retries exceed ``_LOSS_SPIKE_FACTOR`` times that baseline, and
    at least ``_LOSS_SPIKE_MIN``, is a message-loss spike.
    """

    def __init__(self) -> None:
        self._retry_baseline = 0.0

    def scan(
        self,
        result: RoundResult,
        quarantine: QuarantinePolicy,
        violations: Sequence[InvariantViolation] = (),
    ) -> list[Incident]:
        """All incidents evidenced by one completed round."""
        incidents = _verified(result) + _circuit_trips(result, quarantine)
        incidents.extend(
            Incident(
                kind="invariant",
                round_index=result.index,
                evidence={"invariant": v.invariant, "detail": v.detail},
            )
            for v in violations
        )
        loss = self._message_loss(result)
        if loss is not None:
            incidents.append(loss)
        for incident in incidents:
            record_counter("remediation.incidents", kind=incident.kind)
            annotate(
                "remediation.incident",
                kind=incident.kind,
                machine=incident.machine or "<round>",
            )
        return incidents

    def _message_loss(self, result: RoundResult) -> Incident | None:
        """Retry spike vs the EMA baseline of recent rounds."""
        retries = result.bid_retries + result.report_retries
        baseline = self._retry_baseline
        self._retry_baseline += _EMA_ALPHA * (retries - self._retry_baseline)
        if retries < _LOSS_SPIKE_MIN:
            return None
        if retries <= _LOSS_SPIKE_FACTOR * max(baseline, 1.0):
            return None
        return Incident(
            kind="message_loss",
            round_index=result.index,
            evidence={
                "retries": retries,
                "baseline": baseline,
                "withheld": tuple(result.withheld),
                "excluded": tuple(result.excluded),
            },
        )


def _verified(result: RoundResult) -> list[Incident]:
    """Slowdowns and unverified reports, with the round's verified values.

    A CUSUM alert becomes a *slowdown* carrying the machine's verified
    execution estimate.  A machine that executed but withheld its
    completion report becomes *unverified*: the mechanism imputes its
    execution value (``missing_report_factor`` times the bid) and pays
    it nothing, but its *work* this round is unverifiable — the one
    condition the paper's mechanism cannot price.  One withheld round
    is a strong signal on its own, stronger than the generic
    missed-deadline failure streak the circuit breaker counts.
    """
    if result.outcome is None:
        return []
    order = list(result.loads)
    declared = dict(zip(order, result.outcome.allocation.bids))
    estimated = dict(zip(order, result.outcome.execution_values))
    incidents = []
    for name in result.alerts:
        bid = float(declared.get(name, 0.0))
        estimate = float(estimated.get(name, bid))
        incidents.append(
            Incident(
                kind="slowdown",
                round_index=result.index,
                machine=name,
                evidence={
                    "declared": bid,
                    "estimated": estimate,
                    "slowdown_factor": estimate / bid if bid > 0.0 else 1.0,
                },
            )
        )
    for name in result.withheld:
        incidents.append(
            Incident(
                kind="unverified",
                round_index=result.index,
                machine=name,
                evidence={
                    "declared": float(declared.get(name, 0.0)),
                    "imputed": float(estimated.get(name, 0.0)),
                },
            )
        )
    return incidents


def _circuit_trips(
    result: RoundResult, quarantine: QuarantinePolicy
) -> list[Incident]:
    """Participants whose circuit is open *after* this round.

    A machine that entered the round admitted and ends it OPEN tripped
    on this round's outcome — exactly the moment a remediation decision
    (back it with a reweight, or forgive a network-caused trip) is due.
    """
    incidents = []
    for name in result.participants:
        if quarantine.state_of(name) is not CircuitState.OPEN:
            continue
        health = quarantine.health_of(name)
        incidents.append(
            Incident(
                kind="circuit_trip",
                round_index=result.index,
                machine=name,
                evidence={
                    "reason": health.last_failure_reason or "unknown",
                    "reputation": health.reputation,
                    "times_opened": health.times_opened,
                    "cooldown": health.current_cooldown,
                },
            )
        )
    return incidents
