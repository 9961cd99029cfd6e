"""Remediation actions: propose candidates, apply them, roll them back.

:func:`propose_actions` maps each :class:`~repro.remediation.Incident`
to candidate :class:`RemediationAction`\\ s — *candidates* because
nothing here touches live state: every proposal must first survive the
shadow verifier (:mod:`repro.remediation.shadow`) before the pipeline
applies it with :func:`apply_action`, checks the result with
:func:`post_apply_check` and, if that fails, undoes it with
:func:`rollback_action`.

The action vocabulary is deliberately small and incentive-safe: each
action adjusts *supervision* state (circuit breakers, effective
declared values, detector calibration, round gating), never the
mechanism's pricing rule itself — so the paper's payment and
truthfulness structure is untouched by any remediation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.observability.instrumentation import annotate, record_counter
from repro.remediation.incidents import Incident
from repro.resilience.quarantine import CircuitState, MachineHealth

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.supervisor import RoundSupervisor

__all__ = [
    "ACTION_KINDS",
    "RemediationAction",
    "ActionUndo",
    "propose_actions",
    "apply_action",
    "rollback_action",
    "post_apply_check",
]

#: Everything the pipeline knows how to do, least to most disruptive.
ACTION_KINDS = (
    "readmit",
    "reset_circuit",
    "sharpen_detector",
    "reweight",
    "requarantine",
    "void_round",
)

#: Minimum verified-vs-declared slowdown factor before a reweight is
#: worth proposing: tiny estimation noise should not rewrite bids.
_REWEIGHT_MIN_FACTOR = 1.25

#: Slowdown factor above which a slowdown incident also sharpens the
#: CUSUM detector (the machine blew far past its declaration, so the
#: current threshold is too lenient).
_SEVERE_SLOWDOWN = 2.0

#: Cooldown rounds a quarantined machine must still have left for an
#: early readmit to be worth proposing (below it, it probes anyway).
_READMIT_MIN_COOLDOWN = 2

#: Multiplier applied to ``detector_threshold`` by sharpen_detector,
#: and the floor it will never cross.
_SHARPEN_RATIO = 0.75
_THRESHOLD_FLOOR = 2.0


@dataclass(frozen=True)
class RemediationAction:
    """One candidate repair, fully described by plain values.

    Attributes
    ----------
    kind:
        One of :data:`ACTION_KINDS`.
    machine:
        Target machine, or ``None`` for round-level actions
        (``void_round``, ``sharpen_detector``).
    factor:
        Kind-specific magnitude: the verified/declared slowdown ratio
        for ``reweight``, the threshold multiplier for
        ``sharpen_detector``; unused (1.0) otherwise.
    reason:
        Human-readable justification.
    round_index:
        The round whose evidence motivated this action; part of the
        identity, so re-detecting the same problem in a later round
        proposes a *new* action rather than repeating an old one.
    """

    kind: str
    machine: str | None = None
    factor: float = 1.0
    reason: str = ""
    round_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise ValueError(f"kind must be one of {ACTION_KINDS}")
        if self.factor <= 0.0:
            raise ValueError("factor must be positive")

    @property
    def action_id(self) -> str:
        """Stable identity: round, kind and machine."""
        return f"{self.round_index}:{self.kind}:{self.machine or '*'}"

    def __str__(self) -> str:
        return f"{self.kind}({self.machine or '*'}) [{self.reason}]"


def propose_actions(
    incidents: Sequence[Incident], supervisor: "RoundSupervisor"
) -> list[RemediationAction]:
    """Candidate actions for one round's incidents, deduplicated.

    The mapping encodes the repair playbook:

    * **slowdown** — quarantine the machine immediately (don't wait for
      ``failure_threshold`` organic trips) and *reweight* it: record
      its verified execution estimate as its effective declared value,
      so if it is readmitted later it is priced at what it actually
      does.  Severe slowdowns additionally sharpen the detector.
    * **unverified** — a machine that executed but withheld its report
      is quarantined at once: unverifiable work is the one thing the
      paper's mechanism cannot price.
    * **circuit_trip** whose reason is a missed deadline, co-occurring
      with a message-loss spike — forgive it (``reset_circuit``): the
      network, not the machine, likely ate the messages.  A
      message-loss incident acts only through this forgiveness.
    * **invariant** — the emergency brake: void the next round while
      state is suspect.
    * Opportunistic **readmit** — a quarantined machine whose
      reputation already clears the readmission bar is offered an early
      probe instead of idling out its cooldown.
    """
    actions: list[RemediationAction] = []
    loss_round = any(i.kind == "message_loss" for i in incidents)
    for incident in incidents:
        if incident.kind == "slowdown":
            actions.extend(_for_slowdown(incident))
        elif incident.kind == "unverified":
            actions.append(
                RemediationAction(
                    kind="requarantine",
                    machine=incident.machine,
                    reason="withheld completion report: work unverifiable",
                    round_index=incident.round_index,
                )
            )
        elif incident.kind == "circuit_trip":
            reason = str(incident.evidence.get("reason", ""))
            # Organic trips are already handled by the circuit itself.
            if loss_round and reason in ("missed_bid", "missed_report"):
                actions.append(
                    RemediationAction(
                        kind="reset_circuit",
                        machine=incident.machine,
                        reason=f"trip ({reason}) during a message-loss spike",
                        round_index=incident.round_index,
                    )
                )
        elif incident.kind == "invariant":
            actions.append(
                RemediationAction(
                    kind="void_round",
                    reason=f"invariant broken: {incident.evidence.get('invariant')}",
                    round_index=incident.round_index,
                )
            )
    if incidents:
        actions.extend(_readmits(incidents[0].round_index, supervisor))
    unique: dict[str, RemediationAction] = {}
    for action in actions:
        unique.setdefault(action.action_id, action)
    return list(unique.values())


def _for_slowdown(incident: Incident) -> list[RemediationAction]:
    machine = incident.machine
    factor = float(incident.evidence.get("slowdown_factor", 1.0))
    actions = [
        RemediationAction(
            kind="requarantine",
            machine=machine,
            reason=f"CUSUM alert, verified {factor:.2f}x declared",
            round_index=incident.round_index,
        )
    ]
    if factor >= _REWEIGHT_MIN_FACTOR:
        actions.append(
            RemediationAction(
                kind="reweight",
                machine=machine,
                factor=factor,
                reason=f"re-estimate declared value at {factor:.2f}x bid",
                round_index=incident.round_index,
            )
        )
    if factor >= _SEVERE_SLOWDOWN:
        actions.append(
            RemediationAction(
                kind="sharpen_detector",
                factor=_SHARPEN_RATIO,
                reason=f"severe slowdown ({factor:.2f}x) evaded early detection",
                round_index=incident.round_index,
            )
        )
    return actions


def _readmits(
    round_index: int, supervisor: "RoundSupervisor"
) -> list[RemediationAction]:
    quarantine = supervisor.quarantine
    actions = []
    for name in quarantine.quarantined():
        health = quarantine.health_of(name)
        if health.cooldown_remaining < _READMIT_MIN_COOLDOWN:
            continue  # about to probe organically anyway
        if health.reputation < quarantine.readmission_reputation:
            continue
        actions.append(
            RemediationAction(
                kind="readmit",
                machine=name,
                reason=(
                    f"reputation {health.reputation:.2f} clears the bar with "
                    f"{health.cooldown_remaining} cooldown rounds left"
                ),
                round_index=round_index,
            )
        )
    return actions


@dataclass
class ActionUndo:
    """Everything needed to roll one applied action back."""

    action_id: str
    health: dict[str, MachineHealth] = field(default_factory=dict)
    bid_overrides: dict[str, float | None] = field(default_factory=dict)
    detector_threshold: float | None = None
    skip_rounds: int | None = None


def apply_action(
    supervisor: "RoundSupervisor", action: RemediationAction
) -> ActionUndo:
    """Apply one verified action to the supervisor; return its undo."""
    record_counter("remediation.actions_applied", kind=action.kind)
    annotate(
        "remediation.apply",
        kind=action.kind,
        machine=action.machine or "<round>",
        reason=action.reason,
    )
    undo = ActionUndo(action_id=action.action_id)
    quarantine = supervisor.quarantine
    machine = action.machine
    if machine is not None:
        undo.health[machine] = quarantine.snapshot_health(machine)

    if action.kind == "requarantine":
        assert machine is not None
        quarantine.force_open(machine, reason=f"remediation: {action.reason}")
    elif action.kind == "readmit":
        assert machine is not None
        quarantine.force_probe(machine)
    elif action.kind == "reset_circuit":
        assert machine is not None
        quarantine.reset(machine)
    elif action.kind == "reweight":
        assert machine is not None
        undo.bid_overrides[machine] = supervisor.bid_overrides.get(machine)
        declared = supervisor.agents[machine].bid()
        supervisor.bid_overrides[machine] = action.factor * declared
    elif action.kind == "sharpen_detector":
        undo.detector_threshold = supervisor.detector_threshold
        supervisor.detector_threshold = max(
            _THRESHOLD_FLOOR, action.factor * supervisor.detector_threshold
        )
    elif action.kind == "void_round":
        undo.skip_rounds = supervisor.skip_rounds
        supervisor.skip_rounds += 1
    return undo


def rollback_action(supervisor: "RoundSupervisor", undo: ActionUndo) -> None:
    """Restore the state captured by :func:`apply_action`."""
    record_counter("remediation.actions_rolled_back")
    for name, saved in undo.health.items():
        supervisor.quarantine.restore_health(name, saved)
    for name, prior in undo.bid_overrides.items():
        if prior is None:
            supervisor.bid_overrides.pop(name, None)
        else:
            supervisor.bid_overrides[name] = prior
    if undo.detector_threshold is not None:
        supervisor.detector_threshold = undo.detector_threshold
    if undo.skip_rounds is not None:
        supervisor.skip_rounds = undo.skip_rounds


def post_apply_check(supervisor: "RoundSupervisor") -> list[str]:
    """Problems with the supervisor's state after an apply (or [])."""
    problems: list[str] = []
    if supervisor.detector_threshold <= 0.0:
        problems.append("detector threshold is non-positive")
    for name, override in supervisor.bid_overrides.items():
        declared = supervisor.agents[name].bid()
        if override < declared:
            problems.append(
                f"override for {name} ({override:g}) is below its "
                f"declared bid ({declared:g})"
            )
    live = [
        n
        for n in supervisor.machine_names
        if supervisor.quarantine.state_of(n) is not CircuitState.OPEN
    ]
    if len(live) < 2:
        problems.append(f"only {len(live)} machine(s) would remain admissible")
    return problems
