"""Shadow verification, the third stage of remediation: dry runs.

Before any proposed action touches live state, it is replayed against a
**shadow world**: a throwaway :class:`~repro.resilience.RoundSupervisor`
reconstructed from the evidence round — each machine modelled as a
fixed agent that declares its recorded bid and executes at its
*verified* estimate (the mechanism's own world model, per the paper's
verification step).  The shadow supervisor runs the batched execution
engine on a forked RNG, so a dry run is fast, deterministic, and
perfectly isolated: no live circuit breaker, ledger, or metric moves.

An action is **rejected** when its shadow world either

* breaks a mechanism invariant (feasibility, at-most-once payment,
  ledger consistency, voluntary participation), or
* predicts a worse **verification gap** than the *no-action* shadow
  baseline, by more than 5%.

The verification gap is the realised total latency divided by the
latency the allocation *promised* given the declared bids
(``Σ t̂_i x_i² / Σ b_i x_i²``): exactly 1 when every machine executes
as declared, inflated when someone underperforms.  Judging actions on
the gap rather than on raw latency is deliberate — quarantining a
degraded machine concentrates load and *raises* short-term latency,
yet it restores the property the paper's mechanism actually needs:
that the mechanism's world model matches reality.  This is the
"first, do no harm" contract of the apply step: every action the
pipeline applies has already demonstrated, in simulation, that it does not make
the system less truthful or less sound.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.agents.base import Agent
from repro.observability import instrumentation
from repro.remediation.actions import RemediationAction, apply_action
from repro.resilience.invariants import InvariantViolation, check_round_invariants

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.supervisor import RoundResult, RoundSupervisor

__all__ = ["ShadowVerdict", "ShadowVerifier"]

#: Shadow rounds simulated per dry run.
_SHADOW_ROUNDS = 2

#: Relative slack on the predicted verification gap vs the no-action
#: baseline before an action is rejected.
_LATENCY_TOLERANCE = 0.05


class _FixedAgent(Agent):
    """A deterministic stand-in for one machine in the shadow world.

    Declares ``bid`` and executes at ``execution``, both frozen at the
    values observed (declared) and verified (estimated) in the evidence
    round.  Its true value is ``min(bid, execution)`` — the least
    capable the machine could be while producing what we observed —
    which keeps the ``execution >= true_value`` capacity constraint
    satisfiable for any observed pair.
    """

    def __init__(self, bid: float, execution: float) -> None:
        super().__init__(min(bid, execution))
        self._bid = float(bid)
        self._execution = self._check_execution(float(execution))

    def bid(self) -> float:
        return self._bid

    def execution_value(self) -> float:
        return self._execution


@dataclass(frozen=True)
class ShadowVerdict:
    """The dry-run verifier's decision on one proposed action.

    ``predicted_excess`` and ``baseline_excess`` are verification gaps
    (realised latency / allocation-promised latency, ≥ 1 when machines
    underperform their declarations) of the with-action and no-action
    shadow worlds respectively.
    """

    action_id: str
    accepted: bool
    reason: str
    predicted_excess: float
    baseline_excess: float
    violations: tuple[InvariantViolation, ...] = ()

    def __str__(self) -> str:
        word = "accept" if self.accepted else "reject"
        return f"{word} {self.action_id}: {self.reason}"


class ShadowVerifier:
    """Replay proposed actions against a shadow batched simulation.

    Each dry run simulates ``_SHADOW_ROUNDS`` rounds: the first reflects
    the action's immediate effect (e.g. a requarantined machine sitting
    out), the second its knock-on effects (probes, reweighted pricing).
    ``seed`` is the base seed; each evidence round forks its own child
    stream, so verification is reproducible but decorrelated across
    rounds.
    """

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = int(seed)

    # ------------------------------------------------------------ verify

    def verify(
        self,
        supervisor: "RoundSupervisor",
        result: "RoundResult",
        actions: Sequence[RemediationAction],
    ) -> list[ShadowVerdict]:
        """One verdict per proposed action, in proposal order."""
        if not actions:
            return []
        baseline, baseline_violations = self._dry_run(supervisor, result, None)
        known = {b.invariant for b in baseline_violations}
        verdicts = []
        for action in actions:
            predicted, violations = self._dry_run(supervisor, result, action)
            fresh = tuple(v for v in violations if v.invariant not in known)
            if fresh:
                accepted, reason = False, f"shadow run broke invariants: {fresh[0]}"
            elif action.kind == "void_round":
                # Voiding trades a round of throughput for safety; it is
                # judged on invariants alone, never on latency.
                accepted = True
                reason = "emergency void keeps the shadow world invariant-clean"
            elif np.isfinite(baseline) and predicted > baseline * (
                1.0 + _LATENCY_TOLERANCE
            ):
                accepted = False
                reason = (
                    f"predicted verification gap {predicted:.4g} exceeds "
                    f"baseline {baseline:.4g} by more than "
                    f"{_LATENCY_TOLERANCE:.0%}"
                )
            else:
                accepted = True
                reason = f"predicted verification gap {predicted:.4g} within budget"
            verdicts.append(
                ShadowVerdict(
                    action_id=action.action_id,
                    accepted=accepted,
                    reason=reason,
                    predicted_excess=predicted,
                    baseline_excess=baseline,
                    violations=fresh,
                )
            )
        return verdicts

    # ----------------------------------------------------------- dry run

    def _dry_run(
        self,
        supervisor: "RoundSupervisor",
        result: "RoundResult",
        action: RemediationAction | None,
    ) -> tuple[float, tuple[InvariantViolation, ...]]:
        """(mean verification gap, invariant violations) of one shadow.

        Instrumentation is suspended for the duration: a dry run must
        not bump live counters, open spans, or move gauges — observable
        side effects would make the verifier itself a source of noise.
        """
        shadow = self._fork(supervisor, result)
        previous = instrumentation.disable()
        try:
            if action is not None:
                apply_action(shadow, action)
            gaps: list[float] = []
            violations: list[InvariantViolation] = []
            for _ in range(_SHADOW_ROUNDS):
                shadow_result = shadow.run_round()
                violations.extend(
                    check_round_invariants(
                        shadow_result,
                        honest_names=self._shadow_honest_names(shadow),
                    )
                )
                if shadow_result.voided or shadow_result.outcome is None:
                    continue
                promised = float(shadow_result.outcome.allocation.total_latency)
                realised = float(shadow_result.outcome.realised_latency)
                if promised > 0.0:
                    gaps.append(realised / promised)
        finally:
            if previous is not None:
                instrumentation.enable(previous)
        predicted = float(np.mean(gaps)) if gaps else float("inf")
        return predicted, tuple(violations)

    def _fork(
        self, supervisor: "RoundSupervisor", result: "RoundResult"
    ) -> "RoundSupervisor":
        """A shadow supervisor mirroring the live one's observable state."""
        from repro.resilience.supervisor import RoundSupervisor

        names = supervisor.machine_names
        declared, estimated = self._world_model(supervisor, result)
        agents = [_FixedAgent(declared[n], estimated[n]) for n in names]
        shadow = RoundSupervisor(
            agents,
            supervisor.arrival_rate,
            mechanism=supervisor.mechanism,
            quarantine=copy.deepcopy(supervisor.quarantine),
            max_bid_attempts=supervisor.max_bid_attempts,
            max_report_attempts=supervisor.max_report_attempts,
            duration=supervisor.duration,
            detector_threshold=supervisor.detector_threshold,
            detector_slack=supervisor.detector_slack,
            deterministic_service=True,
            rng=np.random.default_rng([self.seed, result.index]),
            machine_names=names,
            execution="batched",
        )
        shadow.bid_overrides = dict(supervisor.bid_overrides)
        shadow.skip_rounds = supervisor.skip_rounds
        return shadow

    @staticmethod
    def _world_model(
        supervisor: "RoundSupervisor", result: "RoundResult"
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Declared bids and verified execution estimates per machine.

        Machines live in the evidence round use its verified estimates
        (``outcome.execution_values``); machines that sat the round out
        (quarantined, excluded) fall back to declaring-and-executing
        their agent's bid — the best available guess for a machine with
        no fresh observation.
        """
        declared = {n: supervisor.agents[n].bid() for n in supervisor.machine_names}
        estimated = dict(declared)
        if result.outcome is not None:
            order = list(result.loads)
            for name, bid, estimate in zip(
                order, result.outcome.allocation.bids, result.outcome.execution_values
            ):
                declared[name] = float(bid)
                estimated[name] = max(float(estimate), 0.0) or float(bid)
        return declared, estimated

    @staticmethod
    def _shadow_honest_names(shadow: "RoundSupervisor") -> set[str] | None:
        """Honest set for shadow invariant checks — or ``None`` if moot.

        A shadow world reconstructed from a round with a genuine
        deviator contains machines whose execution estimate exceeds
        their declared bid.  Such a machine *legitimately* drags the
        realised latency (and every bonus) down — the voluntary-
        participation clause does not apply, exactly as the live
        invariant checker exempts rounds with slowdown faults.  The
        shadow runner has no ``fault_kinds`` to carry that exemption,
        so it is decided here instead.
        """
        tol = 1e-9
        for agent in shadow.agents.values():
            if agent.execution_value() > agent.bid() * (1.0 + tol):
                return None
        return shadow.honest_names()
