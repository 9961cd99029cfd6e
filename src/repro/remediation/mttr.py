"""Mean-time-to-recovery: the remediation loop's headline metric.

A resilience layer that merely *survives* faults still pays for them:
every round a degraded machine stays in rotation, the realised latency
``L = Σ t̂_i x_i²`` everyone's bonus is priced against stays inflated
above the latency the allocation promised (``Σ b_i x_i²``), and the
mechanism is pricing a world that does not exist.  What remediation
buys is *shorter outages*, and MTTR is how that is measured:

    MTTR = mean number of rounds from fault onset until the system is
    **recovered** — a non-voided round whose *verification gap*
    (realised / allocation-promised latency) is back within
    ``tolerance`` of 1, i.e. every serving machine again executes as
    priced.  Voided rounds count as degraded: routing nothing is not
    recovery.

The gap — not raw latency — is the right recovery criterion for this
mechanism: quarantining a degraded machine concentrates load on fewer
machines and *raises* absolute latency, yet it restores exactly what
the paper's verification step needs — a fleet whose observed execution
matches its declarations.

:func:`measure_mttr` runs the same seeded degradation scenarios twice —
remediation on and off — through the chaos harness with full invariant
checking, so the comparison is deterministic, replayable, and safe by
construction: a run in which an applied action broke an invariant
reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.agents.behaviors import TruthfulAgent
from repro.remediation.pipeline import RemediationPipeline
from repro.resilience.chaos import (
    ChaosHarness,
    ChaosReport,
    FaultPlan,
    MachineFault,
    RoundFaults,
)
from repro.resilience.quarantine import QuarantinePolicy
from repro.resilience.supervisor import RoundSupervisor

__all__ = [
    "DegradationScenario",
    "ScenarioRun",
    "MTTRComparison",
    "default_scenarios",
    "scenario_fault_plan",
    "run_scenario",
    "measure_mttr",
]


@dataclass(frozen=True)
class DegradationScenario:
    """One seeded degradation story: healthy → fault onset → (recovery).

    The fleet runs clean for ``onset`` rounds (establishing the latency
    baseline), then machine ``machine_index`` misbehaves with
    ``fault_kind`` for ``fault_rounds`` consecutive rounds, then the
    fault clears and the run continues to ``n_rounds`` total.
    """

    name: str
    fault_kind: str = "slow_execution"
    machine_index: int = 0
    slowdown: float = 3.0
    onset: int = 3
    fault_rounds: int = 3
    n_rounds: int = 16
    n_machines: int = 4
    arrival_rate: float = 10.0
    tolerance: float = 0.10
    #: Consecutive failures before the *organic* circuit breaker trips;
    #: the remediation-off arm has only this defence.
    failure_threshold: int = 3

    def __post_init__(self) -> None:
        if self.onset < 1:
            raise ValueError("onset must be at least 1 (the baseline window)")
        if self.fault_rounds < 1:
            raise ValueError("fault_rounds must be at least 1")
        if self.n_rounds <= self.onset + self.fault_rounds:
            raise ValueError("n_rounds must extend past the fault window")
        if not 0 <= self.machine_index < self.n_machines:
            raise ValueError("machine_index out of range")


@dataclass
class ScenarioRun:
    """One scenario execution (remediation on *or* off)."""

    scenario: str
    remediation: bool
    baseline_latency: float
    #: Per-round verification gap (realised / promised latency), or
    #: ``None`` for voided rounds.
    gaps: list[float | None] = field(default_factory=list)
    degraded_rounds: int = 0
    recovery_round: int | None = None
    mttr_rounds: float = float("inf")
    violations: int = 0
    actions_applied: int = 0
    actions_rejected: int = 0
    report: ChaosReport | None = None

    @property
    def recovered(self) -> bool:
        """Whether the run ever returned to the baseline envelope."""
        return self.recovery_round is not None


@dataclass
class MTTRComparison:
    """Remediation-on vs -off across a suite of scenarios."""

    runs_on: list[ScenarioRun] = field(default_factory=list)
    runs_off: list[ScenarioRun] = field(default_factory=list)

    @property
    def mttr_on(self) -> float:
        """Mean MTTR (rounds) with remediation enabled."""
        return float(np.mean([r.mttr_rounds for r in self.runs_on]))

    @property
    def mttr_off(self) -> float:
        """Mean MTTR (rounds) with remediation disabled."""
        return float(np.mean([r.mttr_rounds for r in self.runs_off]))

    @property
    def improvement(self) -> float:
        """MTTR-off / MTTR-on (≥ 2 is the acceptance gate)."""
        if self.mttr_on <= 0.0:
            return float("inf")
        return self.mttr_off / self.mttr_on

    @property
    def violations_from_actions(self) -> int:
        """Invariant violations across every remediation-on run."""
        return sum(r.violations for r in self.runs_on)


def default_scenarios() -> list[DegradationScenario]:
    """The A23 scenario suite (see EXPERIMENTS.md)."""
    return [
        # A machine silently executes 3x slower than declared; CUSUM
        # fires each round, but the organic circuit needs
        # failure_threshold consecutive alert rounds to trip.
        DegradationScenario("creeping-slowdown", fault_kind="slow_execution"),
        # A machine keeps bidding but never reports; every faulted
        # round ends with it withheld (paid zero, imputed).
        DegradationScenario("silent-reporter", fault_kind="withhold_report"),
        # A sharper slowdown on a larger fleet.
        DegradationScenario(
            "hard-slowdown",
            fault_kind="slow_execution",
            slowdown=4.0,
            n_machines=6,
            machine_index=2,
        ),
    ]


def scenario_fault_plan(
    scenario: DegradationScenario, machine_names: Sequence[str]
) -> FaultPlan:
    """Expand a scenario into a deterministic per-round fault schedule."""
    target = machine_names[scenario.machine_index]
    if scenario.fault_kind == "slow_execution":
        fault = MachineFault("slow_execution", slowdown=scenario.slowdown)
    elif scenario.fault_kind == "withhold_report":
        # count must exhaust every per-round retry, or the report lands
        # on a retry and the fault heals itself.
        fault = MachineFault("withhold_report", count=10)
    elif scenario.fault_kind == "withhold_bid":
        fault = MachineFault("withhold_bid", count=10)
    else:
        raise ValueError(f"unsupported scenario fault kind {scenario.fault_kind!r}")
    rounds = []
    for index in range(scenario.n_rounds):
        in_window = scenario.onset <= index < scenario.onset + scenario.fault_rounds
        rounds.append(
            RoundFaults(machine_faults={target: fault} if in_window else {})
        )
    return FaultPlan(rounds)


def _build_supervisor(
    scenario: DegradationScenario, *, remediation: bool, seed: int
) -> RoundSupervisor:
    agents = [
        TruthfulAgent(1.0 + 0.25 * k) for k in range(scenario.n_machines)
    ]
    pipeline = RemediationPipeline(seed=seed) if remediation else None
    return RoundSupervisor(
        agents,
        scenario.arrival_rate,
        quarantine=QuarantinePolicy(failure_threshold=scenario.failure_threshold),
        rng=np.random.default_rng(seed),
        execution="batched",
        remediation=pipeline,
    )


def run_scenario(
    scenario: DegradationScenario, *, remediation: bool, seed: int = 0
) -> ScenarioRun:
    """Run one scenario once; score MTTR via the verification gap."""
    supervisor = _build_supervisor(scenario, remediation=remediation, seed=seed)
    plan = scenario_fault_plan(scenario, supervisor.machine_names)
    harness = ChaosHarness(supervisor, plan, stop_on_violation=False)
    report = harness.run()

    gaps: list[float | None] = []
    realised: list[float] = []
    for r in report.rounds:
        if r.voided or r.outcome is None:
            gaps.append(None)
            continue
        promised = float(r.outcome.allocation.total_latency)
        gaps.append(
            float(r.outcome.realised_latency) / promised
            if promised > 0.0
            else None
        )
        realised.append(float(r.outcome.realised_latency))
    baseline = (
        float(np.mean(realised[: scenario.onset]))
        if realised
        else float("inf")
    )
    budget = 1.0 + scenario.tolerance

    recovery_round: int | None = None
    degraded = 0
    for index in range(scenario.onset, scenario.n_rounds):
        gap = gaps[index]
        if gap is not None and gap <= budget:
            recovery_round = index
            break
        degraded += 1

    run = ScenarioRun(
        scenario=scenario.name,
        remediation=remediation,
        baseline_latency=baseline,
        gaps=gaps,
        degraded_rounds=degraded,
        recovery_round=recovery_round,
        mttr_rounds=float(degraded) if recovery_round is not None else float("inf"),
        violations=len(report.violations),
        report=report,
    )
    if remediation and supervisor.remediation is not None:
        history = supervisor.remediation.history
        run.actions_applied = sum(len(h.applied) for h in history)
        run.actions_rejected = sum(len(h.rejected) for h in history)
    return run


def measure_mttr(
    scenarios: Sequence[DegradationScenario] | None = None, *, seed: int = 0
) -> MTTRComparison:
    """Run every scenario remediation-on and -off; aggregate MTTR."""
    if scenarios is None:
        scenarios = default_scenarios()
    comparison = MTTRComparison()
    for scenario in scenarios:
        comparison.runs_on.append(
            run_scenario(scenario, remediation=True, seed=seed)
        )
        comparison.runs_off.append(
            run_scenario(scenario, remediation=False, seed=seed)
        )
    return comparison
