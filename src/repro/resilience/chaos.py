"""Chaos injection: seeded randomized fault schedules + invariant checks.

The resilience layer earns its keep only if the mechanism's economics
survive arbitrary interleavings of machine crashes, message loss,
withheld messages, execution slowdowns, and coordinator deaths.  This
module makes that claim testable:

* a :class:`FaultPlan` expands a seed into a fully deterministic
  per-round schedule of :class:`RoundFaults` — the same seed always
  produces the same chaos, so any violation is replayable;
* a :class:`ChaosHarness` drives a
  :class:`~repro.resilience.RoundSupervisor` through the plan and runs
  :func:`~repro.resilience.check_round_invariants` after every round,
  either raising on the first violation or collecting all of them.

A clean harness run is the headline acceptance check of the layer:
*N rounds of mixed chaos, zero invariant violations* (see
``benchmarks/bench_resilience.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.observability.instrumentation import annotate, record_counter, trace_span
from repro.resilience.invariants import (
    InvariantError,
    InvariantViolation,
    check_round_invariants,
)
from repro.resilience.supervisor import RoundResult, RoundSupervisor

__all__ = [
    "MachineFault",
    "RoundFaults",
    "FaultPlan",
    "ChaosReport",
    "ChaosHarness",
]

_FAULT_KINDS = ("crash", "withhold_bid", "withhold_report", "slow_execution")
_CRASH_POINTS = ("immediately", "after_bid")
_COORDINATOR_CRASHES = ("during_bidding", "after_allocation", "mid_payment")


@dataclass(frozen=True)
class MachineFault:
    """One machine's misbehaviour for one round.

    Kinds: ``"crash"`` (dead from ``point`` onward), ``"withhold_bid"``
    / ``"withhold_report"`` (ignore the first ``count`` requests — a
    transient fault the retry layer can heal), and
    ``"slow_execution"`` (execute ``slowdown`` times slower than the
    declared value — the behaviour CUSUM monitoring must catch).
    """

    kind: str
    point: str = "immediately"
    count: int = 1
    slowdown: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"kind must be one of {_FAULT_KINDS}")
        if self.kind == "crash" and self.point not in _CRASH_POINTS:
            raise ValueError(f"point must be one of {_CRASH_POINTS}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (capacity constraint)")


@dataclass(frozen=True)
class RoundFaults:
    """The full fault configuration of one round."""

    drop_probability: float = 0.0
    machine_faults: dict[str, MachineFault] = field(default_factory=dict)
    coordinator_crash: str | None = None
    crash_after_payments: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if (
            self.coordinator_crash is not None
            and self.coordinator_crash not in _COORDINATOR_CRASHES
        ):
            raise ValueError(
                f"coordinator_crash must be one of {_COORDINATOR_CRASHES}"
            )
        if self.crash_after_payments < 0:
            raise ValueError("crash_after_payments must be non-negative")

    @property
    def is_clean(self) -> bool:
        """True when this round injects nothing at all."""
        return (
            self.drop_probability == 0.0
            and not self.machine_faults
            and self.coordinator_crash is None
        )


class FaultPlan:
    """A deterministic, replayable sequence of per-round fault schedules."""

    def __init__(self, rounds: list[RoundFaults]) -> None:
        self.rounds = list(rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    def __getitem__(self, index: int) -> RoundFaults:
        return self.rounds[index]

    def __iter__(self):
        return iter(self.rounds)

    @property
    def n_machine_faults(self) -> int:
        """Total machine faults scheduled across all rounds."""
        return sum(len(r.machine_faults) for r in self.rounds)

    @property
    def n_coordinator_crashes(self) -> int:
        """Rounds with a scheduled coordinator crash."""
        return sum(1 for r in self.rounds if r.coordinator_crash is not None)

    @classmethod
    def generate(
        cls,
        n_rounds: int,
        machine_names: list[str],
        seed: int,
        *,
        p_machine_fault: float = 0.15,
        p_coordinator_crash: float = 0.1,
        p_lossy_round: float = 0.3,
        drop_range: tuple[float, float] = (0.05, 0.3),
        slowdown_range: tuple[float, float] = (2.0, 4.0),
        max_faulty_fraction: float = 0.5,
    ) -> "FaultPlan":
        """Expand a seed into a mixed crash/loss/slowdown schedule.

        Each round: every machine is independently faulted with
        probability ``p_machine_fault`` (kind drawn uniformly from
        crash / withhold-bid / withhold-report / slow-execution),
        capped so at most ``max_faulty_fraction`` of the fleet is
        faulty at once; the round's links are lossy with probability
        ``p_lossy_round``; and the coordinator crashes with
        probability ``p_coordinator_crash`` at a uniformly chosen
        point.  Entirely determined by ``seed``.
        """
        if n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if not machine_names:
            raise ValueError("machine_names must be non-empty")
        rng = np.random.default_rng(seed)
        max_faulty = max(1, int(max_faulty_fraction * len(machine_names)))
        rounds: list[RoundFaults] = []
        for _ in range(n_rounds):
            faulty = [
                name
                for name in machine_names
                if rng.random() < p_machine_fault
            ]
            if len(faulty) > max_faulty:
                chosen = rng.choice(len(faulty), size=max_faulty, replace=False)
                faulty = [faulty[int(i)] for i in sorted(chosen)]
            machine_faults: dict[str, MachineFault] = {}
            for name in faulty:
                kind = _FAULT_KINDS[int(rng.integers(len(_FAULT_KINDS)))]
                if kind == "crash":
                    point = _CRASH_POINTS[int(rng.integers(len(_CRASH_POINTS)))]
                    machine_faults[name] = MachineFault(kind, point=point)
                elif kind in ("withhold_bid", "withhold_report"):
                    machine_faults[name] = MachineFault(
                        kind, count=int(rng.integers(1, 3))
                    )
                else:
                    machine_faults[name] = MachineFault(
                        kind,
                        slowdown=float(rng.uniform(*slowdown_range)),
                    )
            drop = 0.0
            if rng.random() < p_lossy_round:
                drop = float(rng.uniform(*drop_range))
            coordinator_crash = None
            crash_after_payments = 1
            if rng.random() < p_coordinator_crash:
                coordinator_crash = _COORDINATOR_CRASHES[
                    int(rng.integers(len(_COORDINATOR_CRASHES)))
                ]
                if coordinator_crash == "mid_payment":
                    crash_after_payments = int(
                        rng.integers(1, max(2, len(machine_names)))
                    )
            rounds.append(
                RoundFaults(
                    drop_probability=drop,
                    machine_faults=machine_faults,
                    coordinator_crash=coordinator_crash,
                    crash_after_payments=crash_after_payments,
                )
            )
        return cls(rounds)


@dataclass
class ChaosReport:
    """Outcome of one chaos run: per-round results plus violations."""

    rounds: list[RoundResult] = field(default_factory=list)
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every round upheld every invariant."""
        return not self.violations

    @property
    def n_rounds(self) -> int:
        """Rounds driven."""
        return len(self.rounds)

    @property
    def n_voided(self) -> int:
        """Rounds voided (coordinator died early or nobody bid)."""
        return sum(1 for r in self.rounds if r.voided)

    @property
    def n_coordinator_restarts(self) -> int:
        """Coordinator crash/restore cycles survived."""
        return sum(r.coordinator_restarts for r in self.rounds)

    @property
    def n_alerts(self) -> int:
        """CUSUM slowdown alerts raised."""
        return sum(len(r.alerts) for r in self.rounds)

    @property
    def n_quarantine_events(self) -> int:
        """Rounds in which at least one machine sat out quarantined."""
        return sum(1 for r in self.rounds if r.quarantined)

class ChaosHarness:
    """Run a supervisor under a fault plan, checking invariants per round.

    Parameters
    ----------
    supervisor:
        The supervised multi-round loop to stress.
    plan:
        The deterministic fault schedule to inject.
    tol:
        Numeric tolerance for the invariant checks.
    stop_on_violation:
        Raise :class:`~repro.resilience.InvariantError` at the first
        violating round (default) instead of collecting violations
        into the report.
    """

    def __init__(
        self,
        supervisor: RoundSupervisor,
        plan: FaultPlan,
        *,
        tol: float = 1e-9,
        stop_on_violation: bool = True,
    ) -> None:
        self.supervisor = supervisor
        self.plan = plan
        self.tol = float(tol)
        self.stop_on_violation = bool(stop_on_violation)

    def run(self) -> ChaosReport:
        """Drive every planned round; return the full chaos report.

        Each round runs inside a ``chaos.round`` span whose annotations
        record exactly what was injected (``fault.injected`` per
        machine, ``fault.lossy_links``, ``fault.coordinator_crash``),
        so an exported trace is a replayable fault timeline.
        """
        report = ChaosReport()
        honest = self.supervisor.honest_names()
        for index, faults in enumerate(self.plan):
            with trace_span("chaos.round", index=index, clean=faults.is_clean):
                for name in sorted(faults.machine_faults):
                    fault = faults.machine_faults[name]
                    annotate("fault.injected", machine=name, kind=fault.kind)
                if faults.drop_probability > 0.0:
                    annotate(
                        "fault.lossy_links",
                        drop_probability=faults.drop_probability,
                    )
                if faults.coordinator_crash is not None:
                    annotate(
                        "fault.coordinator_crash",
                        point=faults.coordinator_crash,
                    )
                if faults.machine_faults:
                    record_counter(
                        "chaos.faults_injected", len(faults.machine_faults)
                    )
                result = self.supervisor.run_round(faults)
                violations = check_round_invariants(
                    result, honest_names=honest, tol=self.tol
                )
            report.rounds.append(result)
            if violations:
                record_counter("chaos.invariant_violations", len(violations))
                if self.stop_on_violation:
                    raise InvariantError(violations)
            report.violations.extend(violations)
        return report
