"""Supervised multi-round protocol: retry, quarantine, recover, repeat.

One :func:`~repro.protocol.run_protocol` call prices a single clean
round.  A deployment runs the mechanism continuously against machines
that flap, links that drop, and a coordinator that can itself die; the
:class:`RoundSupervisor` here is the control loop that keeps allocating
through all of that:

* **retry with backoff** — a machine that misses the bid or report
  deadline is re-asked under a jittered exponential
  :class:`~repro.resilience.retry.BackoffPolicy` before being excluded,
  so transient unresponsiveness does not cost it the round;
* **quarantine** — per-round outcomes (missed deadlines after retries,
  CUSUM slowdown alerts) feed a
  :class:`~repro.resilience.quarantine.QuarantinePolicy` circuit
  breaker; quarantined machines sit out and their load is reallocated
  to the survivors via the *incremental* PR state (an O(changes)
  update, not an O(n) recompute);
* **coordinator recovery** — the per-round
  :class:`SupervisedCoordinator` write-ahead-checkpoints its inputs to
  a :class:`~repro.resilience.checkpoint.CheckpointStore`; a crashed
  coordinator is restored from the serialized checkpoint and either
  resumes the round or voids it, never paying a machine twice.

The supervisor is deliberately deterministic given its seed: the chaos
harness (:mod:`repro.resilience.chaos`) replays identical fault
schedules against it and asserts the mechanism invariants after every
round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import TYPE_CHECKING, Callable, Collection, Sequence

import numpy as np

from repro._validation import check_positive_scalar
from repro.agents.base import Agent
from repro.allocation.incremental import IncrementalPRState
from repro.mechanism.base import Mechanism
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.observability.instrumentation import (
    annotate,
    observe_value,
    record_counter,
    record_gauge,
    timed_section,
    trace_span,
)
from repro.protocol.coordinator import (
    COORDINATOR_NAME,
    MachineNode,
    ProtocolPhase,
    effective_bid,
)
from repro.protocol.faults import FaultTolerantCoordinator, ReliableNetwork
from repro.protocol.messages import (
    BidRequest,
    CompletionReport,
    Message,
    PaymentNotice,
)
from repro.protocol.monitoring import slowdown_alerts
from repro.protocol.network import SimulatedNetwork
from repro.resilience.checkpoint import CheckpointStore, CoordinatorCheckpoint
from repro.resilience.quarantine import QuarantinePolicy
from repro.resilience.retry import BackoffPolicy
from repro.system.des import Simulator
from repro.protocol.execution import (
    dispatch_batched,
    dispatch_events,
    execute_jobs,
    resolve_execution,
    round_machines,
)
from repro.system.machine import LinearLatencyMachine
from repro.system.workload import ArrivalSchedule, PoissonWorkload
from repro.types import AllocationResult, MechanismOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (chaos imports us)
    from repro.remediation.pipeline import RemediationPipeline
    from repro.resilience.chaos import RoundFaults

__all__ = [
    "CoordinatorCrash",
    "SupervisedCoordinator",
    "RoundResult",
    "SupervisorReport",
    "RoundSupervisor",
]


class CoordinatorCrash(RuntimeError):
    """Injected coordinator failure: the process died mid-round."""


@dataclass
class SupervisedCoordinator(FaultTolerantCoordinator):
    """A fault-tolerant coordinator that checkpoints and pays at most once.

    Extends :class:`~repro.protocol.FaultTolerantCoordinator` with:

    * ``allocator`` — optional override for the allocation step, so the
      supervisor can serve loads from its incremental PR state instead
      of recomputing from scratch;
    * ``checkpoint_store`` — write-ahead persistence: a snapshot of
      phase, bids, loads, reports and issued payments at every phase
      transition, and one journal entry per bid, report and payment
      between them;
    * ``payments_sent`` — the at-most-once ledger: a payment is
      recorded (and checkpointed) *before* its notice is sent, and
      never re-issued by a restored coordinator;
    * ``fail_after_payments`` — chaos hook: raise
      :class:`CoordinatorCrash` once that many payments were issued;
    * ``min_participants`` — rounds that shrink below this many
      responders are voided (the bonus term needs a leave-one-out
      system, so fewer than two machines cannot be priced);
    * ``bid_overrides`` — remediation-imposed effective declared values:
      a machine the pipeline has re-estimated (its verified execution
      value exceeded its bid) is priced at the override rather than its
      declared bid.  Overrides only ever *raise* a recorded bid, never
      lower it, and apply at recording time, so allocation, payments,
      and checkpoints all see one consistent value.

    The round itself (allocate, verify, price, pay) is the base
    coordinator's one body; this class only overrides its hooks.
    """

    allocator: (
        Callable[[list[str], np.ndarray, float], AllocationResult] | None
    ) = None
    checkpoint_store: CheckpointStore | None = None
    fail_after_payments: int | None = None
    min_participants: int = 2
    payments_sent: dict[str, tuple[float, float, float]] = field(
        default_factory=dict
    )
    bid_overrides: dict[str, float] = field(default_factory=dict)

    # --------------------------------------------------------- hooks

    def _record_bid(self, reply) -> None:
        bid = effective_bid(reply.sender, reply.bid, self.bid_overrides)
        super()._record_bid(replace(reply, bid=bid))

    def _on_bid(self, reply) -> None:
        super()._on_bid(reply)
        store = self.checkpoint_store
        # The last bid moves the round on, and that snapshot holds it.
        if store is not None and self.phase is ProtocolPhase.BIDDING:
            store.append_bid(reply.sender, self._bids[reply.sender])

    def _on_report(self, report) -> None:
        phase_before = self.phase
        super()._on_report(report)
        store = self.checkpoint_store
        if store is not None and self.phase is phase_before:
            store.append_report(
                report.sender, (report.jobs_completed, report.mean_sojourn)
            )

    def _set_phase(self, phase: ProtocolPhase) -> None:
        # Snapshot at every phase boundary, so a restore resumes from
        # the phase and each bid, report or payment journals on top.
        moved = phase is not self.phase
        super()._set_phase(phase)
        if moved:
            self._save_checkpoint()

    def _allocate_to_responders(self) -> None:
        responders = sum(name in self._bids for name in self.machine_names)
        if responders < self.min_participants:
            self.void_round()
        else:
            super()._allocate_to_responders()

    def _allocate(self, bids: np.ndarray) -> AllocationResult:
        if self.allocator is None:
            return super()._allocate(bids)
        return self.allocator(self.machine_names, bids, self.arrival_rate)

    def _pay(self, name: str, amounts: tuple[float, float, float]) -> None:
        if name in self.payments_sent:
            return  # issued before a crash: never pay twice
        if (
            self.fail_after_payments is not None
            and len(self.payments_sent) >= self.fail_after_payments
        ):
            raise CoordinatorCrash(
                f"coordinator died after issuing "
                f"{len(self.payments_sent)} payments"
            )
        # Write-ahead: record and journal the intent, then send.
        self.payments_sent[name] = amounts
        if self.checkpoint_store is not None:
            self.checkpoint_store.append_payment(name, amounts)
        super()._pay(name, amounts)

    # --------------------------------------------------------- persistence

    def checkpoint(self) -> CoordinatorCheckpoint:
        """Snapshot the coordinator's inputs as a serialisable record."""
        return CoordinatorCheckpoint(
            phase=self.phase.value,
            machine_names=list(self.machine_names),
            arrival_rate=self.arrival_rate,
            bids=dict(self._bids),
            loads=None if self._loads is None else [float(x) for x in self._loads],
            reports={
                name: (report.jobs_completed, report.mean_sojourn)
                for name, report in self._reports.items()
            },
            excluded=list(self.excluded),
            withheld=list(self.withheld),
            payments_sent=dict(self.payments_sent),
        )

    def _save_checkpoint(self) -> None:
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(self.checkpoint())

    @classmethod
    def restore(
        cls,
        checkpoint: CoordinatorCheckpoint,
        *,
        mechanism: Mechanism,
        network,
        on_allocated=None,
        checkpoint_store: CheckpointStore | None = None,
        allocator=None,
    ) -> "SupervisedCoordinator":
        """Rebuild a coordinator from a checkpoint after a crash.

        The restored instance carries no chaos hook
        (``fail_after_payments`` is cleared): the replacement process
        is assumed healthy.
        """
        coordinator = cls(
            mechanism=mechanism,
            machine_names=list(checkpoint.machine_names),
            arrival_rate=checkpoint.arrival_rate,
            network=network,
            on_allocated=on_allocated,
            checkpoint_store=checkpoint_store,
            allocator=allocator,
        )
        coordinator.phase = ProtocolPhase(checkpoint.phase)
        coordinator._bids = dict(checkpoint.bids)
        coordinator._loads = (
            None if checkpoint.loads is None else np.array(checkpoint.loads)
        )
        coordinator._reports = {
            name: CompletionReport(
                sender=name,
                receiver=COORDINATOR_NAME,
                jobs_completed=jobs,
                mean_sojourn=sojourn,
            )
            for name, (jobs, sojourn) in checkpoint.reports.items()
        }
        coordinator.excluded = list(checkpoint.excluded)
        coordinator.withheld = list(checkpoint.withheld)
        coordinator.payments_sent = dict(checkpoint.payments_sent)
        return coordinator

    def resume(self) -> None:
        """Continue (or safely abandon) the round after a restore.

        * ``IDLE``/``BIDDING`` — no allocation ever reached a machine,
          so the round is voided (cheap, safe, no payments);
        * ``EXECUTING`` — the allocation stands; keep waiting for
          reports (they arrive through :meth:`handle` as usual);
        * ``VERIFYING`` — re-derive the outcome and issue exactly the
          payments not yet in ``payments_sent``;
        * ``DONE``/``VOIDED`` — nothing left to do.
        """
        if self.phase in (ProtocolPhase.IDLE, ProtocolPhase.BIDDING):
            self.void_round()
        elif self.phase is ProtocolPhase.VERIFYING:
            self._verify_and_pay(set(self.withheld))


@dataclass(kw_only=True)
class RoundResult:
    """Everything observable after one supervised round."""

    index: int
    participants: list[str]
    probes: list[str]
    quarantined: list[str]
    excluded: list[str] = field(default_factory=list)
    withheld: list[str] = field(default_factory=list)
    alerts: list[str] = field(default_factory=list)
    faulted: list[str] = field(default_factory=list)
    fault_kinds: dict[str, str] = field(default_factory=dict)
    voided: bool = False
    outcome: MechanismOutcome | None = None
    loads: dict[str, float] = field(default_factory=dict)
    payments: dict[str, float] = field(default_factory=dict)
    utilities: dict[str, float] = field(default_factory=dict)
    payment_notices: dict[str, int] = field(default_factory=dict)
    bid_retries: int = 0
    report_retries: int = 0
    coordinator_restarts: int = 0
    arrival_rate: float
    jobs_routed: int = 0

    @classmethod
    def priced(
        cls, outcome: MechanismOutcome, names: Sequence[str], **fields
    ) -> "RoundResult":
        """The result of a round the mechanism priced.

        Loads, utilities and (unless ``fields`` gives them) payments are
        read from ``outcome`` in ``names`` order.
        """
        fields.setdefault(
            "payments",
            {n: float(x) for n, x in zip(names, outcome.payments.payment)},
        )
        return cls(
            outcome=outcome,
            loads={n: float(x) for n, x in zip(names, outcome.loads)},
            utilities={
                n: float(u) for n, u in zip(names, outcome.payments.utility)
            },
            **fields,
        )

    @property
    def live_names(self) -> list[str]:
        """Machines that stayed in the round through allocation."""
        return list(self.loads)


@dataclass
class SupervisorReport:
    """Aggregate view over a sequence of supervised rounds."""

    rounds: list[RoundResult] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        """Number of rounds driven."""
        return len(self.rounds)

    @property
    def n_voided(self) -> int:
        """Rounds abandoned before allocation."""
        return sum(1 for r in self.rounds if r.voided)


class _IncrementalAllocator:
    """PR allocation served from cross-round incremental state.

    Keeps one :class:`~repro.allocation.IncrementalPRState` alive
    across rounds; each round's (names, bids) is reconciled against it
    with O(changes) add/remove/update operations — a quarantined
    machine is one ``remove_machine``, a re-admitted probe one
    ``add_machine`` — instead of rebuilding the O(n) sums from scratch.
    """

    def __init__(self) -> None:
        self._state: IncrementalPRState | None = None
        self._names: list[str] = []
        self._position: dict[str, int] = {}  # name -> index into _names
        # The last round's names and, when they are not in state order,
        # each one's state index; kept until membership changes.
        self._round_names: list[str] = []
        self._gather: np.ndarray | None = None
        self.incremental_ops = 0
        self.rebuilds = 0

    def allocate(
        self, names: list[str], bids: np.ndarray, arrival_rate: float
    ) -> AllocationResult:
        """Loads for ``names``/``bids`` via incremental reconciliation."""
        ops_before = self.incremental_ops
        rebuilds_before = self.rebuilds
        with timed_section("allocation.incremental.seconds"):
            self._reconcile(names, bids, arrival_rate)
            assert self._state is not None
            loads = self._state.loads()
            if self._gather is not None:
                loads = loads[self._gather]
        if self.incremental_ops > ops_before:
            record_counter(
                "allocation.incremental.ops", self.incremental_ops - ops_before
            )
        if self.rebuilds > rebuilds_before:
            record_counter(
                "allocation.incremental.rebuilds", self.rebuilds - rebuilds_before
            )
        return AllocationResult(
            loads=loads,
            arrival_rate=arrival_rate,
            bids=bids,
            total_latency=float(np.dot(bids, loads**2)),
        )

    def _reconcile(
        self, names: list[str], bids: np.ndarray, arrival_rate: float
    ) -> None:
        if (
            self._state is not None
            and self._state.arrival_rate == arrival_rate
            and self._round_names == names
        ):
            # Steady membership: one array comparison finds the changed
            # bids, updated in state index order as the general path would.
            ordered = np.asarray(bids, dtype=float)
            if self._gather is not None:
                ordered = np.empty_like(ordered)
                ordered[self._gather] = bids
            changed = np.flatnonzero(ordered != self._state.bids)
            for index in changed.tolist():
                self._state.update_bid(index, float(ordered[index]))
            self.incremental_ops += changed.size
            return
        self._membership(names, bids, arrival_rate)
        self._round_names = list(names)
        self._gather = (
            None
            if self._names == names
            else np.array([self._position[n] for n in names], dtype=np.intp)
        )

    def _membership(
        self, names: list[str], bids: np.ndarray, arrival_rate: float
    ) -> None:
        """Rebuild, or remove, update and add machines to match ``names``."""
        wanted = dict(zip(names, (float(b) for b in bids)))
        if (
            self._state is None
            or self._state.arrival_rate != arrival_rate
            or self._position.keys().isdisjoint(wanted)
        ):
            self._state = IncrementalPRState(
                np.array([wanted[n] for n in names]), arrival_rate
            )
            self._names = list(names)
            self._position = {n: k for k, n in enumerate(self._names)}
            self.rebuilds += 1
            return
        # Removals run in position order; each earlier removal shifts
        # the later positions down by one.
        gone = [k for k, n in enumerate(self._names) if n not in wanted]
        for shift, index in enumerate(gone):
            self._state.remove_machine(index - shift)
            self.incremental_ops += 1
        if gone:
            self._names = [n for n in self._names if n in wanted]
            self._position = {n: k for k, n in enumerate(self._names)}
        current = self._state.bids.tolist()
        for index, name in enumerate(self._names):
            bid = wanted[name]
            if bid != current[index]:
                self._state.update_bid(index, bid)
                self.incremental_ops += 1
        for name in names:
            if name not in self._position:
                self._state.add_machine(wanted[name])
                self._position[name] = len(self._names)
                self._names.append(name)
                self.incremental_ops += 1


class _SupervisedNode:
    """Per-round wrapper: applies injected faults, counts payment notices."""

    def __init__(self, inner: MachineNode, fault=None) -> None:
        self.inner = inner
        self.fault = fault
        self.payment_notices = 0
        self._bid_requests_ignored = 0
        self._report_requests_ignored = 0

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def machine(self) -> LinearLatencyMachine:
        return self.inner.machine

    def _crashed(self, point: str) -> bool:
        return (
            self.fault is not None
            and self.fault.kind == "crash"
            and self.fault.point == point
        )

    def handle(self, message: Message, sim: Simulator) -> None:
        if isinstance(message, PaymentNotice):
            self.payment_notices += 1  # counted even if the node is dead
        if self._crashed("immediately"):
            return
        if (
            isinstance(message, BidRequest)
            and self.fault is not None
            and self.fault.kind == "withhold_bid"
            and self._bid_requests_ignored < self.fault.count
        ):
            self._bid_requests_ignored += 1
            return
        self.inner.handle(message, sim)

    def report_completion(self) -> None:
        if self._crashed("immediately") or self._crashed("after_bid"):
            return
        if (
            self.fault is not None
            and self.fault.kind == "withhold_report"
            and self._report_requests_ignored < self.fault.count
        ):
            self._report_requests_ignored += 1
            return
        self.inner.report_completion()


class RoundSupervisor:
    """Drive the verification mechanism as a supervised multi-round loop.

    Parameters
    ----------
    agents:
        The strategic machine owners, one per machine; machine ``k`` is
        named ``C{k+1}`` unless ``machine_names`` overrides it.
    arrival_rate:
        Total job rate ``R`` allocated every round.
    mechanism:
        Payment rule; defaults to the paper's
        :class:`~repro.mechanism.VerificationMechanism`.
    quarantine:
        Circuit-breaker policy (see
        :class:`~repro.resilience.QuarantinePolicy`).
    backoff:
        Retry pacing for missed bids/reports.
    max_bid_attempts / max_report_attempts:
        Retry budget per phase before a machine is excluded/withheld.
    duration:
        Job-generation window per round (simulated seconds).
    detector_threshold / detector_slack:
        CUSUM parameters for the per-machine slowdown detectors.
    deterministic_service:
        Run machines with noise-free service times (default), making
        execution-value estimates exact and the mechanism invariants
        sharp; set ``False`` for stochastic service.
    rng:
        Randomness source for workloads, retries, and service noise.
    execution:
        Job execution engine per round, as in
        :func:`~repro.protocol.run_protocol`: ``"event"``,
        ``"batched"``, or ``"auto"`` (default; resolves to the batched
        engine — bit-identical under deterministic service).
    remediation:
        Optional :class:`~repro.remediation.RemediationPipeline`.  When
        set, every completed round is fed through the closed-loop
        detect → propose → shadow-verify → schedule pipeline, whose
        applied actions adjust this supervisor (quarantine state, bid
        overrides, detector calibration, skipped rounds) before the
        next round runs.
    arrival_schedule:
        Optional nonstationary arrival process
        (:class:`~repro.system.workload.ArrivalSchedule`).  When set,
        round ``k`` draws its jobs by thinning over the absolute window
        ``[k*duration, (k+1)*duration)`` and the allocator/mechanism see
        the window's equivalent constant rate ``∫R/duration`` instead
        of the fixed ``arrival_rate`` (which then only seeds the
        attribute).
    horizon:
        When true, :meth:`run` drives the horizon-fused engine
        (:func:`repro.protocol.horizon.run_horizon`): maximal fault-free
        segments are evaluated as stacked broadcasts, de-fusing to
        :meth:`run_round` at every chaos/remediation event boundary,
        with results bit-identical to the sequential loop on the same
        seed.
    """

    def __init__(
        self,
        agents: Sequence[Agent],
        arrival_rate: float,
        *,
        mechanism: Mechanism | None = None,
        quarantine: QuarantinePolicy | None = None,
        backoff: BackoffPolicy | None = None,
        max_bid_attempts: int = 3,
        max_report_attempts: int = 2,
        duration: float = 40.0,
        detector_threshold: float = 15.0,
        detector_slack: float = 0.25,
        deterministic_service: bool = True,
        rng: np.random.Generator | None = None,
        machine_names: Sequence[str] | None = None,
        execution: str = "auto",
        remediation: "RemediationPipeline | None" = None,
        arrival_schedule: "ArrivalSchedule | None" = None,
        horizon: bool = False,
    ) -> None:
        if len(agents) < 2:
            raise ValueError("the supervisor needs at least two machines")
        if machine_names is None:
            machine_names = [f"C{i + 1}" for i in range(len(agents))]
        if len(machine_names) != len(agents):
            raise ValueError("machine_names must match agents in length")
        if max_bid_attempts < 0 or max_report_attempts < 0:
            raise ValueError("retry budgets must be non-negative")
        self.agents: dict[str, Agent] = dict(zip(machine_names, agents))
        self.arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
        self.mechanism = mechanism if mechanism is not None else VerificationMechanism()
        self.quarantine = quarantine if quarantine is not None else QuarantinePolicy()
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.max_bid_attempts = int(max_bid_attempts)
        self.max_report_attempts = int(max_report_attempts)
        self.duration = check_positive_scalar(duration, "duration")
        self.detector_threshold = check_positive_scalar(
            detector_threshold, "detector_threshold"
        )
        if detector_slack < 0.0:
            raise ValueError("detector_slack must be non-negative")
        self.detector_slack = float(detector_slack)
        self.deterministic_service = bool(deterministic_service)
        self.execution = resolve_execution(execution)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.arrival_schedule = arrival_schedule
        self.horizon = bool(horizon)
        for name in machine_names:
            self.quarantine.admit(name)
        self._allocator = _IncrementalAllocator()
        self._round_index = 0
        self.remediation = remediation
        #: Remediation-imposed effective declared values (name -> bid);
        #: consumed by every round's SupervisedCoordinator.
        self.bid_overrides: dict[str, float] = {}
        #: Rounds the supervisor will void outright before routing any
        #: jobs — the remediation pipeline's emergency brake.
        self.skip_rounds = 0

    # ------------------------------------------------------------ queries

    @property
    def allocator(self) -> _IncrementalAllocator:
        """The cross-round incremental PR allocator (for inspection)."""
        return self._allocator

    @property
    def machine_names(self) -> list[str]:
        """All managed machine names, in registration order."""
        return list(self.agents)

    def honest_names(self) -> set[str]:
        """Machines whose agent bids and executes its true value."""
        return {
            name
            for name, agent in self.agents.items()
            if agent.bid() == agent.true_value
            and agent.execution_value() == agent.true_value
        }

    def round_rate(self, index: int) -> float:
        """The scalar arrival rate round ``index`` is priced at.

        The fixed ``arrival_rate`` without a schedule; with one, the
        window's equivalent constant rate ``∫R / duration`` over
        ``[index*duration, (index+1)*duration)``.
        """
        if self.arrival_schedule is None:
            return self.arrival_rate
        start = index * self.duration
        return float(
            self.arrival_schedule.mean_rate(start, start + self.duration)
        )

    def _generate_times(self, index: int) -> np.ndarray:
        """Round ``index``'s arrival times (relative to the round start).

        The single generation point both the sequential round and the
        horizon-fused engine call, so the two paths consume the RNG
        stream identically draw for draw.
        """
        if self.arrival_schedule is None:
            workload = PoissonWorkload(self.arrival_rate, self._rng)
            return workload.generate_times(self.duration)
        return self.arrival_schedule.generate_times(
            self._rng, index * self.duration, self.duration
        )

    # ------------------------------------------------------------ rounds

    def run(self, n_rounds: int, fault_plan=None) -> SupervisorReport:
        """Drive ``n_rounds`` rounds, optionally under a fault plan.

        With ``horizon=True`` the rounds run through the horizon-fused
        engine (same results bit for bit, de-fusing at fault
        boundaries); otherwise one :meth:`run_round` per iteration.
        """
        if self.horizon:
            from repro.protocol.horizon import run_horizon

            return run_horizon(self, n_rounds, fault_plan)
        if n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        report = SupervisorReport()
        for k in range(n_rounds):
            faults = fault_plan[k] if fault_plan is not None else None
            report.rounds.append(self.run_round(faults))
        return report

    def run_round(self, faults: "RoundFaults | None" = None) -> RoundResult:
        """Run one supervised round (optionally with injected faults).

        The round runs inside a ``supervisor.round`` span with
        ``supervisor.{bidding,execution,reporting,detection}`` children,
        and its observables (retries, voids, restarts, jobs routed,
        open quarantines) are recorded into the active instrumentation —
        all no-ops unless :func:`repro.observability.enable` (or the
        ``repro metrics`` command) turned the layer on.
        """
        with trace_span("supervisor.round", index=self._round_index):
            result = self._run_round(faults)
        record_counter("supervisor.rounds")
        if result.voided:
            record_counter("supervisor.rounds_voided")
        if result.bid_retries:
            record_counter("supervisor.bid_retries", result.bid_retries)
        if result.report_retries:
            record_counter("supervisor.report_retries", result.report_retries)
        if result.coordinator_restarts:
            record_counter(
                "supervisor.coordinator_restarts", result.coordinator_restarts
            )
        observe_value("supervisor.jobs_routed", result.jobs_routed)
        record_gauge("resilience.quarantine.open", len(result.quarantined))
        if self.remediation is not None:
            with trace_span("supervisor.remediation", index=result.index):
                self.remediation.process_round(self, result)
        return result

    def _admit(self) -> dict:
        """Open the next round: its index, rate, and quarantine admission.

        Returns the fields every :class:`RoundResult` of the round
        shares (``participants`` is the admitted list).
        """
        index = self._round_index
        self._round_index += 1
        rate = self.round_rate(index)
        admitted = self.quarantine.begin_round()
        return dict(
            index=index,
            participants=admitted,
            probes=self.quarantine.probes(),
            quarantined=self.quarantine.quarantined(),
            arrival_rate=rate,
        )

    def _close_round(
        self,
        admitted: Sequence[str],
        alerts: Sequence[str],
        excluded: Collection[str] = (),
        withheld: Collection[str] = (),
    ) -> None:
        """Record the round's alerts and every admitted machine's outcome."""
        for name in alerts:
            record_counter("supervisor.slowdown_alerts")
            annotate("slowdown.alert", machine=name)
        for name in admitted:
            if name in excluded:
                self.quarantine.record_failure(name, "missed_bid")
            elif name in withheld:
                self.quarantine.record_failure(name, "missed_report")
            elif name in alerts:
                self.quarantine.record_failure(name, "slowdown_alert")
            else:
                self.quarantine.record_success(name)

    def _run_round(self, faults: "RoundFaults | None") -> RoundResult:
        """The round body :meth:`run_round` wraps with instrumentation."""
        head = self._admit()
        admitted = head["participants"]
        machine_faults = {
            n: f
            for n, f in (getattr(faults, "machine_faults", {}) or {}).items()
            if n in admitted
        }
        drop = float(getattr(faults, "drop_probability", 0.0) or 0.0)
        coordinator_crash = getattr(faults, "coordinator_crash", None)
        crash_after_payments = int(getattr(faults, "crash_after_payments", 1))
        head.update(
            faulted=sorted(machine_faults),
            fault_kinds={n: f.kind for n, f in machine_faults.items()},
        )

        if self.skip_rounds > 0:
            # A remediation action voided this round pre-emptively: no
            # jobs are routed and nobody is paid while the operators
            # (or the pipeline itself) re-establish a safe state.
            self.skip_rounds -= 1
            record_counter("supervisor.rounds_skipped")
            return RoundResult(**head, voided=True)

        if len(admitted) < 2:
            # Too few live machines to price a round; degrade by skipping.
            return RoundResult(**head, voided=True, excluded=list(admitted))

        # ---------------------------------------------------------- wiring
        sim = Simulator()
        if drop > 0.0:
            network = ReliableNetwork(sim, drop, self._rng)
        else:
            network = SimulatedNetwork(sim)

        execution_values = []
        for name in admitted:
            value = self.agents[name].execution_value()
            fault = machine_faults.get(name)
            if fault is not None and fault.kind == "slow_execution":
                value *= fault.slowdown
            execution_values.append(value)
        machines = round_machines(
            admitted, execution_values, self._rng, self.deterministic_service
        )
        nodes: dict[str, _SupervisedNode] = {}
        for name, machine in zip(admitted, machines):
            inner = MachineNode(name, self.agents[name], machine, network)
            node = _SupervisedNode(inner, fault=machine_faults.get(name))
            network.register(name, node.handle)
            nodes[name] = node

        # Looked up per round, so a patched module-level dispatcher applies.
        dispatch = dispatch_batched if self.execution == "batched" else dispatch_events
        jobs_routed = 0
        current: dict[str, SupervisedCoordinator] = {}

        def on_allocated(loads: np.ndarray) -> None:
            nonlocal jobs_routed
            names = current["coordinator"].machine_names
            jobs_routed = execute_jobs(
                sim,
                [nodes[name].machine for name in names],
                loads,
                self._generate_times(head["index"]),
                self._rng,
                dispatch,
            )

        store = CheckpointStore()
        coordinator = SupervisedCoordinator(
            mechanism=self.mechanism,
            machine_names=list(admitted),
            arrival_rate=head["arrival_rate"],
            network=network,
            on_allocated=on_allocated,
            allocator=self._allocator.allocate,
            checkpoint_store=store,
            bid_overrides=dict(self.bid_overrides),
        )
        if coordinator_crash == "mid_payment":
            coordinator.fail_after_payments = crash_after_payments
        current["coordinator"] = coordinator
        network.register(
            COORDINATOR_NAME,
            lambda message, s: current["coordinator"].handle(message, s),
        )
        restarts = 0

        def restart_coordinator() -> None:
            nonlocal restarts
            checkpoint = store.load()
            assert checkpoint is not None, "no checkpoint to restore from"
            restored = SupervisedCoordinator.restore(
                checkpoint,
                mechanism=self.mechanism,
                network=network,
                on_allocated=on_allocated,
                checkpoint_store=store,
                allocator=self._allocator.allocate,
            )
            current["coordinator"] = restored
            restarts += 1
            record_counter("resilience.coordinator.restarts")
            annotate(
                "coordinator.restarted", phase=ProtocolPhase(checkpoint.phase).value
            )
            restored.resume()

        # --------------------------------------------------------- bidding
        with trace_span("supervisor.bidding"):
            coordinator.start()
            sim.run()
            if coordinator_crash == "during_bidding":
                # The process dies while bids are still arriving; the
                # replacement finds no announced allocation and voids.
                restart_coordinator()
            bid_retries = 0
            attempt = 0
            while (
                current["coordinator"].phase is ProtocolPhase.BIDDING
                and attempt < self.max_bid_attempts
            ):
                missing = current["coordinator"].pending_bidders
                delay = self.backoff.delay(attempt, self._rng)
                for name in missing:
                    sim.schedule(
                        delay,
                        lambda s, n=name: network.send(
                            BidRequest(sender=COORDINATOR_NAME, receiver=n)
                        ),
                    )
                bid_retries += len(missing)
                attempt += 1
                sim.run()
            current["coordinator"].close_bidding(void_if_empty=True)

        if current["coordinator"].phase is ProtocolPhase.VOIDED:
            if coordinator_crash != "during_bidding":
                # Machines that never bid caused the void; hold them
                # accountable (a coordinator-crash void blames nobody).
                for name in current["coordinator"].pending_bidders:
                    self.quarantine.record_failure(name, "missed_bid")
            return RoundResult(
                **head,
                voided=True,
                excluded=list(current["coordinator"].excluded),
                payment_notices={n: nodes[n].payment_notices for n in nodes},
                bid_retries=bid_retries,
                coordinator_restarts=restarts,
            )

        # ------------------------------------------------------- execution
        with trace_span("supervisor.execution"):
            sim.run()  # drain every routed job to completion
            if coordinator_crash == "after_allocation":
                restart_coordinator()  # resumes in EXECUTING from the checkpoint

        # ------------------------------------------------------- reporting
        report_retries = 0
        with trace_span("supervisor.reporting"):
            try:
                for name in list(current["coordinator"].machine_names):
                    nodes[name].report_completion()
                sim.run()
                attempt = 0
                while (
                    current["coordinator"].phase is ProtocolPhase.EXECUTING
                    and attempt < self.max_report_attempts
                ):
                    missing = current["coordinator"].pending_reporters
                    delay = self.backoff.delay(attempt, self._rng)
                    for name in missing:
                        sim.schedule(
                            delay, lambda s, n=name: nodes[n].report_completion()
                        )
                    report_retries += len(missing)
                    attempt += 1
                    sim.run()
                current["coordinator"].close_reporting()
            except CoordinatorCrash:
                restart_coordinator()  # re-derives the outcome, pays the rest
            sim.run()  # deliver the remaining payment notices

        coordinator = current["coordinator"]
        assert coordinator.phase is ProtocolPhase.DONE
        assert coordinator.outcome is not None
        outcome = coordinator.outcome
        names = coordinator.machine_names
        withheld = set(coordinator.withheld)

        # ------------------------------------------------- online detection
        with trace_span("supervisor.detection"):
            observed = [
                () if n in withheld else nodes[n].machine.sojourn_times
                for n in names
            ]
            counts = [len(sojourns) for sojourns in observed]
            alerts = slowdown_alerts(
                names,
                outcome.allocation.bids,
                outcome.loads,
                np.fromiter(chain.from_iterable(observed), np.float64, sum(counts)),
                counts,
                threshold=self.detector_threshold,
                slack=self.detector_slack,
            )
        self._close_round(admitted, alerts, coordinator.excluded, withheld)

        return RoundResult.priced(
            outcome,
            names,
            **head,
            excluded=list(coordinator.excluded),
            withheld=sorted(withheld),
            alerts=alerts,
            payments={
                n: amounts[0] for n, amounts in coordinator.payments_sent.items()
            },
            payment_notices={n: nodes[n].payment_notices for n in nodes},
            bid_retries=bid_retries,
            report_retries=report_retries,
            coordinator_restarts=restarts,
            jobs_routed=jobs_routed,
        )
