"""Coordinator and machine-node state machines for the protocol.

The control plane is message-driven: the coordinator advances through
the protocol phases as replies arrive over the simulated network, never
by peeking at other nodes' state.  The data plane (individual jobs) is
routed directly by the runtime — the paper's O(n) message complexity
refers to the control messages, and the network statistics count
exactly those.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Collection, Mapping

import numpy as np

from repro.agents.base import Agent
from repro.mechanism.base import Mechanism
from repro.observability.instrumentation import annotate, record_counter
from repro.protocol.estimator import verified_estimates
from repro.protocol.messages import (
    AllocationNotice,
    BidReply,
    BidRequest,
    CompletionReport,
    Message,
    PaymentNotice,
)
from repro.protocol.network import SimulatedNetwork
from repro.system.des import Simulator
from repro.system.machine import LinearLatencyMachine
from repro.types import AllocationResult, MechanismOutcome

__all__ = ["ProtocolPhase", "MachineNode", "MechanismCoordinator", "effective_bid"]

COORDINATOR_NAME = "mechanism"


class ProtocolPhase(enum.Enum):
    """Phases of the centralised protocol, in order.

    ``VOIDED`` is a terminal phase outside the normal sequence: the
    round was abandoned before any allocation was decided (e.g. no
    machine bid before the deadline, or a restarted coordinator could
    not recover enough state to continue).  A voided round routes no
    jobs and pays nobody.
    """

    IDLE = "idle"
    BIDDING = "bidding"
    EXECUTING = "executing"
    VERIFYING = "verifying"
    DONE = "done"
    VOIDED = "voided"


@dataclass
class MachineNode:
    """Network-facing wrapper around one machine and its strategic owner.

    Responds to the coordinator's control messages; the actual job
    execution happens in the wrapped :class:`LinearLatencyMachine`
    (whose execution value is the *agent's* choice — that is the
    behaviour the mechanism must verify).
    """

    name: str
    agent: Agent
    machine: LinearLatencyMachine
    network: SimulatedNetwork
    allocated_load: float | None = None
    received_payment: PaymentNotice | None = None

    def handle(self, message: Message, sim: Simulator) -> None:
        """Dispatch one delivered control message."""
        if isinstance(message, BidRequest):
            self.network.send(
                BidReply(
                    sender=self.name,
                    receiver=COORDINATOR_NAME,
                    bid=self.agent.bid(),
                )
            )
        elif isinstance(message, AllocationNotice):
            self.allocated_load = message.load
            self.machine.configure(message.load)
        elif isinstance(message, PaymentNotice):
            self.received_payment = message
        else:
            raise TypeError(f"machine {self.name} cannot handle {type(message).__name__}")

    def report_completion(self) -> None:
        """Send the coordinator this machine's execution summary."""
        stats = self.machine.stats()
        self.network.send(
            CompletionReport(
                sender=self.name,
                receiver=COORDINATOR_NAME,
                jobs_completed=stats.completed,
                mean_sojourn=stats.mean_sojourn if stats.completed else 0.0,
            )
        )


def effective_bid(name: str, bid: float, overrides: Mapping[str, float]) -> float:
    """The bid a round records: the declared one, or a higher override.

    Remediation may impose an effective declared value on a machine it
    re-estimated; an override only ever *raises* a bid, and applying
    it is counted (``remediation.bid_overrides``) and annotated.
    """
    override = overrides.get(name)
    if override is None or not override > bid:
        return bid
    record_counter("remediation.bid_overrides")
    annotate("remediation.bid_override", machine=name, declared=bid, override=override)
    return float(override)


@dataclass
class MechanismCoordinator:
    """The central mechanism: collects bids, allocates, verifies, pays.

    Parameters
    ----------
    mechanism:
        Payment rule (normally :class:`~repro.mechanism.VerificationMechanism`).
    machine_names:
        Control-plane identities of the participating machines.
    arrival_rate:
        Total job rate ``R`` to allocate.
    network:
        The simulated network to communicate over.
    on_allocated:
        Runtime callback fired once the allocation is decided; receives
        the load vector in ``machine_names`` order (the runtime uses it
        to start routing jobs).
    """

    mechanism: Mechanism
    machine_names: list[str]
    arrival_rate: float
    network: SimulatedNetwork
    on_allocated: Callable[[np.ndarray], None] | None = None

    phase: ProtocolPhase = ProtocolPhase.IDLE
    outcome: MechanismOutcome | None = None
    estimated_execution_values: np.ndarray | None = None

    _bids: dict[str, float] = field(default_factory=dict)
    _reports: dict[str, CompletionReport] = field(default_factory=dict)
    _loads: np.ndarray | None = None
    # Membership/caching state, maintained incrementally: the pending
    # sets are lazily derived from (machine_names, _bids/_reports) on
    # first use — so a coordinator restored from a checkpoint (which
    # assigns ``_bids``/``_reports`` wholesale on a fresh instance)
    # rebuilds them correctly — then updated by discard as replies
    # arrive, replacing the per-message O(n) rescans.
    _pending_bids: set[str] | None = field(default=None, repr=False)
    _pending_reports: set[str] | None = field(default=None, repr=False)
    _bids_cache: np.ndarray | None = field(default=None, repr=False)

    #: Imputation factor for machines that never report (a class
    #: constant here; the fault-tolerant subclass makes it a field).
    missing_report_factor = 4.0

    def _set_phase(self, phase: ProtocolPhase) -> None:
        """Advance the state machine, recording the transition.

        All phase *transitions* funnel through here so the
        observability layer sees every one (a counter per (src, dst)
        edge plus a span annotation); restoring a checkpointed phase
        wholesale bypasses it deliberately — that is state recovery,
        not a transition.
        """
        previous = self.phase
        self.phase = phase
        if previous is not phase:
            record_counter(
                "protocol.phase_transitions", src=previous.value, dst=phase.value
            )
            annotate("protocol.phase", src=previous.value, dst=phase.value)

    def start(self) -> None:
        """Begin a round: request a bid from every machine."""
        if self.phase is not ProtocolPhase.IDLE:
            raise RuntimeError(f"cannot start from phase {self.phase}")
        self._set_phase(ProtocolPhase.BIDDING)
        for name in self.machine_names:
            self.network.send(BidRequest(sender=COORDINATOR_NAME, receiver=name))

    def handle(self, message: Message, sim: Simulator) -> None:
        """Dispatch one delivered control message."""
        if isinstance(message, BidReply):
            self._on_bid(message)
        elif isinstance(message, CompletionReport):
            self._on_report(message)
        else:
            raise TypeError(f"coordinator cannot handle {type(message).__name__}")

    # ------------------------------------------------------------ phases

    def _on_bid(self, reply: BidReply) -> None:
        if self.phase is not ProtocolPhase.BIDDING:
            raise RuntimeError(f"unexpected bid in phase {self.phase}")
        if reply.sender in self._bids:
            raise RuntimeError(f"duplicate bid from {reply.sender}")
        self._record_bid(reply)
        if not self._pending_bid_set():
            self._allocate_to_responders()

    def _allocate_to_responders(self) -> None:
        """Allocate over the machines that bid and announce their loads."""
        responders = [n for n in self.machine_names if n in self._bids]
        if len(responders) < len(self.machine_names):
            self.machine_names = responders
            self._reset_membership_caches()
        allocation = self._allocate(self.bids_vector())
        self._loads = allocation.loads
        self._set_phase(ProtocolPhase.EXECUTING)
        for name, load in zip(self.machine_names, allocation.loads):
            self.network.send(
                AllocationNotice(
                    sender=COORDINATOR_NAME, receiver=name, load=float(load)
                )
            )
        if self.on_allocated is not None:
            self.on_allocated(allocation.loads)

    def _allocate(self, bids: np.ndarray) -> AllocationResult:
        """The allocation step (subclasses may serve it incrementally)."""
        return self.mechanism.allocate(bids, self.arrival_rate)

    def _on_report(self, report: CompletionReport) -> None:
        if self.phase is not ProtocolPhase.EXECUTING:
            raise RuntimeError(f"unexpected completion report in phase {self.phase}")
        if report.sender in self._reports:
            raise RuntimeError(f"duplicate report from {report.sender}")
        # Not a duplicate, so any participating machine is still pending.
        if report.sender not in self._pending_report_set():
            raise RuntimeError(f"report from non-participating machine {report.sender}")
        self._record_report(report)
        if not self._pending_report_set():
            self._verify_and_pay()

    def _verify_and_pay(self, missing: Collection[str] = ()) -> None:
        """Estimate every execution value, price the round, and pay.

        Machines in ``missing`` never reported: their value is imputed
        (see :func:`~repro.protocol.estimator.verified_estimates`) and
        they are paid nothing.  A pure function of the round's inputs
        (bids, loads, reports, ``missing``), so a coordinator restored
        mid-verification re-derives the identical outcome.
        """
        self._set_phase(ProtocolPhase.VERIFYING)
        bids = self.bids_vector()
        assert self._loads is not None
        reports = [self._reports.get(name) for name in self.machine_names]
        estimates = verified_estimates(
            bids,
            self._loads,
            [0 if r is None else r.jobs_completed for r in reports],
            [0.0 if r is None else r.mean_sojourn for r in reports],
            withheld=[name in missing for name in self.machine_names],
            missing_report_factor=self.missing_report_factor,
        )
        self.estimated_execution_values = estimates
        self.outcome = self.mechanism.run(bids, self.arrival_rate, estimates)
        payments = self.outcome.payments
        for k, name in enumerate(self.machine_names):
            amounts = (
                (0.0, 0.0, 0.0)
                if name in missing
                else (
                    float(payments.payment[k]),
                    float(payments.compensation[k]),
                    float(payments.bonus[k]),
                )
            )
            self._pay(name, amounts)
        self._set_phase(ProtocolPhase.DONE)

    def _pay(self, name: str, amounts: tuple[float, float, float]) -> None:
        """Send one machine its (payment, compensation, bonus) notice."""
        payment, compensation, bonus = amounts
        self.network.send(
            PaymentNotice(
                sender=COORDINATOR_NAME,
                receiver=name,
                payment=payment,
                compensation=compensation,
                bonus=bonus,
            )
        )

    # ------------------------------------------------------------ helpers

    def _record_bid(self, reply: BidReply) -> None:
        """Store one bid and update the incremental membership state."""
        self._bids[reply.sender] = reply.bid
        self._bids_cache = None
        self._pending_bid_set().discard(reply.sender)

    def _record_report(self, report: CompletionReport) -> None:
        """Store one report and update the incremental membership state."""
        self._reports[report.sender] = report
        self._pending_report_set().discard(report.sender)

    def _pending_bid_set(self) -> set[str]:
        if self._pending_bids is None:
            self._pending_bids = set(self.machine_names) - self._bids.keys()
        return self._pending_bids

    def _pending_report_set(self) -> set[str]:
        if self._pending_reports is None:
            self._pending_reports = set(self.machine_names) - self._reports.keys()
        return self._pending_reports

    def _reset_membership_caches(self) -> None:
        """Invalidate the derived state after ``machine_names`` changes."""
        self._pending_bids = None
        self._pending_reports = None
        self._bids_cache = None

    @property
    def pending_bidders(self) -> list[str]:
        """Machines whose bid has not arrived yet (``machine_names`` order)."""
        pending = self._pending_bid_set()
        if not pending:
            return []
        return [n for n in self.machine_names if n in pending]

    @property
    def pending_reporters(self) -> list[str]:
        """Machines whose completion report has not arrived yet."""
        pending = self._pending_report_set()
        if not pending:
            return []
        return [n for n in self.machine_names if n in pending]

    def bids_vector(self) -> np.ndarray:
        """Collected bids in ``machine_names`` order.

        The vector is assembled once per phase and cached (a new bid or
        a membership change invalidates it); callers get a copy, so the
        cache can never be mutated from outside.
        """
        cache = self._bids_cache
        if cache is not None and cache.size == len(self.machine_names):
            return cache.copy()
        if self._pending_bid_set():
            raise RuntimeError("bids are not complete yet")
        self._bids_cache = np.array(
            [self._bids[name] for name in self.machine_names]
        )
        return self._bids_cache.copy()
