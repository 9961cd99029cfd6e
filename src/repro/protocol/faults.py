"""Failure injection: lossy links, crashed machines, timeout handling.

The paper's protocol assumes reliable delivery and responsive machines.
This module supplies the failure model a deployment needs:

* :class:`ReliableNetwork` — at-least-once delivery over a lossy link:
  every message is retransmitted until acknowledged, receivers
  de-duplicate, and the overhead (retransmissions, acks) is counted so
  benches can price reliability;
* :class:`CrashingNode` — a machine that silently stops responding at a
  chosen point in the protocol;
* :class:`FaultTolerantCoordinator` — extends the coordinator with bid
  and report timeouts: machines that miss the bid deadline are excluded
  from the round (the allocation is computed over the responders), and
  machines that received load but never report get a pessimistic
  imputed execution value and their payment withheld — they cannot be
  verified, so they are not paid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro._validation import check_positive_scalar
from repro.protocol.coordinator import (
    MachineNode,
    MechanismCoordinator,
    ProtocolPhase,
)
from repro.protocol.messages import Message
from repro.protocol.network import SimulatedNetwork
from repro.system.des import Simulator

__all__ = [
    "ReliableNetwork",
    "CrashingNode",
    "FaultTolerantCoordinator",
]


@dataclass(frozen=True)
class _Envelope(Message):
    """A payload message wrapped with a delivery sequence number."""

    seq: int
    payload: Message


class ReliableNetwork:
    """At-least-once delivery with receiver-side de-duplication.

    Wraps a :class:`~repro.protocol.network.SimulatedNetwork` whose
    links drop each transmission independently with probability
    ``drop_probability``.  Senders retransmit every ``rto`` seconds
    until the matching ack arrives; receivers deliver each sequence
    number exactly once, so the protocol logic above never sees
    duplicates.

    Statistics: ``transmissions`` (attempts incl. retransmits and
    acks), ``dropped``, and :meth:`delivered_payloads`.
    """

    def __init__(
        self,
        sim: Simulator,
        drop_probability: float,
        rng: np.random.Generator,
        *,
        rto: float = 0.05,
        max_retries: int = 200,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        self._sim = sim
        self._drop = drop_probability
        self._rng = rng
        self._rto = check_positive_scalar(rto, "rto")
        self._max_retries = int(max_retries)
        self._handlers: dict[str, object] = {}
        self._seq = itertools.count()
        self._acked: set[int] = set()
        self._seen: dict[str, set[int]] = {}
        self.transmissions = 0
        self.dropped = 0
        self._delivered_payloads = 0

    # ------------------------------------------------------------ wiring

    def register(self, name: str, handler) -> None:
        """Attach a node; ``handler(message, sim)`` gets each payload once."""
        if name in self._handlers:
            raise ValueError(f"node {name!r} is already registered")
        self._handlers[name] = handler
        self._seen[name] = set()

    def stats(self):
        """Minimal stats shim (payload count only, like NetworkStats)."""
        return self

    @property
    def total_messages(self) -> int:
        """Distinct payload messages delivered (excludes retransmits/acks)."""
        return self._delivered_payloads

    def delivered_payloads(self) -> int:
        return self._delivered_payloads

    # ------------------------------------------------------------ sending

    def send(self, message: Message) -> None:
        """Send with retransmission until acknowledged."""
        if message.receiver not in self._handlers:
            raise KeyError(f"unknown receiver {message.receiver!r}")
        seq = next(self._seq)
        envelope = _Envelope(
            sender=message.sender, receiver=message.receiver,
            seq=seq, payload=message,
        )
        self._transmit(envelope, retries_left=self._max_retries)

    def _transmit(self, envelope: _Envelope, retries_left: int) -> None:
        if envelope.seq in self._acked:
            return
        if retries_left < 0:
            raise RuntimeError(
                f"message {envelope.seq} to {envelope.receiver} exceeded the "
                "retry budget"
            )
        self.transmissions += 1
        if self._rng.random() < self._drop:
            self.dropped += 1
        else:
            self._sim.schedule(0.0, lambda s, e=envelope: self._deliver(e, s))
        # Arm the retransmission timer regardless; it no-ops once acked.
        self._sim.schedule(
            self._rto,
            lambda s, e=envelope, r=retries_left - 1: self._transmit(e, r),
        )

    def _deliver(self, envelope: _Envelope, sim: Simulator) -> None:
        # Send the ack back (it may itself be dropped; the sender then
        # retransmits and we re-ack).
        self.transmissions += 1
        if self._rng.random() >= self._drop:
            self._acked_later(envelope.seq)
        seen = self._seen[envelope.receiver]
        if envelope.seq in seen:
            return  # duplicate: already delivered
        seen.add(envelope.seq)
        self._delivered_payloads += 1
        handler = self._handlers[envelope.receiver]
        handler(envelope.payload, sim)

    def _acked_later(self, seq: int) -> None:
        self._acked.add(seq)


class CrashingNode:
    """A machine node that silently stops at a chosen protocol point.

    ``crash_after`` selects when the node dies:

    * ``"immediately"`` — never answers the bid request;
    * ``"after_bid"`` — bids, accepts its allocation, but never reports.
    """

    _POINTS = ("immediately", "after_bid")

    def __init__(self, inner: MachineNode, crash_after: str) -> None:
        if crash_after not in self._POINTS:
            raise ValueError(f"crash_after must be one of {self._POINTS}")
        self.inner = inner
        self.crash_after = crash_after

    @property
    def name(self) -> str:
        return self.inner.name

    def handle(self, message: Message, sim: Simulator) -> None:
        if self.crash_after == "immediately":
            return  # dead: drop everything
        self.inner.handle(message, sim)

    def report_completion(self) -> None:
        """A crashed node never reports: every crash point precedes it."""


@dataclass
class FaultTolerantCoordinator(MechanismCoordinator):
    """Coordinator with bid/report timeouts and exclusion.

    * Machines that have not bid when :meth:`close_bidding` is invoked
      are excluded: the allocation is computed over the responders only
      (their names are recorded in ``excluded``).
    * Machines that received load but never report by
      :meth:`close_reporting` get the pessimistic imputed execution
      value ``missing_report_factor * bid`` in the realised latency and
      their payment is **withheld** (a zero ``PaymentNotice``) — an
      unverifiable machine is not paid.
    """

    missing_report_factor: float = 4.0
    excluded: list[str] = field(default_factory=list)
    withheld: list[str] = field(default_factory=list)

    def close_bidding(self, *, void_if_empty: bool = False) -> None:
        """Bid deadline: proceed with whoever has responded.

        With ``void_if_empty`` a deadline that finds zero bids voids
        the round cleanly (phase ``VOIDED``, no allocation, no
        payments) instead of raising; supervised multi-round loops use
        this to skip a dead round and carry on.
        """
        if self.phase is not ProtocolPhase.BIDDING:
            return  # already past bidding (everyone answered in time)
        if not self._bids:
            if void_if_empty:
                self.void_round()
                return
            raise RuntimeError("no machine bid before the deadline")
        self._allocate_to_responders()

    def void_round(self) -> None:
        """Abandon the round before allocation: nothing routed, nobody paid."""
        if self.phase not in (ProtocolPhase.IDLE, ProtocolPhase.BIDDING):
            raise RuntimeError(
                f"cannot void a round in phase {self.phase}: an allocation "
                "has already been announced"
            )
        self.excluded = list(self.machine_names)
        self._set_phase(ProtocolPhase.VOIDED)

    def _allocate_to_responders(self) -> None:
        self.excluded = [n for n in self.machine_names if n not in self._bids]
        super()._allocate_to_responders()

    def close_reporting(self) -> None:
        """Report deadline: impute the silent machines and pay the rest."""
        if self.phase is not ProtocolPhase.EXECUTING:
            return
        self.withheld = sorted(self._pending_report_set())
        self._verify_and_pay(set(self.withheld))
