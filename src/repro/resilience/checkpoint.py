"""Coordinator checkpoint/restore: crash the mechanism, not the round.

The coordinator is a single point of failure: if it dies mid-round the
machines have already burned cycles executing jobs, and naively
restarting it either loses the round or — worse — pays twice.  The fix
is the standard write-ahead pattern: the coordinator serialises its
*inputs* (phase, collected bids, decided loads, received reports, and
the set of payments already issued) as they change — a snapshot at
every phase transition, one journal entry per bid, report or payment
between them — and a restarted coordinator deterministically
recomputes everything derived (estimates, outcome, remaining payments)
from that record.

Two properties matter and are enforced by tests and the chaos harness:

* **resume, don't redo** — a coordinator restored in ``EXECUTING``
  keeps the allocation it already announced and simply continues
  collecting reports; one restored in ``VERIFYING`` re-derives the
  outcome and issues only the payments *not* in ``payments_sent``
  (at-most-once payment semantics);
* **void, don't guess** — a coordinator restored before any allocation
  was announced (``IDLE``/``BIDDING``) voids the round: no allocation
  reached any machine, so abandoning is safe and cheap.

Checkpoints round-trip through JSON so the "durable store" can be a
file, a database row, or (in tests) an in-memory string — the
serialisation boundary is what proves no live object sneaks through.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.observability.instrumentation import record_counter, timed_section

__all__ = ["CoordinatorCheckpoint", "CheckpointStore"]


@dataclass(frozen=True)
class CoordinatorCheckpoint:
    """Everything a restarted coordinator needs to resume a round.

    Attributes
    ----------
    phase:
        The :class:`~repro.protocol.ProtocolPhase` value string.
    machine_names:
        Machines still in the round (responders after any exclusion).
    arrival_rate:
        Total rate ``R`` being allocated.
    bids:
        Collected bids by machine name.
    loads:
        The announced allocation in ``machine_names`` order, or
        ``None`` if no allocation was decided yet.
    reports:
        Received completion reports: name → (jobs_completed,
        mean_sojourn).
    excluded / withheld:
        Names excluded at the bid deadline / whose payment is withheld.
    payments_sent:
        Payments already issued: name → (payment, compensation, bonus).
        The restore path never re-issues these.
    """

    phase: str
    machine_names: list[str]
    arrival_rate: float
    bids: dict[str, float] = field(default_factory=dict)
    loads: list[float] | None = None
    reports: dict[str, tuple[int, float]] = field(default_factory=dict)
    excluded: list[str] = field(default_factory=list)
    withheld: list[str] = field(default_factory=list)
    payments_sent: dict[str, tuple[float, float, float]] = field(
        default_factory=dict
    )

    def to_json(self) -> str:
        """Serialise to a JSON string (the durable representation).

        Tuples encode as JSON arrays natively and ``default=float``
        coerces any stray numpy scalar, so no per-element Python loop
        runs here — snapshots are O(n) in C, which matters because the
        sharded service takes one per phase per shard.
        """
        loads = self.loads
        if loads is not None and hasattr(loads, "tolist"):
            loads = loads.tolist()
        return json.dumps(
            {
                "phase": self.phase,
                "machine_names": self.machine_names,
                "arrival_rate": self.arrival_rate,
                "bids": self.bids,
                "loads": loads,
                "reports": self.reports,
                "excluded": self.excluded,
                "withheld": self.withheld,
                "payments_sent": self.payments_sent,
            },
            default=float,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CoordinatorCheckpoint":
        """Rebuild a checkpoint from its JSON representation."""
        return cls._from_raw(json.loads(payload))

    @classmethod
    def _from_raw(cls, raw: dict) -> "CoordinatorCheckpoint":
        return cls(
            phase=raw["phase"],
            machine_names=list(raw["machine_names"]),
            arrival_rate=float(raw["arrival_rate"]),
            bids={name: float(bid) for name, bid in raw["bids"].items()},
            loads=None if raw["loads"] is None else [float(x) for x in raw["loads"]],
            reports={
                name: (int(jobs), float(sojourn))
                for name, (jobs, sojourn) in raw["reports"].items()
            },
            excluded=list(raw["excluded"]),
            withheld=list(raw["withheld"]),
            payments_sent={
                name: (float(p), float(c), float(b))
                for name, (p, c, b) in raw["payments_sent"].items()
            },
        )


@dataclass
class _Ledger:
    """One priced-amounts record: who is owed what, and how many were sent.

    ``names`` is one JSON list and ``amounts`` the ``(k, 3)`` float64
    rows as raw bytes (exact, like JSON's shortest repr); only the first
    ``sent`` rows count as issued.
    """

    names: str
    amounts: bytes
    size: int
    sent: int = 0

    def issued(self) -> dict[str, list[float]]:
        rows = np.frombuffer(self.amounts, dtype=np.float64).reshape(-1, 3)
        names = json.loads(self.names)[: self.sent]
        return dict(zip(names, rows[: self.sent].tolist()))


class CheckpointStore:
    """A durable slot for a phase snapshot plus the events since it.

    Stores the *serialised* form: every snapshot and every journal
    entry is serialised when it is written, so anything that would not
    survive a real process restart fails loudly in tests rather than
    silently working in memory.

    Snapshots are O(n) to write, which is fine once per phase but turns
    a round quadratic if taken once per bid, report or payment.  So
    :meth:`save` runs only at phase transitions, and each event between
    them is one O(1) journal entry on top of the snapshot
    (:meth:`append_bid`, :meth:`append_report`, :meth:`append_payment`).
    A settle that pays a known list in order writes one priced-amounts
    record (:meth:`append_ledger`) and bumps its sent-count watermark
    before each notice (:meth:`mark_sent`).  :meth:`load` folds every
    entry back into the snapshot in append order, so the rebuilt
    checkpoint equals one snapshot taken at the same point.  A fresh
    snapshot subsumes (and drops) the journal.
    """

    def __init__(self) -> None:
        self._payload: str | None = None
        self._journal: list[str | _Ledger] = []
        self._ledger: _Ledger | None = None
        self.saves = 0
        self.appends = 0

    @property
    def has_snapshot(self) -> bool:
        """Whether a base snapshot exists for the journal to build on."""
        return self._payload is not None

    def save(self, checkpoint: CoordinatorCheckpoint) -> None:
        """Persist ``checkpoint``, replacing any previous one."""
        with timed_section("resilience.checkpoint.save.seconds"):
            self._payload = checkpoint.to_json()
        self._drop_journal()
        self.saves += 1
        record_counter("resilience.checkpoint.saves")

    def append_bid(self, name: str, bid: float) -> None:
        """Journal one recorded bid."""
        self._append(json.dumps(["bids", name, bid], default=float))

    def append_report(self, name: str, report: tuple[int, float]) -> None:
        """Journal one completion report: (jobs_completed, mean_sojourn)."""
        self._append(json.dumps(["reports", name, report], default=float))

    def append_payment(
        self, name: str, amounts: tuple[float, float, float]
    ) -> None:
        """Journal one issued payment: (payment, compensation, bonus)."""
        self._append(json.dumps(["payments_sent", name, amounts], default=float))

    def append_ledger(self, names: Sequence[str], amounts: np.ndarray) -> None:
        """Journal the priced amounts of ``names``, none issued yet.

        ``amounts`` holds one (payment, compensation, bonus) row per
        name; :meth:`mark_sent` then marks them issued in order.
        """
        rows = np.asarray(amounts, dtype=np.float64).reshape(len(names), 3)
        ledger = _Ledger(json.dumps(list(names)), rows.tobytes(), len(names))
        self._append(ledger)
        self._ledger = ledger

    def mark_sent(self) -> None:
        """Mark the next entry of the latest ledger record as issued."""
        ledger = self._ledger
        if ledger is None or ledger.sent >= ledger.size:
            raise RuntimeError("no unsent ledger entry to mark")
        ledger.sent += 1

    def _append(self, entry: str | _Ledger) -> None:
        if self._payload is None:
            raise RuntimeError("cannot journal an event with no base snapshot saved")
        self._journal.append(entry)
        self.appends += 1
        record_counter("resilience.checkpoint.appends")

    def load(self) -> CoordinatorCheckpoint | None:
        """The most recent checkpoint, or ``None`` if nothing was saved.

        Journal entries fold into their section (``bids``, ``reports``,
        ``payments_sent``) in append order, so the restore path sees
        one coherent record whether an entry arrived by snapshot or by
        append.
        """
        if self._payload is None:
            return None
        with timed_section("resilience.checkpoint.load.seconds"):
            raw = json.loads(self._payload)
            for entry in self._journal:
                if isinstance(entry, _Ledger):
                    raw["payments_sent"].update(entry.issued())
                else:
                    section, name, value = json.loads(entry)
                    raw[section][name] = value
            checkpoint = CoordinatorCheckpoint._from_raw(raw)
        record_counter("resilience.checkpoint.loads")
        return checkpoint

    def clear(self) -> None:
        """Drop the stored checkpoint (end of a completed round)."""
        self._payload = None
        self._drop_journal()

    def _drop_journal(self) -> None:
        self._journal.clear()
        self._ledger = None
