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

Checkpoints round-trip through one JSON string so the "durable store"
can be a file, a database row, or (in tests) an in-memory string — the
serialisation boundary is what proves no live object sneaks through.
The string is columnar: names are written once, and the per-machine
values are little-endian float64/int64 arrays, base64-encoded.
Formatting each float with ``repr`` cost more than the rest of a large
sharded round, and raw bytes are exact where decimal text loses NaN
payloads.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.observability.instrumentation import record_counter, timed_section

__all__ = ["CoordinatorCheckpoint", "CheckpointStore", "encode_checkpoint"]


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
        """Serialise to one JSON string (the durable representation).

        ``phase``, ``machine_names``, ``arrival_rate``, ``excluded`` and
        ``withheld`` are plain JSON.  The per-machine sections are
        columns: each value column is the little-endian bytes of one
        array (``<f8``, ``<i8`` for report job counts), base64-encoded,
        so no float goes through ``repr`` and every bit (NaN payloads,
        -0.0) survives.  A section keyed by ``machine_names`` in that
        order stores no key list, so a shard's stage snapshot writes
        each name once; any other section stores its own keys in
        insertion order.
        """
        jobs, sojourns = zip(*self.reports.values()) if self.reports else ((), ())
        return encode_checkpoint(
            self.phase,
            self.machine_names,
            self.arrival_rate,
            bids=(self.bids, list(self.bids.values())),
            loads=self.loads,
            reports=(self.reports, jobs, sojourns),
            payments_sent=(self.payments_sent, list(self.payments_sent.values())),
            excluded=self.excluded,
            withheld=self.withheld,
        )

    @classmethod
    def from_json(cls, payload: str) -> "CoordinatorCheckpoint":
        """Rebuild a checkpoint from its :meth:`to_json` string."""
        return cls._from_raw(_raw_from_json(payload))

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


_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")


def _column(values, dtype: np.dtype) -> str:
    """``values`` as one little-endian array's bytes, base64-encoded."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def _array(column: str, dtype: np.dtype) -> np.ndarray:
    """The array one :func:`_column` string encodes."""
    return np.frombuffer(base64.b64decode(column), dtype=dtype)


def _section(keys: Iterable[str], names: list[str], **columns: str) -> dict:
    """A columnar section: its key list unless keyed by ``names``, then columns."""
    keys = list(keys)
    return {**({} if keys == names else {"names": keys}), **columns}


def encode_checkpoint(
    phase: str,
    machine_names: Sequence[str],
    arrival_rate: float,
    *,
    bids: tuple[Iterable[str], object],
    loads: object | None,
    reports: tuple[Iterable[str], object, object],
    payments_sent: tuple[Iterable[str], object],
    excluded: Sequence[str] = (),
    withheld: Sequence[str] = (),
    encoded_names: str | None = None,
) -> str:
    """The one columnar JSON encoder of a checkpoint, from its columns.

    Each per-machine section is its keys plus value columns in key
    order: ``bids`` as (keys, values), ``reports`` as (keys, jobs,
    mean sojourns), ``payments_sent`` as (keys, ``(k, 3)`` amount
    rows).  :meth:`CoordinatorCheckpoint.to_json` passes its dicts; a
    coordinator shard passes the arrays it keeps in member order, and
    both get the same string for the same state.

    ``encoded_names`` is ``json.dumps(machine_names)`` if the caller
    already holds it (a shard encodes its names once per membership);
    it is spliced in where the name list goes, byte for byte.
    """
    names = list(machine_names)
    if encoded_names is None:
        encoded_names = json.dumps(names)
    paid, amounts = payments_sent
    rest = json.dumps(
        {
            "arrival_rate": arrival_rate,
            "bids": _section(bids[0], names, values=_column(bids[1], _F8)),
            "loads": None if loads is None else _column(loads, _F8),
            "reports": _section(
                reports[0],
                names,
                jobs=_column(reports[1], _I8),
                sojourns=_column(reports[2], _F8),
            ),
            "excluded": list(excluded),
            "withheld": list(withheld),
            "payments_sent": _section(paid, names, amounts=_column(amounts, _F8)),
        },
        default=float,
    )
    # The bytes ``json.dumps`` writes for the whole dict, in that order.
    return (
        f'{{"phase": {json.dumps(phase)}, "machine_names": {encoded_names}, '
        + rest[1:]
    )


def _raw_from_json(payload: str) -> dict:
    """Decode :meth:`CoordinatorCheckpoint.to_json` into plain dicts.

    Each columnar section comes back as ``name -> value`` in its stored
    key order (a report as ``(jobs, sojourn)``, a payment as a 3-list):
    the shape the store's journal entries fold into.
    """
    raw = json.loads(payload)
    names = raw["machine_names"]
    bids, reports, payments = raw["bids"], raw["reports"], raw["payments_sent"]
    raw["bids"] = dict(
        zip(bids.get("names", names), _array(bids["values"], _F8).tolist())
    )
    if raw["loads"] is not None:
        raw["loads"] = _array(raw["loads"], _F8).tolist()
    raw["reports"] = dict(
        zip(
            reports.get("names", names),
            zip(
                _array(reports["jobs"], _I8).tolist(),
                _array(reports["sojourns"], _F8).tolist(),
            ),
        )
    )
    amounts = _array(payments["amounts"], _F8).reshape(-1, 3)
    raw["payments_sent"] = dict(zip(payments.get("names", names), amounts.tolist()))
    return raw


@dataclass
class _Ledger:
    """One priced-amounts record: who is owed what, and how many were sent.

    ``names`` is one JSON list and ``amounts`` the ``(k, 3)`` float64
    rows as little-endian bytes (exact, and the same on every host);
    only the first ``sent`` rows count as issued.
    """

    names: str
    amounts: bytes
    size: int
    sent: int = 0

    def issued(self) -> dict[str, list[float]]:
        rows = np.frombuffer(self.amounts, dtype=_F8).reshape(-1, 3)
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
    record (:meth:`append_ledger`) and, before a run of notices goes
    out, bumps its sent-count watermark over the whole run in one call
    (:meth:`mark_sent`).  :meth:`load` folds every entry back into the
    snapshot in append order, so the rebuilt checkpoint equals one
    snapshot taken at the same point.  A fresh snapshot subsumes (and
    drops) the journal.
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

    def save(self, checkpoint: CoordinatorCheckpoint | str) -> None:
        """Persist ``checkpoint``, replacing any previous one.

        A string is taken as an already-serialised snapshot (a
        :meth:`CoordinatorCheckpoint.to_json` result, such as one a
        process worker shipped) and stored verbatim.
        """
        with timed_section("resilience.checkpoint.save.seconds"):
            self._payload = (
                checkpoint if isinstance(checkpoint, str) else checkpoint.to_json()
            )
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

    def append_ledger(
        self,
        names: Sequence[str],
        amounts: np.ndarray,
        *,
        encoded_names: str | None = None,
    ) -> None:
        """Journal the priced amounts of ``names``, none issued yet.

        ``amounts`` holds one (payment, compensation, bonus) row per
        name; :meth:`mark_sent` then marks them issued in order.
        ``encoded_names`` is ``json.dumps(list(names))`` if the caller
        already holds it.
        """
        rows = np.asarray(amounts, dtype=_F8).reshape(len(names), 3)
        if encoded_names is None:
            encoded_names = json.dumps(list(names))
        ledger = _Ledger(encoded_names, rows.tobytes(), len(names))
        self._append(ledger)
        self._ledger = ledger

    def mark_sent(self, count: int = 1) -> None:
        """Mark the next ``count`` entries of the latest ledger record as issued.

        One call covers a run of notices.  Raises, changing nothing, if
        the run would pass the end of the record.
        """
        ledger = self._ledger
        left = 0 if ledger is None else ledger.size - ledger.sent
        if ledger is None or not 0 <= count <= left:
            raise RuntimeError(
                f"no unsent ledger entry to mark: {count} asked, {left} left"
            )
        ledger.sent += count

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
            raw = _raw_from_json(self._payload)
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
