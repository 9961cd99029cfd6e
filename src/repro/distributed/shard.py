"""One coordinator shard: a worker owning a slice of the agents.

The sharded service (:mod:`repro.distributed.service`) partitions the
agent population into contiguous slices and gives each slice to a
:class:`CoordinatorShard`.  A shard is the single-coordinator round
logic (:class:`~repro.protocol.MechanismCoordinator`) confined to its
members: it collects their bids, executes their share of the routed
jobs through the batched execute kernel
(:func:`~repro.protocol.execution.serve_batch`, on the execution
values it read once at construction — a shard holds no machine
objects), estimates their execution values with the identical
estimator, and issues their payments through the identical
write-ahead checkpoint/ledger discipline
(:mod:`repro.resilience.checkpoint`) — so a crashed shard restores
mid-phase and never pays a member twice.

A shard keeps its round as columns in member order (``machine_names``):
the bids, loads, report job counts, mean sojourns and notice counts
are arrays, and the ledger is one ``(n, 3)`` array of (payment,
compensation, bonus) rows plus a sent count.  Bids that are fixed
numbers are read once at construction, like the execution values.
Settle pays in member order, so the paid members are always a prefix,
and returns the ledger as :class:`LedgerRows`, a name-keyed view over
a copy of the rows.  Its jobs arrive as one machine-sorted time column
plus per-member counts, its payments as rows, and its stage snapshots
are encoded straight from the arrays, with the member names encoded
once per membership
(:func:`~repro.resilience.checkpoint.encode_checkpoint`), in the same
string :meth:`CoordinatorCheckpoint.to_json` writes.

What a shard does *not* do is hold any global state: the cross-shard
quantities it needs (``S = sum 1/b_j`` for loads, ``Q = sum t̂_j/b_j^2``
for latency) arrive as two scalars from the aggregation tree
(:mod:`repro.distributed.gather`), which is what the paper's
sufficient-statistic structure buys (docs/distributed.md).
"""

from __future__ import annotations

import json
from collections.abc import ItemsView, Mapping, Sequence, ValuesView

import numpy as np

from repro.agents.base import Agent
from repro.agents.behaviors import (
    ManipulativeAgent,
    ScaledBidder,
    SlowExecutor,
    TruthfulAgent,
)
from repro.mechanism import pricing
from repro.observability.instrumentation import record_gauge
from repro.protocol.coordinator import ProtocolPhase
from repro.protocol.estimator import verified_estimates
from repro.protocol.execution import (
    check_execution_values,
    serve_batch,
    sojourn_means,
    sort_by_machine,
)
from repro.resilience.checkpoint import (
    CheckpointStore,
    CoordinatorCheckpoint,
    encode_checkpoint,
)
from repro.system.workload import PoissonWorkload, split_assignments

__all__ = [
    "ShardCrash",
    "CoordinatorShard",
    "NamedRows",
    "LedgerRows",
    "partition_names",
]


# Agent types whose bid is a number fixed at construction, so a shard
# reads it once.  Matched by exact type: a subclass may bid differently
# each round, and then gets one ``bid()`` call per round.
_FIXED_BID_TYPES = frozenset(
    {TruthfulAgent, ManipulativeAgent, ScaledBidder, SlowExecutor}
)


class ShardCrash(RuntimeError):
    """Injected shard failure: the worker process died mid-phase."""


def partition_names(names: Sequence[str], n_shards: int) -> list[list[str]]:
    """Split ``names`` into ``n_shards`` contiguous, balanced slices.

    Contiguity is load-bearing: concatenating shard slices in shard-id
    order restores the global order, which is what lets the exact
    aggregation mode rebuild the monolithic coordinator's arrays
    bit-for-bit (:func:`~repro.distributed.gather.concatenate_payload`).
    The first ``len(names) % n_shards`` shards get one extra member.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be at least 1")
    if n_shards > len(names):
        raise ValueError(
            f"cannot spread {len(names)} agents over {n_shards} shards "
            "(every shard needs at least one member)"
        )
    base, extra = divmod(len(names), n_shards)
    slices: list[list[str]] = []
    start = 0
    for k in range(n_shards):
        size = base + (1 if k < extra else 0)
        slices.append(list(names[start : start + size]))
        start += size
    return slices


class NamedRows(Mapping):
    """A read-only name-keyed view over the rows of a member-order array.

    ``index`` maps each name to its row (built once per member list and
    shared by every view over it); iteration follows it, so it follows
    the member order.  A 1-d array reads as Python scalars (floats, or
    ints from an integer array such as notice counts), an ``(n, 3)``
    ledger as (payment, compensation, bonus) tuples; ``rows`` is the
    array itself.  Keeping a round's floats in arrays, not in 10^4 boxed
    Python objects, is what keeps the garbage collector out of a large
    round.
    """

    __slots__ = ("index", "rows")

    def __init__(self, index: Mapping[str, int], rows: np.ndarray) -> None:
        self.index = index
        self.rows = rows

    def __getitem__(self, name: str):
        rows, k = self.rows, self.index[name]
        return rows.item(k) if rows.ndim == 1 else tuple(rows[k].tolist())

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def values(self) -> ValuesView:
        return _RowValues(self)

    def items(self) -> ItemsView:
        return _RowItems(self)

    def _read(self):
        """Every name's value in index order, from one ``tolist``."""
        rows = self.rows
        rows = rows.tolist() if rows.ndim == 1 else list(zip(*rows.T.tolist()))
        return map(rows.__getitem__, self.index.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class _RowValues(ValuesView):
    """:meth:`NamedRows.values`, read in one pass instead of per name."""

    __slots__ = ()

    def __iter__(self):
        return self._mapping._read()


class _RowItems(ItemsView):
    """:meth:`NamedRows.items`, read in one pass instead of per name."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping.index, self._mapping._read())


class LedgerRows(NamedRows):
    """A settled round's ledger rows, keyed by member name.

    :meth:`CoordinatorShard.settle` returns one over its own copy of
    the rows, so the caller owns them: assigning a (payment,
    compensation, bonus) triple to a name writes that member's row.
    """

    __slots__ = ()

    def __setitem__(self, name: str, amounts: Sequence[float]) -> None:
        self.rows[self.index[name]] = amounts


class CoordinatorShard:
    """Round logic for one slice of the agent population.

    Parameters
    ----------
    shard_id:
        Position in the service's shard list (and in the overlay tree).
    names / agents:
        This shard's members, in global order, and their strategic
        owners (one per name).
    arrival_rate:
        Total system rate ``R`` (needed locally for scalar-mode
        payments: ``x_i = R (1/b_i)/S``).
    rng:
        Randomness source for service-time draws (and local workload
        generation).  The serial executor passes the service's shared
        generator so stochastic rounds consume the monolithic RNG
        stream; process workers get spawned child streams.
    deterministic_service:
        Noise-free service times (each job takes exactly its mean), as
        in the supervisor's default mode.
    checkpoint_store:
        Durable slot for this shard's write-ahead checkpoints; in
        process-executor mode the parent owns the store and the worker
        ships serialised checkpoints back instead.
    fail_after_payments:
        Chaos hook: raise :class:`ShardCrash` once this many payments
        were issued (mirrors the supervised coordinator's hook).
    """

    def __init__(
        self,
        shard_id: int,
        names: Sequence[str],
        agents: Sequence[Agent],
        arrival_rate: float,
        *,
        rng: np.random.Generator,
        duration: float = 40.0,
        deterministic_service: bool = True,
        checkpoint_store: CheckpointStore | None = None,
        fail_after_payments: int | None = None,
    ) -> None:
        if len(names) != len(agents):
            raise ValueError("names and agents must match in length")
        if len(names) == 0:
            raise ValueError("a shard needs at least one member")
        self.shard_id = int(shard_id)
        self.agents: dict[str, Agent] = dict(zip(names, agents))
        self.arrival_rate = float(arrival_rate)
        self.duration = float(duration)
        self.deterministic_service = bool(deterministic_service)
        self.checkpoint_store = checkpoint_store
        self.fail_after_payments = fail_after_payments
        self._rng = rng

        # Long-lived state, in member order: the names, and their JSON
        # list, which every snapshot splices in; each member's execution
        # value, read once (execution serves members as arrays, with no
        # machine objects); the fixed bids, read once, and the members
        # asked for a bid every round; the notice counts.
        self.machine_names: list[str] = list(names)
        self._encoded_names = json.dumps(self.machine_names)
        self._index = {name: k for k, name in enumerate(self.machine_names)}
        self._execution_values = check_execution_values(
            [agent.execution_value() for agent in agents]
        )
        fixed = [type(agent) in _FIXED_BID_TYPES for agent in agents]
        self._fixed_bids = np.array(
            [agent.bid() if f else np.nan for agent, f in zip(agents, fixed)],
            dtype=np.float64,
        )
        self._asked = [k for k, f in enumerate(fixed) if not f]
        self._asked_agents = [agents[k] for k in self._asked]
        self._notices = np.zeros(len(names), dtype=np.int64)
        self._reset_round()

    def _reset_round(self) -> None:
        self.phase = ProtocolPhase.IDLE
        self._bids: np.ndarray | None = None
        self._loads: np.ndarray | None = None
        self._jobs: np.ndarray | None = None
        self._means: np.ndarray | None = None
        self._estimates: np.ndarray | None = None
        self._simulated_time = 0.0
        # The round's (payment, compensation, bonus) rows; the first
        # ``_sent`` were issued.
        self._ledger = np.empty((len(self.machine_names), 3))
        self._sent = 0

    @property
    def payment_notices(self) -> NamedRows:
        """Payment notices sent to each member, over every round so far."""
        return NamedRows(self._index, self._notices)

    @property
    def payments_sent(self) -> dict[str, tuple[float, float, float]]:
        """Payments issued this round: name → (payment, compensation, bonus)."""
        sent = self._sent
        return dict(
            zip(self.machine_names[:sent], map(tuple, self._ledger[:sent].tolist()))
        )

    # ------------------------------------------------------------- round

    def begin_round(self) -> np.ndarray:
        """Reset per-round state; returns the members' notice counts.

        The counts are a copy in member order.  The service keeps them
        to seed a replacement if this shard has to be restored
        mid-settle.
        """
        self._reset_round()
        return self._notices.copy()

    def collect_bids(self) -> np.ndarray:
        """Collect every member's bid; returns the local bid vector.

        Fixed bids come from the column read at construction; every
        other member is asked, once, in member order.
        """
        self.phase = ProtocolPhase.BIDDING
        bids = self._fixed_bids.copy()
        if self._asked:
            bids[self._asked] = [agent.bid() for agent in self._asked_agents]
        self._bids = bids
        self._save_checkpoint()
        return self._bids.copy()

    def bids_vector(self) -> np.ndarray:
        """Recorded bids in local member order."""
        if self._bids is None:
            raise RuntimeError("no bids collected yet")
        return self._bids.copy()

    # -------------------------------------------------------- allocation

    def apply_allocation(self, loads: np.ndarray) -> np.ndarray:
        """Accept this shard's load slice (exact mode: root decided)."""
        loads = np.asarray(loads, dtype=np.float64)
        if loads.size != len(self.machine_names):
            raise ValueError(
                f"expected {len(self.machine_names)} loads, got {loads.size}"
            )
        self._loads = loads
        self.phase = ProtocolPhase.EXECUTING
        self._save_checkpoint()
        return loads

    def allocate_from_total(self, total_inverse: float) -> np.ndarray:
        """Compute the local loads from the broadcast global ``S``.

        Scalar mode: ``x_i = R (1/b_i) / S`` needs only each member's
        own bid plus the one global scalar, so allocation never leaves
        the shard.
        """
        _, loads = pricing.allocate(
            self.bids_vector(), self.arrival_rate, float(total_inverse)
        )
        return self.apply_allocation(loads)

    # --------------------------------------------------------- execution

    def execute(self, times: np.ndarray, counts: Sequence[int]) -> dict:
        """Run this shard's slice of the routed stream; report estimates.

        ``times`` holds the members' absolute arrival times sorted by
        member, ``counts`` each member's job count
        (:func:`~repro.protocol.execution.sort_by_machine`; the service
        routed the global stream).  Jobs run through the batched kernel
        :func:`~repro.protocol.execution.serve_batch` — per-agent
        control messages stay inside the shard as function calls; only
        the aggregation-tree messages cross shard boundaries.

        Returns a dict with the local ``estimates`` vector, the
        ``quotients`` (``t̂_i / b_i^2``, the shard's ``Q`` contribution),
        per-member job counts and mean sojourns, and the local clock:
        the last completion, or 0.0 when no job ran.
        """
        if self._loads is None:
            raise RuntimeError("no allocation applied yet")
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size != len(self.machine_names):
            raise ValueError(
                f"expected {len(self.machine_names)} job counts, "
                f"got {counts.size}"
            )
        sojourns, last = serve_batch(
            times,
            counts,
            self._execution_values,
            self._loads,
            self._rng,
            self.deterministic_service,
        )
        self._jobs = counts
        self._means = sojourn_means(sojourns, counts)
        self._simulated_time = 0.0 if last is None else last
        if last is not None:
            record_gauge("protocol.events_skipped", 2 * sojourns.size - 1)
        self._save_checkpoint()
        return self._report_payload()

    def execute_local(self) -> dict:
        """Deployment-mode execution: the shard draws its own substream.

        Poisson thinning makes the members' joint substream a Poisson
        process at rate ``sum(local loads)``, so each shard can generate
        its own arrivals without the root ever materialising the global
        stream — statistically equivalent to :meth:`execute`, not
        bit-identical (the RNG streams differ by construction).
        """
        if self._loads is None:
            raise RuntimeError("no allocation applied yet")
        n = len(self.machine_names)
        local_rate = float(self._loads.sum())
        if local_rate == 0.0:
            return self.execute(np.empty(0), np.zeros(n, dtype=np.int64))
        times = PoissonWorkload(local_rate, self._rng).generate_times(self.duration)
        assignments = split_assignments(
            int(times.size), self._loads / local_rate, self._rng
        )
        return self.execute(*sort_by_machine(times, assignments, n))

    def _derive_estimates(self) -> np.ndarray:
        """The shared estimator over this shard's reports.

        Pure function of (bids, loads, reports), so a shard restored
        from a checkpoint re-derives the identical vector.
        """
        return verified_estimates(self._bids, self._loads, self._jobs, self._means)

    def _report_payload(self) -> dict:
        self._estimates = self._derive_estimates()
        return {
            "estimates": self._estimates,
            "quotients": self._estimates / self._bids**2,
            "jobs": self._jobs,
            "mean_sojourns": self._means,
            "simulated_time": self._simulated_time,
        }

    # ---------------------------------------------------------- payments

    def local_payments(
        self, total_inverse: float, total_quotient: float
    ) -> np.ndarray:
        """The members' payment rows from the two global scalars (scalar mode).

        With ``S`` and ``Q`` broadcast down the tree, each member's
        amounts follow from its own bid and estimate alone, through the
        gathered-pricing step the distributed mechanism shares
        (:func:`repro.mechanism.pricing.price_gathered`).  Returns one
        (payment, compensation, bonus) row per member, in member order.
        """
        if self._estimates is None:
            raise RuntimeError("no execution reports yet")
        _, compensation, bonus, _ = pricing.price_gathered(
            "observed", self._bids, self._estimates, total_inverse,
            total_quotient, self.arrival_rate,
        )
        return np.column_stack((compensation + bonus, compensation, bonus))

    def settle(self, rows: np.ndarray) -> LedgerRows:
        """Issue payments with write-ahead, at-most-once semantics.

        ``rows`` holds one (payment, compensation, bonus) row per
        member, in member order.  Each amount is recorded in the ledger
        and checkpointed *before* its notice goes out; members already
        paid (from a pre-crash attempt) are skipped, so a restored
        shard completes the round without ever double-paying — the
        exact discipline of :class:`~repro.resilience.SupervisedCoordinator`.
        Returns the round's full ledger rows as :class:`LedgerRows`
        (name → amounts), so a re-settle after recovery still reports
        every member's amounts.

        Persistence is snapshot-plus-ledger: the execution stage's
        snapshot is the base, and settle pays in ``machine_names``
        order, so before the first notice one priced-amounts record
        lists every still-unpaid member (reusing the shard's encoded
        names when nobody was paid yet), and one bump of the record's
        sent-count watermark covers the whole run of notices before
        they go out.  The store so holds the same state at the run's
        end, the only point the chaos hook can crash at, as after
        per-notice bumps.  A per-payment snapshot would make settling
        O(n²) and is exactly what the A24 benchmark would catch.
        """
        names = self.machine_names
        n = len(names)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.shape != (n, 3):
            raise ValueError(f"expected ({n}, 3) payment rows, got {rows.shape}")
        self.phase = ProtocolPhase.VERIFYING
        store = self.checkpoint_store
        if store is not None and not store.has_snapshot:
            self._save_checkpoint()  # no prior stage ran: journal base
        sent = self._sent
        self._ledger[sent:] = rows[sent:]
        if store is not None and sent < n:
            store.append_ledger(
                names[sent:],
                self._ledger[sent:],
                encoded_names=self._encoded_names if sent == 0 else None,
            )
        # The chaos hook crashes once this many payments were issued.
        stop = n
        if self.fail_after_payments is not None:
            stop = min(n, max(sent, self.fail_after_payments))
        if stop > sent:
            # Write-ahead: record and persist the intent, then send.
            self._sent = stop
            if store is not None:
                store.mark_sent(stop - sent)
            self._notices[sent:stop] += 1
        if stop < n:
            self._save_checkpoint()
            raise ShardCrash(
                f"shard {self.shard_id} died after issuing {stop} payments"
            )
        self.phase = ProtocolPhase.DONE
        # No closing snapshot: the ledger lives in the journal until the
        # next stage snapshot compacts it, and a post-settle restore
        # (stale EXECUTING phase + complete ledger) re-settles to a
        # no-op — every member is already ledgered.
        return LedgerRows(self._index, self._ledger.copy())

    # ------------------------------------------------------ stage wrappers
    #
    # One entry point per protocol phase, shaped so an executor needs a
    # single worker round-trip per stage: the shard does its local work
    # and hands back exactly the message that travels up the
    # aggregation tree (a ShardPartial), nothing more in scalar mode.

    def run_bidding(self, include_payload: bool = True):
        """Bidding stage: collect bids, return the shard's ``S`` partial.

        With ``include_payload`` (exact mode) the raw local bid vector
        rides along so the root can reassemble the canonical global
        array; without it (scalar mode) only the compensated partial
        sum and the member count leave the shard.
        """
        from repro.distributed.gather import PartialSum, ShardPartial

        bids = self.collect_bids()
        payload = {self.shard_id: {"bids": bids}} if include_payload else {}
        return ShardPartial(
            shard_id=self.shard_id,
            n_agents=len(self.machine_names),
            inverse_sum=PartialSum.of(1.0 / bids),
            payload=payload,
        )

    def run_execution(
        self,
        times: np.ndarray | None = None,
        counts: Sequence[int] | None = None,
        include_payload: bool = True,
    ):
        """Execution stage: run jobs, return the shard's ``Q`` partial.

        ``times=None`` selects deployment-mode local workload
        generation (:meth:`execute_local`); otherwise the service
        routed the global stream and passes this shard's time column
        and job counts.
        """
        from repro.distributed.gather import PartialSum, ShardPartial

        if times is None:
            report = self.execute_local()
        else:
            report = self.execute(times, counts)
        payload = (
            {self.shard_id: {"estimates": report["estimates"]}}
            if include_payload
            else {}
        )
        partial = ShardPartial(
            shard_id=self.shard_id,
            n_agents=len(self.machine_names),
            inverse_sum=PartialSum.of(1.0 / self._bids),
            quotient_sum=PartialSum.of(report["quotients"]),
            payload=payload,
        )
        return partial, {
            "jobs": report["jobs"],
            "simulated_time": report["simulated_time"],
        }

    def run_settle(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Payment stage, exact mode: pay the root's rows.

        Returns the ledger rows and a copy of the members' notice
        counts, both in member order, so the round needs no stage of
        its own to collect them.
        """
        return self.settle(rows).rows, self._notices.copy()

    def settle_from_totals(
        self, total_inverse: float, total_quotient: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Payment stage, scalar mode: price locally from (S, Q), pay."""
        return self.run_settle(self.local_payments(total_inverse, total_quotient))

    def arm_crash(self, after_payments: int | None) -> None:
        """Arm (or disarm) the chaos hook on a live shard."""
        self.fail_after_payments = after_payments

    # ------------------------------------------------------- persistence

    def checkpoint_json(self) -> str:
        """This shard's round inputs as one checkpoint string.

        Encoded from the member-order arrays: the same string
        :meth:`CoordinatorCheckpoint.to_json` writes for this state.
        """
        names = self.machine_names
        bidded, reported = self._bids is not None, self._jobs is not None
        sent = self._sent
        return encode_checkpoint(
            self.phase.value,
            names,
            self.arrival_rate,
            bids=(names, self._bids) if bidded else ((), ()),
            loads=self._loads,
            reports=(names, self._jobs, self._means) if reported else ((), (), ()),
            payments_sent=(names[:sent], self._ledger[:sent]),
            encoded_names=self._encoded_names,
        )

    def checkpoint(self) -> CoordinatorCheckpoint:
        """Snapshot this shard's round inputs (the coordinator format)."""
        return CoordinatorCheckpoint.from_json(self.checkpoint_json())

    def _save_checkpoint(self) -> None:
        if self.checkpoint_store is not None:
            self.checkpoint_store.save(self.checkpoint_json())

    @classmethod
    def restore(
        cls,
        checkpoint: CoordinatorCheckpoint,
        *,
        shard_id: int,
        agents: Mapping[str, Agent],
        rng: np.random.Generator,
        duration: float = 40.0,
        deterministic_service: bool = True,
        checkpoint_store: CheckpointStore | None = None,
        payment_notices: Mapping[str, int] | None = None,
    ) -> "CoordinatorShard":
        """Rebuild a shard worker from its checkpoint after a crash.

        The chaos hook is cleared (the replacement worker is assumed
        healthy); estimates are re-derived from the checkpointed
        reports when the crash hit at or after verification.

        ``agents`` must own every one of the checkpoint's
        ``machine_names``.  Bids and reports must be empty or keyed by
        ``machine_names`` in order, and ``payments_sent`` a prefix of
        it (settle pays in that order); anything else raises
        :class:`ValueError`.  ``payment_notices`` seeds the members'
        notice counts (the service passes its durable copy); without it
        they start at 0.
        """
        names = list(checkpoint.machine_names)
        shard = cls(
            shard_id,
            names,
            [agents[n] for n in names],
            checkpoint.arrival_rate,
            rng=rng,
            duration=duration,
            deterministic_service=deterministic_service,
            checkpoint_store=checkpoint_store,
        )
        shard.phase = ProtocolPhase(checkpoint.phase)
        if checkpoint.bids:
            shard._bids = np.array(_member_column(checkpoint.bids, names, "bids"))
        if checkpoint.loads is not None:
            shard._loads = np.array(checkpoint.loads, dtype=np.float64)
        if checkpoint.reports:
            jobs, means = zip(*_member_column(checkpoint.reports, names, "reports"))
            shard._jobs = np.array(jobs, dtype=np.int64)
            shard._means = np.array(means, dtype=np.float64)
        paid = list(checkpoint.payments_sent)
        if paid != names[: len(paid)]:
            raise ValueError(
                "checkpoint payments_sent is not a prefix of its machine_names"
            )
        shard._sent = len(paid)
        if paid:
            shard._ledger[: len(paid)] = list(checkpoint.payments_sent.values())
        for name, count in (payment_notices or {}).items():
            shard._notices[shard._index[name]] = count
        if shard._bids is not None and shard._loads is not None and shard._jobs is not None:
            shard._estimates = shard._derive_estimates()
        return shard


def _member_column(section: Mapping[str, object], names: list[str], label: str) -> list:
    """A checkpoint section's values, which must be keyed by ``names`` in order."""
    if list(section) != names:
        raise ValueError(f"checkpoint {label} are not keyed by its machine_names")
    return list(section.values())
