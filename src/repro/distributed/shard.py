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

What a shard does *not* do is hold any global state: the cross-shard
quantities it needs (``S = sum 1/b_j`` for loads, ``Q = sum t̂_j/b_j^2``
for latency) arrive as two scalars from the aggregation tree
(:mod:`repro.distributed.gather`), which is what the paper's
sufficient-statistic structure buys (docs/distributed.md).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.agents.base import Agent
from repro.mechanism import pricing
from repro.observability.instrumentation import record_gauge
from repro.protocol.coordinator import ProtocolPhase
from repro.protocol.estimator import verified_estimates
from repro.protocol.execution import (
    check_execution_values,
    serve_batch,
    sojourn_means,
    split_by_machine,
)
from repro.resilience.checkpoint import CheckpointStore, CoordinatorCheckpoint
from repro.system.workload import PoissonWorkload, split_assignments

__all__ = ["ShardCrash", "CoordinatorShard", "partition_names"]


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

        # Long-lived state: each member's execution value, read once;
        # execution serves members as arrays, with no machine objects.
        values = check_execution_values(
            [agent.execution_value() for agent in agents]
        )
        self._execution_values: dict[str, float] = dict(zip(names, values.tolist()))

        # Per-round state.
        self.machine_names: list[str] = list(names)
        self.phase = ProtocolPhase.IDLE
        self.payments_sent: dict[str, tuple[float, float, float]] = {}
        self.payment_notices: dict[str, int] = {name: 0 for name in names}
        self._bids: dict[str, float] = {}
        self._loads: np.ndarray | None = None
        self._reports: dict[str, tuple[int, float]] = {}
        self._estimates: np.ndarray | None = None
        self._simulated_time = 0.0
        self._bids_cache: np.ndarray | None = None

    # ------------------------------------------------------------- round

    def begin_round(self) -> dict[str, int]:
        """Reset per-round state; returns the members' notice counts.

        The service keeps them to seed a replacement if this shard has
        to be restored mid-settle.
        """
        self.phase = ProtocolPhase.IDLE
        self.payments_sent = {}
        self._bids = {}
        self._loads = None
        self._reports = {}
        self._estimates = None
        self._simulated_time = 0.0
        self._bids_cache = None
        return dict(self.payment_notices)

    def collect_bids(self) -> np.ndarray:
        """Ask every member for its bid; returns the local bid vector."""
        self.phase = ProtocolPhase.BIDDING
        for name in self.machine_names:
            self._bids[name] = float(self.agents[name].bid())
        self._bids_cache = None
        self._save_checkpoint()
        return self.bids_vector()

    def bids_vector(self) -> np.ndarray:
        """Recorded bids in local member order (cached per phase)."""
        cache = self._bids_cache
        if cache is not None and cache.size == len(self.machine_names):
            return cache.copy()
        missing = [n for n in self.machine_names if n not in self._bids]
        if missing:
            raise RuntimeError(f"bids are not complete yet: missing {missing}")
        self._bids_cache = np.array(
            [self._bids[name] for name in self.machine_names]
        )
        return self._bids_cache.copy()

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

    def execute(self, arrivals: Sequence[np.ndarray]) -> dict:
        """Run this shard's slice of the routed stream; report estimates.

        ``arrivals`` holds one absolute-arrival-time array per live
        member (the service routed the global stream).  Jobs run
        through the batched kernel
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
        if len(arrivals) != len(self.machine_names):
            raise ValueError(
                f"expected {len(self.machine_names)} arrival arrays, "
                f"got {len(arrivals)}"
            )

        sojourns, last = serve_batch(
            arrivals,
            [self._execution_values[name] for name in self.machine_names],
            self._loads,
            self._rng,
            self.deterministic_service,
        )
        counts, means = sojourn_means(sojourns)
        self._simulated_time = 0.0 if last is None else last
        if last is not None:
            record_gauge("protocol.events_skipped", 2 * int(counts.sum()) - 1)
        self._reports.update(
            zip(self.machine_names, zip(counts.tolist(), means.tolist()))
        )
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
            return self.execute([np.empty(0)] * n)
        times = PoissonWorkload(local_rate, self._rng).generate_times(self.duration)
        assignments = split_assignments(
            int(times.size), self._loads / local_rate, self._rng
        )
        return self.execute(split_by_machine(times, assignments, n))

    def _derive_estimates(self) -> np.ndarray:
        """The shared estimator over this shard's reports.

        Pure function of (bids, loads, reports), so a shard restored
        from a checkpoint re-derives the identical vector.
        """
        reports = [self._reports[name] for name in self.machine_names]
        return verified_estimates(
            self.bids_vector(),
            self._loads,
            [jobs for jobs, _ in reports],
            [mean_sojourn for _, mean_sojourn in reports],
        )

    def _report_payload(self) -> dict:
        assert self._loads is not None
        self._estimates = self._derive_estimates()
        bids = self.bids_vector()
        return {
            "names": list(self.machine_names),
            "estimates": self._estimates,
            "quotients": self._estimates / bids**2,
            "jobs": np.array([self._reports[n][0] for n in self.machine_names]),
            "mean_sojourns": np.array(
                [self._reports[n][1] for n in self.machine_names]
            ),
            "simulated_time": self._simulated_time,
        }

    # ---------------------------------------------------------- payments

    def local_payments(
        self, total_inverse: float, total_quotient: float
    ) -> dict[str, tuple[float, float, float]]:
        """Per-member payments from the two global scalars (scalar mode).

        With ``S`` and ``Q`` broadcast down the tree, each member's
        amounts follow from its own bid and estimate alone, through the
        gathered-pricing step the distributed mechanism shares
        (:func:`repro.mechanism.pricing.price_gathered`).
        """
        if self._estimates is None:
            raise RuntimeError("no execution reports yet")
        _, compensation, bonus, _ = pricing.price_gathered(
            "observed", self.bids_vector(), self._estimates, total_inverse,
            total_quotient, self.arrival_rate,
        )
        payment = compensation + bonus
        return {
            name: (float(payment[k]), float(compensation[k]), float(bonus[k]))
            for k, name in enumerate(self.machine_names)
        }

    def settle(
        self, amounts: Mapping[str, tuple[float, float, float]]
    ) -> dict[str, tuple[float, float, float]]:
        """Issue payments with write-ahead, at-most-once semantics.

        Each amount is recorded in the ledger and checkpointed *before*
        its notice goes out; members already in ``payments_sent`` (from
        a pre-crash attempt) are skipped, so a restored shard completes
        the round without ever double-paying — the exact discipline of
        :class:`~repro.resilience.SupervisedCoordinator`.  Returns the
        full round ledger, so a re-settle after recovery still reports
        every member's amounts.

        Persistence is snapshot-plus-ledger: the execution stage's
        snapshot is the base, and settle pays in ``machine_names``
        order, so before the first notice one priced-amounts record
        lists every still-unpaid member, and each notice first bumps
        the record's sent-count watermark.  A per-payment snapshot
        would make settling O(n²) and is exactly what the A24
        benchmark would catch.
        """
        self.phase = ProtocolPhase.VERIFYING
        store = self.checkpoint_store
        if store is not None and not store.has_snapshot:
            self._save_checkpoint()  # no prior stage ran: journal base
        unpaid = [n for n in self.machine_names if n not in self.payments_sent]
        if store is not None and unpaid:
            store.append_ledger(unpaid, [amounts[name] for name in unpaid])
        for name in unpaid:
            if (
                self.fail_after_payments is not None
                and len(self.payments_sent) >= self.fail_after_payments
            ):
                self._save_checkpoint()
                raise ShardCrash(
                    f"shard {self.shard_id} died after issuing "
                    f"{len(self.payments_sent)} payments"
                )
            payment, compensation, bonus = amounts[name]
            # Write-ahead: record and persist the intent, then send.
            self.payments_sent[name] = (
                float(payment), float(compensation), float(bonus)
            )
            if store is not None:
                store.mark_sent()
            self.payment_notices[name] = self.payment_notices.get(name, 0) + 1
        self.phase = ProtocolPhase.DONE
        # No closing snapshot: the ledger lives in the journal until the
        # next stage snapshot compacts it, and a post-settle restore
        # (stale EXECUTING phase + complete ledger) re-settles to a
        # no-op — every member is already ledgered.
        return dict(self.payments_sent)

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
        arrivals: Sequence[np.ndarray] | None = None,
        include_payload: bool = True,
    ):
        """Execution stage: run jobs, return the shard's ``Q`` partial.

        ``arrivals=None`` selects deployment-mode local workload
        generation (:meth:`execute_local`); otherwise the service
        routed the global stream and passes this shard's slice.
        """
        from repro.distributed.gather import PartialSum, ShardPartial

        if arrivals is None:
            report = self.execute_local()
        else:
            report = self.execute(arrivals)
        payload = (
            {self.shard_id: {"estimates": report["estimates"]}}
            if include_payload
            else {}
        )
        partial = ShardPartial(
            shard_id=self.shard_id,
            n_agents=len(self.machine_names),
            inverse_sum=PartialSum.of(1.0 / self.bids_vector()),
            quotient_sum=PartialSum.of(report["quotients"]),
            payload=payload,
        )
        return partial, {
            "jobs": report["jobs"],
            "simulated_time": report["simulated_time"],
        }

    def settle_from_totals(
        self, total_inverse: float, total_quotient: float
    ) -> dict[str, tuple[float, float, float]]:
        """Payment stage, scalar mode: price locally from (S, Q), pay."""
        return self.settle(self.local_payments(total_inverse, total_quotient))

    def get_payment_notices(self) -> dict[str, int]:
        """Per-member payment-notice counts (at-most-once observability)."""
        return dict(self.payment_notices)

    def arm_crash(self, after_payments: int | None) -> None:
        """Arm (or disarm) the chaos hook on a live shard."""
        self.fail_after_payments = after_payments

    # ------------------------------------------------------- persistence

    def checkpoint(self) -> CoordinatorCheckpoint:
        """Snapshot this shard's round inputs (the coordinator format)."""
        return CoordinatorCheckpoint(
            phase=self.phase.value,
            machine_names=list(self.machine_names),
            arrival_rate=self.arrival_rate,
            bids=dict(self._bids),
            loads=None if self._loads is None else self._loads.tolist(),
            reports=dict(self._reports),
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

        ``payment_notices`` seeds the members' notice counts (the
        service passes its durable copy); without it they start at 0.
        """
        member_names = list(agents)
        shard = cls(
            shard_id,
            member_names,
            [agents[n] for n in member_names],
            checkpoint.arrival_rate,
            rng=rng,
            duration=duration,
            deterministic_service=deterministic_service,
            checkpoint_store=checkpoint_store,
        )
        shard.phase = ProtocolPhase(checkpoint.phase)
        shard.machine_names = list(checkpoint.machine_names)
        shard._bids = dict(checkpoint.bids)
        shard._loads = (
            None if checkpoint.loads is None else np.array(checkpoint.loads)
        )
        shard._reports = dict(checkpoint.reports)
        shard.payments_sent = dict(checkpoint.payments_sent)
        shard.payment_notices.update(payment_notices or {})
        if shard._loads is not None and len(shard._reports) == len(
            checkpoint.machine_names
        ):
            shard._estimates = shard._derive_estimates()
        return shard
