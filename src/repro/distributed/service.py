"""The sharded coordinator service: a horizontally scalable runtime.

``run_protocol`` drives one synchronous coordinator object per round —
every agent is a message through one Python event loop, which caps
campaigns far below the ROADMAP's "millions of users" target.  This
module composes the pieces that already existed
(:mod:`repro.distributed.topology` overlays,
:mod:`repro.distributed.gather` partial sums,
:mod:`repro.resilience.checkpoint` write-ahead recovery, the batched
execution engine) into a long-lived service:

* the agent population is partitioned into contiguous slices, one
  :class:`~repro.distributed.shard.CoordinatorShard` per slice;
* each round runs as four staged fan-outs — bidding, allocation,
  execution, payment — over a pluggable executor (``serial`` for
  deterministic tests, ``async`` for asyncio/thread stages,
  ``process`` for one long-lived worker process per shard);
* the only cross-shard traffic is the aggregation tree carrying the
  two sufficient statistics ``S = sum 1/b_j`` and ``Q = sum t̂_j/b_j²``
  (plus, in ``aggregation="exact"`` mode, the raw per-shard vectors as
  payload so the root reproduces the monolithic floats bit-for-bit);
* every shard write-ahead-checkpoints through the coordinator's
  checkpoint/ledger path, so a shard that crashes mid-payment is
  restored and completes the round with at-most-once payments.

Parity contract (tested in ``tests/distributed/test_service.py``): with
``aggregation="exact"``, ``workload="global"`` and the serial executor,
a service round is **bit-identical** to :func:`~repro.protocol.run_protocol`
on the same seed — same loads, payments, estimates, jobs and clock —
for any shard count, because the root reassembles the canonical arrays
and applies the identical NumPy reductions while the workload and
service draws consume the identical RNG stream.  ``aggregation="scalar"``
trades that for O(1) per-shard uplink bandwidth and agrees to ~1e-12.

Operator's guide: ``docs/distributed.md``.  Design: DESIGN.md §13.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro._validation import check_positive_scalar
from repro.agents.base import Agent
from repro.distributed.gather import (
    AggregationStats,
    ShardPartial,
    aggregate_shards,
    concatenate_payload,
)
from repro.distributed.shard import (
    CoordinatorShard,
    NamedRows,
    ShardCrash,
    partition_names,
)
from repro.distributed.topology import Overlay, tree_overlay
from repro.mechanism.base import Mechanism
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.observability.instrumentation import (
    observe_value,
    record_counter,
    trace_span,
)
from repro.protocol.execution import sort_by_machine
from repro.resilience.checkpoint import CheckpointStore, CoordinatorCheckpoint
from repro.system.workload import PoissonWorkload, split_assignments
from repro.types import MechanismOutcome

__all__ = [
    "AGGREGATION_MODES",
    "WORKLOAD_MODES",
    "SHARD_EXECUTORS",
    "ShardedRoundResult",
    "ShardedRound",
    "ShardedCoordinatorService",
]

AGGREGATION_MODES = ("exact", "scalar")
WORKLOAD_MODES = ("global", "local")
SHARD_EXECUTORS = ("serial", "async", "process")


# ----------------------------------------------------------- executors


class _SerialShardExecutor:
    """All shards in-process, stages run sequentially in shard order.

    The default and the parity baseline: with the service's shared RNG
    threaded through every shard, a stochastic round consumes exactly
    the monolithic coordinator's random stream.
    """

    def __init__(
        self,
        shards: Sequence[CoordinatorShard],
        rebuild: Callable[
            [int, CoordinatorCheckpoint, Mapping[str, int]], CoordinatorShard
        ],
    ) -> None:
        self.shards = list(shards)
        self._rebuild = rebuild

    def map(
        self,
        method: str,
        args_per_shard: Sequence[tuple],
        only: set[int] | None = None,
    ) -> dict[int, tuple[str, object]]:
        picked = sorted(only) if only is not None else range(len(self.shards))
        outcomes: dict[int, tuple[str, object]] = {}
        for k in picked:
            try:
                value = getattr(self.shards[k], method)(*args_per_shard[k])
                outcomes[k] = ("ok", value)
            except ShardCrash as exc:
                outcomes[k] = ("crash", str(exc))
        return outcomes

    def restore(
        self,
        shard_id: int,
        checkpoint: CoordinatorCheckpoint,
        notices: Mapping[str, int],
    ) -> None:
        self.shards[shard_id] = self._rebuild(shard_id, checkpoint, notices)

    def close(self) -> None:
        pass


class _AsyncShardExecutor(_SerialShardExecutor):
    """Stages fan out as asyncio tasks over a thread pool.

    Shards are independent within a stage (they share no mutable
    state — each owns its members, execution values, and RNG), so
    running the per-shard stage bodies concurrently is safe; results
    come back in shard order regardless of completion order.
    """

    def __init__(self, shards, rebuild) -> None:
        super().__init__(shards, rebuild)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.shards)),
            thread_name_prefix="repro-shard",
        )

    def map(self, method, args_per_shard, only=None):
        picked = sorted(only) if only is not None else list(range(len(self.shards)))

        def _one(k: int) -> tuple[str, object]:
            try:
                return ("ok", getattr(self.shards[k], method)(*args_per_shard[k]))
            except ShardCrash as exc:
                return ("crash", str(exc))

        async def _stage() -> list[tuple[str, object]]:
            loop = asyncio.get_running_loop()
            futures = [loop.run_in_executor(self._pool, _one, k) for k in picked]
            return await asyncio.gather(*futures)

        return dict(zip(picked, asyncio.run(_stage())))

    def close(self) -> None:
        self._pool.shutdown(wait=False)


def _shard_worker(conn, spec: dict) -> None:
    """Long-lived worker-process loop: one shard, command-driven.

    Commands over the pipe: ``("call", method, args)`` runs one stage
    and replies ``("ok", result, checkpoint_json)`` — the parent owns
    the durable store, so every reply ships the post-stage checkpoint;
    a :class:`ShardCrash` replies ``("crash", checkpoint_json, msg)``;
    ``("restore", checkpoint_json, notices)`` rebuilds the shard from
    the parent's copy of the checkpoint, with the members' notice
    counts the parent keeps; ``("close",)`` exits.
    """
    make_kwargs = dict(
        rng=np.random.default_rng(spec["seed_seq"]),
        duration=spec["duration"],
        deterministic_service=spec["deterministic_service"],
    )
    agents = dict(zip(spec["names"], spec["agents"]))
    shard = CoordinatorShard(
        spec["shard_id"],
        spec["names"],
        spec["agents"],
        spec["arrival_rate"],
        **make_kwargs,
    )
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "close":
            break
        if kind == "restore":
            shard = CoordinatorShard.restore(
                CoordinatorCheckpoint.from_json(message[1]),
                shard_id=spec["shard_id"],
                agents=agents,
                payment_notices=message[2],
                **make_kwargs,
            )
            conn.send(("ok", None, shard.checkpoint_json()))
            continue
        _, method, args = message
        try:
            result = getattr(shard, method)(*args)
            conn.send(("ok", result, shard.checkpoint_json()))
        except ShardCrash as exc:
            conn.send(("crash", shard.checkpoint_json(), str(exc)))
        except Exception as exc:  # surface worker-side failures verbatim
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


class _ProcessShardExecutor:
    """One long-lived ``multiprocessing.Process`` per shard.

    Stage fan-out is send-all-then-receive-all, so shards genuinely
    run concurrently on multi-core hosts.  The parent stores every
    returned checkpoint string verbatim (no decode, no re-encode) in the
    shard's :class:`~repro.resilience.checkpoint.CheckpointStore`, so shard
    recovery works exactly as in-process: restore from the parent's
    durable copy, replay nothing, pay at most once.
    """

    def __init__(self, specs: Sequence[dict], stores: Sequence[CheckpointStore]):
        import multiprocessing as mp

        ctx = mp.get_context()
        self._stores = list(stores)
        self._conns = []
        self._processes = []
        for spec in specs:
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_shard_worker, args=(child_conn, spec), daemon=True
            )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)

    def _receive(self, k: int) -> tuple[str, object]:
        reply = self._conns[k].recv()
        if reply[0] == "ok":
            self._stores[k].save(reply[2])
            return ("ok", reply[1])
        if reply[0] == "crash":
            self._stores[k].save(reply[1])
            return ("crash", reply[2])
        raise RuntimeError(f"shard {k} worker failed: {reply[1]}")

    def map(self, method, args_per_shard, only=None):
        picked = sorted(only) if only is not None else range(len(self._conns))
        picked = list(picked)
        for k in picked:
            self._conns[k].send(("call", method, tuple(args_per_shard[k])))
        return {k: self._receive(k) for k in picked}

    def restore(
        self,
        shard_id: int,
        checkpoint: CoordinatorCheckpoint,
        notices: Mapping[str, int],
    ) -> None:
        self._conns[shard_id].send(("restore", checkpoint.to_json(), notices))
        status, _ = self._receive(shard_id)
        if status != "ok":
            raise RuntimeError(f"shard {shard_id} failed to restore")

    def close(self) -> None:
        for conn, process in zip(self._conns, self._processes):
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()


# -------------------------------------------------------------- results


@dataclass(frozen=True)
class ShardedRoundResult:
    """Everything observable after one sharded service round.

    ``loads`` (name → load) and ``payments`` (name → (payment,
    compensation, bonus)) are read-only mappings over the round's
    columns (:class:`~repro.distributed.shard.NamedRows`), iterated in
    ``names`` order; ``dict(result.payments)``
    copies one out.
    """

    index: int
    names: list[str]
    outcome: MechanismOutcome | None
    estimated_execution_values: np.ndarray | None
    loads: Mapping[str, float]
    payments: Mapping[str, tuple[float, float, float]]
    payment_notices: dict[str, int]
    jobs_routed: int
    simulated_time: float
    aggregation: list[AggregationStats] = field(default_factory=list)
    shard_restarts: int = 0

    @property
    def total_messages(self) -> int:
        """Cross-shard control messages (aggregation tree, both legs)."""
        return sum(stats.total_messages for stats in self.aggregation)

    @property
    def payment_totals(self) -> dict[str, float]:
        """Per-member total payment (compensation + bonus)."""
        return {name: amounts[0] for name, amounts in self.payments.items()}


# --------------------------------------------------------------- rounds


class ShardedRound:
    """One in-flight round, stage by stage.

    Normal use is :meth:`ShardedCoordinatorService.run_round`, which
    drives all four stages in order; each stage is its own method so a
    caller (or a tracer) can observe the stages one at a time.
    """

    def __init__(self, service: "ShardedCoordinatorService", index: int) -> None:
        self._service = service
        self.index = index
        self.restarts = 0
        self._partials: list[ShardPartial] | None = None
        self._stats: list[AggregationStats] = []
        self._bids_full: np.ndarray | None = None
        self._loads_full: np.ndarray | None = None
        self._total_inverse: float | None = None
        self._estimates_full: np.ndarray | None = None
        self._total_quotient: float | None = None
        self._jobs_routed = 0
        self._simulated_time = 0.0
        self._ledger: np.ndarray | None = None
        self._notices: dict[str, int] = {}
        self._outcome: MechanismOutcome | None = None
        # Each shard's payment-notice counts as the round opens: the
        # parent's durable copy, which seeds a restored shard.
        self._opening_notices: list[dict[str, int]] = service._stage_values(
            self, "begin_round", [() for _ in service.partition]
        )

    def _exact(self) -> bool:
        return self._service.aggregation == "exact"

    def notices_at_restore(
        self, k: int, checkpoint: CoordinatorCheckpoint
    ) -> dict[str, int]:
        """Shard ``k``'s notice counts when it crashed, for its restore.

        The round's opening counts plus one for every member in the
        checkpoint's ``payments_sent``: settle ledgers a member and
        sends its notice in the same step, so a ledgered member was
        notified.
        """
        notices = dict(self._opening_notices[k])
        for name in checkpoint.payments_sent:
            notices[name] += 1
        return notices

    # ------------------------------------------------------------ stages

    def collect_bids(self) -> None:
        """Stage 1: every shard asks its members for bids."""
        payload = self._exact()
        self._partials = self._service._stage_values(
            self, "run_bidding", [(payload,) for _ in self._service.partition]
        )

    def allocate(self) -> np.ndarray:
        """Stage 2: aggregate ``S`` up the tree, decide and apply loads."""
        service = self._service
        if self._partials is None:
            raise RuntimeError("collect_bids() must run before allocate()")
        root, stats = aggregate_shards(service.overlay, self._partials)
        self._stats.append(stats)
        self._total_inverse = root.inverse_sum.value
        if self._exact():
            bids = concatenate_payload(root, "bids")
            allocation = service.mechanism.allocate(bids, service.arrival_rate)
            loads = np.asarray(allocation.loads, dtype=np.float64)
            service._run_stage(
                self,
                "apply_allocation",
                [(loads[lo:hi],) for lo, hi in service._member_bounds],
            )
            self._bids_full = bids
            self._loads_full = loads
        else:
            slices = self._service._stage_values(
                self,
                "allocate_from_total",
                [(self._total_inverse,) for _ in service.partition],
            )
            self._loads_full = (
                np.concatenate(slices) if slices else np.empty(0)
            )
        return self._loads_full

    def execute(self) -> None:
        """Stage 3: route jobs, run shards, aggregate ``Q`` up the tree."""
        service = self._service
        if self._loads_full is None:
            raise RuntimeError("allocate() must run before execute()")
        payload = self._exact()
        if service.workload == "global":
            workload = PoissonWorkload(service.arrival_rate, service._rng)
            times = workload.generate_times(service.duration)
            total = float(self._loads_full.sum())
            assignments = split_assignments(
                int(times.size), self._loads_full / total, service._rng
            )
            self._jobs_routed = int(times.size)
            ordered, counts = sort_by_machine(
                times, assignments, self._loads_full.size
            )
            # Each shard's jobs: its members' counts and the contiguous
            # run of the sorted column they cover.
            offsets = np.concatenate(([0], np.cumsum(counts)))
            args = [
                (ordered[offsets[lo] : offsets[hi]], counts[lo:hi], payload)
                for lo, hi in service._member_bounds
            ]
        else:
            args = [(None, None, payload) for _ in service.partition]
        results = service._stage_values(self, "run_execution", args)
        partials = [partial for partial, _meta in results]
        root, stats = aggregate_shards(service.overlay, partials)
        self._stats.append(stats)
        assert root.quotient_sum is not None
        self._total_quotient = root.quotient_sum.value
        if self._exact():
            self._estimates_full = concatenate_payload(root, "estimates")
        for _partial, meta in results:
            self._simulated_time = max(
                self._simulated_time, float(meta["simulated_time"])
            )
            if service.workload == "local":
                self._jobs_routed += int(np.sum(meta["jobs"]))

    def settle(self) -> None:
        """Stage 4: price and pay, surviving shard crashes.

        Exact mode prices at the root from the reassembled canonical
        arrays (the monolithic coordinator's floats); scalar mode
        broadcasts (S, Q) and each shard prices its members locally.
        Either way the per-shard settle runs under crash recovery: a
        shard that dies mid-payment is restored from its checkpoint
        and re-settled — the ledger makes that idempotent.
        """
        service = self._service
        assert self._loads_full is not None
        if self._exact():
            assert self._bids_full is not None
            assert self._estimates_full is not None
            self._outcome = service.mechanism.run(
                self._bids_full, service.arrival_rate, self._estimates_full
            )
            payments = self._outcome.payments
            rows = np.column_stack(
                (payments.payment, payments.compensation, payments.bonus)
            )
            replies = service._stage_values(
                self,
                "run_settle",
                [(rows[lo:hi],) for lo, hi in service._member_bounds],
                recover=True,
            )
        else:
            assert self._total_inverse is not None
            assert self._total_quotient is not None
            replies = service._stage_values(
                self,
                "settle_from_totals",
                [
                    (self._total_inverse, self._total_quotient)
                    for _ in service.partition
                ],
                recover=True,
            )
        self._ledger = np.concatenate([ledger for ledger, _ in replies])
        for _, notices in replies:
            self._notices.update(notices)

    # ------------------------------------------------------------ result

    def result(self) -> ShardedRoundResult:
        """Package the completed round."""
        assert self._loads_full is not None and self._ledger is not None
        index = self._service._index
        return ShardedRoundResult(
            index=self.index,
            names=self._service.machine_names,
            outcome=self._outcome,
            estimated_execution_values=self._estimates_full,
            loads=NamedRows(index, self._loads_full),
            payments=NamedRows(index, self._ledger),
            payment_notices=self._notices,
            jobs_routed=self._jobs_routed,
            simulated_time=self._simulated_time,
            aggregation=list(self._stats),
            shard_restarts=self.restarts,
        )


# -------------------------------------------------------------- service


class ShardedCoordinatorService:
    """Long-lived sharded coordinator over a fixed agent population.

    Parameters
    ----------
    agents:
        The machine owners; partitioned into ``shards`` contiguous
        slices in the given order (machine ``k`` is ``C{k+1}`` unless
        ``machine_names`` overrides it).
    arrival_rate:
        Total job rate ``R`` allocated every round.
    shards:
        Number of coordinator workers.
    mechanism:
        Payment rule; defaults to the paper's
        :class:`~repro.mechanism.VerificationMechanism`.
    aggregation:
        ``"exact"`` (default) — shards attach their raw vectors to the
        tree messages and the root computes with the monolithic
        coordinator's reductions: bit-identical results for any
        partition.  ``"scalar"`` — only the compensated (S, Q) partial
        sums travel (O(1) per-shard uplink) and shards price their own
        members from the broadcast totals; agrees to ~1e-12.
    workload:
        ``"global"`` (default) — the service draws one Poisson stream
        and routes it, consuming exactly the monolithic RNG stream
        (the parity mode).  ``"local"`` — each shard draws its own
        substream at rate ``sum(local loads)`` (Poisson thinning); the
        deployment mode, statistically equivalent.
    executor:
        ``"serial"`` (default), ``"async"`` (asyncio over a thread
        pool), or ``"process"`` (one long-lived worker process per
        shard).  Bit-parity holds on every executor under
        deterministic service; with stochastic service it holds only
        for ``"serial"`` (shared RNG stream).
    max_shard_restarts:
        Crash-recovery budget per stage before giving up.
    """

    def __init__(
        self,
        agents: Sequence[Agent],
        arrival_rate: float,
        *,
        shards: int = 4,
        mechanism: Mechanism | None = None,
        duration: float = 40.0,
        aggregation: str = "exact",
        workload: str = "global",
        executor: str = "serial",
        deterministic_service: bool = True,
        rng: np.random.Generator | None = None,
        machine_names: Sequence[str] | None = None,
        max_shard_restarts: int = 2,
    ) -> None:
        if len(agents) == 0:
            raise ValueError("the service needs at least one agent")
        if aggregation not in AGGREGATION_MODES:
            raise ValueError(
                f"aggregation must be one of {AGGREGATION_MODES}, "
                f"got {aggregation!r}"
            )
        if workload not in WORKLOAD_MODES:
            raise ValueError(
                f"workload must be one of {WORKLOAD_MODES}, got {workload!r}"
            )
        if executor not in SHARD_EXECUTORS:
            raise ValueError(
                f"executor must be one of {SHARD_EXECUTORS}, got {executor!r}"
            )
        if machine_names is None:
            machine_names = [f"C{i + 1}" for i in range(len(agents))]
        if len(machine_names) != len(agents):
            raise ValueError("machine_names must match agents in length")
        self.arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
        self.duration = check_positive_scalar(duration, "duration")
        self.mechanism = (
            mechanism if mechanism is not None else VerificationMechanism()
        )
        self.aggregation = aggregation
        self.workload = workload
        self.executor_kind = executor
        self.deterministic_service = bool(deterministic_service)
        self.max_shard_restarts = int(max_shard_restarts)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._agents: dict[str, Agent] = dict(zip(machine_names, agents))
        # Name -> global row, read by every round's result views.
        self._index = {name: k for k, name in enumerate(self._agents)}
        self.partition = partition_names(list(machine_names), shards)
        ends = np.cumsum([len(part) for part in self.partition]).tolist()
        # Each shard's [lo, hi) rows of the global member order.
        self._member_bounds = list(zip([0, *ends[:-1]], ends))
        self.overlay: Overlay = tree_overlay(shards)
        self.stores = [CheckpointStore() for _ in range(shards)]
        self.restarts_total = 0
        self._round_index = 0
        self._closed = False

        # Worker RNGs: the serial executor threads the service's own
        # generator through every shard so a stochastic round consumes
        # the monolithic stream; concurrent executors get independent
        # child streams spawned from it (which never advance the
        # parent, so deterministic-service parity is unaffected).
        if executor == "serial":
            shard_rngs = [self._rng] * shards
        else:
            seed_seqs = self._spawn_seeds(shards)
            shard_rngs = [np.random.default_rng(seq) for seq in seed_seqs]
        self._shard_rngs = shard_rngs

        if executor == "process":
            seed_seqs = self._spawn_seeds(shards)
            specs = [
                dict(
                    shard_id=k,
                    names=list(self.partition[k]),
                    agents=[self._agents[n] for n in self.partition[k]],
                    arrival_rate=self.arrival_rate,
                    seed_seq=seed_seqs[k],
                    duration=self.duration,
                    deterministic_service=self.deterministic_service,
                )
                for k in range(shards)
            ]
            self._executor: object = _ProcessShardExecutor(specs, self.stores)
        else:
            built = [self._build_shard(k) for k in range(shards)]
            executor_cls = (
                _SerialShardExecutor if executor == "serial" else _AsyncShardExecutor
            )
            self._executor = executor_cls(built, self._rebuild_shard)

    # ------------------------------------------------------ construction

    def _spawn_seeds(self, count: int) -> list[np.random.SeedSequence]:
        """Child seed sequences that do not advance the parent stream."""
        seed_seq = self._rng.bit_generator.seed_seq
        assert isinstance(seed_seq, np.random.SeedSequence)
        return seed_seq.spawn(count)

    def _shard_kwargs(self, k: int) -> dict:
        return dict(
            rng=self._shard_rngs[k],
            duration=self.duration,
            deterministic_service=self.deterministic_service,
            checkpoint_store=self.stores[k],
        )

    def _build_shard(self, k: int) -> CoordinatorShard:
        names = self.partition[k]
        return CoordinatorShard(
            k,
            names,
            [self._agents[n] for n in names],
            self.arrival_rate,
            **self._shard_kwargs(k),
        )

    def _rebuild_shard(
        self, k: int, checkpoint: CoordinatorCheckpoint, notices: Mapping[str, int]
    ) -> CoordinatorShard:
        return CoordinatorShard.restore(
            checkpoint,
            shard_id=k,
            agents={n: self._agents[n] for n in self.partition[k]},
            payment_notices=notices,
            **self._shard_kwargs(k),
        )

    # ----------------------------------------------------------- queries

    @property
    def n_shards(self) -> int:
        """Number of coordinator workers."""
        return len(self.partition)

    @property
    def machine_names(self) -> list[str]:
        """All managed machine names, in canonical global order."""
        return list(self._agents)

    @property
    def shards(self) -> list[CoordinatorShard]:
        """The in-process shard objects (serial/async executors only)."""
        if isinstance(self._executor, _SerialShardExecutor):
            return self._executor.shards
        raise RuntimeError(
            "shard objects live in worker processes under the process "
            "executor; inspect their checkpoint stores instead"
        )

    # ------------------------------------------------------------ stages

    def _run_stage(
        self,
        round_: ShardedRound,
        method: str,
        args_per_shard: Sequence[tuple],
        recover: bool = False,
    ) -> dict[int, object]:
        """Fan one stage out over all shards, with crash recovery.

        A shard reported crashed has its checkpoint in the parent-side
        store (shards save directly in-process; process workers ship
        the serialised checkpoint with the crash reply); recovery
        restores it, with the notice counts it had sent, and re-runs the
        stage for the crashed shards only.
        Only ledger-protected stages opt in (``recover=True``) — they
        are idempotent by construction.
        """
        results: dict[int, object] = {}
        pending = set(range(self.n_shards))
        attempts = 0
        while pending:
            outcomes = self._executor.map(method, args_per_shard, only=pending)
            crashed: list[tuple[int, str]] = []
            for k in sorted(pending):
                status, value = outcomes[k]
                if status == "ok":
                    results[k] = value
                else:
                    crashed.append((k, str(value)))
            pending = set()
            for k, message in crashed:
                if not recover or attempts >= self.max_shard_restarts:
                    raise ShardCrash(message)
                checkpoint = self.stores[k].load()
                assert checkpoint is not None, "no checkpoint to restore from"
                self._executor.restore(
                    k, checkpoint, round_.notices_at_restore(k, checkpoint)
                )
                round_.restarts += 1
                self.restarts_total += 1
                record_counter("service.shard_restarts")
                pending.add(k)
            attempts += 1
        return results

    def _stage_values(
        self,
        round_: ShardedRound,
        method: str,
        args_per_shard: Sequence[tuple],
        recover: bool = False,
    ) -> list:
        results = self._run_stage(round_, method, args_per_shard, recover)
        return [results[k] for k in range(self.n_shards)]

    # ------------------------------------------------------------ rounds

    def begin_round(self) -> ShardedRound:
        """Start a round; drive it stage by stage."""
        if self._closed:
            raise RuntimeError("service is closed")
        index = self._round_index
        self._round_index += 1
        return ShardedRound(self, index)

    def run_round(self) -> ShardedRoundResult:
        """Drive one full round through all four stages."""
        with trace_span("service.round", shards=self.n_shards):
            round_ = self.begin_round()
            round_.collect_bids()
            round_.allocate()
            round_.execute()
            round_.settle()
            result = round_.result()
        record_counter("service.rounds")
        observe_value("service.jobs_routed", result.jobs_routed)
        return result

    def run(self, n_rounds: int) -> list[ShardedRoundResult]:
        """Drive ``n_rounds`` consecutive rounds."""
        if n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        return [self.run_round() for _ in range(n_rounds)]

    # --------------------------------------------------------- lifecycle

    def arm_shard_crash(self, shard_id: int, after_payments: int) -> None:
        """Chaos hook: make one shard die after issuing that many payments."""
        self._run_stage(
            None,
            "arm_crash",
            [
                ((after_payments if k == shard_id else None),)
                for k in range(self.n_shards)
            ],
        )

    def close(self) -> None:
        """Shut the executor down (terminates worker processes)."""
        if not self._closed:
            self._executor.close()
            self._closed = True

    def __enter__(self) -> "ShardedCoordinatorService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
