"""Outside-in layer tracer for the end-to-end benchmark.

The benchmark measures the program's layers from the outside: it wraps
the public callables each layer exposes, times every call made while an
op is open, and turns the nested timings into per-layer *self* time — a
span's duration minus the durations of the spans opened directly inside
it.  The op is the root span; its own self time is ``unattributed``.
No file of the program changes, and :meth:`Tracer.restore` puts every
original callable back.

A callable is wrapped where it is defined (a module global, or an entry
in a class's ``__dict__``) and in every module global of the traced
package bound to the same function object, so call sites that did
``from x import f`` are caught too.  References held elsewhere (closures,
default arguments, registries built at import time) are not.

Spans ``(id, name, start, end, parent, op)`` are kept in memory, up to
``max_spans``, and written as JSON lines by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "LAYERS",
    "PER_LAYER_METRICS",
    "Tracer",
    "UNATTRIBUTED",
    "install_layers",
    "layer_metrics",
]

UNATTRIBUTED = "unattributed"
_OP = "op"

OnCall = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Wrap callables as named layers and account their self time.

    Calls made while no op is open run untraced (set-up and output
    checks stay out of the numbers).
    """

    def __init__(self, *, package: str = "repro", max_spans: int = 50_000) -> None:
        self.package = package
        self.max_spans = int(max_spans)
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.ops = 0
        self.op_seconds = 0.0
        # layer -> [calls, self seconds]; the wrappers mutate these lists.
        self._stats: dict[str, list] = {UNATTRIBUTED: [0, 0.0]}
        # Open spans, innermost last: [child seconds, span id, layer].
        # The root frame's span id doubles as the op id.
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- results

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named counter."""
        self.counts[name] = self.counts.get(name, 0.0) + value

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open right now."""
        return any(frame[2] == layer for frame in self._stack)

    # --------------------------------------------------------------- ops

    @contextmanager
    def op(self) -> Iterator[None]:
        """The root span of one operation."""
        frame = [0.0, next(self._ids), _OP]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            self.ops += 1
            self.op_seconds += duration
            stats = self._stats[UNATTRIBUTED]
            stats[0] += 1
            stats[1] += duration - frame[0]
            if len(self.spans) < self.max_spans:
                self.spans.append((frame[1], _OP, start, end, None, frame[1]))

    # ---------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str | None = None,
        on_call: OnCall | None = None,
    ) -> None:
        """Wrap ``owner.attr`` (a module global or a class attribute).

        With ``layer`` every call inside an op becomes a span of that
        layer; without, the call is only passed to ``on_call``, which
        also receives the arguments and result of every traced call.
        """
        raw = vars(owner)[attr]  # KeyError: wrap where it is defined
        descriptor = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if descriptor else raw
        wrapper = self._timed(fn, layer, on_call) if layer else self._hooked(fn, on_call)
        self._patch(owner, attr, descriptor(wrapper) if descriptor else wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == self.package or name.startswith(self.package + ".")
            ):
                continue
            for global_name, value in list(vars(module).items()):
                if value is fn and not (module is owner and global_name == attr):
                    self._patch(module, global_name, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped callable back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _timed(self, fn, layer: str, on_call: OnCall | None):
        stats = self._stats.setdefault(layer, [0, 0.0])
        stack, spans, ids = self._stack, self.spans, self._ids
        max_spans = self.max_spans
        clock = time.perf_counter
        tracer = self

        # The hot path: every traced call pays for this body, so it
        # touches only closure locals.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0, next(ids), layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                parent = stack[-1]
                parent[0] += duration
                if len(spans) < max_spans:
                    spans.append((frame[1], layer, start, end, parent[1], stack[0][1]))
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        return wrapper

    def _hooked(self, fn, on_call: OnCall):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                on_call(tracer, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ export

    def snapshot(self) -> dict:
        """The raw accounting, JSON-ready (input of :func:`layer_metrics`)."""
        return {
            "ops": self.ops,
            "op_seconds": self.op_seconds,
            "layers": {layer: list(stats) for layer, stats in self._stats.items()},
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_dropped": next(self._ids) - len(self.spans),
        }

    def write_spans(self, path: Path | str, **tags: object) -> int:
        """Append the kept spans to ``path`` as JSON lines; returns how many.

        ``tags`` are added to every line (e.g. the workload name).
        """
        fields = ("id", "name", "start", "end", "parent", "op")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({**tags, **dict(zip(fields, span))}) + "\n")
        return len(self.spans)


# ------------------------------------------------------ the repro layers


def _counter(name: str) -> OnCall:
    def on_call(tracer: Tracer, _args, _kwargs, _result) -> None:
        tracer.count(name)

    return on_call


def _on_cache_get(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("cache.gets")
    if result is not None:
        tracer.count("cache.hits")


def _on_checkpoint_json(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("checkpoint.bytes", len(result))


def _on_campaign(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("campaign.misses", result.stats.cache_misses)
    tracer.count("campaign.fused_units", result.stats.fused_units)


def _on_run_round(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("supervisor.retries", result.bid_retries + result.report_retries)
    tracer.count("supervisor.voided", int(result.voided))
    if tracer.inside("protocol.horizon"):
        tracer.count("horizon.sequential_rounds")


def _on_run_horizon(tracer: Tracer, args, kwargs, _result) -> None:
    tracer.count("horizon.rounds", kwargs.get("n_rounds", args[1] if len(args) > 1 else 0))


# (layer, "module:Attr.path" or "module:*" / "module:Class.*", hook).
# A trailing ``*`` wraps every public function: a module's ``__all__``
# functions, or a class's public plain methods.
_TARGETS: tuple[tuple[str, str, OnCall | None], ...] = (
    ("resilience.checkpoint", "repro.resilience.checkpoint:CheckpointStore.save",
     _counter("checkpoint.saves")),
    ("resilience.checkpoint", "repro.resilience.checkpoint:CheckpointStore.load",
     _counter("checkpoint.loads")),
    ("resilience.checkpoint",
     "repro.resilience.checkpoint:CheckpointStore.append_payment", None),
    ("system.des", "repro.system.des:Simulator.run", None),
    ("mechanism", "repro.mechanism.base:Mechanism.run", None),
    ("mechanism", "repro.mechanism.batch:batch_run", None),
    ("allocation", "repro.allocation.pr:*", None),
    ("allocation", "repro.allocation.incremental:IncrementalPRState.*", None),
    ("protocol.execution", "repro.protocol.execution:dispatch_batched", None),
    # LinearLatencyMachine.submit_batch is called only from inside
    # dispatch_batched, whose span already covers it: wrapping it would
    # move no time between layers and add one span per machine (10^4
    # per sharded round) of tracing overhead.
    ("protocol.execution", "repro.system.workload:split_assignments", None),
    ("protocol.monitoring",
     "repro.protocol.monitoring:CusumSlowdownDetector.observe", None),
    ("protocol.monitoring",
     "repro.protocol.monitoring:CusumSlowdownDetector.observe_many", None),
    ("resilience.quarantine",
     "repro.resilience.quarantine:QuarantinePolicy.begin_round", None),
    ("resilience.quarantine",
     "repro.resilience.quarantine:QuarantinePolicy.record_success", None),
    ("resilience.quarantine",
     "repro.resilience.quarantine:QuarantinePolicy.record_failure", None),
    ("resilience.supervisor",
     "repro.resilience.supervisor:RoundSupervisor.run_round", _on_run_round),
    ("protocol.horizon", "repro.protocol.horizon:run_horizon", _on_run_horizon),
    ("distributed.bid",
     "repro.distributed.service:ShardedRound.collect_bids", None),
    ("distributed.allocate",
     "repro.distributed.service:ShardedRound.allocate", None),
    ("distributed.execute",
     "repro.distributed.service:ShardedRound.execute", None),
    ("distributed.settle", "repro.distributed.service:ShardedRound.settle", None),
    ("distributed.gather", "repro.distributed.gather:aggregate_shards", None),
    ("agents.kernels", "repro.agents.kernels:*", None),
    ("agents.game", "repro.agents.game:BestResponseDynamics.run", None),
    ("parallel.fusion", "repro.parallel.fusion:execute_cohort", None),
    ("parallel.units.execute", "repro.parallel.units:execute_unit", None),
    ("parallel.cache", "repro.parallel.cache:ResultCache.get", _on_cache_get),
    ("parallel.cache", "repro.parallel.cache:ResultCache.put", None),
    ("parallel.units.key", "repro.parallel.units:unit_cache_key", None),
    ("experiments",
     "repro.experiments.paper_check:verify_reproduction", None),
    ("experiments", "repro.experiments.tournament:run_tournament", None),
    ("experiments", "repro.experiments.io:records_to_json", None),
    ("experiments", "repro.experiments.io:records_to_csv", None),
)

# Count-only hooks: no span, so they add no layer of their own.
_HOOKS: tuple[tuple[str, OnCall], ...] = (
    ("repro.protocol.network:SimulatedNetwork.send", _counter("des.messages")),
    ("repro.protocol.faults:ReliableNetwork.send", _counter("des.messages")),
    ("repro.resilience.checkpoint:CoordinatorCheckpoint.to_json",
     _on_checkpoint_json),
    ("repro.parallel.engine:CampaignEngine.run", _on_campaign),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in _TARGETS))

_RATIOS: tuple[tuple[str, str], ...] = (
    ("resilience.checkpoint.saves_per_round", "1/round"),
    ("resilience.checkpoint.bytes_per_round", "B/round"),
    ("resilience.checkpoint.loads", "1/round"),
    ("system.des.messages_per_round", "1/round"),
    ("parallel.cache.hit_ratio", "fraction"),
    ("parallel.fusion.fused_ratio", "fraction"),
    ("protocol.horizon.fused_ratio", "fraction"),
    ("resilience.supervisor.retries_per_round", "1/round"),
    ("resilience.supervisor.voided_ratio", "fraction"),
    ("trace_overhead", "fraction"),
)

#: Every per-layer metric name with its unit, in report order.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    tuple(
        (f"{layer}.{field}", unit)
        for layer in LAYERS
        for field, unit in (("calls", "1/op"), ("self_s", "s/op"), ("share", "fraction"))
    )
    + ((f"{UNATTRIBUTED}.self_s", "s/op"), (f"{UNATTRIBUTED}.share", "fraction"))
    + _RATIOS
)


def _resolve(target: str) -> list[tuple[object, str]]:
    """``module:Attr.path`` -> [(owner, attribute name)]."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for parent in parents:
        owner = vars(owner)[parent]
    if leaf != "*":
        return [(owner, leaf)]
    if isinstance(owner, type):
        names = [
            name for name, value in vars(owner).items()
            if not name.startswith("_") and callable(value)
        ]
    else:
        names = [name for name in owner.__all__ if callable(vars(owner)[name])]
    return [(owner, name) for name in names]


def install_layers(tracer: Tracer) -> None:
    """Wrap every callable of the layer table into ``tracer``."""
    for layer, target, hook in _TARGETS:
        for owner, attr in _resolve(target):
            tracer.wrap(owner, attr, layer, hook)
    for target, hook in _HOOKS:
        for owner, attr in _resolve(target):
            tracer.wrap(owner, attr, None, hook)


def layer_metrics(
    snapshot: dict, rounds: int, trace_overhead: float
) -> dict[str, float]:
    """The per-layer metric values of one traced phase.

    ``snapshot`` is :meth:`Tracer.snapshot`.  Calls and self time are
    per op, shares are of the traced op wall time, and the counters are
    per round (``rounds`` completed inside the traced ops).
    """
    ops = max(snapshot["ops"], 1)
    wall = snapshot["op_seconds"] or 1.0
    rounds = max(rounds, 1)
    counts = snapshot["counts"]
    layers = snapshot["layers"]

    def ratio(name: str, base: str) -> float:
        denominator = counts.get(base, 0.0)
        return counts.get(name, 0.0) / denominator if denominator else 0.0

    values: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_seconds = layers.get(layer, (0, 0.0))
        values[f"{layer}.calls"] = calls / ops
        values[f"{layer}.self_s"] = self_seconds / ops
        values[f"{layer}.share"] = self_seconds / wall
    unattributed = layers.get(UNATTRIBUTED, (0, 0.0))[1]
    values[f"{UNATTRIBUTED}.self_s"] = unattributed / ops
    values[f"{UNATTRIBUTED}.share"] = unattributed / wall
    horizon_rounds = counts.get("horizon.rounds", 0.0)
    values.update(
        {
            "resilience.checkpoint.saves_per_round":
                counts.get("checkpoint.saves", 0.0) / rounds,
            "resilience.checkpoint.bytes_per_round":
                counts.get("checkpoint.bytes", 0.0) / rounds,
            "resilience.checkpoint.loads": counts.get("checkpoint.loads", 0.0) / rounds,
            "system.des.messages_per_round": counts.get("des.messages", 0.0) / rounds,
            "parallel.cache.hit_ratio": ratio("cache.hits", "cache.gets"),
            "parallel.fusion.fused_ratio": ratio("campaign.fused_units", "campaign.misses"),
            "protocol.horizon.fused_ratio": (
                1.0 - counts.get("horizon.sequential_rounds", 0.0) / horizon_rounds
                if horizon_rounds else 0.0
            ),
            "resilience.supervisor.retries_per_round":
                counts.get("supervisor.retries", 0.0) / rounds,
            "resilience.supervisor.voided_ratio":
                counts.get("supervisor.voided", 0.0) / rounds,
            "trace_overhead": trace_overhead,
        }
    )
    return values
