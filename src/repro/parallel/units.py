"""Experiment units and their content-addressed cache keys.

A *unit* is the atom the campaign engine schedules: one
(seed x bid-profile x payment-rule) evaluation — closed-form
(``kind="scenario"``), over the discrete-event protocol
(``kind="protocol"``), as iterated best responses from the profile
(``kind="dynamics"``), or as a stale-bid drifting horizon
(``kind="drift"``).  Units are plain frozen dataclasses so they
pickle cheaply across worker processes, and :func:`execute_unit` is a
**pure function** of the unit — the same unit always produces the same
payload, byte for byte, which is what makes both the parallel/serial
equivalence guarantee and the result cache sound.

The cache key is ``SHA-256(canonical JSON of the unit config + the
package version)``.  Canonicalisation (:func:`canonical_json`) sorts
dict keys, converts NumPy scalars and arrays to plain Python numbers
and lists, and normalises ``-0.0`` to ``0.0`` — so dict insertion
order and NumPy dtype width never change the key, while any change to
a result-affecting field always does.  Fields that cannot affect the
result (the seed and window of a closed-form unit) are excluded from
the canonical config, so equivalent units share one cache entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ExperimentUnit",
    "canonical_config",
    "canonical_json",
    "canonicalise",
    "execute_unit",
    "unit_cache_key",
]

_KINDS = ("scenario", "protocol", "dynamics", "drift")
#: The payment rules a unit can be evaluated under.
_VARIANTS = ("observed", "declared", "vcg", "archer-tardos")


@dataclass(frozen=True)
class ExperimentUnit:
    """One schedulable experiment: a bid profile under one payment rule.

    Attributes
    ----------
    kind:
        ``"scenario"`` — closed-form mechanism evaluation;
        ``"protocol"`` — one seeded discrete-event protocol round;
        ``"dynamics"`` — iterated best responses from the unit's bid
        profile (:class:`~repro.agents.game.BestResponseDynamics`),
        the limit scored with machines executing at capacity;
        ``"drift"`` — a stale-bid drifting horizon scored in one
        stacked broadcast (:func:`repro.dynamic.drift.drift_sweep`),
        with the unit's bid profile as the round-0 declarations and
        the truth wandering for ``drift_rounds`` epochs at
        ``drift_sigma``.
    scenario:
        Label for grouping results (usually a Table 2 name).
    bid_factor, execution_factor:
        The manipulator's declared and actual behaviour, as multiples
        of its true value (Table 2 semantics).
    true_values:
        Per-machine true processing values ``t_i``.
    arrival_rate:
        Total job arrival rate ``R``.
    variant:
        Payment rule: ``observed`` / ``declared``
        (:class:`~repro.mechanism.VerificationMechanism`), ``vcg`` or
        ``archer-tardos``.
    seed:
        RNG seed of protocol and drift units (ignored by the others).
    manipulator:
        Index of the machine the factors apply to (C1 by default).
    manipulators:
        Optional *coalition*: a tuple of distinct machine indices that
        all apply the same (bid_factor, execution_factor) — the
        multi-liar / collusion patterns of the tournament
        (:mod:`repro.experiments.tournament`).  ``None`` (default)
        falls back to the single ``manipulator``; when set, the
        ``manipulator`` field is normalised to the coalition's first
        member and the tuple itself (sorted) joins the cache key, so
        every pre-existing single-manipulator key is preserved.
    duration:
        Job-generation window of a protocol unit (simulated seconds).
    execution:
        Job execution engine of a protocol unit (``"event"``,
        ``"batched"``, or ``"auto"``; see
        :func:`~repro.protocol.run_protocol`).  Campaigns default to
        ``"auto"`` so protocol units take the batched fast path.
    drift_rounds, drift_sigma:
        Horizon length and per-epoch log-step of a ``drift`` unit's
        true-value random walk (ignored — and excluded from the cache
        key — for every other kind).
    """

    kind: str
    scenario: str
    bid_factor: float
    execution_factor: float
    true_values: tuple[float, ...]
    arrival_rate: float
    variant: str = "observed"
    seed: int = 0
    manipulator: int = 0
    duration: float = 200.0
    execution: str = "auto"
    manipulators: tuple[int, ...] | None = None
    drift_rounds: int = 64
    drift_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.variant not in _VARIANTS:
            raise ValueError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}"
            )
        if self.drift_rounds < 1:
            raise ValueError("drift_rounds must be at least 1")
        if self.drift_sigma < 0.0:
            raise ValueError("drift_sigma must be non-negative")
        values = tuple(float(t) for t in self.true_values)
        if len(values) < 2:
            raise ValueError("true_values needs at least two machines")
        if any(t <= 0.0 for t in values):
            raise ValueError("true_values must be strictly positive")
        object.__setattr__(self, "true_values", values)
        if self.bid_factor <= 0.0:
            raise ValueError("bid_factor must be positive")
        if self.execution_factor < 1.0:
            raise ValueError("execution_factor must be >= 1")
        if self.arrival_rate <= 0.0:
            raise ValueError("arrival_rate must be positive")
        if not 0 <= self.manipulator < len(values):
            raise ValueError("manipulator out of range")
        if self.manipulators is not None:
            coalition = tuple(sorted(int(i) for i in self.manipulators))
            if not coalition:
                raise ValueError("manipulators must name at least one machine")
            if len(set(coalition)) != len(coalition):
                raise ValueError("manipulators must be distinct")
            if not all(0 <= i < len(values) for i in coalition):
                raise ValueError("manipulators out of range")
            object.__setattr__(self, "manipulators", coalition)
            # Normalised so equal coalitions compare (and hash) equal
            # regardless of what the single-manipulator field said.
            object.__setattr__(self, "manipulator", coalition[0])
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        from repro.protocol.execution import resolve_execution

        # Validated and normalised at construction: "auto" and the engine
        # it picks can only produce identical payloads, so they must
        # compare equal, share one cache entry, and survive the
        # as_config round trip.
        object.__setattr__(self, "execution", resolve_execution(self.execution))

    def as_config(self) -> dict:
        """The result-affecting fields, as a canonicalisable dict.

        Scenario and dynamics units are deterministic closed forms, so
        their ``seed`` and ``duration`` are dropped: two such units
        that can only produce identical payloads share one cache key.
        """
        config = {
            "kind": self.kind,
            "scenario": self.scenario,
            "bid_factor": self.bid_factor,
            "execution_factor": self.execution_factor,
            "true_values": list(self.true_values),
            "arrival_rate": self.arrival_rate,
            "variant": self.variant,
            "manipulator": self.manipulator,
        }
        if self.manipulators is not None:
            # Included only for coalition units, so every pre-existing
            # single-manipulator cache key is preserved.
            config["manipulators"] = list(self.manipulators)
        if self.kind == "drift":
            # Drift sweeps are seeded closed forms: the seed shapes the
            # trajectory, so it joins the key.
            config["seed"] = self.seed
            config["drift_rounds"] = self.drift_rounds
            config["drift_sigma"] = self.drift_sigma
        if self.kind == "protocol":
            config["seed"] = self.seed
            config["duration"] = self.duration
            config["execution"] = self.execution  # already resolved
        return config

    @classmethod
    def from_config(cls, config: dict) -> "ExperimentUnit":
        """Rebuild a unit from :meth:`as_config` output (worker side)."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in config.items() if k in known}
        kwargs["true_values"] = tuple(kwargs["true_values"])
        if kwargs.get("manipulators") is not None:
            kwargs["manipulators"] = tuple(kwargs["manipulators"])
        return cls(**kwargs)


# --------------------------------------------------------- canonical form


def canonicalise(value: object) -> object:
    """Reduce ``value`` to a canonical JSON-compatible structure.

    Mappings are sorted by key, sequences become lists, NumPy arrays
    and scalars become plain Python numbers (dtype width is erased:
    ``np.int32(5)`` and ``np.int64(5)`` canonicalise identically), and
    negative zero is normalised so ``-0.0`` and ``0.0`` share a key.
    """
    if isinstance(value, dict):
        return {
            str(key): canonicalise(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, np.ndarray):
        return canonicalise(value.tolist())
    if isinstance(value, (list, tuple)):
        return [canonicalise(item) for item in value]
    if isinstance(value, np.generic):
        return canonicalise(value.item())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError("unit configs must not contain NaN or infinity")
        return value + 0.0 if value != 0.0 else 0.0
    raise TypeError(f"cannot canonicalise {type(value).__name__} for a cache key")


def canonical_json(value: object) -> str:
    """Canonical compact JSON: the byte string the cache key hashes."""
    return json.dumps(
        canonicalise(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_config(unit: ExperimentUnit) -> dict:
    """Canonical form of a unit's result-affecting config."""
    return canonicalise(unit.as_config())  # type: ignore[return-value]


@functools.lru_cache(maxsize=65536)
def _canonical_config_bytes(unit: ExperimentUnit) -> bytes:
    """Memoized canonical-JSON encoding of a unit's config.

    Units are frozen (hashable), and campaigns hash the same unit once
    per cache probe plus once per store — the A26 bench measured the
    repeated canonicalisation at ~2/3 of the residual per-unit cost,
    so the bytes are computed once per distinct unit per process.
    """
    return canonical_json(unit.as_config()).encode("utf-8")


def unit_cache_key(unit: ExperimentUnit, *, version: str | None = None) -> str:
    """256-bit BLAKE2b hex key of the unit config plus package version.

    The version is part of the key so a new release never serves
    results computed by old code.  The hashed bytes are exactly
    ``canonical_json({"config": unit.as_config(), "version": version})``
    — the envelope is assembled around the memoized config bytes
    (``"config"`` sorts before ``"version"``, so splicing preserves the
    canonical form byte for byte; the key-stability test pins this).
    """
    if version is None:
        from repro import __version__ as version
    payload = (
        b'{"config":'
        + _canonical_config_bytes(unit)
        + b',"version":'
        + canonical_json(version).encode("utf-8")
        + b"}"
    )
    return hashlib.blake2b(payload, digest_size=32).hexdigest()


# -------------------------------------------------------------- execution


def _mechanism_for(variant: str):
    from repro.mechanism import (
        ArcherTardosMechanism,
        VCGMechanism,
        VerificationMechanism,
    )

    if variant in ("observed", "declared"):
        return VerificationMechanism(variant)
    if variant == "vcg":
        return VCGMechanism()
    return ArcherTardosMechanism()


def _profile(unit: ExperimentUnit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    true_values = np.asarray(unit.true_values, dtype=np.float64)
    bids = true_values.copy()
    executions = true_values.copy()
    liars = (
        list(unit.manipulators)
        if unit.manipulators is not None
        else [unit.manipulator]
    )
    bids[liars] *= unit.bid_factor
    executions[liars] *= unit.execution_factor
    return true_values, bids, executions


def _payload_from_outcome(outcome) -> dict:
    """JSON-safe per-unit result.

    Every float passes through ``repr`` on the way into JSON and back,
    which round-trips IEEE doubles exactly — a cached payload is
    bit-identical to a freshly computed one.
    """
    payments = outcome.payments
    return {
        "bids": outcome.allocation.bids.tolist(),
        "execution_values": outcome.execution_values.tolist(),
        "loads": outcome.loads.tolist(),
        "declared_latency": float(outcome.allocation.total_latency),
        "realised_latency": float(outcome.realised_latency),
        "compensation": payments.compensation.tolist(),
        "bonus": payments.bonus.tolist(),
        "valuation": payments.valuation.tolist(),
        "payment": payments.payment.tolist(),
        "utility": payments.utility.tolist(),
        "frugality_ratio": float(outcome.frugality_ratio),
    }


def _execute_scenario(unit: ExperimentUnit) -> dict:
    true_values, bids, executions = _profile(unit)
    outcome = _mechanism_for(unit.variant).run(
        bids, unit.arrival_rate, executions, true_values=true_values
    )
    return _payload_from_outcome(outcome)


def _execute_dynamics(unit: ExperimentUnit) -> dict:
    """Iterate best responses from the unit's profile, score the limit.

    Every non-deviating machine executes as declared while agents
    adjust; the final bid profile is then scored with machines
    executing at capacity — the steady state the fixed point describes.
    """
    from repro.agents import BestResponseDynamics

    true_values, start_bids, _ = _profile(unit)
    mechanism = _mechanism_for(unit.variant)
    trace = BestResponseDynamics(mechanism, true_values, unit.arrival_rate).run(
        start_bids=start_bids
    )
    outcome = mechanism.run(
        trace.final_bids, unit.arrival_rate, true_values, true_values=true_values
    )
    payload = _payload_from_outcome(outcome)
    payload.update(
        {
            "start_bids": start_bids.tolist(),
            "rounds": int(trace.rounds),
            "converged": bool(trace.converged),
            "max_drift_from_truth": float(trace.max_drift_from(true_values)),
        }
    )
    return payload


def _execute_drift(unit: ExperimentUnit) -> dict:
    """Score a stale-bid drifting horizon as one stacked broadcast.

    The unit's bid profile is the round-0 declaration set; the truth
    then follows a seeded geometric random walk for ``drift_rounds``
    epochs while every round keeps routing on those stale bids
    (:func:`repro.dynamic.drift.drift_sweep`).  The payload summarises
    both the efficiency cost (latency degradation vs the per-round
    optimum) and the incentive pressure (best-response gains).
    """
    from repro.dynamic.drift import drift_sweep

    true_values, stale_bids, _ = _profile(unit)
    result = drift_sweep(
        true_values,
        unit.arrival_rate,
        rounds=unit.drift_rounds,
        sigma=unit.drift_sigma,
        seed=unit.seed,
        mechanism=_mechanism_for(unit.variant),
        declared_bids=stale_bids,
    )
    return {
        "rounds": int(result.rounds),
        "sigma": float(result.sigma),
        "seed": int(unit.seed),
        "stale_bids": stale_bids.tolist(),
        "mean_degradation_pct": result.mean_degradation_pct,
        "max_degradation_pct": result.max_degradation_pct,
        "final_degradation_pct": float(result.degradation_pct[-1]),
        "degradation_pct": result.degradation_pct.tolist(),
        "mean_gain": result.mean_gain,
        "max_gain": result.max_gain,
        "mean_best_response_factor": float(
            result.best_response_factors.mean()
        ),
    }


def _execute_protocol(unit: ExperimentUnit) -> dict:
    from repro.agents import ManipulativeAgent, TruthfulAgent
    from repro.protocol import run_protocol

    truthful = unit.bid_factor == 1.0 and unit.execution_factor == 1.0
    agents = [TruthfulAgent(t) for t in unit.true_values]
    if not truthful:
        liars = (
            unit.manipulators
            if unit.manipulators is not None
            else (unit.manipulator,)
        )
        for liar in liars:
            agents[liar] = ManipulativeAgent(
                unit.true_values[liar],
                unit.bid_factor,
                unit.execution_factor,
            )
    mechanism = None if unit.variant == "observed" else _mechanism_for(unit.variant)
    result = run_protocol(
        agents,
        unit.arrival_rate,
        duration=unit.duration,
        mechanism=mechanism,
        rng=np.random.default_rng(unit.seed),
        execution=unit.execution,
    )

    payload = _payload_from_outcome(result.outcome)
    error = result.estimation_relative_error
    payload.update(
        {
            "jobs_routed": int(result.jobs_routed),
            "total_messages": int(result.network.total_messages),
            "simulated_time": float(result.simulated_time),
            "true_execution_values": result.true_execution_values.tolist(),
            "estimated_execution_values":
                result.estimated_execution_values.tolist(),
            "estimation_error": [
                None if e != e else float(e) for e in error.tolist()
            ],
        }
    )
    return payload


_EXECUTORS = {
    "scenario": _execute_scenario,
    "protocol": _execute_protocol,
    "dynamics": _execute_dynamics,
    "drift": _execute_drift,
}


def execute_unit(unit: ExperimentUnit) -> dict:
    """Evaluate one unit; pure, deterministic, and process-independent.

    Scenario units run the closed-form mechanism, protocol units one
    full discrete-event round seeded from ``unit.seed``, dynamics and
    drift units their iterated game and drifting horizon.  The returned
    payload contains only JSON-safe scalars and lists, so it survives
    both pickling to a worker and a cache round-trip without losing a
    bit.
    """
    return _EXECUTORS[unit.kind](unit)

