"""Fused campaign backend: evaluate whole unit cohorts in one broadcast.

The 1.4.0–1.8.0 kernels made a single closed-form
:class:`~repro.parallel.units.ExperimentUnit` almost free analytically,
so a cold scenario campaign's wall-clock is dominated by *per-unit
Python*: mechanism construction, validation, dataclass packaging,
per-unit spans, and (with workers) pickling tiny units across the
pool.  This module removes that tax.  Cache-miss units are grouped
into **cohorts** — units that share a payment rule and a grid shape —
and each cohort is evaluated as one stacked ``(U, n)`` NumPy
computation instead of ``U`` independent
:func:`~repro.parallel.units.execute_unit` calls.  The Table 2 grid,
the tournament's manipulation sweep, generalization rows, and the
figure campaigns all have exactly this shape.

Cohort grouping rules (:func:`cohort_key`):

* same ``variant`` — every unit in a cohort is scored by the same
  payment formulas (observed / declared / vcg / archer-tardos);
* same machine count ``n = len(true_values)`` — the cohort stacks into
  a rectangular ``(U, n)`` block.

Everything else (true values, bid/execution factors, coalitions,
arrival rates) varies freely *within* a cohort: it stacks into rows
and broadcast columns.  Only scenario units are fusable
(:func:`fusable`): protocol replications simulate, dynamics units
iterate to a fixed point and drift units sweep a horizon, so those
kinds stay on the per-unit path.

**Bit-parity is the contract**, not a tolerance: a fused payload is
equal — every float, through ``repr`` and back — to the payload
:func:`execute_unit` produces for the same unit, so cohort results
scatter into the existing :class:`~repro.parallel.cache.ResultCache`
under unchanged keys and warm-cache / ``--resume`` behaviour is
untouched.  Exactness comes from pricing the cohort through
:mod:`repro.mechanism.pricing`, the same kernel the per-unit
``Mechanism.run`` prices through: a ``(U, n)`` stack there is
byte-identical row by row to ``U`` single profiles (asserted by
``tests/parallel/test_fusion.py`` and re-asserted before every timing
run of ``benchmarks/bench_campaign_fusion.py``).

Validation note: fused cohorts skip :meth:`Mechanism.run`'s input
checks on purpose.  ``ExperimentUnit.__post_init__`` already enforces
strictly positive true values, ``bid_factor > 0``, and
``execution_factor >= 1`` — which makes bids/executions positive and
``t̃_i >= t_i`` true by construction, so none of the skipped checks
can fire for a constructible unit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.table2 import build_bid_and_execution_vectors
from repro.mechanism import pricing
from repro.parallel.units import ExperimentUnit, profile_payload

__all__ = [
    "FUSE_MODES",
    "cohort_key",
    "execute_cohort",
    "fusable",
    "partition_pending",
]

#: The engine's fusion settings: ``auto`` fuses cohorts of two or more
#: units (a singleton gains nothing), ``on`` fuses every fusable unit,
#: ``off`` keeps the pure per-unit path.
FUSE_MODES = ("auto", "on", "off")


def fusable(unit: ExperimentUnit) -> bool:
    """Whether one unit can join a fused cohort.

    True exactly for closed-form scenario units; every other kind
    falls back to :func:`~repro.parallel.units.execute_unit`.
    """
    return unit.kind == "scenario"


def cohort_key(unit: ExperimentUnit) -> tuple[str, int]:
    """The homogeneity key: ``(variant, n_machines)``.

    Units sharing a key are scored by the same payment formulas and
    stack into one rectangular ``(U, n)`` block; everything else
    (true values, factors, coalitions, arrival rates) varies freely
    within a cohort.
    """
    return (unit.variant, len(unit.true_values))


def partition_pending(
    pending: Sequence[tuple[int, ExperimentUnit]],
    mode: str = "auto",
) -> tuple[list[list[tuple[int, ExperimentUnit]]], list[tuple[int, ExperimentUnit]]]:
    """Split cache misses into fused cohorts and per-unit fallbacks.

    ``pending`` is the engine's miss list as ``(submission index,
    unit)`` pairs.  Returns ``(cohorts, fallback)`` with submission
    order preserved inside every cohort and inside the fallback list —
    so scatter order, cache writes, and the per-unit fallback chunks
    are reproducible.

    ``mode="auto"`` only fuses cohorts with at least two members
    (fusing a singleton saves nothing and costs the unit its
    per-unit span); ``mode="on"`` fuses every fusable unit;
    ``mode="off"`` fuses nothing.
    """
    if mode not in FUSE_MODES:
        raise ValueError(f"fuse must be one of {FUSE_MODES}, got {mode!r}")
    if mode == "off":
        return [], list(pending)
    grouped: dict[tuple[str, int], list[tuple[int, ExperimentUnit]]] = {}
    fallback: list[tuple[int, ExperimentUnit]] = []
    for index, unit in pending:
        if fusable(unit):
            grouped.setdefault(cohort_key(unit), []).append((index, unit))
        else:
            fallback.append((index, unit))
    cohorts: list[list[tuple[int, ExperimentUnit]]] = []
    for members in grouped.values():
        if mode == "auto" and len(members) < 2:
            fallback.extend(members)
        else:
            cohorts.append(members)
    # A stable fallback order regardless of how cohorts were rejected.
    fallback.sort(key=lambda pair: pair[0])
    return cohorts, fallback


# ------------------------------------------------------------ evaluation


def execute_cohort(units: Sequence[ExperimentUnit]) -> list[dict]:
    """Evaluate one homogeneous cohort in a single stacked computation.

    Every unit must share :func:`cohort_key`; the result is one payload
    dict per unit, in input order, each equal to
    ``execute_unit(unit)`` — same floats, same fields.
    """
    units = list(units)
    if not units:
        return []
    keys = {cohort_key(unit) for unit in units}
    if len(keys) > 1:
        raise ValueError(f"cohort mixes incompatible units: {sorted(keys)}")
    for unit in units:
        if not fusable(unit):
            raise ValueError(f"{unit.kind} units have no fused evaluation")
    variant = units[0].variant

    # Row k is unit k's profile, built by the same function the
    # per-unit path uses, so every entry is bit-identical to it.
    profiles = [
        build_bid_and_execution_vectors(unit.true_values, unit, unit.coalition)
        for unit in units
    ]
    bids, executions = (np.array(rows) for rows in zip(*profiles))
    rates = np.array([unit.arrival_rate for unit in units], dtype=np.float64)
    # Variant names spell the kernel rule ``archer_tardos`` with a dash.
    priced = pricing.price(
        variant.replace("-", "_"), bids, executions, rates[:, None]
    )
    return [
        profile_payload(bids[k], executions[k], *(field[k] for field in priced))
        for k in range(len(units))
    ]
