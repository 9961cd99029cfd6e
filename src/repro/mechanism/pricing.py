"""The payment rules, written once: the pricing kernel every caller uses.

Definition 3.3 pays ``C_i = t̃_i x_i^2`` plus ``B_i = L_{-i}* - L`` with
``L_{-i}* = R^2 / S_{-i}``; the baselines and the declared variant only
change which slope the compensation repays and which latency the bonus
charges (:data:`RULES`).  Shapes are free in the leading axes: one
profile is ``(n,)`` (the mechanisms' ``payments`` stages), a stack is
``(U, n)`` (``batch_run``, fused cohorts, horizon Phase B).

The module splits at the totals ``S = sum_j 1/b_j`` and ``L``: callers
that know ``S`` and ``Q = sum_j t̃_j / b_j^2`` instead of the whole
profile price their members through :func:`price_gathered`, which
derives the charged ``L = (R/S)^2 Q`` and takes the same
:func:`price_members` step.  Those callers are the shard settle and the
distributed mechanism (totals gathered over a tree) and the strategic
kernels of :mod:`repro.agents.kernels` (one agent's candidate
``(b, e)`` against the others' ``(S_{-i}, Q_{-i})``), so a new payment
rule is one row of :data:`RULES`.

Contract: a stacked row is byte-identical to its profile priced alone —
last-axis sums and :func:`row_dots` reduce each row exactly as a lone
vector's ``.sum()`` and ``np.dot`` do (``einsum`` does not), and the
rest is elementwise.  Totals gathered in another summation order agree
to ~1e-12 relative.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.types import AllocationResult, PaymentResult

__all__ = ["RULES", "Priced", "allocate", "price", "price_allocation",
           "price_gathered", "price_members", "row_dots"]

#: Per :func:`repro.agents.kernels.kernel_mode_of` name: the slope the
#: compensation repays and the slope the bonus's latency is charged at
#: (``None``: the Archer–Tardos work integral replaces ``L_{-i}* - L``).
RULES: dict[str, tuple[str, str | None]] = {
    "observed": ("execution", "execution"),
    "declared": ("bid", "execution"),
    "vcg": ("bid", "bid"),
    "archer_tardos": ("bid", None),
}


class Priced(NamedTuple):
    """Pricing of whole profiles; per-profile totals drop the last axis."""

    loads: np.ndarray
    declared_latency: np.ndarray  # R^2 / S
    realised_latency: np.ndarray  # sum_j t̃_j x_j^2
    compensation: np.ndarray
    bonus: np.ndarray
    valuation: np.ndarray


def row_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Last-axis dot products, bit-equal to ``np.dot`` on every row."""
    return (left[..., None, :] @ right[..., :, None])[..., 0, 0]


def _squared(rates):
    """``R^2`` as a Python float squares it (libm ``pow``), per entry.

    NumPy squares arrays as ``x * x``, one ulp off ``pow`` for about one
    rate in a thousand; a lone profile's rate is a Python float.
    """
    if np.ndim(rates) == 0:
        return float(rates) ** 2
    return np.array([r**2 for r in rates.ravel().tolist()]).reshape(rates.shape)


def allocate(bids: np.ndarray, rates, total=None):
    """PR loads per row: ``(S, x)``, with ``S`` kept as a column.

    ``rates`` is a scalar or a column (``(U, 1)`` for a stack); ``total``
    is an ``S`` gathered elsewhere.
    """
    inv = 1.0 / bids
    if total is None:
        total = inv.sum(axis=-1, keepdims=True)
    return total, rates * inv / total


def price_members(rule: str, bids, executions, loads_sq, total, latency, rates):
    """Per-agent ``(compensation, bonus, valuation)`` from the totals.

    ``total`` (``S``) and ``latency`` (``L``, ``None`` for Archer–Tardos)
    are scalars or columns broadcasting against the member axis.
    """
    s_minus = total - 1.0 / bids
    if latency is None:
        bonus = _squared(rates) / (s_minus * (bids * s_minus + 1.0))
    else:
        bonus = _squared(rates) / s_minus - latency
    repaid = executions if RULES[rule][0] == "execution" else bids
    return repaid * loads_sq, bonus, -executions * loads_sq


def price_gathered(rule: str, bids, executions, total, quotient, rate):
    """``(loads, compensation, bonus, valuation)`` from gathered ``(S, Q)``.

    The charged latency is ``L = (R/S)^2 Q`` with ``Q = sum_j c_j / b_j^2``
    over the slope ``c`` the rule's bonus charges: ``quotient`` sums the
    executions ``t̃`` (observed and declared rules); at the bids ``Q`` is
    ``S`` itself (VCG), and Archer–Tardos charges no latency.  So the
    members price themselves from their own bids and executions plus the
    two gathered totals.
    """
    _, loads = allocate(bids, rate, total)
    charged = RULES[rule][1]
    latency = None
    if charged is not None:
        latency = (rate / total) ** 2 * (
            quotient if charged == "execution" else total
        )
    return (loads, *price_members(
        rule, bids, executions, loads**2, total, latency, rate,
    ))


def _charged(rule: str, bids, executions, loads_sq):
    """The latency ``L`` the rule's bonus charges, as a column."""
    charged = RULES[rule][1]
    if charged is None:
        return None
    slope = executions if charged == "execution" else bids
    return row_dots(slope, loads_sq)[..., None]


def price(rule: str, bids, executions, rates) -> Priced:
    """Allocate and price whole profiles, ``(n,)`` or ``(U, n)``."""
    total, loads = allocate(bids, rates)
    loads_sq = loads**2
    compensation, bonus, valuation = price_members(
        rule, bids, executions, loads_sq, total,
        _charged(rule, bids, executions, loads_sq), rates,
    )
    return Priced(loads, (_squared(rates) / total)[..., 0],
                  row_dots(executions, loads_sq), compensation, bonus, valuation)


def price_allocation(
    rule: str, allocation: AllocationResult, executions: np.ndarray
) -> PaymentResult:
    """A mechanism's ``payments`` stage: price one allocated profile."""
    bids, rate = allocation.bids, allocation.arrival_rate
    loads_sq = allocation.loads**2
    compensation, bonus, valuation = price_members(
        rule, bids, executions, loads_sq, allocate(bids, rate)[0],
        _charged(rule, bids, executions, loads_sq), rate,
    )
    return PaymentResult(
        compensation=compensation, bonus=bonus, valuation=valuation
    )
