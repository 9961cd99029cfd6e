"""Closed-form vectorized best-response kernels for the strategic layer.

Every strategic-layer computation — best-response dynamics, equilibrium
certification, learning agents — asks the same question: *what is agent
``i``'s utility at a candidate ``(bid, execution)`` pair, holding the
others fixed?*  Answering it through :meth:`Mechanism.run` costs
``O(n)`` per candidate, so a ``(bid x execution)`` grid search costs
``O(grid * n)`` and the grid search is run once per agent per round.

Under every payment rule of :data:`repro.mechanism.pricing.RULES` the
whole dependence on the other ``n - 1`` agents collapses into **two
scalars**:

    ``S_{-i} = sum_{j != i} 1 / b_j``
    ``Q_{-i} = sum_{j != i} t~_j / b_j**2``

Derivation.  With ``S = S_{-i} + 1/b`` the PR allocation gives agent
``i`` the load ``x_i = R / (b S)`` and agent ``j`` the load
``x_j = R / (b_j S)``, so the realised total latency is

    ``L = e x_i**2 + sum_{j != i} t~_j x_j**2 = (R/S)**2 Q``
    with ``Q = Q_{-i} + e / b**2``,

and the declared latency ``sum_j b_j x_j**2`` is ``(R/S)**2 S``.  Agent
``i``'s compensation (``e x_i**2`` or ``b x_i**2``), its valuation
``-e x_i**2``, the leave-one-out optimum ``R**2 / S_{-i}`` and the
Archer–Tardos work integral ``R**2 / (S_{-i} (b S_{-i} + 1))`` read only
``b``, ``e``, ``R`` and ``S``.  So :func:`utility_kernel` prices the
candidate through :func:`repro.mechanism.pricing.price_gathered` on the
totals ``(S_{-i} + 1/b, Q_{-i} + e/b**2)`` — the same step the sharded
settle takes, and the payment rules stay written once, in
:mod:`repro.mechanism.pricing`.  A candidate grid is then **one NumPy
broadcast** — ``O(grid)`` instead of ``O(grid * n)`` — and the
aggregates themselves admit O(1) rank-1 updates across best-response
rounds (:class:`repro.allocation.IncrementalStrategicState`).

Every search for one agent's best reply — the kernel path here and the
brute-force path of :func:`repro.agents.best_response` alike — is
:func:`search`: the truthful utility, the shared candidate grids
(:func:`strategy_grids`), the first-maximum argmax, the optional
golden-section polish (:func:`refine_from_grid`), then the truth kept
unless strictly beaten.  Only the evaluator differs, and which one runs
is decided by the mechanism's exact type (:func:`kernel_mode_of`).

Tie-break contract (asserted by the property tests and
``benchmarks/bench_best_response.py``): the utility grid is laid out
with **executions as rows and bids as columns**, and the argmax is the
first maximal entry in C (row-major) order — ties resolve to the
lowest execution index first, then the lowest bid index.

Shapes: :func:`sufficient_statistics` works along the last axis of any
``(..., n)`` input and :func:`grid_argmax` over the last two axes, so a
stack of profiles or grids (one row per agent, per round or per unit) is
the same code as a single one, bit for bit per row.

Examples
--------
>>> import numpy as np
>>> from repro.agents.kernels import sufficient_statistics, utility_kernel
>>> t = np.array([1.0, 2.0])
>>> s_minus, q_minus = sufficient_statistics(t, t)
>>> (float(s_minus[0]), float(q_minus[0]))
(0.5, 0.5)
>>> float(utility_kernel(1.0, 1.0, s_minus[0], q_minus[0], 3.0))   # truthful
12.0

When everyone executes exactly as declared, the three truthful payment
rules coincide at the truthful profile (see ``docs/mechanisms.md``):

>>> float(utility_kernel(1.0, 1.0, s_minus[0], q_minus[0], 3.0, mode="vcg"))
12.0
>>> float(utility_kernel(1.0, 1.0, s_minus[0], q_minus[0], 3.0, mode="archer_tardos"))
12.0
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._validation import check_positive
from repro.mechanism import pricing

__all__ = [
    "best_response_given_stats",
    "grid_argmax",
    "kernel_mode_of",
    "refine_from_grid",
    "search",
    "strategy_grids",
    "sufficient_statistics",
    "utility_grid",
    "utility_kernel",
]


def kernel_mode_of(mechanism) -> str | None:
    """The :data:`~repro.mechanism.pricing.RULES` name of ``mechanism``.

    ``"observed"`` / ``"declared"`` for the verification mechanism
    (whichever compensation it was built with), ``"vcg"`` for the
    Clarke-pivot baseline, ``"archer_tardos"`` for the one-parameter
    baseline — the three mechanisms whose payments reduce to the
    ``(S_{-i}, Q_{-i})`` sufficient statistics (module docstring).
    ``None`` for anything else: subclasses are *not* assumed to keep
    the payment rule, so the check is on the exact type, and a ``None``
    mechanism is evaluated by one :meth:`Mechanism.run` per candidate.
    """
    from repro.mechanism import (
        ArcherTardosMechanism,
        VCGMechanism,
        VerificationMechanism,
    )

    if type(mechanism) is VerificationMechanism:
        return mechanism.compensation_mode
    if type(mechanism) is VCGMechanism:
        return "vcg"
    if type(mechanism) is ArcherTardosMechanism:
        return "archer_tardos"
    return None


def _check_mode(mode: str) -> str:
    if mode not in pricing.RULES:
        raise ValueError(
            f"kernel mode must be one of {tuple(pricing.RULES)}, got {mode!r}"
        )
    return mode


def sufficient_statistics(
    bids: np.ndarray,
    executions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(S_{-i}, Q_{-i})`` for every agent, along the last axis.

    ``bids`` (and ``executions``, the execution values ``t~``,
    defaulting to the bids) are ``(..., n)`` arrays — one profile, or a
    stack of profiles with one per row — and both results have their
    shape.  Each entry is ``total - own`` from the shared row totals
    (the rank-1 arithmetic of
    :class:`~repro.allocation.IncrementalStrategicState`); reducing a
    C-contiguous block along its last axis applies the same pairwise
    summation per row that a lone vector's sum does, so a row of a stack
    is bit-identical to the same profile passed alone.

    Examples
    --------
    >>> s, q = sufficient_statistics([1.0, 2.0, 4.0])
    >>> (float(s[0]), float(q[0]))
    (0.75, 0.75)
    >>> s, q = sufficient_statistics([[1.0, 2.0, 4.0]] * 2)
    >>> (float(s[1, 0]), float(q[1, 0]))
    (0.75, 0.75)
    """
    bids = np.asarray(bids, dtype=np.float64)
    if bids.ndim == 0 or bids.shape[-1] == 0:
        raise ValueError("bids must have a non-empty agent axis")
    check_positive(bids, "bids")
    if executions is None:
        executions = bids
    else:
        executions = np.asarray(executions, dtype=np.float64)
        check_positive(executions, "executions")
        if executions.shape != bids.shape:
            raise ValueError("executions must match the bids shape")
    inv = 1.0 / bids
    weighted = executions * inv * inv
    return (
        inv.sum(axis=-1, keepdims=True) - inv,
        weighted.sum(axis=-1, keepdims=True) - weighted,
    )


def utility_kernel(
    bids,
    executions,
    s_minus,
    q_minus,
    arrival_rate,
    *,
    mode: str = "observed",
) -> np.ndarray:
    """Closed-form ``U_i(b, e)`` given the aggregates — broadcastable.

    ``bids`` and ``executions`` may be scalars or arrays of any
    broadcast-compatible shapes; the result has the broadcast shape.
    ``s_minus``/``q_minus`` broadcast too (pass columns of
    :func:`sufficient_statistics` to score all agents at once), and so
    does ``arrival_rate`` — pass a ``(U, 1)`` column alongside ``(U, n)``
    statistics to score a stack of profiles, each with its own ``R``, in
    one call.  Cost is O(1) per evaluated candidate, independent of
    ``n``.

    ``mode`` selects the payment rule, by its
    :data:`~repro.mechanism.pricing.RULES` name: ``"observed"``
    (default) / ``"declared"`` for the verification mechanism, ``"vcg"``
    for the Clarke pivot, ``"archer_tardos"`` for the one-parameter
    baseline.  The candidate is priced by
    :func:`~repro.mechanism.pricing.price_gathered` on the totals
    ``S = S_{-i} + 1/b`` and ``Q = Q_{-i} + e/b**2`` (module docstring);
    VCG and Archer–Tardos do not read ``Q`` — neither mechanism can see
    the others' execution values.

    Examples
    --------
    Truth dominates under the observed mode (Theorem 3.1):

    >>> u = utility_kernel([1.0, 1.5], 1.0, 0.5, 0.5, 3.0)
    >>> bool(u[0] > u[1])
    True
    """
    mode = _check_mode(mode)
    b = np.asarray(bids, dtype=np.float64)
    e = np.asarray(executions, dtype=np.float64)
    _, compensation, bonus, valuation = pricing.price_gathered(
        mode, b, e, s_minus + 1.0 / b, q_minus + e / b**2, arrival_rate,
    )
    return compensation + bonus + valuation


def utility_grid(
    bid_grid: np.ndarray,
    exec_grid: np.ndarray,
    s_minus: float,
    q_minus: float,
    arrival_rate: float,
    *,
    mode: str = "observed",
) -> np.ndarray:
    """The full candidate surface in one broadcast.

    Returns shape ``(exec_grid.size, bid_grid.size)`` — executions as
    rows, bids as columns, the orientation the tie-break contract is
    defined over.
    """
    bid_grid = np.asarray(bid_grid, dtype=np.float64)
    exec_grid = np.asarray(exec_grid, dtype=np.float64)
    return utility_kernel(
        bid_grid[None, :],
        exec_grid[:, None],
        s_minus,
        q_minus,
        arrival_rate,
        mode=mode,
    )


def grid_argmax(utilities: np.ndarray):
    """First-maximum argmax over the last two (executions x bids) axes.

    This **is** the tie-break rule: the flat C-order argmax of each
    grid, i.e. ties resolve to the lowest execution index, then the
    lowest bid index — exactly what nested ``for e: for b:`` loops with
    a strict ``>`` comparison produce.  One grid gives ``(row, col)`` as
    two ints; a ``(..., executions, bids)`` stack gives two integer
    arrays of the leading shape, entry ``k`` equal to the call on grid
    ``k``.

    Examples
    --------
    >>> grid_argmax(np.array([[1.0, 3.0], [3.0, 0.0]]))
    (0, 1)
    >>> rows, cols = grid_argmax(np.array([[[1.0, 3.0], [3.0, 0.0]],
    ...                                    [[0.0, 1.0], [2.0, 2.0]]]))
    >>> (rows.tolist(), cols.tolist())
    ([0, 1], [1, 0])
    """
    utilities = np.asarray(utilities)
    if utilities.ndim < 2:
        raise ValueError("utilities must end in (executions, bids) axes")
    flat = utilities.reshape(utilities.shape[:-2] + (-1,)).argmax(axis=-1)
    rows, cols = np.divmod(flat, utilities.shape[-1])
    if utilities.ndim == 2:
        return int(rows), int(cols)
    return rows, cols


def strategy_grids(
    true_value: float,
    *,
    bid_bounds_factor: tuple[float, float] = (0.05, 20.0),
    execution_cap_factor: float = 4.0,
    scan_points: int = 48,
    exec_points: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """The candidate grids every best-response search evaluates.

    Bids: ``scan_points`` log-spaced multiples of the true value across
    ``bid_bounds_factor``.  Executions: ``exec_points`` linear points in
    ``[t, cap * t]``, collapsed to the single honest point when the cap
    is 1 (every row would be identical; the first-row tie-break makes
    the collapse selection-preserving).
    """
    if execution_cap_factor < 1.0:
        raise ValueError("execution_cap_factor must be >= 1")
    if scan_points < 2:
        raise ValueError("scan_points must be at least 2")
    if exec_points < 1:
        raise ValueError("exec_points must be at least 1")
    lo, hi = bid_bounds_factor
    if not 0.0 < lo < hi:
        raise ValueError("bid_bounds_factor must satisfy 0 < lo < hi")
    bid_grid = true_value * np.geomspace(lo, hi, scan_points)
    if execution_cap_factor == 1.0:
        exec_grid = np.array([true_value])
    else:
        exec_grid = true_value * np.linspace(1.0, execution_cap_factor, exec_points)
    return bid_grid, exec_grid


def refine_from_grid(
    utility: Callable[[float, float], float],
    bid_grid: np.ndarray,
    exec_grid: np.ndarray,
    row: int,
    col: int,
    grid_utility: float,
    true_value: float,
    execution_cap_factor: float,
) -> tuple[float, float, float]:
    """Golden-section polish of a grid argmax.

    Refines the bid inside the bracket around the selected column (at
    the selected execution row), then the execution value at the
    refined bid.  Either stage is kept only on a strict improvement, so
    a flat optimum stays at the grid point.  Returns
    ``(utility, bid, execution)``.
    """
    from scipy import optimize  # deferred: scipy only on the refine path

    best = (grid_utility, float(bid_grid[col]), float(exec_grid[row]))
    lo_b = float(bid_grid[max(0, col - 1)])
    hi_b = float(bid_grid[min(bid_grid.size - 1, col + 1)])
    e_here = float(exec_grid[row])
    res = optimize.minimize_scalar(
        lambda b: -utility(b, e_here),
        bounds=(lo_b, hi_b),
        method="bounded",
        options={"xatol": 1e-10 * true_value},
    )
    if -res.fun > best[0]:
        best = (float(-res.fun), float(res.x), e_here)
    if execution_cap_factor > 1.0:
        b_here = best[1]
        res = optimize.minimize_scalar(
            lambda e: -utility(b_here, e),
            bounds=(true_value, execution_cap_factor * true_value),
            method="bounded",
            options={"xatol": 1e-10 * true_value},
        )
        if -res.fun > best[0]:
            best = (float(-res.fun), b_here, float(res.x))
    return best


def search(
    utility: Callable[[float, float], float],
    surface: Callable[[np.ndarray, np.ndarray], np.ndarray],
    true_value: float,
    *,
    bid_bounds_factor: tuple[float, float] = (0.05, 20.0),
    execution_cap_factor: float = 4.0,
    scan_points: int = 48,
    exec_points: int = 8,
    refine: bool = True,
) -> tuple[float, float, float, float]:
    """One agent's best ``(bid, execution)``, whatever evaluates it.

    ``utility(bid, execution)`` scores one candidate and
    ``surface(bid_grid, exec_grid)`` the whole ``(executions x bids)``
    grid of :func:`strategy_grids`.  The grid argmax
    (:func:`grid_argmax`) is polished by :func:`refine_from_grid` when
    ``refine`` is set, and the truth is kept whenever the search does
    not strictly beat the truthful utility.  Returns ``(bid, execution,
    utility, truthful_utility)``.
    """
    truthful = utility(true_value, true_value)
    bid_grid, exec_grid = strategy_grids(
        true_value,
        bid_bounds_factor=bid_bounds_factor,
        execution_cap_factor=execution_cap_factor,
        scan_points=scan_points,
        exec_points=exec_points,
    )
    utilities = surface(bid_grid, exec_grid)
    row, col = grid_argmax(utilities)
    best = (float(utilities[row, col]), float(bid_grid[col]), float(exec_grid[row]))
    if refine:
        best = refine_from_grid(
            utility,
            bid_grid,
            exec_grid,
            row,
            col,
            best[0],
            true_value,
            execution_cap_factor,
        )
    u_star, b_star, e_star = best
    if truthful >= u_star:
        return float(true_value), float(true_value), truthful, truthful
    return b_star, e_star, u_star, truthful


def best_response_given_stats(
    s_minus: float,
    q_minus: float,
    true_value: float,
    arrival_rate: float,
    *,
    mode: str = "observed",
    bid_bounds_factor: tuple[float, float] = (0.05, 20.0),
    execution_cap_factor: float = 4.0,
    scan_points: int = 48,
    exec_points: int = 8,
    refine: bool = True,
) -> tuple[float, float, float, float]:
    """:func:`search` evaluated entirely through the closed form.

    O(grid) given the others' aggregates ``(S_{-i}, Q_{-i})``: what
    :func:`repro.agents.best_response` runs for a mechanism with a
    kernel mode, and what the dynamics loop calls directly with the
    statistics of an :class:`~repro.allocation.IncrementalStrategicState`.
    ``mode`` is any :data:`~repro.mechanism.pricing.RULES` name.
    Returns ``(bid, execution, utility, truthful_utility)``.
    """
    mode = _check_mode(mode)
    return search(
        lambda b, e: float(
            utility_kernel(b, e, s_minus, q_minus, arrival_rate, mode=mode)
        ),
        lambda bid_grid, exec_grid: utility_grid(
            bid_grid, exec_grid, s_minus, q_minus, arrival_rate, mode=mode,
        ),
        true_value,
        bid_bounds_factor=bid_bounds_factor,
        execution_cap_factor=execution_cap_factor,
        scan_points=scan_points,
        exec_points=exec_points,
        refine=refine,
    )
