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

Tie-break contract (shared with the brute-force grid search in
:mod:`repro.agents.best_response`, asserted by the property tests and
``benchmarks/bench_best_response.py``): the utility grid is laid out
with **executions as rows and bids as columns**, and the argmax is the
first maximal entry in C (row-major) order — ties resolve to the
lowest execution index first, then the lowest bid index.

Examples
--------
>>> import numpy as np
>>> from repro.agents.kernels import sufficient_statistics, utility_kernel
>>> t = np.array([1.0, 2.0])
>>> s_minus, q_minus = sufficient_statistics(t, t, agent=0)
>>> (s_minus, q_minus)
(0.5, 0.5)
>>> float(utility_kernel(1.0, 1.0, s_minus, q_minus, 3.0))   # truthful
12.0

When everyone executes exactly as declared, the three truthful payment
rules coincide at the truthful profile (see ``docs/mechanisms.md``):

>>> float(utility_kernel(1.0, 1.0, s_minus, q_minus, 3.0, mode="vcg"))
12.0
>>> float(utility_kernel(1.0, 1.0, s_minus, q_minus, 3.0, mode="archer_tardos"))
12.0
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro._validation import (
    as_float_array,
    check_index,
    check_positive,
    check_positive_scalar,
)
from repro.mechanism import pricing

__all__ = [
    "best_response_fast",
    "best_response_given_stats",
    "grid_argmax",
    "grid_argmax_units",
    "kernel_mode_of",
    "refine_from_grid",
    "strategy_grids",
    "sufficient_statistics",
    "sufficient_statistics_all",
    "sufficient_statistics_units",
    "supports",
    "utility_grid",
    "utility_kernel",
]


def supports(mechanism) -> bool:
    """Whether ``mechanism``'s utilities admit the closed-form kernel.

    True exactly for :class:`~repro.mechanism.VerificationMechanism`
    (both compensation modes), :class:`~repro.mechanism.VCGMechanism`,
    and :class:`~repro.mechanism.ArcherTardosMechanism` — the three
    mechanisms whose payments reduce to the ``(S_{-i}, Q_{-i})``
    sufficient statistics (module docstring).  Subclasses are *not*
    assumed to keep the payment rule, so the check is on the exact
    type; anything else stays on the brute-force path.
    """
    from repro.mechanism import (
        ArcherTardosMechanism,
        VCGMechanism,
        VerificationMechanism,
    )

    return type(mechanism) in (
        VerificationMechanism,
        VCGMechanism,
        ArcherTardosMechanism,
    )


def kernel_mode_of(mechanism) -> str:
    """The kernel mode for a supported mechanism (see :func:`supports`).

    ``"observed"`` / ``"declared"`` for the verification mechanism
    (whichever compensation it was built with), ``"vcg"`` for the
    Clarke-pivot baseline, ``"archer_tardos"`` for the one-parameter
    baseline; ``TypeError`` for anything without a closed form.
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
    raise TypeError(
        f"{type(mechanism).__name__} has no closed-form utility kernel; "
        "use the brute-force path"
    )


def _check_mode(mode: str) -> str:
    if mode not in pricing.RULES:
        raise ValueError(
            f"kernel mode must be one of {tuple(pricing.RULES)}, got {mode!r}"
        )
    return mode


def sufficient_statistics(
    bids: np.ndarray,
    executions: np.ndarray | None = None,
    *,
    agent: int,
) -> tuple[float, float]:
    """The two aggregates ``(S_{-i}, Q_{-i})`` that summarise the others.

    Parameters
    ----------
    bids:
        Full bid vector (agent ``agent``'s own entry is excluded by
        subtraction, matching the rank-1 update arithmetic of
        :class:`~repro.allocation.IncrementalStrategicState`).
    executions:
        Full execution-value vector ``t~``; defaults to the bids
        (machines execute as declared).
    agent:
        Index whose entry is left out of both sums.

    Examples
    --------
    >>> sufficient_statistics([1.0, 2.0, 4.0], agent=0)
    (0.75, 0.75)
    """
    bids = as_float_array(bids, "bids")
    check_positive(bids, "bids")
    agent = check_index(agent, bids.size, "agent")
    if executions is None:
        executions = bids
    else:
        executions = as_float_array(executions, "executions")
        check_positive(executions, "executions")
        if executions.size != bids.size:
            raise ValueError("executions must have one entry per agent")
    inv = 1.0 / bids
    weighted = executions * inv * inv
    s_minus = float(inv.sum() - inv[agent])
    q_minus = float(weighted.sum() - weighted[agent])
    return s_minus, q_minus


def sufficient_statistics_all(
    bids: np.ndarray,
    executions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(S_{-i}, Q_{-i})`` for *every* agent at once, as two vectors.

    The vectorised form of :func:`sufficient_statistics`: each entry is
    computed as ``total - own`` from the same shared totals the scalar
    version uses, so ``sufficient_statistics_all(b, e)[0][i]`` is
    bit-identical to ``sufficient_statistics(b, e, agent=i)[0]``.  This
    is what lets a learning round score all ``n`` counterfactual grids
    in one ``(n, K)`` broadcast.

    Examples
    --------
    >>> s_all, q_all = sufficient_statistics_all([1.0, 2.0, 4.0])
    >>> (float(s_all[0]), float(q_all[0]))
    (0.75, 0.75)
    """
    bids = as_float_array(bids, "bids")
    check_positive(bids, "bids")
    if executions is None:
        executions = bids
    else:
        executions = as_float_array(executions, "executions")
        check_positive(executions, "executions")
        if executions.size != bids.size:
            raise ValueError("executions must have one entry per agent")
    inv = 1.0 / bids
    weighted = executions * inv * inv
    return inv.sum() - inv, weighted.sum() - weighted


def sufficient_statistics_units(
    bids: np.ndarray,
    executions: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(S_{-i}, Q_{-i})`` for every agent of every unit at once.

    The batched-unit axis of :func:`sufficient_statistics_all`:
    ``bids`` (and ``executions``, defaulting to the bids) are ``(U, n)``
    blocks with one *unit* — one independent scenario — per row, and
    both returned arrays are ``(U, n)``.  Row ``k`` is bit-identical to
    ``sufficient_statistics_all(bids[k], executions[k])``: reducing a
    C-contiguous block along its last axis applies the same pairwise
    summation per row that a lone vector's ``.sum()`` does, so stacking
    units never changes a float.  This is the aggregate layer of the
    fused campaign backend (:mod:`repro.parallel.fusion`) and of the
    cohort-stacked generalization study.

    Examples
    --------
    >>> s, q = sufficient_statistics_units([[1.0, 2.0, 4.0]] * 2)
    >>> (float(s[0, 0]), float(q[1, 0]))
    (0.75, 0.75)
    """
    bids = np.asarray(bids, dtype=np.float64)
    if bids.ndim != 2:
        raise ValueError("bids must be a (units, agents) matrix")
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
        inv.sum(axis=1, keepdims=True) - inv,
        weighted.sum(axis=1, keepdims=True) - weighted,
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
    ``s_minus``/``q_minus`` broadcast too (pass per-row columns from
    :func:`sufficient_statistics_all` to score all agents at once), and
    so does ``arrival_rate`` — pass a ``(U, 1)`` column alongside
    ``(U, n)`` statistics from :func:`sufficient_statistics_units` to
    score a whole cohort of units, each with its own ``R``, in one
    call.  Cost is O(1) per evaluated candidate, independent of ``n``.

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


def grid_argmax(utilities: np.ndarray) -> tuple[int, int]:
    """First-maximum argmax over an (executions x bids) utility grid.

    This **is** the tie-break rule: the flat C-order argmax, i.e. ties
    resolve to the lowest execution index, then the lowest bid index —
    exactly what nested ``for e: for b:`` loops with a strict ``>``
    comparison produce.  Both the vectorized and the brute-force search
    must select through this helper so their picks are bit-identical.

    Examples
    --------
    >>> grid_argmax(np.array([[1.0, 3.0], [3.0, 0.0]]))
    (0, 1)
    """
    utilities = np.asarray(utilities)
    flat = int(np.argmax(utilities))
    n_bids = utilities.shape[1]
    return flat // n_bids, flat % n_bids


def grid_argmax_units(utilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit :func:`grid_argmax` over stacked utility grids.

    ``utilities`` is ``(U, executions, bids)`` — one grid per unit —
    and the result is a pair of integer vectors ``(rows, cols)`` with
    ``(rows[k], cols[k]) == grid_argmax(utilities[k])`` for every
    ``k``: the same flat C-order first-maximum rule, applied row-wise,
    so the batched-unit axis inherits the tie-break contract verbatim.

    Examples
    --------
    >>> grids = np.array([[[1.0, 3.0], [3.0, 0.0]],
    ...                   [[0.0, 1.0], [2.0, 2.0]]])
    >>> rows, cols = grid_argmax_units(grids)
    >>> (rows.tolist(), cols.tolist())
    ([0, 1], [1, 0])
    """
    utilities = np.asarray(utilities)
    if utilities.ndim != 3:
        raise ValueError("utilities must be (units, executions, bids)")
    n_bids = utilities.shape[2]
    flat = utilities.reshape(utilities.shape[0], -1).argmax(axis=1)
    return flat // n_bids, flat % n_bids


def strategy_grids(
    true_value: float,
    *,
    bid_bounds_factor: tuple[float, float] = (0.05, 20.0),
    execution_cap_factor: float = 4.0,
    scan_points: int = 48,
    exec_points: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """The shared candidate grids both search paths must evaluate.

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
    """Golden-section polish of a grid argmax; shared by both paths.

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
    """Grid + optional polish, entirely through the closed form.

    The core of :func:`best_response_fast`, usable directly when the
    caller already maintains ``(S_{-i}, Q_{-i})`` incrementally (the
    dynamics loop).  ``mode`` is any kernel mode.  Returns ``(bid,
    execution, utility, truthful_utility)``; the truth is kept whenever
    the search does not strictly beat it.
    """
    mode = _check_mode(mode)
    t_i = true_value
    truthful = float(
        utility_kernel(t_i, t_i, s_minus, q_minus, arrival_rate, mode=mode)
    )
    bid_grid, exec_grid = strategy_grids(
        t_i,
        bid_bounds_factor=bid_bounds_factor,
        execution_cap_factor=execution_cap_factor,
        scan_points=scan_points,
        exec_points=exec_points,
    )
    surface = utility_grid(
        bid_grid, exec_grid, s_minus, q_minus, arrival_rate, mode=mode,
    )
    row, col = grid_argmax(surface)
    best = (float(surface[row, col]), float(bid_grid[col]), float(exec_grid[row]))
    if refine:
        best = refine_from_grid(
            lambda b, e: float(
                utility_kernel(b, e, s_minus, q_minus, arrival_rate, mode=mode)
            ),
            bid_grid,
            exec_grid,
            row,
            col,
            best[0],
            t_i,
            execution_cap_factor,
        )
    u_star, b_star, e_star = best
    if truthful >= u_star:
        return float(t_i), float(t_i), truthful, truthful
    return b_star, e_star, u_star, truthful


def best_response_fast(
    mechanism,
    true_values: np.ndarray,
    arrival_rate: float,
    agent: int,
    *,
    other_bids: np.ndarray | None = None,
    other_executions: np.ndarray | None = None,
    bid_bounds_factor: tuple[float, float] = (0.05, 20.0),
    execution_cap_factor: float = 4.0,
    scan_points: int = 48,
    exec_points: int = 8,
    refine: bool = True,
):
    """Vectorized drop-in for :func:`repro.agents.best_response`.

    Same argmax / tie-break contract as the brute-force grid search
    (see :func:`grid_argmax`), evaluated in O(n + grid) instead of
    O(grid * n): one pass to form ``(S_{-i}, Q_{-i})``, one broadcast
    for the surface.  Only meaningful for mechanisms with the closed
    form (:func:`supports` — the verification mechanism, VCG, and
    Archer–Tardos); raises ``TypeError`` otherwise.

    ``other_executions`` generalises the brute-force path's convention
    (others execute exactly as declared) when the caller knows better.
    Returns a :class:`~repro.agents.best_response.BestResponse`.
    """
    from repro.agents.best_response import BestResponse

    mode = kernel_mode_of(mechanism)
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    agent = check_index(agent, true_values.size, "agent")
    if true_values.size < 2:
        raise ValueError("a best response needs at least two machines")

    base = true_values.copy()
    if other_bids is not None:
        other_bids = as_float_array(other_bids, "other_bids")
        check_positive(other_bids, "other_bids")
        if other_bids.size != true_values.size:
            raise ValueError("other_bids must have one entry per agent")
        base = other_bids.copy()
        base[agent] = true_values[agent]

    s_minus, q_minus = sufficient_statistics(
        base, other_executions if other_executions is not None else base,
        agent=agent,
    )
    t_i = float(true_values[agent])
    bid, execution, utility, truthful = best_response_given_stats(
        s_minus,
        q_minus,
        t_i,
        arrival_rate,
        mode=mode,
        bid_bounds_factor=bid_bounds_factor,
        execution_cap_factor=execution_cap_factor,
        scan_points=scan_points,
        exec_points=exec_points,
        refine=refine,
    )
    return BestResponse(agent, bid, execution, utility, truthful)
