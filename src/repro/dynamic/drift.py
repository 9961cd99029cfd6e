"""True-value drift processes for the repeated mechanism.

Besides the drift processes themselves, :func:`drift_sweep` measures
what a drifting horizon *costs*: machines bid once (round 0), their
true speeds then wander, and every subsequent round is priced on the
stale profile.  The whole horizon is scored as one stacked broadcast —
:func:`repro.agents.kernels.sufficient_statistics` and
:func:`repro.agents.kernels.grid_argmax` over ``(rounds, n)`` stacks,
one row per round — so thousand-round sweeps cost a handful of NumPy
calls.  This is the drift row of the A27 horizon bench and the
``repro campaign --variant drift`` backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import (
    as_float_array,
    check_positive,
    check_positive_scalar,
)

__all__ = [
    "GeometricRandomWalkDrift",
    "RegimeSwitchDrift",
    "DriftSweepResult",
    "drift_sweep",
]


class GeometricRandomWalkDrift:
    """Each machine's slope follows a reflected geometric random walk.

    ``log t`` takes a Normal(0, sigma) step per epoch, clipped into
    ``[log lower, log upper]`` so machines stay physically plausible.

    Parameters
    ----------
    sigma:
        Per-epoch standard deviation of the log step (0.05 ~ 5% speed
        jitter per epoch).
    bounds:
        (lower, upper) clip range for the slopes.
    """

    def __init__(
        self,
        sigma: float,
        rng: np.random.Generator,
        *,
        bounds: tuple[float, float] = (0.05, 100.0),
    ) -> None:
        if sigma < 0.0:
            raise ValueError("sigma must be non-negative")
        lower, upper = bounds
        if not 0 < lower < upper:
            raise ValueError("bounds must satisfy 0 < lower < upper")
        self.sigma = float(sigma)
        self.bounds = (float(lower), float(upper))
        self._rng = rng

    def step(self, true_values: np.ndarray) -> np.ndarray:
        """One epoch of drift applied to ``true_values``."""
        true_values = as_float_array(true_values, "true_values")
        check_positive(true_values, "true_values")
        steps = self._rng.normal(0.0, self.sigma, size=true_values.size)
        moved = true_values * np.exp(steps)
        return np.clip(moved, *self.bounds)


class RegimeSwitchDrift:
    """Machines occasionally jump to a new speed regime.

    With probability ``switch_probability`` per epoch, a machine's
    slope is redrawn log-uniformly from ``t_range`` (modelling a burst
    of co-located load appearing or clearing); otherwise it is
    unchanged.  This is the adversarial end of the drift spectrum:
    stale bids can be badly wrong right after a switch.
    """

    def __init__(
        self,
        switch_probability: float,
        rng: np.random.Generator,
        *,
        t_range: tuple[float, float] = (1.0, 10.0),
    ) -> None:
        if not 0.0 <= switch_probability <= 1.0:
            raise ValueError("switch_probability must be in [0, 1]")
        lower, upper = t_range
        if not 0 < lower <= upper:
            raise ValueError("t_range must satisfy 0 < lower <= upper")
        self.switch_probability = float(switch_probability)
        self.t_range = (float(lower), float(upper))
        self._rng = rng

    def step(self, true_values: np.ndarray) -> np.ndarray:
        """One epoch: each machine independently may switch regime."""
        true_values = as_float_array(true_values, "true_values")
        check_positive(true_values, "true_values")
        n = true_values.size
        switch = self._rng.random(n) < self.switch_probability
        lower, upper = self.t_range
        fresh = np.exp(self._rng.uniform(np.log(lower), np.log(upper), size=n))
        return np.where(switch, fresh, true_values)


@dataclass(frozen=True)
class DriftSweepResult:
    """Per-round cost of routing a drifting horizon on stale bids.

    All arrays share the round axis; ``best_response_gain`` and
    ``best_response_factors`` add an agent axis.  Degradations are in
    percent of the per-round optimum.
    """

    sigma: float
    factors: np.ndarray  # (K,) candidate bid factors scanned per agent
    rates: np.ndarray  # (rounds,) per-round arrival rate
    degradation_pct: np.ndarray  # (rounds,) stale-vs-optimal latency gap
    best_response_gain: np.ndarray  # (rounds, n) utility left on the table
    best_response_factors: np.ndarray  # (rounds, n) arg-max bid factor

    @property
    def rounds(self) -> int:
        """Number of drifted rounds scored."""
        return int(self.degradation_pct.size)

    @property
    def n(self) -> int:
        """Number of machines."""
        return int(self.best_response_gain.shape[1])

    @property
    def mean_degradation_pct(self) -> float:
        """Average stale-allocation latency gap over the horizon."""
        return float(self.degradation_pct.mean())

    @property
    def max_degradation_pct(self) -> float:
        """Worst single-round stale-allocation latency gap."""
        return float(self.degradation_pct.max())

    @property
    def mean_gain(self) -> float:
        """Average per-agent best-response gain over stale truthful bids."""
        return float(self.best_response_gain.mean())

    @property
    def max_gain(self) -> float:
        """Largest single-agent incentive to re-bid anywhere on the horizon."""
        return float(self.best_response_gain.max())


def drift_sweep(
    true_values: np.ndarray,
    arrival_rate: float,
    *,
    rounds: int = 64,
    sigma: float = 0.05,
    seed: int = 0,
    mechanism=None,
    scan_points: int = 17,
    arrival_schedule=None,
    round_duration: float = 40.0,
    declared_bids=None,
) -> DriftSweepResult:
    """Score a stale-bid horizon under geometric drift in one broadcast.

    Machines declare ``true_values`` once; thereafter their actual
    speeds follow a :class:`GeometricRandomWalkDrift` with the given
    ``sigma`` (seeded, so sweeps are reproducible) while every round
    keeps routing on the round-0 declarations.  For each round the
    sweep reports (a) the realised-vs-optimal latency degradation and
    (b) every agent's best-response gain — how much utility the agent
    could recover by re-bidding, scanned over ``scan_points``
    log-spaced factors of its *current* truth via the closed-form
    kernel.  The whole ``(rounds, n, K)`` tensor is evaluated by the
    stacked kernels — no per-round mechanism runs.  ``mechanism`` must
    have a kernel mode (:func:`repro.agents.kernels.kernel_mode_of`);
    anything else raises ``TypeError``.

    ``arrival_schedule`` (any
    :class:`~repro.system.workload.ArrivalSchedule`) makes the horizon
    nonstationary: round ``k`` is priced at the schedule's mean rate
    over ``[k*round_duration, (k+1)*round_duration)``; the kernel's
    per-row rate column scores all rounds in the same single call.

    ``declared_bids`` overrides the round-0 declaration set (default:
    the truthful profile, i.e. ``true_values``) — this is how a
    ``drift`` :class:`~repro.parallel.ExperimentUnit` scores a
    manipulated stale profile; the drift trajectory always starts from
    ``true_values``.
    """
    from repro.agents import kernels
    from repro.mechanism import VerificationMechanism

    if mechanism is None:
        mechanism = VerificationMechanism()
    mode = kernels.kernel_mode_of(mechanism)
    if mode is None:
        raise TypeError(
            f"{type(mechanism).__name__} has no closed-form utility kernel"
        )
    stale = as_float_array(true_values, "true_values")
    check_positive(stale, "true_values")
    if stale.size < 2:
        raise ValueError("drift_sweep requires at least two machines")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if scan_points < 2:
        raise ValueError("scan_points must be at least 2")
    n = stale.size
    if declared_bids is None:
        declared = stale
    else:
        declared = as_float_array(declared_bids, "declared_bids")
        check_positive(declared, "declared_bids")
        if declared.size != n:
            raise ValueError("declared_bids must have one entry per machine")

    drift = GeometricRandomWalkDrift(sigma, np.random.default_rng(seed))
    trajectory = np.empty((rounds, n))
    current = stale
    for r in range(rounds):
        current = drift.step(current)
        trajectory[r] = current

    if arrival_schedule is None:
        rates = np.full(rounds, arrival_rate)
    else:
        round_duration = check_positive_scalar(round_duration, "round_duration")
        rates = np.array(
            [
                arrival_schedule.mean_rate(
                    r * round_duration, (r + 1) * round_duration
                )
                for r in range(rounds)
            ]
        )

    # Stale allocation: loads follow the round-0 bids but scale with
    # each round's rate; the optimum tracks the drifted truth.
    inv_stale = 1.0 / declared
    s_stale = float(inv_stale.sum())
    realised = (rates**2 / s_stale**2) * (trajectory @ inv_stale**2)
    optimal = rates**2 / (1.0 / trajectory).sum(axis=1)
    degradation_pct = (realised - optimal) / optimal * 100.0

    # Best-response scan: non-deviators keep their stale bids but
    # execute at their current (drifted) capacity, so the leave-one-out
    # statistics pair stale bids with drifted executions, one row per
    # round.
    bids_block = np.broadcast_to(declared, (rounds, n))
    s_minus, q_minus = kernels.sufficient_statistics(bids_block, trajectory)
    factors = np.geomspace(0.25, 4.0, scan_points)
    candidates = trajectory[..., None] * factors[None, None, :]
    utilities = kernels.utility_kernel(
        candidates,
        trajectory[..., None],
        s_minus[..., None],
        q_minus[..., None],
        rates[:, None, None],
        mode=mode,
    )  # (rounds, n, K)
    stale_utilities = kernels.utility_kernel(
        bids_block,
        trajectory,
        s_minus,
        q_minus,
        rates[:, None],
        mode=mode,
    )  # (rounds, n)
    _, cols = kernels.grid_argmax(utilities[:, :, None, :])  # (rounds, n)
    best_factors = factors[cols]
    best_utilities = np.take_along_axis(utilities, cols[..., None], axis=2)[..., 0]
    # Keeping the stale bid is always available, so a grid whose best
    # candidate scores below it means "no profitable deviation found".
    gains = np.maximum(best_utilities - stale_utilities, 0.0)

    return DriftSweepResult(
        sigma=float(sigma),
        factors=factors,
        rates=rates,
        degradation_pct=degradation_pct,
        best_response_gain=gains,
        best_response_factors=best_factors,
    )
