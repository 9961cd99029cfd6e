"""Job streams: the workloads the mechanism splits across machines.

The paper assumes "a large number of jobs ... arrive at the system with
an arrival rate R".  We model a job stream explicitly so the protocol
simulation can route individual jobs, observe completions, and estimate
execution rates.  :class:`PoissonWorkload` generates Poisson arrivals,
the queueing-theoretic reading of "arrival rate".

Beyond the paper's fixed ``R``, this module also models *nonstationary*
arrivals (ROADMAP item 1): an :class:`ArrivalSchedule` describes a
time-varying rate ``R(t)`` and generates each round's arrivals by
thinning a dominating homogeneous Poisson process.  Two concrete
schedules are provided — :class:`PiecewiseConstantSchedule` (bursts,
regime shifts) and :class:`SinusoidalSchedule` (diurnal modulation) —
and both plug into ``RoundSupervisor(arrival_schedule=)`` and the
horizon-fused engine, which share this module's generation code so
their RNG streams match draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_scalar

__all__ = [
    "Job",
    "PoissonWorkload",
    "ArrivalSchedule",
    "ConstantSchedule",
    "PiecewiseConstantSchedule",
    "SinusoidalSchedule",
    "split_assignments",
]


@dataclass(frozen=True)
class Job:
    """A single job: identity and arrival time (seconds)."""

    job_id: int
    arrival_time: float


class PoissonWorkload:
    """Poisson job arrivals at a fixed rate.

    Parameters
    ----------
    rate:
        Expected arrivals per second (``R``).
    rng:
        Random generator; inject for reproducibility.
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        self.rate = check_positive_scalar(rate, "rate")
        self._rng = rng

    def generate_times(self, duration: float) -> np.ndarray:
        """Sorted arrival times in ``[0, duration)`` as one array.

        Draws the count from Poisson(rate * duration) and positions
        uniformly — equivalent to sequential exponential gaps but one
        vectorised draw instead of a Python loop.  Both execution
        engines draw through it; :meth:`generate` wraps it, so both
        consume the identical RNG stream.
        """
        duration = check_positive_scalar(duration, "duration")
        count = int(self._rng.poisson(self.rate * duration))
        return np.sort(self._rng.uniform(0.0, duration, size=count))

    def generate(self, duration: float) -> list[Job]:
        """All jobs arriving in ``[0, duration)`` as :class:`Job` objects."""
        times = self.generate_times(duration)
        return [Job(job_id=i, arrival_time=float(t)) for i, t in enumerate(times)]


class ArrivalSchedule:
    """A time-varying arrival rate ``R(t)`` with thinning-based sampling.

    Subclasses describe the instantaneous rate and two summary
    quantities the samplers need: a finite upper bound on any window
    and the exact rate integral (the expected arrival count).  The
    base class supplies the generation machinery, so every schedule
    consumes the identical RNG stream for identical windows:

    1. ``count ~ Poisson(upper * duration)`` for the dominating
       homogeneous process at the window's rate bound;
    2. ``count`` candidate positions, uniform in the window, sorted;
    3. one uniform acceptance draw per candidate, keeping each at
       relative time ``u`` with probability ``R(start + u) / upper``.

    The accepted points are an exact (Lewis–Shedler) draw from the
    inhomogeneous Poisson process restricted to the window, and the
    fixed draw order is what lets the horizon-fused engine and the
    sequential supervisor share one stream bit for bit.
    """

    def rate(self, t):
        """Instantaneous rate ``R(t)``; accepts scalars or arrays."""
        raise NotImplementedError

    def max_rate(self, start: float, end: float) -> float:
        """A finite upper bound on ``R(t)`` over ``[start, end)``."""
        raise NotImplementedError

    def integral(self, start: float, end: float) -> float:
        """Exact ``∫ R(t) dt`` over ``[start, end)``."""
        raise NotImplementedError

    def mean_rate(self, start: float, end: float) -> float:
        """The window's equivalent constant rate, ``∫R / (end-start)``.

        This is the scalar ``R`` the allocator and mechanism see for a
        round covering the window: the PR optimum only depends on the
        total mass of jobs, not on when they arrive inside the round.
        """
        if not end > start:
            raise ValueError("end must exceed start")
        return self.integral(start, end) / (end - start)

    def generate_times(
        self, rng: np.random.Generator, start: float, duration: float
    ) -> np.ndarray:
        """Sorted arrival times for ``[start, start+duration)``.

        Times are relative to ``start`` (in ``[0, duration)``), matching
        :meth:`PoissonWorkload.generate_times` so round drivers can use
        either interchangeably.
        """
        duration = check_positive_scalar(duration, "duration")
        start = float(start)
        upper = float(self.max_rate(start, start + duration))
        if not upper > 0.0:
            raise ValueError("schedule rate bound must be positive")
        count = int(rng.poisson(upper * duration))
        times = np.sort(rng.uniform(0.0, duration, size=count))
        accept = rng.random(count) * upper <= np.asarray(
            self.rate(start + times), dtype=np.float64
        )
        return times[accept]


class ConstantSchedule(ArrivalSchedule):
    """The paper's stationary ``R(t) = R`` as a degenerate schedule.

    Useful as a property-test baseline: thinning at a tight bound
    accepts every candidate, so the counts follow the plain Poisson
    law exactly.
    """

    def __init__(self, rate: float) -> None:
        self._rate = check_positive_scalar(rate, "rate")

    def rate(self, t):
        """``R`` for every ``t`` (broadcast to the input's shape)."""
        return np.full_like(np.asarray(t, dtype=np.float64), self._rate)

    def max_rate(self, start: float, end: float) -> float:
        """``R`` — the bound is tight everywhere."""
        return self._rate

    def integral(self, start: float, end: float) -> float:
        """``R * (end - start)``."""
        if not end > start:
            raise ValueError("end must exceed start")
        return self._rate * (end - start)


class PiecewiseConstantSchedule(ArrivalSchedule):
    """Step-function rates: bursts, lulls, and regime shifts.

    Parameters
    ----------
    breakpoints:
        Ascending segment start times; the first must be ``0.0``.
        Segment ``i`` spans ``[breakpoints[i], breakpoints[i+1])`` and
        the final segment extends to infinity.
    rates:
        One strictly positive rate per segment.

    Examples
    --------
    >>> schedule = PiecewiseConstantSchedule([0.0, 10.0], [2.0, 6.0])
    >>> float(schedule.rate(5.0)), float(schedule.rate(15.0))
    (2.0, 6.0)
    >>> schedule.integral(5.0, 15.0)
    40.0
    """

    def __init__(self, breakpoints, rates) -> None:
        self._breakpoints = np.asarray(breakpoints, dtype=np.float64)
        self._rates = np.asarray(rates, dtype=np.float64)
        if self._breakpoints.ndim != 1 or self._breakpoints.size == 0:
            raise ValueError("breakpoints must be a non-empty 1-D array")
        if self._rates.shape != self._breakpoints.shape:
            raise ValueError("rates must match breakpoints in length")
        if self._breakpoints[0] != 0.0:
            raise ValueError("the first breakpoint must be 0.0")
        if np.any(np.diff(self._breakpoints) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(self._rates <= 0.0) or not np.all(np.isfinite(self._rates)):
            raise ValueError("rates must be strictly positive and finite")

    def _segment_index(self, t) -> np.ndarray:
        raw = np.searchsorted(self._breakpoints, t, side="right") - 1
        return np.clip(raw, 0, self._breakpoints.size - 1)

    def rate(self, t):
        """The rate of the segment containing each ``t``."""
        return self._rates[self._segment_index(t)]

    def max_rate(self, start: float, end: float) -> float:
        """Max over the segments intersecting ``[start, end)`` (tight)."""
        if not end > start:
            raise ValueError("end must exceed start")
        lo = int(self._segment_index(start))
        hi = int(
            np.clip(
                np.searchsorted(self._breakpoints, end, side="left") - 1,
                0,
                self._breakpoints.size - 1,
            )
        )
        return float(self._rates[lo : hi + 1].max())

    def integral(self, start: float, end: float) -> float:
        """Sum of ``rate * overlap`` over every segment (exact)."""
        if not end > start:
            raise ValueError("end must exceed start")
        seg_starts = np.maximum(self._breakpoints, start)
        seg_ends = np.minimum(
            np.append(self._breakpoints[1:], np.inf), end
        )
        overlap = np.clip(seg_ends - seg_starts, 0.0, None)
        return float(np.dot(overlap, self._rates))


class SinusoidalSchedule(ArrivalSchedule):
    """Sinusoidally modulated rates: the diurnal-traffic model.

    ``R(t) = base_rate * (1 + amplitude * sin(2π t / period + phase))``
    with ``0 <= amplitude < 1`` so the rate stays strictly positive.

    Examples
    --------
    >>> schedule = SinusoidalSchedule(10.0, amplitude=0.5, period=100.0)
    >>> round(schedule.integral(0.0, 100.0), 9)   # one full period
    1000.0
    >>> schedule.max_rate(0.0, 100.0)
    15.0
    """

    def __init__(
        self,
        base_rate: float,
        *,
        amplitude: float,
        period: float,
        phase: float = 0.0,
    ) -> None:
        self._base = check_positive_scalar(base_rate, "base_rate")
        self._amplitude = float(amplitude)
        if not 0.0 <= self._amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        self._period = check_positive_scalar(period, "period")
        self._phase = float(phase)
        self._omega = 2.0 * np.pi / self._period

    def rate(self, t):
        """``base * (1 + amplitude * sin(ω t + phase))``."""
        t = np.asarray(t, dtype=np.float64)
        return self._base * (
            1.0 + self._amplitude * np.sin(self._omega * t + self._phase)
        )

    def max_rate(self, start: float, end: float) -> float:
        """The global peak ``base * (1 + amplitude)``.

        A window shorter than a period may peak lower, so this bound
        is conservative there — thinning stays exact either way, at
        the cost of a few extra rejected candidates.
        """
        return self._base * (1.0 + self._amplitude)

    def integral(self, start: float, end: float) -> float:
        """Closed-form ``∫ R`` via the antiderivative of ``sin``."""
        if not end > start:
            raise ValueError("end must exceed start")
        wobble = (
            np.cos(self._omega * start + self._phase)
            - np.cos(self._omega * end + self._phase)
        ) / self._omega
        return float(
            self._base * ((end - start) + self._amplitude * wobble)
        )


def split_assignments(
    count: int,
    fractions: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Machine index for each of ``count`` jobs, drawn in one call.

    Probabilistic routing preserves the Poisson property of each
    substream (thinning), which is what makes the per-machine arrival
    rate ``x_i = fraction_i * R`` well defined for the latency models.
    Validates the routing probabilities (non-negative, summing to 1)
    and draws all assignments with a single ``rng.choice``, so both
    execution engines consume the identical RNG stream.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValueError("fractions must be a non-empty 1-D array")
    if np.any(fractions < 0.0):
        raise ValueError("fractions must be non-negative")
    total = float(fractions.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {total:g}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(fractions.size, size=count, p=fractions / total)
