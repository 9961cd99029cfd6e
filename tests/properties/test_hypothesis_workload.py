"""Property-based guarantees for nonstationary arrival schedules.

The thinning sampler (Lewis–Shedler) must be an *exact* draw from the
inhomogeneous Poisson process on every window: counts concentrate
around the rate integral, every accepted time stays inside its window,
and a fixed seed pins the whole stream — the horizon-fused engine's
bit-parity contract rides on that last property.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.workload import (
    ConstantSchedule,
    PiecewiseConstantSchedule,
    SinusoidalSchedule,
)

rates = st.floats(min_value=0.1, max_value=50.0)
seeds = st.integers(0, 2**31)


def piecewise(rate_list):
    breakpoints = [float(25.0 * i) for i in range(len(rate_list))]
    return PiecewiseConstantSchedule(breakpoints, rate_list)


schedules = st.one_of(
    rates.map(ConstantSchedule),
    st.lists(rates, min_size=1, max_size=5).map(piecewise),
    st.tuples(
        rates,
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=5.0, max_value=500.0),
    ).map(lambda t: SinusoidalSchedule(t[0], amplitude=t[1], period=t[2])),
)


class TestCountsTrackTheIntegral:
    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, seed=seeds)
    def test_count_concentrates_around_the_rate_integral(
        self, schedule, seed
    ):
        # One window long enough that the law of large numbers bites:
        # a Poisson(L) count stays within 5*sqrt(L) + 10 of L except
        # with negligible probability (<1e-6), so a violation means the
        # sampler's intensity is wrong, not bad luck.
        duration = 200.0
        expected = schedule.integral(0.0, duration)
        times = schedule.generate_times(
            np.random.default_rng(seed), 0.0, duration
        )
        assert abs(times.size - expected) <= 5.0 * np.sqrt(expected) + 10.0

    @settings(max_examples=60, deadline=None)
    @given(schedule=schedules, start=st.floats(0.0, 300.0))
    def test_integral_is_additive_and_mean_rate_bounded(
        self, schedule, start
    ):
        mid, end = start + 17.0, start + 40.0
        whole = schedule.integral(start, end)
        split = schedule.integral(start, mid) + schedule.integral(mid, end)
        assert np.isclose(whole, split, rtol=1e-9, atol=1e-9)
        mean = schedule.mean_rate(start, end)
        assert 0.0 < mean <= schedule.max_rate(start, end) + 1e-12


class TestThinningStaysInsideTheWindow:
    @settings(max_examples=60, deadline=None)
    @given(
        schedule=schedules,
        seed=seeds,
        start=st.floats(0.0, 500.0),
        duration=st.floats(min_value=0.5, max_value=80.0),
    )
    def test_times_sorted_and_inside_the_window(
        self, schedule, seed, start, duration
    ):
        times = schedule.generate_times(
            np.random.default_rng(seed), start, duration
        )
        assert np.all(times >= 0.0)
        assert np.all(times < duration)
        assert np.all(np.diff(times) >= 0.0)


class TestSeedReproducibility:
    @settings(max_examples=60, deadline=None)
    @given(
        rate_list=st.lists(rates, min_size=1, max_size=5),
        seed=seeds,
        duration=st.floats(min_value=1.0, max_value=100.0),
    )
    def test_piecewise_same_seed_same_stream(self, rate_list, seed, duration):
        schedule = piecewise(rate_list)
        first = schedule.generate_times(
            np.random.default_rng(seed), 0.0, duration
        )
        second = schedule.generate_times(
            np.random.default_rng(seed), 0.0, duration
        )
        assert np.array_equal(first, second)

    @settings(max_examples=40, deadline=None)
    @given(rate=rates, seed=seeds)
    def test_constant_schedule_matches_the_plain_poisson_law(
        self, rate, seed
    ):
        # At a tight bound the thinning accepts every candidate, so the
        # count is exactly the dominating Poisson draw.
        duration = 50.0
        times = ConstantSchedule(rate).generate_times(
            np.random.default_rng(seed), 0.0, duration
        )
        expected = int(np.random.default_rng(seed).poisson(rate * duration))
        assert times.size == expected
