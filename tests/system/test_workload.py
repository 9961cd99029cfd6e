"""Unit tests for workload generation and routing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol.execution import per_machine, sort_by_machine
from repro.system import DeterministicWorkload, PoissonWorkload
from repro.system.workload import split_assignments
from repro.system.workload import Job


class TestPoissonWorkload:
    def test_rate_matches_on_average(self, rng):
        workload = PoissonWorkload(50.0, rng)
        jobs = workload.generate(100.0)
        assert len(jobs) == pytest.approx(5000, rel=0.05)

    def test_jobs_sorted_by_arrival(self, rng):
        jobs = PoissonWorkload(20.0, rng).generate(10.0)
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)

    def test_arrivals_within_window(self, rng):
        jobs = PoissonWorkload(20.0, rng).generate(5.0)
        assert all(0.0 <= j.arrival_time < 5.0 for j in jobs)

    def test_job_ids_sequential(self, rng):
        jobs = PoissonWorkload(20.0, rng).generate(5.0)
        assert [j.job_id for j in jobs] == list(range(len(jobs)))

    def test_exponential_gaps(self, rng):
        # Gap mean should be 1/rate; a crude check of Poisson-ness.
        jobs = PoissonWorkload(100.0, rng).generate(200.0)
        gaps = np.diff([j.arrival_time for j in jobs])
        assert gaps.mean() == pytest.approx(0.01, rel=0.05)
        assert gaps.std() == pytest.approx(0.01, rel=0.1)

    def test_reproducible(self):
        a = PoissonWorkload(10.0, np.random.default_rng(3)).generate(5.0)
        b = PoissonWorkload(10.0, np.random.default_rng(3)).generate(5.0)
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_invalid_inputs(self, rng):
        with pytest.raises(ValueError):
            PoissonWorkload(0.0, rng)
        with pytest.raises(ValueError):
            PoissonWorkload(1.0, rng).generate(0.0)

    def test_arrival_iter(self, rng):
        jobs = list(PoissonWorkload(10.0, rng).arrival_iter(2.0))
        assert all(isinstance(j, Job) for j in jobs)


class TestDeterministicWorkload:
    def test_exact_count(self):
        jobs = DeterministicWorkload(4.0).generate(2.5)
        assert len(jobs) == 10

    def test_equally_spaced(self):
        jobs = DeterministicWorkload(4.0).generate(1.0)
        gaps = np.diff([j.arrival_time for j in jobs])
        np.testing.assert_allclose(gaps, 0.25)


def split_workload(count, fractions, rng):
    """Route ``count`` jobs (ids ``0..count-1``) to per-machine id arrays."""
    ids = np.arange(count, dtype=np.float64)
    choices = split_assignments(count, fractions, rng)
    return per_machine(*sort_by_machine(ids, choices, np.asarray(fractions).size))


class TestSplitWorkload:
    """Routing a stream: ``split_assignments``, then ``sort_by_machine`` and
    ``per_machine``."""

    def test_every_job_routed_exactly_once(self, rng):
        buckets = split_workload(1000, np.array([0.5, 0.3, 0.2]), rng)
        assert sum(b.size for b in buckets) == 1000
        assert sorted(np.concatenate(buckets).tolist()) == list(range(1000))

    def test_fractions_respected_on_average(self, rng):
        buckets = split_workload(20000, np.array([0.7, 0.3]), rng)
        assert buckets[0].size / 20000 == pytest.approx(0.7, abs=0.02)

    def test_zero_fraction_gets_nothing(self, rng):
        buckets = split_workload(100, np.array([1.0, 0.0]), rng)
        assert buckets[1].size == 0

    def test_empty_stream(self, rng):
        buckets = split_workload(0, np.array([0.5, 0.5]), rng)
        assert [b.size for b in buckets] == [0, 0]
        assert all(b.dtype == np.float64 for b in buckets)

    def test_fractions_must_sum_to_one(self, rng):
        with pytest.raises(ValueError, match="sum to 1"):
            split_workload(5, np.array([0.5, 0.6]), rng)

    def test_negative_fraction_rejected(self, rng):
        with pytest.raises(ValueError):
            split_workload(5, np.array([1.5, -0.5]), rng)

    def test_order_preserved_within_bucket(self, rng):
        buckets = split_workload(500, np.array([0.5, 0.5]), rng)
        for bucket in buckets:
            assert np.all(np.diff(bucket) > 0)


class TestGenerateTimes:
    """The array entry point the batched execution engine uses."""

    def test_same_stream_as_generate(self):
        times = PoissonWorkload(20.0, np.random.default_rng(6)).generate_times(10.0)
        jobs = PoissonWorkload(20.0, np.random.default_rng(6)).generate(10.0)
        assert np.array_equal(times, np.array([j.arrival_time for j in jobs]))

    def test_sorted_and_in_window(self, rng):
        times = PoissonWorkload(30.0, rng).generate_times(5.0)
        assert np.all(np.diff(times) >= 0.0)
        assert np.all((times >= 0.0) & (times < 5.0))

    def test_deterministic_times_match_generate(self):
        workload = DeterministicWorkload(4.0)
        times = workload.generate_times(2.5)
        assert np.array_equal(
            times, np.array([j.arrival_time for j in workload.generate(2.5)])
        )
        assert np.array_equal(times, np.arange(10) / 4.0)


class TestSplitAssignments:
    """The vectorised routing core shared by both execution engines."""

    def test_buckets_are_the_assignment_masks(self):
        fractions = np.array([0.2, 0.5, 0.3])
        buckets = split_workload(300, fractions, np.random.default_rng(8))
        choices = split_assignments(300, fractions, np.random.default_rng(8))
        for machine, bucket in enumerate(buckets):
            assert bucket.tolist() == np.flatnonzero(choices == machine).tolist()

    def test_empty_stream_consumes_no_randomness(self):
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        empty = split_assignments(0, np.array([0.5, 0.5]), rng_a)
        assert empty.size == 0 and empty.dtype == np.int64
        assert rng_a.integers(0, 1 << 30) == rng_b.integers(0, 1 << 30)

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            split_assignments(5, np.array([[0.5, 0.5]]), rng)
        with pytest.raises(ValueError, match="non-negative"):
            split_assignments(5, np.array([1.5, -0.5]), rng)
        with pytest.raises(ValueError, match="sum to 1"):
            split_assignments(5, np.array([0.5, 0.6]), rng)
