"""Unit tests for the machine process model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.protocol.execution import dispatch_batched, serve_batch
from repro.system import (
    LinearLatencyMachine,
    PoissonWorkload,
    Simulator,
)


def _drive(machine, jobs, sim=None):
    sim = sim or Simulator()
    for job in jobs:
        sim.schedule_at(job.arrival_time, lambda s, j=job: machine.submit(s, j))
    sim.run()
    return sim


class TestLinearLatencyMachine:
    def test_requires_configuration(self, rng):
        from repro.system.workload import Job

        machine = LinearLatencyMachine("C1", 1.0, rng)
        with pytest.raises(RuntimeError, match="not configured"):
            _drive(machine, [Job(0, 0.0)])

    def test_zero_load_refuses_jobs(self, rng):
        machine = LinearLatencyMachine("C1", 1.0, rng)
        machine.configure(0.0)
        from repro.system.workload import Job

        with pytest.raises(RuntimeError, match="zero load"):
            _drive(machine, [Job(0, 0.0)])

    def test_mean_sojourn_matches_linear_model(self, rng):
        # l(x) = t̃ x: with t̃ = 2 and x = 3 expect mean sojourn 6.
        machine = LinearLatencyMachine("C1", 2.0, rng)
        machine.configure(3.0)
        jobs = PoissonWorkload(3.0, rng).generate(3000.0)
        _drive(machine, jobs)
        stats = machine.stats()
        assert stats.completed == len(jobs)
        assert stats.mean_sojourn == pytest.approx(6.0, rel=0.05)

    def test_deterministic_sampler_is_exact(self, rng):
        machine = LinearLatencyMachine("C1", 2.0, rng, deterministic_service=True)
        machine.configure(1.5)
        jobs = PoissonWorkload(1.5, rng).generate(50.0)
        _drive(machine, jobs)
        assert machine.stats().mean_sojourn == pytest.approx(3.0)

    def test_negative_configuration_rejected(self, rng):
        machine = LinearLatencyMachine("C1", 1.0, rng)
        with pytest.raises(ValueError):
            machine.configure(-1.0)

    def test_empty_stats(self, rng):
        machine = LinearLatencyMachine("C1", 1.0, rng)
        stats = machine.stats()
        assert stats.is_empty
        assert np.isnan(stats.mean_sojourn)


class TestSubmitBatch:
    """The batched path: the ``serve_batch`` kernel and ``dispatch_batched``."""

    def test_deterministic_batch_matches_per_job_exactly(self):
        per_job = LinearLatencyMachine(
            "C1", 2.0, np.random.default_rng(1), deterministic_service=True
        )
        batched = LinearLatencyMachine(
            "C1", 2.0, np.random.default_rng(1), deterministic_service=True
        )
        per_job.configure(1.5)
        batched.configure(1.5)
        jobs = PoissonWorkload(1.5, np.random.default_rng(2)).generate(50.0)
        _drive(per_job, jobs)
        sim = Simulator()
        dispatch_batched(sim, [batched], [np.array([j.arrival_time for j in jobs])])
        sim.run()
        # Bit-identical floats, not approximately equal: the kernel
        # records (arrival + duration) - arrival on purpose.
        assert batched.sojourn_times == per_job.sojourn_times
        assert batched._busy_time == per_job._busy_time

    def test_default_sampler_draws_one_exponential_block(self):
        arrivals = np.sort(np.random.default_rng(4).uniform(0, 3000.0, 9000))
        rng = np.random.default_rng(3)
        sojourns, last = serve_batch(arrivals, [arrivals.size], [2.0], [3.0], rng, False)
        block = np.random.default_rng(3).exponential(6.0, size=9000)
        assert sojourns.tobytes() == ((arrivals + block) - arrivals).tobytes()
        assert last == float((arrivals + block).max())
        assert sojourns.mean() == pytest.approx(6.0, rel=0.05)

    def test_empty_batch_is_a_no_op(self, rng):
        assert serve_batch(np.empty(0), [0], [1.0], [1.0], rng, False)[1] is None
        machine = LinearLatencyMachine("C1", 1.0, rng)
        machine.configure(1.0)
        assert dispatch_batched(Simulator(), [machine], [np.empty(0)]) == 0
        assert machine.stats().is_empty

    def test_unconfigured_machine_rejected(self, rng):
        machine = LinearLatencyMachine("C1", 1.0, rng)
        with pytest.raises(RuntimeError, match="not configured"):
            dispatch_batched(Simulator(), [machine], [np.array([0.0])])

    def test_zero_load_refuses_jobs(self, rng):
        with pytest.raises(RuntimeError, match="zero load"):
            serve_batch(np.array([0.0]), [0, 1], [1.0, 1.0], [1.0, 0.0],
                        rng, False)
        machine = LinearLatencyMachine("C1", 1.0, rng)
        machine.configure(0.0)
        with pytest.raises(RuntimeError, match="zero load"):
            dispatch_batched(Simulator(), [machine], [np.array([0.0])])

    def test_machines_must_share_one_generator(self):
        machines = [
            LinearLatencyMachine(f"C{k}", 1.0, np.random.default_rng(k))
            for k in (1, 2)
        ]
        for machine in machines:
            machine.configure(1.0)
        with pytest.raises(ValueError, match="one generator"):
            dispatch_batched(Simulator(), machines, [np.array([0.0])] * 2)
