"""Property-based guarantees for the shared execute step.

Every round path splits its routed stream with ``sort_by_machine`` and
``per_machine`` and
runs it through one of the two dispatchers, so the split must be the
per-machine masks byte for byte, and under deterministic service the
two engines must leave identical sojourns and the same final clock.
Under stochastic service the batched kernel's one draw must be the
per-machine draws byte for byte, generator state included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.execution import (
    dispatch_batched,
    dispatch_events,
    per_machine,
    round_machines,
    serve_batch,
    sojourn_means,
    sort_by_machine,
)
from repro.system.des import Simulator


def split_by_machine(times, assignments, n):
    """Each machine's arrivals: the sorted column, sliced per machine."""
    return per_machine(*sort_by_machine(times, assignments, n))


@st.composite
def routed_streams(draw, max_machines=50, max_jobs=500):
    """Sorted arrival times, a machine per job, and the machine count."""
    n = draw(st.integers(1, max_machines))
    jobs = draw(st.integers(0, max_jobs))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 50.0, size=jobs))
    # Route to a random subset so some machines get no jobs at all.
    used = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
    assignments = rng.choice(used, size=jobs).astype(np.int64)
    return times, assignments, n


class TestSplitByMachine:
    @settings(max_examples=150, deadline=None)
    @given(stream=routed_streams())
    def test_byte_equal_to_the_per_machine_masks(self, stream):
        times, assignments, n = stream
        split = split_by_machine(times, assignments, n)
        masks = [times[assignments == k] for k in range(n)]
        assert len(split) == n
        for got, want in zip(split, masks):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestDispatchersAgree:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=routed_streams(max_machines=12, max_jobs=200),
        start=st.floats(0.0, 10.0),
    )
    def test_event_and_batched_engines_match_under_deterministic_service(
        self, stream, start
    ):
        times, assignments, n = stream
        values = np.random.default_rng(n).uniform(0.5, 4.0, size=n).tolist()
        loads = np.random.default_rng(n + 1).uniform(0.1, 2.0, size=n)

        def run(dispatch):
            names = [f"C{k + 1}" for k in range(n)]
            machines = round_machines(
                names, values, np.random.default_rng(0), True
            )
            for machine, load in zip(machines, loads):
                machine.configure(float(load))
            sim = Simulator()
            arrivals = split_by_machine(start + times, assignments, n)
            routed = dispatch(sim, machines, arrivals)
            sim.run()
            return routed, sim.now, [m.sojourn_times for m in machines]

        event = run(dispatch_events)
        batched = run(dispatch_batched)
        assert event[0] == batched[0] == times.size
        assert event[1] == batched[1]
        assert event[2] == batched[2]


class TestBatchedKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        stream=routed_streams(max_machines=12, max_jobs=200),
        seed=st.integers(0, 2**31),
    )
    def test_one_draw_equals_per_machine_blocks_under_stochastic_service(
        self, stream, seed
    ):
        times, assignments, n = stream
        arrivals = split_by_machine(times, assignments, n)
        values = np.random.default_rng(n).uniform(0.5, 4.0, size=n)
        loads = np.random.default_rng(n + 1).uniform(0.1, 2.0, size=n)
        # A machine that gets no jobs may have no load at all.
        loads[np.bincount(assignments, minlength=n) == 0] = 0.0

        rng = np.random.default_rng(seed)
        ordered, counts = sort_by_machine(times, assignments, n)
        column, last = serve_batch(ordered, counts, values, loads, rng, False)
        sojourns = per_machine(column, counts)

        # Reference: one exponential block per machine, in machine
        # order, zero-job machines included.
        reference = np.random.default_rng(seed)
        completions = []
        for k, sub in enumerate(arrivals):
            done = sub + reference.exponential(values[k] * loads[k], size=sub.size)
            completions.append(done)
            assert sojourns[k].tobytes() == (done - sub).tobytes()
        assert len(sojourns) == n
        assert rng.bit_generator.state == reference.bit_generator.state
        finished = np.concatenate(completions)
        assert last == (float(finished.max()) if finished.size else None)

    @settings(max_examples=60, deadline=None)
    @given(
        stream=routed_streams(max_machines=12, max_jobs=200),
        seed=st.integers(0, 2**31),
        deterministic=st.booleans(),
    )
    def test_column_kernel_equals_per_machine_arrays(
        self, stream, seed, deterministic
    ):
        # The column in, column out kernel against per-machine arrays:
        # one rng.exponential (or the mean itself) per machine in
        # machine order, zero-job machines included, and each mean the
        # machine's own slice .mean().
        times, assignments, n = stream
        ordered, counts = sort_by_machine(times, assignments, n)
        assert counts.tolist() == np.bincount(assignments, minlength=n).tolist()
        values = np.random.default_rng(n).uniform(0.5, 4.0, size=n)
        loads = np.random.default_rng(n + 1).uniform(0.1, 2.0, size=n)
        loads[counts == 0] = 0.0

        rng = np.random.default_rng(seed)
        column, last = serve_batch(ordered, counts, values, loads, rng, deterministic)
        means = sojourn_means(column, counts)

        reference = np.random.default_rng(seed)
        expected, finished = [], []
        for k, sub in enumerate(split_by_machine(times, assignments, n)):
            mean = values[k] * loads[k]
            done = sub + (
                np.full(sub.size, mean)
                if deterministic
                else reference.exponential(mean, size=sub.size)
            )
            expected.append(done - sub)
            finished.append(done)
        assert column.tobytes() == np.concatenate(expected).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        assert means.tobytes() == np.array(
            [s.mean() if s.size else 0.0 for s in expected]
        ).tobytes()
        every = np.concatenate(finished)
        assert last == (float(every.max()) if every.size else None)

    @settings(max_examples=80, deadline=None)
    @given(
        counts=st.lists(
            st.sampled_from([0, 1, 7, 8, 9, 127, 128, 129, 255, 256, 257])
            | st.integers(0, 600),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 2**31),
    )
    def test_means_equal_slice_means_across_summation_blocks(self, counts, seed):
        # Slices of 1 to 600 jobs cross numpy's 8-element unrolled and
        # 128-element pairwise summation blocks; each mean must still be
        # the slice's own .mean(), byte for byte.
        column = np.random.default_rng(seed).exponential(3.0, size=sum(counts))
        means = sojourn_means(column, np.array(counts))
        slices = per_machine(column, np.array(counts))
        assert means.tobytes() == np.array(
            [s.mean() if s.size else 0.0 for s in slices]
        ).tobytes()
