"""The protocol's execute step, written once for every round path.

A round's jobs are routed with one vectorised draw
(:func:`~repro.system.workload.split_assignments`) and grouped by
machine with one stable sort (:func:`sort_by_machine`): one
machine-sorted time column plus per-machine job counts.  The batched
kernel :func:`serve_batch` serves that column as it stands and returns
the sojourns as one flat column in the same order;
:func:`sojourn_means` and
:func:`~repro.protocol.monitoring.slowdown_alerts` read that column and
the counts as they stand, and :func:`per_machine` slices a column into
per-machine arrays only where a caller needs them (a machine object's
``record_sojourns``).  Two dispatchers with the same signature serve
the message-driven rounds: :func:`dispatch_events`, one heap event per
arrival and per completion, and :func:`dispatch_batched`,
:func:`serve_batch` plus a single *event-horizon* no-op that advances
the clock to the last completion.  The paper's linear-latency machines serve jobs
concurrently, so the interleaving carries nothing the verification
estimator uses; only the O(n) control messages stay discrete events
(DESIGN.md §11).  :func:`execute_jobs` is the whole step for the
message-driven rounds; the sharded service and the horizon-fused
engine call :func:`sort_by_machine` and :func:`serve_batch` on plain
arrays.

Contract: with deterministic service the two engines are bit-identical
— same RNG stream, same per-job sojourn floats (``(arrival + duration)
- arrival``), same per-machine order, same final clock.  With
stochastic service the batched engine's one draw equals one draw per
machine in machine order, and matches the event engine's estimates to
statistical tolerance.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro._validation import check_positive_scalar
from repro.observability.instrumentation import record_gauge
from repro.system.des import Simulator
from repro.system.machine import LinearLatencyMachine
from repro.system.workload import Job, split_assignments

__all__ = [
    "EXECUTION_MODES",
    "resolve_execution",
    "sort_by_machine",
    "per_machine",
    "check_execution_values",
    "serve_batch",
    "sojourn_means",
    "dispatch_batched",
    "dispatch_events",
    "round_machines",
    "execute_jobs",
]

EXECUTION_MODES = ("event", "batched", "auto")


def resolve_execution(execution: str) -> str:
    """Map an execution request to the engine that will run the jobs.

    ``"event"`` and ``"batched"`` are honoured verbatim.  ``"auto"``
    resolves to ``"batched"``: every machine model today serves jobs
    concurrently, so nothing depends on the event interleaving.  The
    indirection lets a future model whose sojourns do depend on it fall
    back to ``"event"`` without changing call sites.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    return "batched" if execution == "auto" else execution


def sort_by_machine(
    arrival_times: np.ndarray, assignments: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The round's arrivals grouped by machine, from one stable sort.

    Returns the arrival times ordered by machine (each machine's in
    arrival order: the sort is stable) and the ``(n,)`` int64 job
    counts, so machine ``k``'s jobs are the ``counts[k]`` entries after
    ``counts[:k].sum()``.  One sort of the jobs replaces ``n``
    full-stream comparisons; at ``n = 10^4`` that is the difference
    between a few and tens of milliseconds per round.

    >>> sort_by_machine(np.array([0.5, 1.0, 1.5, 2.0]), np.array([1, 0, 1, 1]), 3)
    (array([1. , 0.5, 1.5, 2. ]), array([1, 3, 0]))
    """
    times = np.asarray(arrival_times, dtype=np.float64)
    order = np.argsort(assignments, kind="stable")
    counts = np.bincount(assignments, minlength=n)[:n].astype(np.int64, copy=False)
    return times[order], counts


def per_machine(column: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Slice a machine-ordered column into one array per machine.

    On :func:`sort_by_machine`'s output, entry ``k`` is byte-identical
    to masking the stream with ``assignments`` equal to ``k``; machines
    with no jobs get empty arrays.

    >>> per_machine(np.array([1.0, 0.5, 1.5, 2.0]), np.array([1, 3, 0]))
    [array([1.]), array([0.5, 1.5, 2. ]), array([], dtype=float64)]
    """
    ends = np.cumsum(counts).tolist()
    return [column[lo:hi] for lo, hi in zip([0, *ends], ends)]


def check_execution_values(values: Sequence[float]) -> np.ndarray:
    """The execution values ``t̃`` as a float array, each finite and positive.

    The first bad value raises the
    :class:`~repro.system.machine.LinearLatencyMachine` error, so every
    round path rejects it with one named error.
    """
    values = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        check_positive_scalar(values[bad[0]], "execution_value")
    return values


def serve_batch(
    times: np.ndarray,
    counts: Sequence[int],
    execution_values: Sequence[float],
    loads: Sequence[float],
    rng: np.random.Generator,
    deterministic_service: bool,
) -> tuple[np.ndarray, float | None]:
    """Serve every machine's arrivals at once: the batched execute kernel.

    ``times`` is the round's machine-sorted arrival column and
    ``counts`` the per-machine job counts (:func:`sort_by_machine`).
    Machine ``k``'s jobs have mean service time ``t̃_k x_k``.  One
    ``rng.exponential`` call draws the floats, and leaves the generator
    state, of ``rng.exponential(mean_k, size=count_k)`` per machine in
    machine order; deterministic service takes the means themselves.
    Sojourns are ``(arrival + duration) - arrival``, the float the event
    engine reads off the clock.  Returns the sojourns as one column in
    the order of ``times`` and the last completion time (``None`` if no
    job ran).
    """
    values = check_execution_values(execution_values)
    loads = np.asarray(loads, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.int64)
    times = np.asarray(times, dtype=np.float64)
    if counts.size != values.size or loads.size != values.size:
        raise ValueError(
            f"expected {values.size} job counts and loads, "
            f"got {counts.size} and {loads.size}"
        )
    if times.size != counts.sum():
        raise ValueError(
            f"{times.size} arrival times for {int(counts.sum())} counted jobs"
        )
    unloaded = np.flatnonzero((counts > 0) & ~(loads > 0.0))
    if unloaded.size:
        raise RuntimeError(
            f"machine {unloaded[0]} received a job but was allocated zero load"
        )
    if not times.size:
        return np.empty(0), None
    means = np.repeat(values * loads, counts)
    durations = means if deterministic_service else rng.exponential(means)
    completions = times + durations
    return completions - times, float(completions.max())


def sojourn_means(sojourns: np.ndarray, counts: Sequence[int]) -> np.ndarray:
    """Per-machine mean sojourns of a :func:`serve_batch` column (0.0 for none).

    Each non-empty machine's mean is one ``np.add.reduce`` of its slice
    divided by its count: the sum and the true division ``.mean()``
    itself performs, so the floats are those of averaging per-machine
    arrays, without ``.mean()``'s per-call wrapper.  (``np.add.reduceat``
    sums in another order and is not bit-identical.)

    >>> sojourn_means(np.array([1.0, 2.0, 4.0]), np.array([0, 1, 2]))
    array([0., 1., 3.])
    """
    counts = np.asarray(counts, dtype=np.int64)
    ran = np.flatnonzero(counts)
    ends = np.cumsum(counts)[ran].tolist()
    sizes = counts[ran].tolist()
    reduce = np.add.reduce
    means = np.zeros(counts.size)
    means[ran] = [
        reduce(sojourns[end - size : end]) / size for end, size in zip(ends, sizes)
    ]
    return means


def dispatch_batched(
    sim: Simulator,
    machines: Sequence[LinearLatencyMachine],
    arrivals: Sequence[np.ndarray],
) -> int:
    """Execute each machine's arrivals without per-job heap events.

    Parameters
    ----------
    sim:
        The round's simulator; receives one no-op event at the latest
        completion time so the clock advances exactly as far as the
        event engine's last completion event would have taken it.
    machines:
        The round's machines, already ``configure``-d with their loads
        and sharing one generator and service mode
        (:func:`round_machines` builds them so).
    arrivals:
        One array of absolute arrival times per machine, in arrival
        order (:func:`per_machine` of :func:`sort_by_machine`) — the
        same floats
        :func:`dispatch_events` would schedule.

    The arrivals, concatenated, and the machines' execution values and
    loads go through :func:`serve_batch`, and each machine records its
    slice of the sojourns.
    Returns the number of jobs routed.  Records the
    ``protocol.events_skipped`` gauge: the event engine would have
    pushed two heap events per job (arrival + completion) where this
    engine pushes one horizon event total.
    """
    if not machines:
        return 0
    modes = {(machine.rng, machine.deterministic_service) for machine in machines}
    if len(modes) > 1:
        raise ValueError("batched machines must share one generator and service mode")
    ((rng, deterministic),) = modes
    counts = [len(times) for times in arrivals]
    sojourns, last = serve_batch(
        np.concatenate(arrivals),
        counts,
        [machine.execution_value for machine in machines],
        [machine.load for machine in machines],
        rng,
        deterministic,
    )
    for machine, served in zip(machines, per_machine(sojourns, counts)):
        machine.record_sojourns(served)
    if last is None:
        return 0
    count = sojourns.size
    sim.schedule_at(last, lambda s: None)
    record_gauge("protocol.events_skipped", 2 * count - 1)
    return count


def dispatch_events(
    sim: Simulator,
    machines: Sequence[LinearLatencyMachine],
    arrivals: Sequence[np.ndarray],
) -> int:
    """The per-job event engine: one arrival event per job.

    Same signature as :func:`dispatch_batched`.  Jobs are scheduled
    machine by machine, each machine's in arrival order, so
    simultaneous events leave the heap in that order; each arrival's
    :meth:`~repro.system.machine.LinearLatencyMachine.submit` then
    schedules its completion.  Returns the number of jobs routed.
    """
    count = 0
    for machine, times in zip(machines, arrivals):
        for job_id, arrival in enumerate(np.asarray(times).tolist()):
            sim.schedule_at(
                arrival,
                lambda s, m=machine, j=Job(job_id, arrival): m.submit(s, j),
            )
        count += len(times)
    return count


def round_machines(
    names: Sequence[str],
    execution_values: Sequence[float],
    rng: np.random.Generator,
    deterministic_service: bool,
) -> list[LinearLatencyMachine]:
    """One :class:`~repro.system.machine.LinearLatencyMachine` per name.

    Every machine draws service noise from the shared ``rng``, or, with
    ``deterministic_service``, takes exactly its mean per job.
    """
    return [
        LinearLatencyMachine(name, value, rng, deterministic_service)
        for name, value in zip(names, execution_values)
    ]


def execute_jobs(
    sim: Simulator,
    machines: Sequence[LinearLatencyMachine],
    loads: np.ndarray,
    times: np.ndarray,
    rng: np.random.Generator,
    dispatch: Callable[..., int],
) -> int:
    """The round's execute step: configure, route, split, dispatch.

    ``times`` are the round's arrival times relative to ``sim.now``;
    each job goes to machine ``k`` with probability ``loads[k] / sum``
    (one :func:`~repro.system.workload.split_assignments` draw).
    ``dispatch`` is :func:`dispatch_batched` or :func:`dispatch_events`.
    Returns the number of jobs routed.
    """
    for machine, load in zip(machines, loads):
        machine.configure(float(load))
    assignments = split_assignments(int(times.size), loads / loads.sum(), rng)
    ordered, counts = sort_by_machine(sim.now + times, assignments, len(machines))
    return dispatch(sim, machines, per_machine(ordered, counts))
