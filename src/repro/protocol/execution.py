"""The protocol's execute step, written once for every round path.

A round's jobs are routed with one vectorised draw
(:func:`~repro.system.workload.split_assignments`), split per machine
with one stable sort (:func:`split_by_machine`), and served by one of
two dispatchers with the same signature: :func:`dispatch_events`, one
heap event per arrival and per completion, or :func:`dispatch_batched`,
one vectorised service draw per machine and a single *event-horizon*
no-op that advances the clock to the last completion.  The paper's
linear-latency machines serve jobs concurrently, so the interleaving
carries nothing the verification estimator uses; only the O(n) control
messages stay discrete events (DESIGN.md §11).  :func:`execute_jobs` is
the whole step for the message-driven rounds; the sharded service and
the horizon-fused engine share its split.

Contract: with deterministic service the two engines are bit-identical
— same RNG stream, same per-job sojourn floats (``(arrival + duration)
- arrival``), same per-machine order, same final clock.  With
stochastic service the batched engine draws one batch per machine
instead of one draw per job and matches estimates to statistical
tolerance.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.observability.instrumentation import record_gauge
from repro.system.des import Simulator
from repro.system.machine import LinearLatencyMachine
from repro.system.workload import Job, split_assignments

__all__ = [
    "EXECUTION_MODES",
    "resolve_execution",
    "split_by_machine",
    "dispatch_batched",
    "dispatch_events",
    "round_machines",
    "execute_jobs",
]

EXECUTION_MODES = ("event", "batched", "auto")


def resolve_execution(execution: str) -> str:
    """Map an execution request to the engine that will run the jobs.

    ``"event"`` and ``"batched"`` are honoured verbatim.  ``"auto"``
    picks the batched engine whenever the round's machines support
    vectorised submission — true for every
    :class:`~repro.system.machine.LinearLatencyMachine` round today, so
    ``"auto"`` currently always resolves to ``"batched"``; the
    indirection exists so future per-job observation hooks (or machine
    models whose sojourns depend on the event interleaving) can fall
    back to ``"event"`` without changing call sites.
    """
    if execution not in EXECUTION_MODES:
        raise ValueError(
            f"execution must be one of {EXECUTION_MODES}, got {execution!r}"
        )
    return "batched" if execution == "auto" else execution


def split_by_machine(
    arrival_times: np.ndarray, assignments: np.ndarray, n: int
) -> list[np.ndarray]:
    """Each machine's arrivals, in arrival order, from one stable sort.

    Entry ``k`` is byte-identical to masking the stream with
    ``assignments`` equal to ``k`` (the stable sort keeps each machine's
    arrival sequence), but costs one sort of the jobs instead of ``n``
    full-stream comparisons — at ``n = 10^4`` that is the difference
    between a few and tens of milliseconds per round.  Machines with
    no jobs get empty arrays.

    >>> split_by_machine(np.array([0.5, 1.0, 1.5, 2.0]), np.array([1, 0, 1, 1]), 3)
    [array([1.]), array([0.5, 1.5, 2. ]), array([], dtype=float64)]
    """
    times = np.asarray(arrival_times, dtype=np.float64)
    order = np.argsort(assignments, kind="stable")
    ordered = times[order]
    ends = np.cumsum(np.bincount(assignments, minlength=n)).tolist()
    return [ordered[lo:hi] for lo, hi in zip([0, *ends], ends[:n])]


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
        The round's machines, already ``configure``-d with their loads.
    arrivals:
        One array of absolute arrival times per machine, in arrival
        order (:func:`split_by_machine`) — the same floats
        :func:`dispatch_events` would schedule.

    Returns the number of jobs routed.  Records the
    ``protocol.events_skipped`` gauge: the event engine would have
    pushed two heap events per job (arrival + completion) where this
    engine pushes one horizon event total.
    """
    count = 0
    horizon = -np.inf
    for machine, times in zip(machines, arrivals):
        completions = machine.submit_batch(times)
        if completions.size:
            count += int(completions.size)
            horizon = max(horizon, float(completions.max()))
    if count == 0:
        return 0
    sim.schedule_at(horizon, lambda s: None)
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


def _exact_service(mean: float, _rng: np.random.Generator) -> float:
    """Noise-free service: each job takes exactly its mean (picklable)."""
    return mean


def _exact_service_batch(
    mean: float, size: int, _rng: np.random.Generator
) -> np.ndarray:
    """Vectorised twin of :func:`_exact_service` (picklable)."""
    return np.full(size, mean)


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
    sampler, batch_sampler = (
        (_exact_service, _exact_service_batch)
        if deterministic_service
        else (None, None)
    )
    return [
        LinearLatencyMachine(
            name,
            value,
            rng,
            service_sampler=sampler,
            batch_service_sampler=batch_sampler,
        )
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
    arrivals = split_by_machine(sim.now + times, assignments, len(machines))
    return dispatch(sim, machines, arrivals)
