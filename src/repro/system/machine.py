"""Machine process models running on the discrete-event simulator.

Two models:

* :class:`LinearLatencyMachine` — realises the paper's linear latency
  semantics ``l(x) = t̃ x``: when configured for an arrival rate ``x``,
  each job's completion time is drawn with mean ``t̃ x`` (exponential by
  default) and jobs are served concurrently (contention is captured by
  the load-dependent mean, not by queueing).  The time-average sojourn
  therefore converges to ``t̃ x`` — exactly the quantity the paper's
  verification step must estimate.  This is our executable substitute
  for the paper's "the processing rate with which the jobs were
  actually executed is known to the mechanism" (see DESIGN.md §5).

* :class:`QueueingMachine` — a FIFO single server with i.i.d. service
  times; with exponential service this is the M/M/1 whose sojourn time
  ``1/(mu - x)`` the :class:`~repro.latency.MM1LatencyModel` predicts,
  giving the test suite an independent empirical check of the latency
  substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._validation import check_positive_scalar
from repro.system.des import Simulator
from repro.system.workload import Job

__all__ = ["MachineStats", "LinearLatencyMachine", "QueueingMachine"]


@dataclass(frozen=True)
class MachineStats:
    """Summary of the jobs a machine completed during a run."""

    completed: int
    mean_sojourn: float
    total_busy_time: float

    @property
    def is_empty(self) -> bool:
        """True when the machine completed no jobs."""
        return self.completed == 0


def _exponential_service(mean: float, rng: np.random.Generator) -> float:
    """The default service draw: exponential with the given mean."""
    return float(rng.exponential(mean))


class _RecordingMachine:
    """Shared bookkeeping: per-job sojourn records."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sojourn_times: list[float] = []
        self._busy_time = 0.0

    def stats(self) -> MachineStats:
        sojourns = np.asarray(self.sojourn_times, dtype=np.float64)
        return MachineStats(
            completed=int(sojourns.size),
            mean_sojourn=float(sojourns.mean()) if sojourns.size else float("nan"),
            total_busy_time=self._busy_time,
        )


class LinearLatencyMachine(_RecordingMachine):
    """Concurrent server whose per-job time has mean ``t̃ * configured_load``.

    Parameters
    ----------
    name:
        Machine identifier (used in protocol messages).
    execution_value:
        The slope ``t̃`` the machine actually runs at.
    rng:
        Random generator for service-time draws.
    deterministic_service:
        When true every job takes exactly its mean; otherwise service
        times are exponential with that mean.

    The event engine calls :meth:`submit` per job; the batched engine
    records a round's sojourns through :meth:`record_sojourns`.
    """

    def __init__(
        self,
        name: str,
        execution_value: float,
        rng: np.random.Generator,
        deterministic_service: bool = False,
    ) -> None:
        super().__init__(name)
        self.execution_value = check_positive_scalar(
            execution_value, "execution_value"
        )
        self.rng = rng
        self.deterministic_service = bool(deterministic_service)
        self._configured_load: float | None = None

    def configure(self, load: float) -> None:
        """Set the arrival rate the allocator routed to this machine.

        The linear model's per-job latency depends on the traffic level;
        the machine must know it to realise the right service mean.
        A zero load is allowed (the machine then refuses jobs).
        """
        if load < 0.0:
            raise ValueError("load must be non-negative")
        self._configured_load = float(load)

    @property
    def load(self) -> float:
        """The configured arrival rate; raises if :meth:`configure` never ran."""
        if self._configured_load is None:
            raise RuntimeError(f"machine {self.name} was not configured with a load")
        return self._configured_load

    def submit(self, sim: Simulator, job: Job) -> None:
        """Accept a job now; schedules its completion event."""
        if self.load == 0.0:
            raise RuntimeError(
                f"machine {self.name} received a job but was allocated zero load"
            )
        mean = self.execution_value * self.load
        if self.deterministic_service:
            duration = mean
        else:
            duration = _exponential_service(mean, self.rng)
        start = sim.now

        def complete(s: Simulator) -> None:
            self.sojourn_times.append(s.now - start)
            self._busy_time += s.now - start

        sim.schedule(duration, complete)

    def record_sojourns(self, sojourns: np.ndarray) -> None:
        """Record a batch of completed jobs' sojourns, in arrival order."""
        self.sojourn_times.extend(sojourns.tolist())
        self._busy_time += float(sojourns.sum())


class QueueingMachine(_RecordingMachine):
    """FIFO single-server queue with i.i.d. service times.

    With the default exponential sampler and Poisson arrivals this is
    an M/M/1 queue; pass a constant sampler for M/D/1, etc.

    Parameters
    ----------
    name:
        Machine identifier.
    service_rate:
        ``mu``: expected jobs served per second when busy.
    rng:
        Random generator for the service draws.
    service_sampler:
        Optional override mapping (mean, rng) to a sampled service
        time; defaults to exponential with mean ``1/mu``.
    """

    def __init__(
        self,
        name: str,
        service_rate: float,
        rng: np.random.Generator,
        service_sampler: Callable[[float, np.random.Generator], float] | None = None,
    ) -> None:
        super().__init__(name)
        self.service_rate = check_positive_scalar(service_rate, "service_rate")
        self._rng = rng
        self._sampler = service_sampler or _exponential_service
        self._free_at = 0.0  # time the server finishes its current backlog

    def submit(self, sim: Simulator, job: Job) -> None:
        """Accept a job now; it waits for the backlog then is served."""
        service = self._sampler(1.0 / self.service_rate, self._rng)
        if service < 0.0:
            raise ValueError("service_sampler returned a negative duration")
        start_service = max(sim.now, self._free_at)
        finish = start_service + service
        self._free_at = finish
        arrival = sim.now
        self._busy_time += service

        def complete(s: Simulator) -> None:
            self.sojourn_times.append(s.now - arrival)

        sim.schedule_at(finish, complete)
