"""The machine process model running on the discrete-event simulator.

:class:`LinearLatencyMachine` realises the paper's linear latency
semantics ``l(x) = t̃ x``: when configured for an arrival rate ``x``,
each job's completion time is drawn with mean ``t̃ x`` (exponential by
default) and jobs are served concurrently (contention is captured by
the load-dependent mean, not by queueing).  The time-average sojourn
therefore converges to ``t̃ x`` — exactly the quantity the paper's
verification step must estimate.  This is our executable substitute
for the paper's "the processing rate with which the jobs were actually
executed is known to the mechanism" (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_scalar
from repro.system.des import Simulator
from repro.system.workload import Job

__all__ = ["MachineStats", "LinearLatencyMachine"]


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


class LinearLatencyMachine:
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
        self.name = name
        self.execution_value = check_positive_scalar(
            execution_value, "execution_value"
        )
        self.rng = rng
        self.deterministic_service = bool(deterministic_service)
        self._configured_load: float | None = None
        self.sojourn_times: list[float] = []
        self._busy_time = 0.0

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
            duration = float(self.rng.exponential(mean))
        start = sim.now

        def complete(s: Simulator) -> None:
            self.sojourn_times.append(s.now - start)
            self._busy_time += s.now - start

        sim.schedule(duration, complete)

    def stats(self) -> MachineStats:
        """Completed jobs, their mean sojourn and the total busy time."""
        sojourns = np.asarray(self.sojourn_times, dtype=np.float64)
        return MachineStats(
            completed=int(sojourns.size),
            mean_sojourn=float(sojourns.mean()) if sojourns.size else float("nan"),
            total_busy_time=self._busy_time,
        )

    def record_sojourns(self, sojourns: np.ndarray) -> None:
        """Record a batch of completed jobs' sojourns, in arrival order."""
        self.sojourn_times.extend(sojourns.tolist())
        self._busy_time += float(sojourns.sum())
