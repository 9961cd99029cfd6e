"""One-call driver wiring the full protocol over the simulator.

``run_protocol`` builds the simulator, network, machine nodes and
coordinator, generates a Poisson job stream, routes it according to the
mechanism's allocation, lets the machines execute, triggers the
verification/payment phases, and returns everything a caller needs to
compare the simulated round against the closed-form mechanism:
the mechanism outcome (with *estimated* execution values), the exact
execution values the agents actually used, the estimation errors, and
the network statistics backing the O(n) message-count claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._validation import check_positive_scalar
from repro.agents.base import Agent
from repro.agents.behaviors import profile_execution_values
from repro.mechanism.base import Mechanism
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.observability.instrumentation import observe_value, trace_span
from repro.protocol.coordinator import (
    COORDINATOR_NAME,
    MachineNode,
    MechanismCoordinator,
    ProtocolPhase,
)
from repro.protocol.execution import (
    dispatch_batched,
    dispatch_events,
    execute_jobs,
    resolve_execution,
    round_machines,
)
from repro.protocol.network import NetworkStats, SimulatedNetwork
from repro.system.des import Simulator
from repro.system.workload import PoissonWorkload
from repro.types import MechanismOutcome

__all__ = ["ProtocolResult", "run_protocol"]


@dataclass(frozen=True)
class ProtocolResult:
    """Everything observable after one simulated protocol round."""

    outcome: MechanismOutcome
    true_execution_values: np.ndarray
    estimated_execution_values: np.ndarray
    network: NetworkStats
    jobs_routed: int
    simulated_time: float

    @property
    def estimation_relative_error(self) -> np.ndarray:
        """``|t̂ - t̃| / t̃`` per machine (verification noise).

        Entries where the relative error is undefined — a machine whose
        true execution value is 0, or one that was allocated no load
        (so there were no completions to estimate from) — are ``nan``
        rather than raising or emitting divide warnings.
        """
        defined = (self.true_execution_values > 0.0) & (self.outcome.loads > 0.0)
        error = np.full(self.true_execution_values.shape, np.nan)
        np.divide(
            np.abs(self.estimated_execution_values - self.true_execution_values),
            self.true_execution_values,
            out=error,
            where=defined,
        )
        return error


def run_protocol(
    agents: Sequence[Agent],
    arrival_rate: float,
    *,
    duration: float = 200.0,
    mechanism: Mechanism | None = None,
    rng: np.random.Generator | None = None,
    deterministic_service: bool = False,
    drop_probability: float = 0.0,
    execution: str = "auto",
) -> ProtocolResult:
    """Simulate one full round of the load balancing protocol.

    Parameters
    ----------
    agents:
        Strategic machine owners; their bids and execution values drive
        the round.
    arrival_rate:
        Total Poisson job rate ``R``.
    duration:
        Length of the job-generation window (seconds of simulated
        time).  Longer windows mean more completions and tighter
        execution-value estimates.
    mechanism:
        Payment rule; defaults to the paper's
        :class:`~repro.mechanism.VerificationMechanism`.
    rng:
        Randomness source for workload, routing, and service times.
    deterministic_service:
        Make each job's duration exactly its mean (no service noise),
        so the only estimation error left is routing granularity.
        Used by exactness tests.
    drop_probability:
        When positive, control messages travel over a lossy link with
        this per-transmission drop rate; the runtime then uses the
        at-least-once :class:`~repro.protocol.faults.ReliableNetwork`
        (the application still sees exactly-once delivery, and
        ``ProtocolResult.network.total_messages`` counts payloads, not
        retransmissions).
    execution:
        Job execution engine: ``"event"`` schedules two heap events per
        job (the classic discrete-event path), ``"batched"`` runs the
        whole job lifecycle through
        :func:`~repro.protocol.execution.dispatch_batched` (one
        vectorised draw per stage, one horizon event total), and
        ``"auto"`` (default) picks batched whenever the machines
        support it (DESIGN.md §11).  With ``deterministic_service=True``
        the two engines are bit-identical; with stochastic service they
        agree to statistical tolerance.
    """
    if len(agents) == 0:
        raise ValueError(
            "agents must be a non-empty sequence: the protocol needs at "
            "least one machine to allocate to"
        )
    if not 0.0 <= drop_probability < 1.0:
        raise ValueError(
            f"drop_probability must be in [0, 1), got {drop_probability:g} "
            "(1.0 would mean every transmission is lost and the round "
            "could never complete)"
        )
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    duration = check_positive_scalar(duration, "duration")
    execution = resolve_execution(execution)
    if mechanism is None:
        mechanism = VerificationMechanism()
    if rng is None:
        rng = np.random.default_rng(0)

    with trace_span("protocol.round", machines=len(agents)):
        result = _run_round(
            agents,
            arrival_rate,
            duration=duration,
            mechanism=mechanism,
            rng=rng,
            deterministic_service=deterministic_service,
            drop_probability=drop_probability,
            execution=execution,
        )
    observe_value("protocol.jobs_routed", result.jobs_routed)
    return result


def _run_round(
    agents: Sequence[Agent],
    arrival_rate: float,
    *,
    duration: float,
    mechanism: Mechanism,
    rng: np.random.Generator,
    deterministic_service: bool,
    drop_probability: float,
    execution: str,
) -> ProtocolResult:
    """The round body :func:`run_protocol` wraps with instrumentation."""
    sim = Simulator()
    if drop_probability > 0.0:
        from repro.protocol.faults import ReliableNetwork

        network = ReliableNetwork(sim, drop_probability, rng)
    else:
        network = SimulatedNetwork(sim)

    names = [f"C{i + 1}" for i in range(len(agents))]
    values = [agent.execution_value() for agent in agents]
    machines = round_machines(names, values, rng, deterministic_service)
    nodes: list[MachineNode] = []
    for name, agent, machine in zip(names, agents, machines):
        node = MachineNode(name=name, agent=agent, machine=machine, network=network)
        network.register(name, node.handle)
        nodes.append(node)

    dispatch = dispatch_batched if execution == "batched" else dispatch_events
    jobs_routed = 0

    def on_allocated(loads: np.ndarray) -> None:
        nonlocal jobs_routed
        # The machine's contention level reflects the traffic actually
        # routed to it, so the dispatcher configures it directly; the
        # AllocationNotice control message may still be in flight (it
        # can be retransmitted on lossy links) without delaying jobs.
        times = PoissonWorkload(arrival_rate, rng).generate_times(duration)
        jobs_routed = execute_jobs(sim, machines, loads, times, rng, dispatch)

    coordinator = MechanismCoordinator(
        mechanism=mechanism,
        machine_names=names,
        arrival_rate=arrival_rate,
        network=network,
        on_allocated=on_allocated,
    )
    network.register(COORDINATOR_NAME, coordinator.handle)

    # Phase 1: bids, allocation, job execution — run to quiescence.
    coordinator.start()
    sim.run()
    if coordinator.phase is not ProtocolPhase.EXECUTING:
        raise RuntimeError(f"protocol stalled in phase {coordinator.phase}")

    # Phase 2: all jobs have drained; machines report, mechanism pays.
    for node in nodes:
        node.report_completion()
    sim.run()
    if coordinator.phase is not ProtocolPhase.DONE:
        raise RuntimeError(f"protocol did not finish, stuck in {coordinator.phase}")

    assert coordinator.outcome is not None
    assert coordinator.estimated_execution_values is not None
    for node in nodes:
        if node.received_payment is None:
            raise RuntimeError(f"machine {node.name} never received a payment")

    return ProtocolResult(
        outcome=coordinator.outcome,
        true_execution_values=profile_execution_values(list(agents)),
        estimated_execution_values=coordinator.estimated_execution_values,
        network=network.stats(),
        jobs_routed=jobs_routed,
        simulated_time=sim.now,
    )
