"""Sensitivity sweeps: how the paper's observations scale.

The paper evaluates one fixed configuration (16 machines, R = 20).
These sweeps extend the evaluation along two axes a deployer would care
about: system size and heterogeneity.  Each sweep reports the truthful
optimum, the frugality ratio, and the degradation caused by a canonical
single-machine manipulation, so the benches can show which paper
observations are configuration artefacts and which are structural.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_scalar
from repro.allocation.pr import optimal_total_latency
from repro.analysis.degradation import degradation_percent, realised_latency
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.system.cluster import Cluster, random_cluster

__all__ = [
    "SweepResult",
    "sweep_system_size",
    "sweep_heterogeneity",
]

#: the canonical manipulation used across sweeps: Low2 (underbid 2x,
#: execute 2x slower) applied to the fastest machine, the paper's most
#: damaging single-machine scenario.
_CANONICAL_BID_FACTOR = 0.5
_CANONICAL_EXEC_FACTOR = 2.0


@dataclass(frozen=True)
class SweepResult:
    """One point of a sensitivity sweep."""

    parameter: float
    optimal_latency: float
    frugality_ratio: float
    canonical_degradation_percent: float


def _evaluate(cluster: Cluster, arrival_rate: float) -> SweepResult:
    t = cluster.true_values
    optimum = optimal_total_latency(t, arrival_rate)

    mechanism = VerificationMechanism()
    outcome = mechanism.run(t, arrival_rate, t, true_values=t)

    fastest = int(np.argmin(t))
    bids = t.copy()
    executions = t.copy()
    bids[fastest] *= _CANONICAL_BID_FACTOR
    executions[fastest] *= _CANONICAL_EXEC_FACTOR
    realised = realised_latency(t, bids, executions, arrival_rate)

    return SweepResult(
        parameter=float("nan"),  # filled by the sweep drivers
        optimal_latency=optimum,
        frugality_ratio=outcome.frugality_ratio,
        canonical_degradation_percent=degradation_percent(realised, optimum),
    )


def _with_parameter(result: SweepResult, parameter: float) -> SweepResult:
    return SweepResult(
        parameter=parameter,
        optimal_latency=result.optimal_latency,
        frugality_ratio=result.frugality_ratio,
        canonical_degradation_percent=result.canonical_degradation_percent,
    )


def sweep_system_size(
    sizes: list[int],
    rng: np.random.Generator,
    *,
    arrival_rate_per_machine: float = 1.25,
    t_range: tuple[float, float] = (1.0, 10.0),
) -> list[SweepResult]:
    """Sweep the number of machines at constant load per machine.

    The arrival rate grows with the system (``R = rate_per_machine * n``)
    so the sweep isolates the effect of scale rather than of lightening
    load.
    """
    check_positive_scalar(arrival_rate_per_machine, "arrival_rate_per_machine")
    out = []
    for n in sizes:
        if n < 2:
            raise ValueError("system size must be at least 2")
        cluster = random_cluster(n, rng, t_range=t_range)
        result = _evaluate(cluster, arrival_rate_per_machine * n)
        out.append(_with_parameter(result, float(n)))
    return out


def sweep_heterogeneity(
    n_machines: int,
    spreads: list[float],
    rng: np.random.Generator,
    *,
    arrival_rate: float = 20.0,
) -> list[SweepResult]:
    """Sweep the slow/fast spread of the cluster at fixed size and load.

    ``spread = max t / min t``; 1.0 is a homogeneous cluster.  The
    damage a single fast-machine liar can do grows with heterogeneity
    because the PR allocation concentrates load on fast machines.
    """
    if n_machines < 2:
        raise ValueError("n_machines must be at least 2")
    out = []
    for spread in spreads:
        spread = check_positive_scalar(spread, "spread")
        if spread < 1.0:
            raise ValueError("spread must be >= 1")
        cluster = random_cluster(n_machines, rng, t_range=(1.0, spread))
        result = _evaluate(cluster, arrival_rate)
        out.append(_with_parameter(result, spread))
    return out
