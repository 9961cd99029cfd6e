"""repro — A Load Balancing Mechanism with Verification.

A production-quality reproduction of Grosu & Chronopoulos,
*A Load Balancing Mechanism with Verification* (IPDPS/IPPS 2003):
truthful load balancing for heterogeneous distributed systems whose
machines are self-interested agents with linear load-dependent latency
functions.

Quick start
-----------
>>> import numpy as np
>>> from repro import VerificationMechanism, paper_cluster
>>> cluster = paper_cluster()
>>> mech = VerificationMechanism()
>>> outcome = mech.run(cluster.true_values, arrival_rate=20.0)
>>> round(outcome.realised_latency, 2)   # the paper's optimum
78.43

Package layout
--------------
* :mod:`repro.latency` — linear / M/M/1 / M/G/1 latency models;
* :mod:`repro.allocation` — the PR algorithm and general convex solvers;
* :mod:`repro.mechanism` — the verification mechanism and baselines
  (VCG, Archer–Tardos), plus property audits;
* :mod:`repro.agents` — strategic behaviours, best response, bidding games;
* :mod:`repro.system` — clusters, workloads, discrete-event simulation,
  queueing validation;
* :mod:`repro.protocol` — the centralised O(n)-message protocol with an
  execution-rate estimator (the verification step, made concrete);
* :mod:`repro.resilience` — the supervised multi-round loop: retries,
  quarantine, coordinator recovery, chaos testing;
* :mod:`repro.observability` — metrics, span tracing, and profiling
  hooks across all of the above (off by default);
* :mod:`repro.experiments` — the paper's Tables 1–2 and Figures 1–6;
* :mod:`repro.analysis` — degradation, frugality, sensitivity, and
  equilibrium analyses.
"""

from repro.types import AllocationResult, PaymentResult, MechanismOutcome
from repro.latency import (
    LatencyModel,
    LinearLatencyModel,
    MM1LatencyModel,
    MG1LatencyModel,
)
from repro.latency.affine import AffineLatencyModel
from repro.allocation import (
    pr_allocation,
    pr_loads,
    optimal_total_latency,
    optimal_latency_excluding_each,
    water_filling_allocation,
)
from repro.mechanism import (
    Mechanism,
    VerificationMechanism,
    VCGMechanism,
    ArcherTardosMechanism,
    MM1TruthfulMechanism,
    truthfulness_audit,
    voluntary_participation_margin,
)
from repro.agents import (
    TruthfulAgent,
    ManipulativeAgent,
    ScaledBidder,
    SlowExecutor,
    best_response,
    BestResponseDynamics,
)
from repro.system import Cluster, paper_cluster, random_cluster, grouped_cluster
from repro.protocol import run_horizon, run_protocol
from repro.analysis.wardrop import price_of_anarchy, wardrop_equilibrium
from repro.distributed import DistributedVerificationMechanism
from repro.dynamic import (
    GeometricRandomWalkDrift,
    RegimeSwitchDrift,
    RepeatedMechanismSimulation,
    drift_sweep,
)
from repro.experiments import (
    table1_configuration,
    PAPER_SCENARIOS,
    scenario_by_name,
    run_all_scenarios,
    figure1_data,
    figure2_data,
    figure345_data,
    figure6_data,
    figure6_truthful_structure,
)

__version__ = "1.28.0"

__all__ = [
    "AllocationResult",
    "PaymentResult",
    "MechanismOutcome",
    "LatencyModel",
    "LinearLatencyModel",
    "MM1LatencyModel",
    "MG1LatencyModel",
    "AffineLatencyModel",
    "pr_allocation",
    "pr_loads",
    "optimal_total_latency",
    "optimal_latency_excluding_each",
    "water_filling_allocation",
    "Mechanism",
    "VerificationMechanism",
    "VCGMechanism",
    "ArcherTardosMechanism",
    "MM1TruthfulMechanism",
    "truthfulness_audit",
    "voluntary_participation_margin",
    "TruthfulAgent",
    "ManipulativeAgent",
    "ScaledBidder",
    "SlowExecutor",
    "best_response",
    "BestResponseDynamics",
    "Cluster",
    "paper_cluster",
    "random_cluster",
    "grouped_cluster",
    "run_protocol",
    "run_horizon",
    "price_of_anarchy",
    "wardrop_equilibrium",
    "DistributedVerificationMechanism",
    "GeometricRandomWalkDrift",
    "RegimeSwitchDrift",
    "RepeatedMechanismSimulation",
    "drift_sweep",
    "table1_configuration",
    "PAPER_SCENARIOS",
    "scenario_by_name",
    "run_all_scenarios",
    "figure1_data",
    "figure2_data",
    "figure345_data",
    "figure6_data",
    "figure6_truthful_structure",
    "__version__",
]
