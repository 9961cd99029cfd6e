"""Distributed system substrate: clusters, workloads, and simulation.

The paper evaluates the mechanism by closed-form computation on a fixed
16-machine configuration.  This subpackage provides that configuration
(:func:`paper_cluster`), generators for random heterogeneous clusters,
Poisson workload generators and arrival-rate schedules, a
discrete-event simulation core, the machine process model, and
standalone M/M/1 / M/G/1 queue simulators used to validate the latency
models empirically.
"""

from repro.system.cluster import Cluster, paper_cluster, random_cluster, grouped_cluster
from repro.system.workload import (
    Job,
    PoissonWorkload,
    ArrivalSchedule,
    ConstantSchedule,
    PiecewiseConstantSchedule,
    SinusoidalSchedule,
)
from repro.system.des import Simulator
from repro.system.machine import MachineStats, LinearLatencyMachine
from repro.system.queueing import QueueStats, simulate_mm1, simulate_mg1
from repro.system.configio import (
    cluster_to_dict,
    cluster_from_dict,
    save_cluster,
    load_cluster,
    paper_cluster_document,
)

__all__ = [
    "Cluster",
    "paper_cluster",
    "random_cluster",
    "grouped_cluster",
    "Job",
    "PoissonWorkload",
    "ArrivalSchedule",
    "ConstantSchedule",
    "PiecewiseConstantSchedule",
    "SinusoidalSchedule",
    "Simulator",
    "MachineStats",
    "LinearLatencyMachine",
    "QueueStats",
    "simulate_mm1",
    "simulate_mg1",
    "cluster_to_dict",
    "cluster_from_dict",
    "save_cluster",
    "load_cluster",
    "paper_cluster_document",
]
