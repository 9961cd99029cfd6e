"""Mechanisms for load balancing with self-interested machines.

* :class:`VerificationMechanism` — the paper's contribution: a
  compensation-and-bonus mechanism *with verification* (payments depend
  on observed execution values), truthful and voluntarily participated
  (Theorems 3.1 and 3.2).
* :class:`VCGMechanism` — the classical Vickrey–Clarke–Groves baseline
  (no verification; applicable here because the objective equals the
  negated sum of valuations).
* :class:`ArcherTardosMechanism` — the one-parameter payment scheme of
  Archer & Tardos (FOCS 2001, the paper's ref [2]) instantiated for
  linear latencies via the work curve ``w_i = x_i^2``; the approach of
  the companion paper (ref [8]).
* :mod:`repro.mechanism.pricing` — the one kernel every payment rule
  is priced through, for one profile or a stack of them.
* :mod:`repro.mechanism.properties` — audits for truthfulness,
  voluntary participation, and frugality.
"""

from repro.mechanism.base import Mechanism
from repro.mechanism.compensation_bonus import VerificationMechanism
from repro.mechanism.vcg import VCGMechanism
from repro.mechanism.archer_tardos import ArcherTardosMechanism
from repro.mechanism.mm1_mechanism import MM1TruthfulMechanism
from repro.mechanism.batch import BatchOutcome, batch_run, batch_utility_of_agent
from repro.mechanism.properties import (
    best_deviation_gain,
    truthfulness_audit,
    voluntary_participation_margin,
    frugality_ratio,
)

__all__ = [
    "Mechanism",
    "VerificationMechanism",
    "VCGMechanism",
    "ArcherTardosMechanism",
    "MM1TruthfulMechanism",
    "BatchOutcome",
    "batch_run",
    "batch_utility_of_agent",
    "best_deviation_gain",
    "truthfulness_audit",
    "voluntary_participation_margin",
    "frugality_ratio",
]
