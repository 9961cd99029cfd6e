"""Quantitative analyses beyond the paper's figures.

* :mod:`repro.analysis.degradation` — latency degradation metrics and
  the multi-liar extension the paper conjectures ("we expect even
  larger increase if more than one computer does not report its true
  value");
* :mod:`repro.analysis.frugality` — payment-structure analysis across
  mechanisms and configurations;
* :mod:`repro.analysis.sensitivity` — sweeps over system size and
  heterogeneity;
* :mod:`repro.analysis.equilibrium` — epsilon-truthfulness under noisy
  verification.
"""

from repro.analysis.degradation import (
    degradation_percent,
    multi_liar_degradation,
)
from repro.analysis.frugality import (
    FrugalityRecord,
    frugality_across_mechanisms,
)
from repro.analysis.sensitivity import (
    SweepResult,
    sweep_system_size,
    sweep_heterogeneity,
)
from repro.analysis.wardrop import (
    WardropResult,
    WardropSweep,
    wardrop_equilibrium,
    price_of_anarchy,
    price_of_anarchy_sweep,
)
from repro.analysis.landscape import UtilityLandscape, utility_landscape
from repro.analysis.collusion import (
    CoalitionDeviation,
    best_pair_deviation,
    pairwise_collusion_scan,
)
from repro.analysis.equilibrium import (
    epsilon_truthfulness_under_noise,
)

__all__ = [
    "degradation_percent",
    "multi_liar_degradation",
    "FrugalityRecord",
    "frugality_across_mechanisms",
    "SweepResult",
    "sweep_system_size",
    "sweep_heterogeneity",
    "WardropResult",
    "WardropSweep",
    "wardrop_equilibrium",
    "price_of_anarchy",
    "price_of_anarchy_sweep",
    "UtilityLandscape",
    "utility_landscape",
    "CoalitionDeviation",
    "best_pair_deviation",
    "pairwise_collusion_scan",
    "epsilon_truthfulness_under_noise",
]
