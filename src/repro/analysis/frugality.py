"""Frugality: how much a mechanism pays relative to the agents' costs.

The paper's Figure 6 observes that the verification mechanism's total
payment stays within a factor ~2.5 of the total valuation, with the
voluntary participation property forcing the factor above 1.  This
module compares that ratio across mechanisms (verification vs VCG vs
Archer–Tardos) on truthful inputs — the A5 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import as_float_array, check_positive, check_positive_scalar
from repro.mechanism.base import Mechanism

__all__ = [
    "FrugalityRecord",
    "frugality_across_mechanisms",
]


@dataclass(frozen=True)
class FrugalityRecord:
    """Payment structure of one mechanism run."""

    label: str
    total_payment: float
    total_valuation: float

    @property
    def ratio(self) -> float:
        """Total payment over total agent cost (1 <= ratio for VP mechanisms)."""
        if self.total_valuation == 0.0:
            return float("nan")
        return self.total_payment / self.total_valuation


def frugality_across_mechanisms(
    mechanisms: dict[str, Mechanism],
    true_values: np.ndarray,
    arrival_rate: float,
) -> list[FrugalityRecord]:
    """Payment structure of several mechanisms on the truthful profile.

    All mechanisms see the same truthful bids and executions, so the
    comparison isolates the payment rules (A5 ablation).
    """
    true_values = as_float_array(true_values, "true_values")
    check_positive(true_values, "true_values")
    arrival_rate = check_positive_scalar(arrival_rate, "arrival_rate")
    out = []
    for label, mechanism in mechanisms.items():
        outcome = mechanism.run(
            true_values, arrival_rate, true_values, true_values=true_values
        )
        out.append(
            FrugalityRecord(
                label=label,
                total_payment=outcome.payments.total_payment,
                total_valuation=outcome.payments.total_valuation_magnitude,
            )
        )
    return out
