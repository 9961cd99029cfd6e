"""One-call verification of every recoverable paper claim.

``verify_reproduction()`` evaluates the full Section 4 suite and the
theorem audits, returning a structured pass/fail report — the same
checks the test suite pins, packaged for interactive use and for the
``repro verify`` CLI command.  Every figure claim reads campaign
records (:func:`~repro.experiments.figures.run_all_scenarios`); only
the two theorem audits reach the mechanism itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.figures import (
    ExperimentRecord,
    figure1_data,
    figure2_data,
    figure6_data,
    figure6_truthful_structure,
    run_all_scenarios,
)
from repro.experiments.table1 import table1_configuration
from repro.mechanism import (
    VerificationMechanism,
    truthfulness_audit,
    voluntary_participation_margin,
)

__all__ = ["ClaimCheck", "ReproductionReport", "verify_reproduction"]


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of checking one paper claim."""

    claim: str
    paper_value: str
    measured: str
    passed: bool


@dataclass(frozen=True)
class ReproductionReport:
    """All claim checks for one run."""

    checks: tuple[ClaimCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def n_passed(self) -> int:
        return sum(c.passed for c in self.checks)

    def failures(self) -> list[ClaimCheck]:
        return [c for c in self.checks if not c.passed]


def _close(measured: float, expected: float, tolerance: float) -> bool:
    return abs(measured - expected) <= tolerance


def verify_reproduction(
    records: list[ExperimentRecord] | None = None,
) -> ReproductionReport:
    """Evaluate every recoverable Section 4 claim plus the theorems.

    ``records`` are the eight observed-variant scenario records on the
    Table 1 system, for a caller that already ran that campaign (as
    :func:`~repro.experiments.runner.reproduce_all` does); by default
    they are computed here.
    """
    checks: list[ClaimCheck] = []
    config = table1_configuration()
    if records is None:
        records = run_all_scenarios(config)

    fig1 = figure1_data(records=records)
    optimum = fig1["True1"]
    checks.append(
        ClaimCheck(
            "True1 optimal latency (Theorem 2.1)",
            "78.43",
            f"{optimum:.2f}",
            _close(optimum, 78.43, 0.005),
        )
    )
    low1 = 100 * (fig1["Low1"] / optimum - 1)
    checks.append(
        ClaimCheck("Low1 degradation", "~11%", f"{low1:.2f}%", _close(low1, 11.0, 0.5))
    )
    low2 = 100 * (fig1["Low2"] / optimum - 1)
    checks.append(
        ClaimCheck("Low2 degradation", "~66%", f"{low2:.2f}%", _close(low2, 66.0, 0.5))
    )
    ordering = fig1["High2"] < fig1["High3"] < fig1["High1"] < fig1["High4"]
    checks.append(
        ClaimCheck(
            "High ordering (Fig 1)",
            "High2 < High3 < High1 < High4",
            " < ".join(
                f"{fig1[k]:.1f}" for k in ("High2", "High3", "High1", "High4")
            ),
            bool(ordering),
        )
    )
    checks.append(
        ClaimCheck(
            "True1 is the minimum latency",
            "minimum of all 8 experiments",
            f"min = {min(fig1.values()):.2f}",
            min(fig1.values()) == optimum,
        )
    )

    fig2 = figure2_data(records=records)
    utilities = {name: u for name, (_p, u) in fig2.items()}
    checks.append(
        ClaimCheck(
            "C1 utility maximal at True1 (Fig 2)",
            "True1",
            max(utilities, key=utilities.get),
            max(utilities, key=utilities.get) == "True1",
        )
    )
    checks.append(
        ClaimCheck(
            "C1 utility negative in Low2 (Fig 2)",
            "< 0",
            f"{utilities['Low2']:.2f}",
            utilities["Low2"] < 0,
        )
    )
    declared = figure2_data(
        records=run_all_scenarios(config, variant="declared")
    )
    checks.append(
        ClaimCheck(
            "Low2 payment negative (Fig 2 prose; declared variant)",
            "< 0",
            f"{declared['Low2'][0]:.2f}",
            declared["Low2"][0] < 0,
        )
    )

    by_name = {r.scenario.name: r for r in records}
    low1_drop = 100 * (1 - by_name["Low1"].c1_utility / by_name["True1"].c1_utility)
    checks.append(
        ClaimCheck(
            "Low1 C1 utility drop (Fig 5)",
            "45%",
            f"{low1_drop:.1f}%",
            _close(low1_drop, 45.0, 2.5),
        )
    )
    high1_drop = 100 * (1 - by_name["High1"].c1_utility / by_name["True1"].c1_utility)
    checks.append(
        ClaimCheck(
            "High1 C1 utility drop (Fig 4)",
            "62%",
            f"{high1_drop:.1f}%",
            _close(high1_drop, 62.0, 2.5),
        )
    )
    others_up = bool(
        np.all(
            by_name["High1"].outcome.payments.utility[1:]
            > by_name["True1"].outcome.payments.utility[1:]
        )
    )
    checks.append(
        ClaimCheck(
            "High1: other computers gain utility (Fig 4)",
            "all higher than True1",
            "all higher" if others_up else "violated",
            others_up,
        )
    )

    fig6 = figure6_data(records=records)["True1"]
    checks.append(
        ClaimCheck(
            "Frugality: total payment <= 2.5x valuation (Fig 6)",
            "<= 2.5",
            f"{fig6['ratio']:.3f}",
            1.0 <= fig6["ratio"] <= 2.5,
        )
    )
    ratios = figure6_truthful_structure(records=records)["ratio"]
    checks.append(
        ClaimCheck(
            "Frugality floor = valuation (VP, Fig 6)",
            ">= 1 per computer",
            f"min ratio {ratios.min():.3f}",
            bool(np.all(ratios >= 1.0)),
        )
    )

    mechanism = VerificationMechanism()
    audit = truthfulness_audit(
        mechanism, config.cluster.true_values[:8], config.arrival_rate
    )
    checks.append(
        ClaimCheck(
            "Theorem 3.1 (truthfulness)",
            "no profitable deviation",
            f"max gain {audit.max_gain:.2e}",
            audit.is_truthful,
        )
    )
    margin = voluntary_participation_margin(
        mechanism, config.cluster.true_values, config.arrival_rate
    )
    checks.append(
        ClaimCheck(
            "Theorem 3.2 (voluntary participation)",
            "min truthful utility >= 0",
            f"{margin:.4f}",
            margin >= 0.0,
        )
    )

    return ReproductionReport(checks=tuple(checks))
