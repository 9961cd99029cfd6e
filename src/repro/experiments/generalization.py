"""Do the paper's findings generalise beyond its one configuration?

The paper evaluates everything on a single 16-machine system.  This
module scores the entire Section 4 scenario suite on ensembles of
random configurations and reports, for each qualitative claim, the
fraction of configurations where it holds — separating *structural*
facts (true by theorem on every configuration) from *configuration
artefacts* of Table 1.

Configurations of one size are scored together: their eight scenario
profiles each are one stack priced by the kernel every mechanism uses
(:func:`repro.mechanism.pricing.price`), instead of one
``Mechanism.run`` per scenario.  The truthful-equilibrium checks
(voluntary participation, frugality) read the True1 rows, which are
the truthful profile.

Structural (must hold at 100%, asserted):

* True1 achieves the minimum realised latency (Theorem 2.1 + 3.1);
* C1's utility is maximised at True1 (Theorem 3.1);
* truthful utilities are all non-negative (Theorem 3.2);
* the High2 < High3 < High1 < High4 ordering (monotone in ``t̃1``
  at fixed bids).

Configuration-dependent (the measured fractions are the finding):

* "Low2 is the worst experiment" — depends on how dominant the
  manipulated machine is;
* "total payment <= 2.5x total valuation" — the truthful ratio is
  ``1 + Σ s_i/(S - s_i)``, which exceeds 2.5 for small or dominated
  systems;
* "C1's utility is negative in Low2" — requires the liar to attract
  enough misallocated load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import check_positive_scalar
from repro.experiments.table2 import PAPER_SCENARIOS
from repro.mechanism import pricing
from repro.system.cluster import random_cluster

__all__ = ["GeneralizationResult", "generalization_study"]


@dataclass(frozen=True)
class GeneralizationResult:
    """Fractions of random configurations where each claim holds."""

    n_configurations: int
    true1_is_minimum: float
    c1_utility_peaks_at_true1: float
    vp_holds: float
    high_ordering_holds: float
    low2_is_worst: float
    frugality_within_2_5: float
    low2_utility_negative: float

    def structural_claims_universal(self) -> bool:
        """Whether every theorem-backed claim held on all configurations."""
        return (
            self.true1_is_minimum == 1.0
            and self.c1_utility_peaks_at_true1 == 1.0
            and self.vp_holds == 1.0
            and self.high_ordering_holds == 1.0
        )


def _evaluate_cohort(
    true_values: np.ndarray, arrival_rate: float
) -> dict[str, np.ndarray]:
    """The seven verdicts for a same-``n`` cohort, as boolean vectors.

    ``true_values`` is ``(G, n)`` — one configuration per row, all
    sharing the arrival rate (the study scales ``R`` with ``n``, so
    same-``n`` cohorts share it by construction).  Each configuration's
    eight scenario profiles form a ``(G * 8, n)`` stack priced by one
    :func:`repro.mechanism.pricing.price` call; a stacked row is
    byte-identical to that profile priced alone, so a verdict never
    depends on the cohort it was scored in.  True1 is the truthful
    profile, so its rows also give the equilibrium checks.
    """
    true_values = np.asarray(true_values, dtype=np.float64)
    n_configs, n_scenarios = true_values.shape[0], len(PAPER_SCENARIOS)
    configs = np.arange(n_configs)
    manipulators = np.argmin(true_values, axis=1)  # fastest machine per row
    t1 = true_values[configs, manipulators]

    rows = np.arange(n_configs * n_scenarios)
    columns = np.repeat(manipulators, n_scenarios)
    bids = np.repeat(true_values, n_scenarios, axis=0)    # (G * 8, n)
    executions = bids.copy()
    bids[rows, columns] = np.outer(t1, [s.bid_factor for s in PAPER_SCENARIOS]).ravel()
    executions[rows, columns] = np.outer(
        t1, [s.execution_factor for s in PAPER_SCENARIOS]
    ).ravel()
    priced = pricing.price("observed", bids, executions, arrival_rate)
    shape = (n_configs, n_scenarios, -1)
    payments = (priced.compensation + priced.bonus).reshape(shape)
    valuations = priced.valuation.reshape(shape)
    utility = payments + valuations                        # (G, 8, n)
    latencies = priced.realised_latency.reshape(n_configs, n_scenarios)
    utilities = utility[configs, :, manipulators]          # (G, 8)
    col = {s.name: i for i, s in enumerate(PAPER_SCENARIOS)}

    truthful = col["True1"]
    frugality = payments[:, truthful].sum(axis=1) / np.abs(
        valuations[:, truthful]
    ).sum(axis=1)
    lat_true1 = latencies[:, truthful]
    lat_low2 = latencies[:, col["Low2"]]
    return {
        "true1_is_minimum": lat_true1 == latencies.min(axis=1),
        "c1_utility_peaks_at_true1": (
            utilities[:, truthful] == utilities.max(axis=1)
        ),
        "vp_holds": (utility[:, truthful] >= -1e-9).all(axis=1),
        "high_ordering_holds": (
            (latencies[:, col["High2"]] < latencies[:, col["High3"]])
            & (latencies[:, col["High3"]] < latencies[:, col["High1"]])
            & (latencies[:, col["High1"]] < latencies[:, col["High4"]])
        ),
        "low2_is_worst": lat_low2 == latencies.max(axis=1),
        "frugality_within_2_5": (1.0 <= frugality) & (frugality <= 2.5),
        "low2_utility_negative": utilities[:, col["Low2"]] < 0.0,
    }


def generalization_study(
    rng: np.random.Generator,
    *,
    n_configurations: int = 100,
    n_machines_range: tuple[int, int] = (4, 32),
    t_range: tuple[float, float] = (1.0, 10.0),
    load_per_machine: float = 1.25,
) -> GeneralizationResult:
    """Re-run the Section 4 suite on random configurations.

    Each configuration draws a size uniformly from
    ``n_machines_range``, slopes log-uniformly from ``t_range``, and
    scales the arrival rate with the system size (constant load per
    machine, as in the A2 sweep).  The Table 2 manipulations are
    applied to the fastest machine (the analogue of C1).  Same-``n``
    configurations share the arrival rate and are scored together
    (:func:`_evaluate_cohort`); a lone configuration is a cohort of one.
    """
    if n_configurations < 1:
        raise ValueError("n_configurations must be at least 1")
    lo, hi = n_machines_range
    if not 2 <= lo <= hi:
        raise ValueError("n_machines_range must satisfy 2 <= lo <= hi")
    check_positive_scalar(load_per_machine, "load_per_machine")

    counters = {
        "true1_is_minimum": 0,
        "c1_utility_peaks_at_true1": 0,
        "vp_holds": 0,
        "high_ordering_holds": 0,
        "low2_is_worst": 0,
        "frugality_within_2_5": 0,
        "low2_utility_negative": 0,
    }
    cohorts: dict[int, list[np.ndarray]] = {}
    for _ in range(n_configurations):
        n = int(rng.integers(lo, hi + 1))
        cohorts.setdefault(n, []).append(
            random_cluster(n, rng, t_range=t_range).true_values
        )
    for n, members in cohorts.items():
        verdicts = _evaluate_cohort(np.array(members), load_per_machine * n)
        for key, held in verdicts.items():
            counters[key] += int(held.sum())

    fraction = {k: v / n_configurations for k, v in counters.items()}
    return GeneralizationResult(n_configurations=n_configurations, **fraction)
