"""Do the paper's findings generalise beyond its one configuration?

The paper evaluates everything on a single 16-machine system.  This
module scores the entire Section 4 scenario suite on ensembles of
random configurations and reports, for each qualitative claim, the
fraction of configurations where it holds — separating *structural*
facts (true by theorem on every configuration) from *configuration
artefacts* of Table 1.

Per cluster draw, the scenario sweep is scored directly through the
closed-form kernel (:mod:`repro.agents.kernels`): only the manipulator
deviates, so the other machines collapse into the sufficient
statistics ``(S_{-1}, Q_{-1})`` computed once, and every scenario's
realised latency ``(R/S)**2 (t̃_1/b_1**2 + Q_{-1})`` and manipulator
utility come from one vectorised broadcast instead of one
``Mechanism.run`` per scenario.  The truthful-equilibrium checks
(voluntary participation, frugality) come from a single
:func:`~repro.mechanism.batch.batch_run` row.

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
from repro.agents.kernels import (
    sufficient_statistics,
    sufficient_statistics_units,
    utility_kernel,
)
from repro.experiments.table2 import PAPER_SCENARIOS
from repro.mechanism.batch import batch_run
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


def _evaluate_one(true_values: np.ndarray, arrival_rate: float) -> dict[str, bool]:
    true_values = np.asarray(true_values, dtype=np.float64)
    manipulator = int(np.argmin(true_values))  # the fastest machine, like C1

    # All eight scenarios deviate only the manipulator, so one pair of
    # sufficient statistics scores the whole sweep in a single
    # broadcast (see repro.agents.kernels for the derivation).
    t1 = float(true_values[manipulator])
    bids_m = t1 * np.array([s.bid_factor for s in PAPER_SCENARIOS])
    execs_m = t1 * np.array([s.execution_factor for s in PAPER_SCENARIOS])
    s_minus, q_minus = sufficient_statistics(true_values, agent=manipulator)
    total = s_minus + 1.0 / bids_m
    scenario_latencies = (arrival_rate / total) ** 2 * (
        execs_m / bids_m**2 + q_minus
    )
    scenario_utilities = utility_kernel(
        bids_m, execs_m, s_minus, q_minus, arrival_rate, mode="observed"
    )
    names = [s.name for s in PAPER_SCENARIOS]
    latencies = dict(zip(names, (float(v) for v in scenario_latencies)))
    utilities = dict(zip(names, (float(v) for v in scenario_utilities)))

    # The truthful-equilibrium checks need every machine's payment, not
    # just the manipulator's: one batch_run row covers them all.
    truthful = batch_run(true_values[None, :], arrival_rate)
    truthful_utility = truthful.utility[0]
    frugality = float(
        truthful.payment[0].sum() / np.abs(truthful.valuation[0]).sum()
    )

    return {
        "true1_is_minimum": latencies["True1"] == min(latencies.values()),
        "c1_utility_peaks_at_true1": utilities["True1"] == max(utilities.values()),
        "vp_holds": bool(np.all(truthful_utility >= -1e-9)),
        "high_ordering_holds": (
            latencies["High2"] < latencies["High3"]
            < latencies["High1"] < latencies["High4"]
        ),
        "low2_is_worst": latencies["Low2"] == max(latencies.values()),
        "frugality_within_2_5": 1.0 <= frugality <= 2.5,
        "low2_utility_negative": utilities["Low2"] < 0.0,
    }


def _evaluate_config(args: tuple[np.ndarray, float]) -> dict[str, bool]:
    """Picklable wrapper over :func:`_evaluate_one` for the worker pool."""
    true_values, arrival_rate = args
    return _evaluate_one(true_values, arrival_rate)


def _evaluate_cohort(
    true_values: np.ndarray, arrival_rate: float
) -> dict[str, np.ndarray]:
    """:func:`_evaluate_one` for a whole same-``n`` cohort at once.

    ``true_values`` is ``(G, n)`` — one configuration per row, all
    sharing the arrival rate (the study scales ``R`` with ``n``, so
    same-``n`` cohorts share it by construction).  Returns the seven
    verdicts as boolean vectors; every entry is identical to the
    per-config path's because each step stacks bit-exactly: row-wise
    ``argmin``/aggregates match their scalar forms, the kernel is
    elementwise, and :func:`batch_run` is row-independent.
    """
    true_values = np.asarray(true_values, dtype=np.float64)
    rows = np.arange(true_values.shape[0])
    manipulators = np.argmin(true_values, axis=1)  # fastest machine per row

    t1 = true_values[rows, manipulators]           # (G,)
    bid_factors = np.array([s.bid_factor for s in PAPER_SCENARIOS])
    exec_factors = np.array([s.execution_factor for s in PAPER_SCENARIOS])
    bids_m = t1[:, None] * bid_factors             # (G, 8)
    execs_m = t1[:, None] * exec_factors
    s_all, q_all = sufficient_statistics_units(true_values)
    s_minus = s_all[rows, manipulators][:, None]   # (G, 1)
    q_minus = q_all[rows, manipulators][:, None]
    total = s_minus + 1.0 / bids_m
    latencies = (arrival_rate / total) ** 2 * (
        execs_m / bids_m**2 + q_minus
    )                                              # (G, 8)
    utilities = utility_kernel(
        bids_m, execs_m, s_minus, q_minus, arrival_rate, mode="observed"
    )
    names = [s.name for s in PAPER_SCENARIOS]
    col = {name: i for i, name in enumerate(names)}

    truthful = batch_run(true_values, arrival_rate)
    frugality = truthful.payment.sum(axis=1) / np.abs(
        truthful.valuation
    ).sum(axis=1)

    lat_true1 = latencies[:, col["True1"]]
    lat_low2 = latencies[:, col["Low2"]]
    return {
        "true1_is_minimum": lat_true1 == latencies.min(axis=1),
        "c1_utility_peaks_at_true1": (
            utilities[:, col["True1"]] == utilities.max(axis=1)
        ),
        "vp_holds": (truthful.utility >= -1e-9).all(axis=1),
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
    workers: int = 0,
    fuse: str = "auto",
) -> GeneralizationResult:
    """Re-run the Section 4 suite on random configurations.

    Each configuration draws a size uniformly from
    ``n_machines_range``, slopes log-uniformly from ``t_range``, and
    scales the arrival rate with the system size (constant load per
    machine, as in the A2 sweep).  The Table 2 manipulations are
    applied to the fastest machine (the analogue of C1).

    ``fuse`` mirrors the campaign engine's contract: same-``n``
    configurations form a cohort (they share the arrival rate by
    construction) and each cohort is scored as one stacked broadcast —
    ``"auto"`` (default) fuses cohorts of two or more, ``"on"`` fuses
    all, ``"off"`` keeps the per-configuration path.  Verdicts are
    bit-identical either way (:func:`_evaluate_cohort`), so the
    reported fractions never depend on the setting.

    ``workers > 1`` evaluates the *unfused* configurations over a
    process pool (via :func:`repro.parallel.parallel_map`); fused
    cohorts are evaluated in-process, where a broadcast beats the
    pool's pickling.  All configurations are drawn from ``rng``
    *before* any evaluation, so the random stream — and therefore the
    result — is bit-identical across every ``workers``/``fuse``
    combination.
    """
    if n_configurations < 1:
        raise ValueError("n_configurations must be at least 1")
    lo, hi = n_machines_range
    if not 2 <= lo <= hi:
        raise ValueError("n_machines_range must satisfy 2 <= lo <= hi")
    check_positive_scalar(load_per_machine, "load_per_machine")
    if fuse not in ("auto", "on", "off"):
        raise ValueError(f"fuse must be 'auto', 'on', or 'off', got {fuse!r}")

    counters = {
        "true1_is_minimum": 0,
        "c1_utility_peaks_at_true1": 0,
        "vp_holds": 0,
        "high_ordering_holds": 0,
        "low2_is_worst": 0,
        "frugality_within_2_5": 0,
        "low2_utility_negative": 0,
    }
    configs: list[tuple[np.ndarray, float]] = []
    for _ in range(n_configurations):
        n = int(rng.integers(lo, hi + 1))
        cluster = random_cluster(n, rng, t_range=t_range)
        configs.append((cluster.true_values, load_per_machine * n))

    singles = configs
    if fuse != "off":
        cohorts: dict[int, list[tuple[np.ndarray, float]]] = {}
        for config in configs:
            cohorts.setdefault(config[0].size, []).append(config)
        singles = []
        for members in cohorts.values():
            if fuse == "auto" and len(members) < 2:
                singles.extend(members)
                continue
            verdicts = _evaluate_cohort(
                np.array([tv for tv, _ in members]), members[0][1]
            )
            for key, held in verdicts.items():
                counters[key] += int(held.sum())

    from repro.parallel.engine import parallel_map

    for verdicts in parallel_map(_evaluate_config, singles, workers=workers):
        for key, held in verdicts.items():
            counters[key] += bool(held)

    fraction = {k: v / n_configurations for k, v in counters.items()}
    return GeneralizationResult(n_configurations=n_configurations, **fraction)
