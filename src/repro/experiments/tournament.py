"""Cross-mechanism tournament: verification vs VCG vs Archer–Tardos.

Table 2 compares payment rules through *one* manipulating machine.
With closed-form kernels for all three truthful mechanisms
(:mod:`repro.agents.kernels`), the comparison extends far beyond that:
this module plays the verification mechanism (observed compensation)
and the two baselines across the scenario grid x manipulation
patterns — single liars, multi-liar prefixes (the A1 conjecture
seeds), and jointly-overbidding coalitions (the A11 collusion seeds) —
and scores each cell on three axes:

* **equilibrium quality** — realised latency ``L`` against the
  optimum ``L* = R^2 / S`` (degradation percent), plus the fixed point
  best-response dynamics reach from the worst profile;
* **frugality** — total payment over total agent cost (how much the
  broker overpays to keep the allocation honest);
* **robustness to lying** — the manipulating coalition's utility gain
  over what the same machines earn by telling the truth.

Every cell is an :class:`~repro.parallel.ExperimentUnit` (scenario
kind, ``manipulators`` coalition field), and so is every equilibrium
row (dynamics kind), so tournaments run through the campaign engine: cacheable, parallelisable, and reproducible from the
``repro tournament`` CLI.  The committed reference results live in
``benchmarks/results/TOURNAMENT_results.json`` (refreshed by the A25
bench); ``docs/mechanisms.md`` reads its headline numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.allocation.pr import optimal_total_latency
from repro.experiments.report import render_table
from repro.experiments.table1 import Table1Configuration, table1_configuration
from repro.experiments.table2 import PAPER_SCENARIOS
from repro.parallel.engine import CampaignEngine
from repro.parallel.units import ExperimentUnit

__all__ = [
    "EquilibriumRow",
    "ManipulationPattern",
    "TOURNAMENT_VARIANTS",
    "TournamentResult",
    "TournamentRow",
    "run_tournament",
    "tournament_patterns",
    "tournament_units",
]

# The three truthful payment rules under comparison.  The declared
# variant is deliberately absent: it is the paper's non-truthful foil,
# not a contender (its Table 2 story is told by `repro campaign`).
TOURNAMENT_VARIANTS = ("observed", "vcg", "archer-tardos")

_TRUTHFUL_PATTERN = "Truthful"


@dataclass(frozen=True)
class ManipulationPattern:
    """One way a coalition of machines lies to the broker.

    All members apply the same ``(bid_factor, execution_factor)`` to
    their true values — the Table 2 semantics extended to a coalition.
    """

    name: str
    kind: str  # "truthful" | "single" | "multi" | "collusion"
    bid_factor: float
    execution_factor: float
    manipulators: tuple[int, ...]

    @property
    def is_truthful(self) -> bool:
        return self.bid_factor == 1.0 and self.execution_factor == 1.0


def _collusion_pairs(n_machines: int) -> tuple[tuple[int, int], ...]:
    """Default colluding pairs: one machine per Table 1 speed group.

    The A11 bench scans the (t = 1, 2, 5, 10) representatives at
    indices 0, 2, 5, 10; the same seeds are used here, clipped to the
    system size.
    """
    representatives = [i for i in (0, 2, 5, 10) if i < n_machines]
    if len(representatives) < 2:
        representatives = [0, 1]
    return tuple(
        (representatives[i], representatives[j])
        for i in range(len(representatives))
        for j in range(i + 1, len(representatives))
    )


def tournament_patterns(
    n_machines: int,
    *,
    max_liars: int | None = None,
    collusion_bid_factor: float = 2.0,
) -> tuple[ManipulationPattern, ...]:
    """The manipulation grid every mechanism is played against.

    * the truthful baseline (every robustness score is relative to it);
    * every non-truthful Table 2 scenario as a single liar (C1);
    * the two A1 conjecture manipulations — Low2 (underbid 2x, execute
      2x slower) and High1 (overbid 3x, execute 3x slower) — spread
      over growing machine prefixes of 2 .. ``max_liars`` liars;
    * the A11 collusion seeds: one-machine-per-speed-group pairs
      jointly overbidding by ``collusion_bid_factor``.
    """
    if n_machines < 2:
        raise ValueError("a tournament needs at least two machines")
    if max_liars is None:
        max_liars = min(4, n_machines)
    if not 2 <= max_liars <= n_machines:
        raise ValueError(f"max_liars must be in [2, {n_machines}]")
    patterns = [
        ManipulationPattern(_TRUTHFUL_PATTERN, "truthful", 1.0, 1.0, (0,))
    ]
    for scenario in PAPER_SCENARIOS:
        if scenario.bid_factor == 1.0 and scenario.execution_factor == 1.0:
            continue
        patterns.append(
            ManipulationPattern(
                scenario.name,
                "single",
                scenario.bid_factor,
                scenario.execution_factor,
                (0,),
            )
        )
    for label, bid_factor, execution_factor in (
        ("Low2", 0.5, 2.0),
        ("High1", 3.0, 3.0),
    ):
        for k in range(2, max_liars + 1):
            patterns.append(
                ManipulationPattern(
                    f"{label} x{k}",
                    "multi",
                    bid_factor,
                    execution_factor,
                    tuple(range(k)),
                )
            )
    for i, j in _collusion_pairs(n_machines):
        patterns.append(
            ManipulationPattern(
                f"collude({i},{j})",
                "collusion",
                collusion_bid_factor,
                1.0,
                (i, j),
            )
        )
    return tuple(patterns)


def tournament_units(
    config: Table1Configuration | None = None,
    *,
    variants: tuple[str, ...] = TOURNAMENT_VARIANTS,
    patterns: tuple[ManipulationPattern, ...] | None = None,
) -> list[ExperimentUnit]:
    """One cacheable scenario unit per (mechanism, pattern) cell."""
    config = table1_configuration() if config is None else config
    true_values = tuple(config.cluster.true_values.tolist())
    if patterns is None:
        patterns = tournament_patterns(len(true_values))
    return [
        ExperimentUnit(
            kind="scenario",
            scenario=pattern.name,
            bid_factor=pattern.bid_factor,
            execution_factor=pattern.execution_factor,
            true_values=true_values,
            arrival_rate=config.arrival_rate,
            variant=variant,
            manipulators=pattern.manipulators,
        )
        for variant in variants
        for pattern in patterns
    ]


@dataclass(frozen=True)
class TournamentRow:
    """One (mechanism, manipulation pattern) cell of the tournament."""

    mechanism: str
    pattern: str
    pattern_kind: str
    manipulators: tuple[int, ...]
    bid_factor: float
    execution_factor: float
    degradation_percent: float
    frugality_ratio: float
    liar_utility: float
    truthful_liar_utility: float

    @property
    def robustness_gain(self) -> float:
        """Coalition utility gained by lying (side payments allowed)."""
        return self.liar_utility - self.truthful_liar_utility

    @property
    def profitable(self) -> bool:
        """Whether the lie strictly beats coalition truth-telling."""
        return self.robustness_gain > 1e-7 * max(
            1.0, abs(self.truthful_liar_utility)
        )


@dataclass(frozen=True)
class EquilibriumRow:
    """Where kernel-driven best-response dynamics settle one mechanism.

    Started from the mechanism's worst-degradation manipulated profile;
    the fixed point is scored with machines executing at capacity.
    """

    mechanism: str
    start_pattern: str
    rounds: int
    converged: bool
    final_degradation_percent: float
    max_drift_from_truth: float


@dataclass(frozen=True)
class TournamentResult:
    """A completed tournament, ready for rendering or JSON export."""

    true_values: tuple[float, ...]
    arrival_rate: float
    optimal_latency: float
    rows: tuple[TournamentRow, ...]
    equilibrium: tuple[EquilibriumRow, ...]

    def mechanisms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for row in self.rows:
            if row.mechanism not in seen:
                seen.append(row.mechanism)
        return tuple(seen)

    def rows_for(self, mechanism: str) -> tuple[TournamentRow, ...]:
        return tuple(r for r in self.rows if r.mechanism == mechanism)

    def standings(self) -> list[dict]:
        """Per-mechanism aggregates — the "which mechanism when" feed.

        ``worst_degradation_percent`` and ``max_robustness_gain`` are
        over the manipulated cells only; ``truthful_frugality_ratio``
        is the broker's overpayment factor when nobody lies.
        """
        out = []
        for mechanism in self.mechanisms():
            rows = self.rows_for(mechanism)
            lying = [r for r in rows if r.pattern_kind != "truthful"]
            truthful = next(r for r in rows if r.pattern_kind == "truthful")
            individual = [r for r in lying if r.pattern_kind != "collusion"]
            collusion = [r for r in lying if r.pattern_kind == "collusion"]
            fixed_point = next(
                (e for e in self.equilibrium if e.mechanism == mechanism), None
            )
            out.append(
                {
                    "mechanism": mechanism,
                    "truthful_frugality_ratio": truthful.frugality_ratio,
                    "worst_degradation_percent": max(
                        r.degradation_percent for r in lying
                    ),
                    "max_robustness_gain": max(
                        r.robustness_gain for r in lying
                    ),
                    "max_individual_gain": max(
                        r.robustness_gain for r in individual
                    ),
                    "profitable_individual_patterns": sum(
                        r.profitable for r in individual
                    ),
                    "profitable_collusion_patterns": sum(
                        r.profitable for r in collusion
                    ),
                    "equilibrium_degradation_percent": (
                        None
                        if fixed_point is None
                        else fixed_point.final_degradation_percent
                    ),
                }
            )
        return out

    def to_json(self) -> dict:
        """JSON-safe dict (the committed tournament artifact's schema)."""
        return {
            "schema_version": 1,
            "true_values": list(self.true_values),
            "arrival_rate": self.arrival_rate,
            "optimal_latency": self.optimal_latency,
            "rows": [
                {
                    "mechanism": r.mechanism,
                    "pattern": r.pattern,
                    "pattern_kind": r.pattern_kind,
                    "manipulators": list(r.manipulators),
                    "bid_factor": r.bid_factor,
                    "execution_factor": r.execution_factor,
                    "degradation_percent": r.degradation_percent,
                    "frugality_ratio": r.frugality_ratio,
                    "liar_utility": r.liar_utility,
                    "truthful_liar_utility": r.truthful_liar_utility,
                    "robustness_gain": r.robustness_gain,
                    "profitable": r.profitable,
                }
                for r in self.rows
            ],
            "equilibrium": [
                {
                    "mechanism": e.mechanism,
                    "start_pattern": e.start_pattern,
                    "rounds": e.rounds,
                    "converged": e.converged,
                    "final_degradation_percent": e.final_degradation_percent,
                    "max_drift_from_truth": e.max_drift_from_truth,
                }
                for e in self.equilibrium
            ],
            "standings": self.standings(),
        }

    def render(self, top: int = 10) -> str:
        """The standings, then the ``top`` manipulations by coalition gain."""
        standings = render_table(
            ["mechanism", "frugality", "worst degr %", "indiv. gain",
             "collusion wins", "eq. degr %"],
            [
                [
                    s["mechanism"],
                    f"{s['truthful_frugality_ratio']:.3f}",
                    f"{s['worst_degradation_percent']:.2f}",
                    f"{s['max_individual_gain']:.3f}",
                    f"{s['profitable_collusion_patterns']}",
                    "-" if s["equilibrium_degradation_percent"] is None
                    else _fmt_percent(s["equilibrium_degradation_percent"]),
                ]
                for s in self.standings()
            ],
            title="Tournament standings: all payment rules, all liars.",
        )
        worst = sorted(
            (r for r in self.rows if r.pattern_kind != "truthful"),
            key=lambda r: r.robustness_gain,
            reverse=True,
        )[:top]
        return standings + "\n\n" + render_table(
            ["mechanism", "pattern", "degradation %", "coalition gain", "profitable"],
            [
                [r.mechanism, r.pattern, f"{r.degradation_percent:.2f}",
                 f"{r.robustness_gain:+.3f}", "yes" if r.profitable else "no"]
                for r in worst
            ],
            title=f"Top {top} manipulations by coalition gain.",
        )


def _fmt_percent(value: float) -> str:
    """Two decimals, with a value that rounds to zero printed as ``0.00``.

    Adding ``0.0`` turns the ``-0.0`` that ``round`` leaves for a tiny
    negative into ``0.0``; a real negative keeps its sign.
    """
    return f"{round(value, 2) + 0.0:.2f}"


def run_tournament(
    engine: CampaignEngine | None = None,
    config: Table1Configuration | None = None,
    *,
    variants: tuple[str, ...] = TOURNAMENT_VARIANTS,
    patterns: tuple[ManipulationPattern, ...] | None = None,
    dynamics: bool = True,
) -> TournamentResult:
    """Play every mechanism against every manipulation pattern.

    The (mechanism x pattern) cells run through the campaign engine
    (serial and uncached by default — pass an engine for workers or a
    result cache).  Each mechanism's equilibrium row is then a dynamics
    unit of its own rule, started from its worst manipulated profile
    and run through the same engine, so a result cache serves it too
    (``dynamics=False`` skips that stage).
    """
    config = table1_configuration() if config is None else config
    true_values = np.asarray(config.cluster.true_values, dtype=np.float64)
    arrival_rate = float(config.arrival_rate)
    if patterns is None:
        patterns = tournament_patterns(true_values.size)
    truthful = next((p for p in patterns if p.is_truthful), None)
    if truthful is None:
        raise ValueError(
            "the pattern grid needs the truthful baseline "
            "(robustness is measured against it)"
        )

    engine = engine or CampaignEngine(workers=0, cache=None)
    units = tournament_units(config, variants=variants, patterns=patterns)
    result = engine.run(units)
    cells = {
        (unit.variant, unit.scenario): (unit, payload)
        for unit, payload in zip(result.units, result.payloads)
    }

    optimum = float(optimal_total_latency(true_values, arrival_rate))
    rows: list[TournamentRow] = []
    for variant in variants:
        _, baseline = cells[variant, truthful.name]
        for pattern in patterns:
            _, payload = cells[variant, pattern.name]
            members = list(pattern.manipulators)
            rows.append(
                TournamentRow(
                    mechanism=variant,
                    pattern=pattern.name,
                    pattern_kind=pattern.kind,
                    manipulators=pattern.manipulators,
                    bid_factor=pattern.bid_factor,
                    execution_factor=pattern.execution_factor,
                    degradation_percent=(
                        100.0 * (payload["realised_latency"] / optimum - 1.0)
                    ),
                    frugality_ratio=payload["frugality_ratio"],
                    liar_utility=float(
                        sum(payload["utility"][i] for i in members)
                    ),
                    truthful_liar_utility=float(
                        sum(baseline["utility"][i] for i in members)
                    ),
                )
            )

    equilibrium: list[EquilibriumRow] = []
    if dynamics:
        starts = []
        for variant in variants:
            worst = max(
                (
                    r
                    for r in rows
                    if r.mechanism == variant and r.pattern_kind != "truthful"
                ),
                key=lambda r: r.degradation_percent,
            )
            start, _ = cells[variant, worst.pattern]
            starts.append(replace(start, kind="dynamics"))
        fixed_points = engine.run(starts)
        for unit, payload in zip(fixed_points.units, fixed_points.payloads):
            equilibrium.append(
                EquilibriumRow(
                    mechanism=unit.variant,
                    start_pattern=unit.scenario,
                    rounds=payload["rounds"],
                    converged=payload["converged"],
                    final_degradation_percent=(
                        100.0 * (payload["realised_latency"] / optimum - 1.0)
                    ),
                    max_drift_from_truth=payload["max_drift_from_truth"],
                )
            )

    return TournamentResult(
        true_values=tuple(true_values.tolist()),
        arrival_rate=arrival_rate,
        optimal_latency=optimum,
        rows=tuple(rows),
        equilibrium=tuple(equilibrium),
    )

