"""Prebuilt campaigns: the paper's evaluation as schedulable units.

The Section 4 evaluation is a *campaign*: the eight Table 2 bid
profiles on the Table 1 system, closed form for the figures plus
seeded protocol replications for Monte-Carlo error bars.  This module
builds those unit lists, and converts engine payloads back into the
:class:`~repro.experiments.figures.ExperimentRecord` objects the
figure generators consume — the reconstruction is exact, so a figure
built from a (possibly cached, possibly parallel) campaign is
bit-identical to one computed inline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.figures import ExperimentRecord
from repro.experiments.table1 import Table1Configuration, table1_configuration
from repro.experiments.table2 import PAPER_SCENARIOS, scenario_by_name
from repro.parallel.engine import CampaignEngine, CampaignResult
from repro.parallel.units import ExperimentUnit
from repro.types import AllocationResult, MechanismOutcome, PaymentResult

__all__ = [
    "FiguresCampaign",
    "figures_campaign_units",
    "protocol_units",
    "record_from_payload",
    "records_from_campaign",
    "run_figures_campaign",
    "scenario_units",
]


def _resolve(config: Table1Configuration | None) -> Table1Configuration:
    return table1_configuration() if config is None else config


def scenario_units(
    config: Table1Configuration | None = None,
    *,
    variant: str = "observed",
) -> list[ExperimentUnit]:
    """The eight closed-form Table 2 evaluations (Figures 1–6 data)."""
    config = _resolve(config)
    return [
        ExperimentUnit(
            kind="scenario",
            scenario=scenario.name,
            bid_factor=scenario.bid_factor,
            execution_factor=scenario.execution_factor,
            true_values=tuple(config.cluster.true_values.tolist()),
            arrival_rate=config.arrival_rate,
            variant=variant,
        )
        for scenario in PAPER_SCENARIOS
    ]


def protocol_units(
    config: Table1Configuration | None = None,
    *,
    seeds: tuple[int, ...] = (0,),
    duration: float = 200.0,
    variant: str = "observed",
    scenarios: tuple[str, ...] | None = None,
) -> list[ExperimentUnit]:
    """Seeded discrete-event replications of the Table 2 scenarios."""
    config = _resolve(config)
    names = scenarios or tuple(s.name for s in PAPER_SCENARIOS)
    units = []
    for name in names:
        scenario = scenario_by_name(name)
        for seed in seeds:
            units.append(
                ExperimentUnit(
                    kind="protocol",
                    scenario=scenario.name,
                    bid_factor=scenario.bid_factor,
                    execution_factor=scenario.execution_factor,
                    true_values=tuple(config.cluster.true_values.tolist()),
                    arrival_rate=config.arrival_rate,
                    variant=variant,
                    seed=int(seed),
                    duration=duration,
                )
            )
    return units


def figures_campaign_units(
    config: Table1Configuration | None = None,
    *,
    seeds: tuple[int, ...] = (),
    duration: float = 200.0,
    variant: str = "observed",
) -> list[ExperimentUnit]:
    """The combined Table 1 + Figures 1–6 campaign.

    Always contains the eight closed-form units; adding ``seeds`` adds
    one protocol replication per (scenario, seed) — the regime where
    the worker pool pays off, since a protocol unit costs ~1000x a
    closed-form one.
    """
    config = _resolve(config)
    units = scenario_units(config, variant=variant)
    if seeds:
        units += protocol_units(
            config,
            seeds=tuple(seeds),
            duration=duration,
            variant=variant,
        )
    return units


# ----------------------------------------------------- payload -> records


def record_from_payload(unit: ExperimentUnit, payload: dict) -> ExperimentRecord:
    """Rebuild the exact :class:`ExperimentRecord` a payload came from.

    Payload floats round-trip bit-exactly through JSON, and every
    derived quantity (payment, utility, realised latency) is recomputed
    by the same dataclass properties the inline path uses — so
    downstream figures cannot tell a cached campaign from a fresh run.
    """
    allocation = AllocationResult(
        loads=np.asarray(payload["loads"]),
        arrival_rate=unit.arrival_rate,
        bids=np.asarray(payload["bids"]),
        total_latency=payload["declared_latency"],
    )
    payments = PaymentResult(
        compensation=np.asarray(payload["compensation"]),
        bonus=np.asarray(payload["bonus"]),
        valuation=np.asarray(payload["valuation"]),
    )
    outcome = MechanismOutcome(
        allocation=allocation,
        payments=payments,
        execution_values=np.asarray(payload["execution_values"]),
        true_values=np.asarray(unit.true_values),
    )
    return ExperimentRecord(
        scenario=scenario_by_name(unit.scenario), outcome=outcome
    )


def records_from_campaign(result: CampaignResult) -> list[ExperimentRecord]:
    """Records for every scenario and dynamics unit of a campaign, in order.

    A dynamics unit's payload is the outcome at its fixed point, so it
    rebuilds into a record like a scenario unit's.
    """
    return [
        record_from_payload(unit, payload)
        for unit, payload in zip(result.units, result.payloads)
        if unit.kind in ("scenario", "dynamics")
    ]


@dataclass(frozen=True)
class FiguresCampaign:
    """A completed Table 1 + Figures campaign, ready for the figure code."""

    result: CampaignResult
    records: tuple[ExperimentRecord, ...]

    @property
    def stats(self):
        """Shorthand for the engine's cost accounting."""
        return self.result.stats

    def protocol_payloads(self) -> dict[tuple[str, int], dict]:
        """Protocol-unit payloads keyed by (scenario, seed)."""
        return {
            (unit.scenario, unit.seed): payload
            for unit, payload in zip(self.result.units, self.result.payloads)
            if unit.kind == "protocol"
        }


def run_figures_campaign(
    engine: CampaignEngine | None = None,
    config: Table1Configuration | None = None,
    *,
    seeds: tuple[int, ...] = (),
    duration: float = 200.0,
    variant: str = "observed",
) -> FiguresCampaign:
    """Run the combined campaign through an engine (serial by default)."""
    engine = engine or CampaignEngine(workers=0, cache=None)
    units = figures_campaign_units(
        config, seeds=seeds, duration=duration, variant=variant
    )
    result = engine.run(units)
    return FiguresCampaign(
        result=result, records=tuple(records_from_campaign(result))
    )
