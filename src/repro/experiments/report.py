"""Plain-text rendering of the paper's tables, figures and claim report.

Minimal, dependency-free table formatting: the benches print the same
rows the paper's tables and figure bars report, so paper-vs-measured
comparisons in EXPERIMENTS.md can be regenerated with one command.
Each paper artefact is rendered by one function here; ``repro table1``,
``repro figure N`` and ``repro verify`` print exactly the text that
``reproduce_all`` writes to the bundle.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.figures import (
    ExperimentRecord,
    figure1_data,
    figure2_data,
    figure345_data,
    figure6_data,
    figure6_truthful_structure,
    run_all_scenarios,
)
from repro.experiments.paper_check import ReproductionReport
from repro.experiments.table1 import Table1Configuration, table1_configuration
from repro.experiments.table2 import PAPER_SCENARIOS

__all__ = [
    "render_table",
    "render_records",
    "render_table1",
    "render_table2",
    "render_figure",
    "render_claims",
]


def _format_cell(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    precision: int = 2,
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Row values; floats are formatted to ``precision`` decimals.
    precision:
        Decimal places for float cells.
    title:
        Optional heading line printed above the table.
    """
    formatted = [[_format_cell(v, precision) for v in row] for row in rows]
    for row in formatted:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in formatted)) if formatted else len(headers[c])
        for c in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in formatted)
    return "\n".join(out)


def render_records(
    records: Sequence[ExperimentRecord],
    *,
    optimum: float | None = None,
) -> str:
    """Render Table 2 experiment outcomes with latency and C1 economics."""
    if optimum is None:
        truthful = [r for r in records if r.scenario.name == "True1"]
        optimum = truthful[0].total_latency if truthful else records[0].total_latency
    rows = [
        [
            r.scenario.name,
            r.scenario.bid_factor,
            r.scenario.execution_factor,
            r.total_latency,
            r.degradation_percent(optimum),
            r.c1_payment,
            r.c1_utility,
        ]
        for r in records
    ]
    return render_table(
        ["experiment", "bid x", "exec x", "L", "degr %", "C1 pay", "C1 util"],
        rows,
        title="Table 2 scenarios on the Table 1 system",
    )


def render_table1(config: Table1Configuration | None = None) -> str:
    """Table 1: the machine groups with their true values, and the rate."""
    config = config or table1_configuration()
    rows = [[machines, value] for machines, value in config.groups]
    rows.append(["arrival rate R", config.arrival_rate])
    return render_table(
        ["computers", "true value (t)"], rows, title="Table 1. System configuration."
    )


def render_table2() -> str:
    """Table 2: the eight bid/execution experiments."""
    rows = [
        [s.name, f"{s.bid_factor:g}*t1", f"{s.execution_factor:g}*t1", s.characterization]
        for s in PAPER_SCENARIOS
    ]
    return render_table(
        ["experiment", "bid", "execution", "characterization"],
        rows,
        title="Table 2. Types of experiments.",
    )


def render_figure(
    number: int,
    config: Table1Configuration | None = None,
    *,
    records: list[ExperimentRecord] | None = None,
) -> str:
    """Figure ``number`` (1..6) as rows.

    ``records`` are the eight scenario records if a caller already ran
    the campaign; otherwise it runs here, once per figure.
    """
    if records is None:
        records = run_all_scenarios(config)
    if number == 1:
        data = figure1_data(config, records=records)
        optimum = data["True1"]
        return render_table(
            ["experiment", "total latency", "degradation %"],
            [[k, v, 100 * (v / optimum - 1)] for k, v in data.items()],
            title="Figure 1. Performance degradation.",
        )
    if number == 2:
        return render_table(
            ["experiment", "C1 payment", "C1 utility"],
            [[k, p, u] for k, (p, u) in figure2_data(config, records=records).items()],
            title="Figure 2. Payment and utility for computer C1.",
        )
    names = (config or table1_configuration()).cluster.names
    if number in (3, 4, 5):
        scenario = {3: "True1", 4: "High1", 5: "Low1"}[number]
        data = figure345_data(scenario, config, records=records)
        return render_table(
            ["computer", "payment", "utility"],
            [[names[i], data["payment"][i], data["utility"][i]] for i in range(len(names))],
            title=f"Figure {number}. Payment and utility per computer ({scenario}).",
        )
    if number != 6:
        raise ValueError(f"unknown figure number {number}; expected 1..6")
    totals = figure6_data(config, records=records)
    structure = figure6_truthful_structure(config, records=records)
    return render_table(
        ["experiment", "total payment", "total |valuation|", "ratio"],
        [[k, row["total_payment"], row["total_valuation"], row["ratio"]]
         for k, row in totals.items()],
        title="Figure 6. Aggregate payment structure per experiment.",
    ) + "\n\n" + render_table(
        ["computer", "payment", "|valuation|", "ratio"],
        [[names[i], structure["payment"][i], structure["valuation"][i],
          structure["ratio"][i]] for i in range(len(names))],
        title="Figure 6 (per computer, True1).",
    )


def render_claims(report: ReproductionReport) -> str:
    """The paper-vs-measured claim report, one row per claim."""
    table = render_table(
        ["status", "claim", "paper", "measured"],
        [
            ["PASS" if c.passed else "FAIL", c.claim, c.paper_value, c.measured]
            for c in report.checks
        ],
        title=f"Reproduction report: {report.n_passed}/{len(report.checks)} claims pass.",
    )
    if not report.all_passed:
        table += "\n\nFAILURES PRESENT — see rows marked FAIL."
    return table
