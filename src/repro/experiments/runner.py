"""One-command reproduction: regenerate the full artefact bundle.

``reproduce_all(output_dir)`` runs the complete Section 4 evaluation
and writes everything a reviewer needs into one directory:

* ``tables/table1.txt``, ``tables/table2.txt`` — the configurations;
* ``figures/figure1.txt`` .. ``figures/figure6.txt`` — the rendered
  rows of every figure;
* ``data/scenarios.json``, ``data/scenarios.csv`` — machine-readable
  per-scenario outcomes;
* ``report.txt`` — the 15-claim paper-vs-measured verification report;
* ``MANIFEST.txt`` — what was written, with the library version.

The eight scenario evaluations behind the figures are submitted as one
campaign through :class:`~repro.parallel.CampaignEngine` — every
figure and the data dumps are derived from that single result set
(previously each figure recomputed the sweep).  Pass an engine with a
cache and/or workers to reuse results across invocations; the bundle
is bit-identical either way.

Exposed on the CLI as ``repro reproduce --output DIR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.experiments.io import records_to_csv, records_to_json
from repro.experiments.paper_check import ReproductionReport, verify_reproduction
from repro.experiments.report import (
    render_claims,
    render_figure,
    render_table1,
    render_table2,
)
from repro.experiments.table1 import table1_configuration

__all__ = ["ReproductionBundle", "reproduce_all"]


@dataclass(frozen=True)
class ReproductionBundle:
    """What :func:`reproduce_all` produced."""

    output_dir: Path
    files_written: tuple[str, ...]
    report: ReproductionReport

    @property
    def all_claims_pass(self) -> bool:
        """Whether the verification report was fully green."""
        return self.report.all_passed


def _write(path: Path, text: str, written: list[str], root: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text if text.endswith("\n") else text + "\n")
    written.append(str(path.relative_to(root)))


def reproduce_all(
    output_dir: Path | str, *, engine=None
) -> ReproductionBundle:
    """Regenerate every table, figure, and the claim report into a directory.

    ``engine`` (a :class:`~repro.parallel.CampaignEngine`) is where the
    scenario evaluations are submitted; the default is a serial,
    uncached engine.  Passing one with a cache makes repeat bundles
    near-free; passing one with workers parallelises the sweep.
    """
    from repro.parallel import CampaignEngine
    from repro.parallel.campaigns import run_figures_campaign

    root = Path(output_dir)
    root.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    config = table1_configuration()
    if engine is None:
        engine = CampaignEngine(workers=0, cache=None)
    campaign = run_figures_campaign(engine, config)
    records = list(campaign.records)

    # --- tables and figures -------------------------------------------------
    _write(root / "tables" / "table1.txt", render_table1(config), written, root)
    _write(root / "tables" / "table2.txt", render_table2(), written, root)
    for number in range(1, 7):
        _write(
            root / "figures" / f"figure{number}.txt",
            render_figure(number, config, records=records),
            written, root,
        )

    # --- machine-readable data ----------------------------------------------
    (root / "data").mkdir(exist_ok=True)
    records_to_json(records, root / "data" / "scenarios.json")
    written.append("data/scenarios.json")
    records_to_csv(records, root / "data" / "scenarios.csv")
    written.append("data/scenarios.csv")

    # --- claim report ---------------------------------------------------------
    report = verify_reproduction()
    _write(root / "report.txt", render_claims(report), written, root)

    # --- manifest -------------------------------------------------------------
    from repro import __version__

    stats = campaign.stats
    manifest = "\n".join(
        [
            f"repro {__version__} reproduction bundle",
            f"campaign: {stats.n_units} units, {stats.cache_hits} cache "
            f"hits, {stats.cache_misses} computed, "
            f"workers={stats.workers}",
            "",
        ]
        + sorted(written)
    )
    _write(root / "MANIFEST.txt", manifest, written, root)

    return ReproductionBundle(
        output_dir=root,
        files_written=tuple(sorted(written)),
        report=report,
    )
