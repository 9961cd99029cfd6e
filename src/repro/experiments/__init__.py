"""The paper's Section 4 evaluation: tables, scenarios, and figure data.

* :mod:`repro.experiments.table1` — the 16-computer system configuration;
* :mod:`repro.experiments.table2` — the eight bid/execution scenarios;
* :mod:`repro.experiments.figures` — data generators for Figures 1–6,
  all reading records of one scenario campaign;
* :mod:`repro.experiments.report` — plain-text rendering: one function
  per paper table, figure and the claim report, shared by the CLI and
  :func:`~repro.experiments.reproduce_all`;
* :mod:`repro.experiments.tournament` — the cross-mechanism tournament
  (verification vs VCG vs Archer–Tardos under coalitions of liars).
"""

from repro.experiments.table1 import table1_configuration
from repro.experiments.table2 import (
    Scenario,
    PAPER_SCENARIOS,
    scenario_by_name,
    build_bid_and_execution_vectors,
)
from repro.experiments.figures import (
    ExperimentRecord,
    run_all_scenarios,
    figure1_data,
    figure2_data,
    figure345_data,
    figure6_data,
    figure6_truthful_structure,
)
from repro.experiments.report import (
    render_claims,
    render_figure,
    render_records,
    render_table,
    render_table1,
    render_table2,
)
from repro.experiments.runner import ReproductionBundle, reproduce_all
from repro.experiments.generalization import (
    GeneralizationResult,
    generalization_study,
)
from repro.experiments.paper_check import (
    ClaimCheck,
    ReproductionReport,
    verify_reproduction,
)
from repro.experiments.io import (
    records_to_json,
    records_to_csv,
    load_records_json,
)
from repro.experiments.tournament import (
    EquilibriumRow,
    ManipulationPattern,
    TOURNAMENT_VARIANTS,
    TournamentResult,
    TournamentRow,
    run_tournament,
    tournament_patterns,
    tournament_units,
)

__all__ = [
    "table1_configuration",
    "Scenario",
    "PAPER_SCENARIOS",
    "scenario_by_name",
    "build_bid_and_execution_vectors",
    "ExperimentRecord",
    "run_all_scenarios",
    "figure1_data",
    "figure2_data",
    "figure345_data",
    "figure6_data",
    "figure6_truthful_structure",
    "ReproductionBundle",
    "reproduce_all",
    "GeneralizationResult",
    "generalization_study",
    "ClaimCheck",
    "ReproductionReport",
    "verify_reproduction",
    "records_to_json",
    "records_to_csv",
    "load_records_json",
    "render_table",
    "render_records",
    "render_table1",
    "render_table2",
    "render_figure",
    "render_claims",
    "EquilibriumRow",
    "ManipulationPattern",
    "TOURNAMENT_VARIANTS",
    "TournamentResult",
    "TournamentRow",
    "run_tournament",
    "tournament_patterns",
    "tournament_units",
]
