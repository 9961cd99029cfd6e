"""Persistence for experiment results: JSON records and CSV tables.

The benchmark harness renders human-readable tables; this module gives
programmatic consumers stable artefacts: a JSON document per experiment
sweep (with enough metadata to re-run it) and CSV for spreadsheet
import.  Round-tripping is exact for the JSON path (tested).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Sequence

from repro.experiments.figures import ExperimentRecord
from repro.types import MechanismOutcome

__all__ = [
    "outcome_to_dict",
    "records_to_json",
    "load_records_json",
    "records_to_csv",
]

_FORMAT_VERSION = 1


def outcome_to_dict(outcome: MechanismOutcome) -> dict:
    """Serialise one mechanism outcome to plain JSON types."""
    data = {
        "loads": outcome.loads.tolist(),
        "bids": outcome.allocation.bids.tolist(),
        "arrival_rate": outcome.allocation.arrival_rate,
        "execution_values": outcome.execution_values.tolist(),
        "realised_latency": outcome.realised_latency,
        "compensation": outcome.payments.compensation.tolist(),
        "bonus": outcome.payments.bonus.tolist(),
        "valuation": outcome.payments.valuation.tolist(),
        "metadata": dict(outcome.metadata),
    }
    if outcome.true_values is not None:
        data["true_values"] = outcome.true_values.tolist()
    return data


def records_to_json(records: Sequence[ExperimentRecord], path: Path | str) -> None:
    """Write a full experiment sweep to a JSON document."""
    path = Path(path)
    document = {
        "format_version": _FORMAT_VERSION,
        "experiments": [
            {
                "name": record.scenario.name,
                "bid_factor": record.scenario.bid_factor,
                "execution_factor": record.scenario.execution_factor,
                "characterization": record.scenario.characterization,
                "outcome": outcome_to_dict(record.outcome),
            }
            for record in records
        ],
    }
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_records_json(path: Path | str) -> list[dict]:
    """Load a sweep back as plain dictionaries (schema-checked)."""
    document = json.loads(Path(path).read_text())
    if document.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {document.get('format_version')!r}; "
            f"expected {_FORMAT_VERSION}"
        )
    experiments = document["experiments"]
    for entry in experiments:
        for key in ("name", "bid_factor", "execution_factor", "outcome"):
            if key not in entry:
                raise ValueError(f"experiment entry missing key {key!r}")
    return experiments


def records_to_csv(records: Sequence[ExperimentRecord], path: Path | str) -> None:
    """Write per-experiment summary rows to a CSV file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "experiment",
                "bid_factor",
                "execution_factor",
                "total_latency",
                "c1_payment",
                "c1_utility",
                "total_payment",
                "frugality_ratio",
            ]
        )
        for record in records:
            payments = record.outcome.payments
            writer.writerow(
                [
                    record.scenario.name,
                    record.scenario.bid_factor,
                    record.scenario.execution_factor,
                    f"{record.total_latency:.6f}",
                    f"{record.c1_payment:.6f}",
                    f"{record.c1_utility:.6f}",
                    f"{payments.total_payment:.6f}",
                    f"{record.outcome.frugality_ratio:.6f}",
                ]
            )
