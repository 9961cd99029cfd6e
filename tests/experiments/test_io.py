"""Unit tests for experiment persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import run_all_scenarios
from repro.experiments.io import (
    load_records_json,
    outcome_to_dict,
    records_to_csv,
    records_to_json,
)


@pytest.fixture(scope="module")
def records():
    return run_all_scenarios()


class TestJsonRoundTrip:
    def test_round_trip_preserves_values(self, records, tmp_path):
        path = tmp_path / "sweep.json"
        records_to_json(records, path)
        loaded = load_records_json(path)
        assert len(loaded) == 8
        by_name = {entry["name"]: entry for entry in loaded}
        low2 = by_name["Low2"]
        original = next(r for r in records if r.scenario.name == "Low2")
        assert low2["outcome"]["realised_latency"] == pytest.approx(
            original.total_latency
        )
        for key in ("compensation", "bonus", "valuation"):
            np.testing.assert_allclose(
                low2["outcome"][key], getattr(original.outcome.payments, key)
            )

    def test_true_values_serialised(self, records, tmp_path):
        path = tmp_path / "sweep.json"
        records_to_json(records, path)
        loaded = load_records_json(path)
        assert loaded[0]["outcome"]["true_values"][0] == 1.0

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "experiments": []}))
        with pytest.raises(ValueError, match="format version"):
            load_records_json(path)

    def test_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format_version": 1, "experiments": [{"name": "x"}]})
        )
        with pytest.raises(ValueError, match="missing key"):
            load_records_json(path)

    def test_json_is_deterministic(self, records, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        records_to_json(records, a)
        records_to_json(records, b)
        assert a.read_text() == b.read_text()


class TestCsv:
    def test_csv_has_header_and_all_rows(self, records, tmp_path):
        path = tmp_path / "sweep.csv"
        records_to_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("experiment,")
        assert lines[1].startswith("True1,")

    def test_csv_latency_column(self, records, tmp_path):
        path = tmp_path / "sweep.csv"
        records_to_csv(records, path)
        true1 = path.read_text().splitlines()[1].split(",")
        assert float(true1[3]) == pytest.approx(78.43, abs=0.01)


class TestOutcomeDict:
    def test_contains_core_fields(self, records):
        data = outcome_to_dict(records[0].outcome)
        for key in ("loads", "bids", "compensation", "bonus", "metadata"):
            assert key in data
        assert data["arrival_rate"] == 20.0
