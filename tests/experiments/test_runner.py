"""Unit tests for the one-command reproduction runner."""

from __future__ import annotations

import json

import pytest

from repro.experiments import reproduce_all
from repro.experiments.io import load_records_json
from repro.mechanism.base import Mechanism
from repro.parallel import CampaignEngine, ResultCache


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    return reproduce_all(tmp_path_factory.mktemp("bundle"))


class TestBundleContents:
    def test_all_expected_files_written(self, bundle):
        expected = {
            "MANIFEST.txt",
            "report.txt",
            "tables/table1.txt",
            "tables/table2.txt",
            "data/scenarios.json",
            "data/scenarios.csv",
        } | {f"figures/figure{n}.txt" for n in range(1, 7)}
        assert set(bundle.files_written) == expected

    def test_files_exist_on_disk(self, bundle):
        for name in bundle.files_written:
            assert (bundle.output_dir / name).exists(), name

    def test_report_is_green(self, bundle):
        assert bundle.all_claims_pass
        text = (bundle.output_dir / "report.txt").read_text()
        assert "15/15 claims pass" in text

    def test_figure1_contains_optimum(self, bundle):
        text = (bundle.output_dir / "figures" / "figure1.txt").read_text()
        assert "78.43" in text

    def test_json_data_loads_back(self, bundle):
        entries = load_records_json(bundle.output_dir / "data" / "scenarios.json")
        assert len(entries) == 8

    def test_csv_has_nine_lines(self, bundle):
        lines = (
            (bundle.output_dir / "data" / "scenarios.csv")
            .read_text()
            .strip()
            .splitlines()
        )
        assert len(lines) == 9

    def test_manifest_lists_every_file(self, bundle):
        manifest = (bundle.output_dir / "MANIFEST.txt").read_text()
        for name in bundle.files_written:
            if name != "MANIFEST.txt":
                assert name in manifest

    def test_idempotent(self, bundle):
        again = reproduce_all(bundle.output_dir)
        assert set(again.files_written) == set(bundle.files_written)


class TestWarmReproduce:
    def test_warm_bundle_runs_the_mechanism_at_most_once(
        self, tmp_path, monkeypatch
    ):
        # Every figure and figure claim reads the campaign's records, so
        # a populated cache leaves only the voluntary-participation
        # margin to run the mechanism (the truthfulness audit and the
        # declared-variant check take the closed-form kernels).
        cache = ResultCache(tmp_path / "cache")
        reproduce_all(tmp_path / "cold", engine=CampaignEngine(cache=cache))
        calls = []
        run = Mechanism.run

        def counted(self, *args, **kwargs):
            calls.append(type(self).__name__)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Mechanism, "run", counted)
        warm = reproduce_all(tmp_path / "warm", engine=CampaignEngine(cache=cache))
        assert warm.all_claims_pass
        assert len(calls) <= 1


class TestCliReproduce:
    def test_cli_writes_bundle(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["reproduce", "--output", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "all claims PASS" in out
        assert (tmp_path / "out" / "report.txt").exists()
