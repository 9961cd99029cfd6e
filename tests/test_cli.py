"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestTables:
    def test_table1_lists_groups(self, capsys):
        out = run_cli(capsys, "table1")
        assert "C1 - C2" in out
        assert "20.00" in out  # arrival rate

    def test_table2_lists_all_experiments(self, capsys):
        out = run_cli(capsys, "table2")
        for name in ("True1", "High4", "Low2"):
            assert name in out


class TestFigures:
    @pytest.mark.parametrize("number", ["1", "2", "3", "4", "5", "6"])
    def test_every_figure_renders(self, capsys, number):
        out = run_cli(capsys, "figure", number)
        assert f"Figure {number}" in out

    def test_figure1_contains_optimum(self, capsys):
        out = run_cli(capsys, "figure", "1")
        assert "78.43" in out

    def test_out_of_range_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "7"])


class TestAudit:
    def test_observed_mechanism_is_truthful(self, capsys):
        out = run_cli(capsys, "audit", "--machines", "4")
        assert "yes" in out

    def test_declared_mechanism_flagged(self, capsys):
        out = run_cli(capsys, "audit", "--variant", "declared", "--machines", "4")
        assert "NO" in out

    @pytest.mark.parametrize("variant", ["vcg", "archer-tardos"])
    def test_baselines_audit_cleanly(self, capsys, variant):
        out = run_cli(capsys, "audit", "--variant", variant, "--machines", "4")
        assert "yes" in out

    def test_audit_accepts_cluster_config_file(self, capsys, tmp_path, rng):
        from repro.system import random_cluster, save_cluster

        path = tmp_path / "cluster.json"
        save_cluster(random_cluster(5, rng), path)
        out = run_cli(
            capsys, "audit", "--config", str(path), "--machines", "5"
        )
        assert "yes" in out


class TestProtocol:
    def test_truthful_round(self, capsys):
        out = run_cli(capsys, "protocol", "--duration", "20")
        assert "control messages" in out
        assert "80" in out  # 5n for n=16

    def test_liar_round_shows_negative_utility(self, capsys):
        out = run_cli(capsys, "protocol", "--liar", "low2", "--duration", "150")
        assert "C1 utility" in out
        # utility column carries a minus sign for low2
        utility_line = next(l for l in out.splitlines() if "C1 utility" in l)
        assert "-" in utility_line.split()[-1]

    def test_lossy_round_completes(self, capsys):
        out = run_cli(
            capsys, "protocol", "--duration", "15", "--drop", "0.3"
        )
        messages_line = next(
            l for l in out.splitlines() if "control messages" in l
        )
        assert messages_line.split()[-1] == "80"  # exactly-once payloads


class TestAnalysisCommands:
    def test_multi_liar(self, capsys):
        out = run_cli(capsys, "multi-liar", "--max-liars", "3")
        assert "degradation %" in out
        assert "65.8" in out

    def test_poa_default_is_pigou(self, capsys):
        out = run_cli(capsys, "poa")
        assert "1.3333" in out

    def test_poa_bad_model_errors_cleanly(self, capsys):
        code = main(["poa", "--intercepts", "-1", "--slopes", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err


class TestLandscape:
    def test_observed_landscape_peaks_at_truth(self, capsys):
        out = run_cli(capsys, "landscape")
        assert "max at bid 1x, execution 1x" in out
        assert "exec\\bid" in out

    def test_declared_landscape_peaks_above_truth(self, capsys):
        out = run_cli(capsys, "landscape", "--variant", "declared")
        header = out.splitlines()[0]
        assert "max at bid 1x" not in header

    def test_agent_selectable(self, capsys):
        out = run_cli(capsys, "landscape", "--agent", "5")
        assert "machine C6" in out

    @pytest.mark.parametrize("variant", ["vcg", "archer-tardos"])
    def test_truthful_rules_peak_at_truth(self, capsys, variant):
        # Both rules are truthful, so their landscapes peak at the
        # true bid and full-speed execution too.
        out = run_cli(capsys, "landscape", "--variant", variant)
        header = out.splitlines()[0]
        assert f"({variant} mechanism); max at bid 1x, execution 1x" in header


class TestResilience:
    def test_chaos_campaign_runs_clean(self, capsys):
        out = run_cli(
            capsys, "resilience", "--rounds", "6", "--machines", "6",
            "--seed", "1",
        )
        assert "Chaos campaign" in out
        assert "invariant violations" in out
        assert "INVARIANT VIOLATIONS" not in out  # none occurred

    def test_keep_going_flag_accepted(self, capsys):
        out = run_cli(
            capsys, "resilience", "--rounds", "3", "--machines", "4",
            "--seed", "2", "--keep-going",
        )
        assert "rounds driven" in out


class TestMetrics:
    def test_text_report_has_all_sections(self, capsys):
        out = run_cli(
            capsys, "metrics", "--rounds", "2", "--machines", "4",
            "--seed", "1",
        )
        assert "Span timings" in out
        assert "supervisor.round" in out
        assert "Counters" in out
        assert "protocol.phase_transitions" in out

    def test_json_report_parses_with_expected_sections(self, capsys):
        import json

        out = run_cli(
            capsys, "metrics", "--rounds", "2", "--machines", "4",
            "--seed", "1", "--json",
        )
        snapshot = json.loads(out)
        for section in ("counters", "gauges", "histograms", "spans"):
            assert section in snapshot
        assert "supervisor.round" in snapshot["spans"]
        assert snapshot["spans"]["supervisor.round"]["count"] == 2

    def test_chaos_campaign_records_fault_counters(self, capsys):
        import json

        out = run_cli(
            capsys, "metrics", "--rounds", "6", "--machines", "6",
            "--seed", "1", "--chaos", "--json",
        )
        snapshot = json.loads(out)
        assert "chaos.round" in snapshot["spans"]
        names = {c["name"] for c in snapshot["counters"]}
        assert "chaos.faults_injected" in names

    def test_trace_export_writes_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "spans.jsonl"
        out = run_cli(
            capsys, "metrics", "--rounds", "1", "--machines", "4",
            "--seed", "0", "--trace", str(path),
        )
        assert str(path) in out
        lines = path.read_text().splitlines()
        assert lines, "trace export produced no spans"
        names = {json.loads(line)["name"] for line in lines}
        assert "supervisor.round" in names


class TestCampaign:
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--seeds", "-1"],
            ["campaign", "--duration", "0"],
            ["serve", "--shards", "0"],
            ["serve", "--rounds", "0"],
            ["horizon", "--rounds", "0"],
            ["remediate", "--scenario", "nope"],
        ],
    )
    def test_bad_arguments_error_cleanly(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_cold_run_reports_misses_and_figure1(self, capsys, tmp_path):
        out = run_cli(
            capsys, "campaign", "--cache-dir", str(tmp_path / "cache"),
        )
        assert "0 / 8" in out          # hits / misses
        assert "78.43" in out          # True1 optimum
        assert "Low2" in out

    def test_warm_run_is_all_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run_cli(capsys, "campaign", "--cache-dir", cache)
        out = run_cli(capsys, "campaign", "--cache-dir", cache)
        assert "8 / 0" in out
        assert "100.0%" in out

    def test_no_resume_recomputes(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        run_cli(capsys, "campaign", "--cache-dir", cache)
        out = run_cli(capsys, "campaign", "--cache-dir", cache, "--no-resume")
        assert "0 / 8" in out
        assert "refresh" in out

    def test_no_cache_runs_without_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = run_cli(capsys, "campaign", "--no-cache")
        assert "disabled" in out
        assert not (tmp_path / ".repro-cache").exists()

    def test_seeds_add_protocol_units(self, capsys, tmp_path):
        out = run_cli(
            capsys, "campaign", "--cache-dir", str(tmp_path / "c"),
            "--seeds", "1", "--duration", "20",
        )
        assert "0 / 16" in out

    def test_json_payloads_parse(self, capsys, tmp_path):
        import json

        out = run_cli(
            capsys, "campaign", "--no-cache", "--json",
        )
        data = json.loads(out)
        assert data["n_units"] == 8
        assert len(data["payloads"]) == 8
        assert len(data["keys"][0]) == 64
        assert round(data["payloads"][0]["realised_latency"], 2) == 78.43

    def test_trace_exports_worker_spans(self, capsys, tmp_path):
        import json

        # Worker-side campaign.unit spans are a per-unit-path contract;
        # --fuse off keeps every unit on that path.
        path = tmp_path / "spans.jsonl"
        out = run_cli(
            capsys, "campaign", "--no-cache", "--fuse", "off",
            "--trace", str(path),
        )
        assert str(path) in out
        lines = path.read_text().splitlines()
        assert len(lines) == 8
        assert json.loads(lines[0])["name"] == "campaign.unit"

    def test_metrics_campaign_mode_shows_cache_counters(self, capsys):
        import json

        out = run_cli(
            capsys, "metrics", "--campaign", "--duration", "20", "--json",
        )
        snapshot = json.loads(out)
        counters = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert counters["campaign.cache.hits"] == 16
        assert counters["campaign.cache.misses"] == 16

    def test_reproduce_accepts_engine_flags(self, capsys, tmp_path):
        out = run_cli(
            capsys, "reproduce",
            "--output", str(tmp_path / "bundle"),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert "all claims PASS" in out
        assert (tmp_path / "cache").is_dir()


class TestTournament:
    def test_standings_list_all_three_mechanisms(self, capsys):
        out = run_cli(capsys, "tournament")
        assert "Tournament standings" in out
        for mechanism in ("observed", "vcg", "archer-tardos"):
            assert mechanism in out

    def test_collusion_rows_lead_the_manipulation_table(self, capsys):
        out = run_cli(capsys, "tournament", "--top", "3")
        assert "collude(0,2)" in out
        assert "yes" in out          # profitable only under verification

    def test_json_exports_the_full_result(self, capsys):
        import json

        out = run_cli(capsys, "tournament", "--json", "--no-dynamics")
        data = json.loads(out)
        assert data["schema_version"] == 1
        assert len(data["standings"]) == 3
        assert data["equilibrium"] == []
        assert {r["mechanism"] for r in data["rows"]} == {
            "observed", "vcg", "archer-tardos"
        }

    def test_equilibrium_column_prints_no_negative_zero(self, capsys):
        # The equilibria sit at the optimum up to ~1e-14 percent, of
        # either sign; a value that rounds to zero prints as 0.00.
        out = run_cli(capsys, "tournament")
        assert "-0.00" not in out

    def test_percent_format_keeps_real_negatives(self):
        from repro.experiments.tournament import _fmt_percent

        assert _fmt_percent(-2.220446049250313e-14) == "0.00"
        assert _fmt_percent(-0.004) == "0.00"
        assert _fmt_percent(-1.5) == "-1.50"
        assert _fmt_percent(102.876) == "102.88"

    def test_cache_dir_serves_the_second_run(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_cli(capsys, "tournament", "--cache-dir", cache, "--json")
        second = run_cli(capsys, "tournament", "--cache-dir", cache, "--json")
        assert first == second


class TestParser:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_python_dash_m_entry(self):
        import repro.__main__  # noqa: F401  (import must not execute main)
