"""Unit tests for the one-call reproduction checker."""

from __future__ import annotations

import pytest

from repro.experiments import verify_reproduction
from repro.experiments.paper_check import ClaimCheck, ReproductionReport


@pytest.fixture(scope="module")
def report():
    return verify_reproduction()


class TestVerifyReproduction:
    def test_all_claims_pass(self, report):
        assert report.all_passed, [c.claim for c in report.failures()]

    def test_fifteen_claims_checked(self, report):
        assert len(report.checks) == 15
        assert report.n_passed == 15

    def test_covers_both_theorems(self, report):
        claims = " | ".join(c.claim for c in report.checks)
        assert "Theorem 3.1" in claims
        assert "Theorem 3.2" in claims

    def test_covers_every_figure(self, report):
        claims = " | ".join(c.claim for c in report.checks)
        for figure in ("Fig 1", "Fig 2", "Fig 4", "Fig 5", "Fig 6"):
            assert figure in claims

    def test_measured_values_are_strings(self, report):
        for check in report.checks:
            assert isinstance(check.measured, str)
            assert isinstance(check.paper_value, str)


class TestReportStructure:
    def test_failures_listed(self):
        report = ReproductionReport(
            checks=(
                ClaimCheck("a", "1", "1", True),
                ClaimCheck("b", "2", "3", False),
            )
        )
        assert not report.all_passed
        assert report.n_passed == 1
        assert [c.claim for c in report.failures()] == ["b"]

    def test_rendered_report_flags_failures(self):
        from repro.experiments import render_claims

        report = ReproductionReport(
            checks=(
                ClaimCheck("a", "1", "1", True),
                ClaimCheck("b", "2", "3", False),
            )
        )
        lines = render_claims(report).splitlines()
        assert lines[0] == "Reproduction report: 1/2 claims pass."
        assert lines[-1] == "FAILURES PRESENT — see rows marked FAIL."


class TestCliVerify:
    def test_cli_reports_all_pass(self, capsys):
        from repro.cli import main

        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "15/15 claims pass" in out
        assert "FAIL" not in out.replace("FAILURES PRESENT", "")
