"""Unit tests for frugality analysis."""

from __future__ import annotations

import pytest

from repro.analysis import frugality_across_mechanisms
from repro.mechanism import (
    ArcherTardosMechanism,
    VCGMechanism,
    VerificationMechanism,
)
from repro.system.cluster import paper_cluster


class TestFrugalityAcrossMechanisms:
    def test_all_three_mechanisms_coincide_on_truth(self):
        # At the truthful profile all three payment rules are identical
        # (VCG == AT algebraically; verification == VCG when execution
        # matches bids), so truthful frugality is mechanism-independent.
        t = paper_cluster().true_values
        records = frugality_across_mechanisms(
            {
                "verification": VerificationMechanism(),
                "vcg": VCGMechanism(),
                "archer-tardos": ArcherTardosMechanism(),
            },
            t,
            20.0,
        )
        ratios = [r.ratio for r in records]
        assert ratios[0] == pytest.approx(ratios[1])
        assert ratios[1] == pytest.approx(ratios[2])
        assert 1.0 <= ratios[0] <= 2.5

    def test_labels_preserved(self):
        records = frugality_across_mechanisms(
            {"only": VerificationMechanism()}, paper_cluster().true_values, 20.0
        )
        assert records[0].label == "only"
