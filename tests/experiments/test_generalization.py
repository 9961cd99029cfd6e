"""Unit tests for the generalization study."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.generalization import (
    GeneralizationResult,
    generalization_study,
)


@pytest.fixture(scope="module")
def study():
    return generalization_study(
        np.random.default_rng(0), n_configurations=100
    )


class TestStructuralClaims:
    """Theorem-backed claims must hold on every random configuration."""

    def test_true1_always_minimum(self, study):
        assert study.true1_is_minimum == 1.0

    def test_c1_utility_always_peaks_at_true1(self, study):
        assert study.c1_utility_peaks_at_true1 == 1.0

    def test_vp_always_holds(self, study):
        assert study.vp_holds == 1.0

    def test_high_ordering_always_holds(self, study):
        assert study.high_ordering_holds == 1.0

    def test_summary_helper(self, study):
        assert study.structural_claims_universal()


class TestConfigurationDependentClaims:
    def test_most_configs_match_the_paper(self, study):
        # On Table-1-like ensembles the paper's observations mostly
        # generalise...
        assert study.low2_is_worst >= 0.9
        assert study.frugality_within_2_5 >= 0.9
        assert study.low2_utility_negative >= 0.9

    def test_frugality_band_fails_on_small_dominated_systems(self):
        # ...but the <=2.5x frugality claim is a configuration artefact:
        # tiny, highly heterogeneous systems exceed it routinely
        # (closed form 1 + sum s/(S-s) blows up under dominance).
        study = generalization_study(
            np.random.default_rng(1),
            n_configurations=100,
            n_machines_range=(2, 4),
            t_range=(1.0, 100.0),
        )
        assert study.frugality_within_2_5 < 0.8
        # Theorems are indifferent to the configuration distribution.
        assert study.structural_claims_universal()

    def test_result_fields_are_fractions(self, study):
        for name in (
            "true1_is_minimum",
            "low2_is_worst",
            "frugality_within_2_5",
            "low2_utility_negative",
        ):
            value = getattr(study, name)
            assert 0.0 <= value <= 1.0


class TestPinnedResults:
    """Fractions pinned for fixed seeds; sizes up to 64 over 60 draws
    leave most sizes with a single configuration."""

    FIELDS = (
        "true1_is_minimum", "c1_utility_peaks_at_true1", "vp_holds",
        "high_ordering_holds", "low2_is_worst", "frugality_within_2_5",
        "low2_utility_negative",
    )

    @pytest.mark.parametrize(
        "seed, counts",
        [
            (0, (60, 60, 60, 60, 60, 55, 59)),
            (1, (60, 60, 60, 60, 59, 58, 58)),
            (2, (60, 60, 60, 60, 58, 53, 55)),
        ],
    )
    def test_study_matches_pinned_counts(self, seed, counts):
        study = generalization_study(
            np.random.default_rng(seed),
            n_configurations=60,
            n_machines_range=(2, 64),
            t_range=(1.0, 100.0),
        )
        expected = GeneralizationResult(
            n_configurations=60,
            **{name: count / 60 for name, count in zip(self.FIELDS, counts)},
        )
        assert study == expected


class TestValidation:
    def test_bad_parameters(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generalization_study(rng, n_configurations=0)
        with pytest.raises(ValueError):
            generalization_study(rng, n_machines_range=(1, 4))
        with pytest.raises(ValueError):
            generalization_study(rng, load_per_machine=0.0)

    def test_reproducible(self):
        a = generalization_study(np.random.default_rng(5), n_configurations=20)
        b = generalization_study(np.random.default_rng(5), n_configurations=20)
        assert a == b

    def test_result_type(self, study):
        assert isinstance(study, GeneralizationResult)
        assert study.n_configurations == 100
