"""Unit tests for the utility-landscape analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.landscape import utility_landscape


class TestTruthfulLandscape:
    def test_truth_is_the_global_maximum(self, mechanism, small_true_values):
        landscape = utility_landscape(mechanism, small_true_values, 10.0, 0)
        assert landscape.max_utility <= landscape.utility_at_truth() + 1e-9
        bid_at_max, exec_at_max = landscape.argmax
        assert bid_at_max == pytest.approx(1.0, rel=0.15)
        assert exec_at_max == 1.0

    def test_utility_decreases_away_from_truth_in_execution(
        self, mechanism, small_true_values
    ):
        landscape = utility_landscape(
            mechanism, small_true_values, 10.0, 0,
            bid_factors=np.array([1.0]),
            exec_factors=np.linspace(1.0, 3.0, 9),
        )
        column = landscape.utilities[0]
        assert np.all(np.diff(column) < 0.0)

    def test_landscape_shape(self, mechanism, small_true_values):
        landscape = utility_landscape(
            mechanism, small_true_values, 10.0, 1,
            bid_factors=np.array([0.5, 1.0, 2.0]),
            exec_factors=np.array([1.0, 2.0]),
        )
        assert landscape.utilities.shape == (3, 2)
        assert landscape.agent == 1


class TestDeclaredLandscape:
    def test_maximum_moved_off_truth(self, declared_mechanism, small_true_values):
        landscape = utility_landscape(
            declared_mechanism, small_true_values, 10.0, 0
        )
        assert landscape.max_utility > landscape.utility_at_truth() + 1e-9
        bid_at_max, _ = landscape.argmax
        assert bid_at_max > 1.0  # overbidding region


class TestRendering:
    def test_render_contains_grid(self, mechanism, small_true_values):
        landscape = utility_landscape(
            mechanism, small_true_values, 10.0, 0,
            bid_factors=np.array([0.5, 1.0, 2.0]),
            exec_factors=np.array([1.0, 2.0]),
        )
        art = landscape.render()
        assert "exec\\bid" in art
        assert len(art.splitlines()) == 3  # header + one row per exec factor
        assert "#" in art  # the maximum glyph appears somewhere


class TestValidation:
    def test_exec_factor_below_one_rejected(self, mechanism, small_true_values):
        with pytest.raises(ValueError, match="capacity"):
            utility_landscape(
                mechanism, small_true_values, 10.0, 0,
                exec_factors=np.array([0.5, 1.0]),
            )

    def test_agent_index_checked(self, mechanism, small_true_values):
        with pytest.raises(IndexError):
            utility_landscape(mechanism, small_true_values, 10.0, 9)
