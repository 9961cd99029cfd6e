"""Unit tests for the overlay topologies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import random_tree_overlay, star_overlay, tree_overlay
from repro.distributed.topology import ROOT, Overlay


class TestStarOverlay:
    def test_shape(self):
        overlay = star_overlay(5)
        assert overlay.n_machines == 5
        assert overlay.n_edges == 5
        assert overlay.depth() == 1

    def test_all_machines_children_of_root(self):
        overlay = star_overlay(4)
        assert sorted(overlay.children(ROOT)) == [0, 1, 2, 3]

    def test_single_machine(self):
        assert star_overlay(1).n_machines == 1

    def test_zero_machines_rejected(self):
        with pytest.raises(ValueError):
            star_overlay(0)


class TestTreeOverlay:
    def test_binary_tree_depth_logarithmic(self):
        overlay = tree_overlay(30, arity=2)
        assert overlay.n_machines == 30
        assert overlay.depth() <= 5  # ~log2(30) + 1

    def test_unary_tree_is_a_chain(self):
        overlay = tree_overlay(5, arity=1)
        assert overlay.depth() == 5

    def test_every_node_has_at_most_arity_children(self):
        overlay = tree_overlay(50, arity=3)
        for node in overlay.bottom_up_order():
            assert len(overlay.children(node)) <= 3

    def test_invalid_arity(self):
        with pytest.raises(ValueError):
            tree_overlay(5, arity=0)


class TestRandomTreeOverlay:
    def test_is_a_tree(self, rng):
        overlay = random_tree_overlay(40, rng)
        assert overlay.n_machines == 40
        assert sorted(overlay.parent) == list(range(40))
        for node in overlay.parent:  # every machine reaches the root
            path = [node]
            while path[-1] != ROOT:
                path.append(overlay.parent[path[-1]])
            assert len(path) == len(set(path)) <= overlay.depth() + 1

    def test_reproducible(self):
        a = random_tree_overlay(20, np.random.default_rng(5))
        b = random_tree_overlay(20, np.random.default_rng(5))
        assert a.parent == b.parent


class TestOverlayOperations:
    def test_bottom_up_order_children_first(self):
        overlay = tree_overlay(10, arity=2)
        order = overlay.bottom_up_order()
        position = {node: k for k, node in enumerate(order)}
        for child, parent in overlay.parent.items():
            assert position[child] < position[parent]
        assert order[-1] == ROOT

    def test_non_tree_rejected(self):
        # Machines 1-3 form a cycle that never reaches the root.
        with pytest.raises(ValueError, match="tree"):
            Overlay(parent={0: ROOT, 1: 2, 2: 3, 3: 1})

    def test_unknown_parent_rejected(self):
        with pytest.raises(ValueError, match="tree"):
            Overlay(parent={0: ROOT, 1: 7})

    def test_missing_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            Overlay(parent={0: 1, 1: 2, 2: 0})

    def test_root_with_a_parent_rejected(self):
        with pytest.raises(ValueError, match="root"):
            Overlay(parent={0: ROOT, ROOT: 0})


class TestPinnedShapes:
    """Children ascending, bottom-up = reversed breadth-first order."""

    @pytest.mark.parametrize(
        "overlay, children, bottom_up, depth",
        [
            (star_overlay(4), {ROOT: [0, 1, 2, 3]}, [3, 2, 1, 0, ROOT], 1),
            (
                tree_overlay(7),
                {ROOT: [0, 1], 0: [2, 3], 1: [4, 5], 2: [6]},
                [6, 5, 4, 3, 2, 1, 0, ROOT],
                3,
            ),
            (
                tree_overlay(8, arity=3),
                {ROOT: [0, 1, 2], 0: [3, 4, 5], 1: [6, 7]},
                [7, 6, 5, 4, 3, 2, 1, 0, ROOT],
                2,
            ),
            (
                random_tree_overlay(8, np.random.default_rng(3)),
                {ROOT: [0, 2, 3], 0: [1, 4, 5], 4: [6], 5: [7]},
                [7, 6, 5, 4, 1, 3, 2, 0, ROOT],
                3,
            ),
        ],
        ids=["star4", "binary7", "ternary8", "random8"],
    )
    def test_children_and_orders(self, overlay, children, bottom_up, depth):
        assert {
            node: overlay.children(node)
            for node in overlay.bottom_up_order()[::-1]
            if overlay.children(node)
        } == children
        assert overlay.bottom_up_order() == bottom_up
        assert overlay.depth() == depth
