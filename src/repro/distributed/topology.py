"""Overlay topologies for the distributed protocol.

An overlay is a rooted spanning tree over the participating machines
plus the mechanism root.  The tree shape determines the protocol's
latency (its depth) but not its message count (always one message per
edge per direction per round) — the trade-off quantified by
``bench_distributed.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Overlay", "star_overlay", "tree_overlay", "random_tree_overlay"]

ROOT = "root"


@dataclass(frozen=True)
class Overlay:
    """A rooted spanning tree over ``n`` machine nodes (``0 .. n-1``).

    Attributes
    ----------
    parent:
        Parent of each machine node on the path to the distinguished
        ``"root"`` node (the root itself has no entry).  The map alone
        defines the tree; children, depth and the breadth-first orders
        are derived from it once, at construction, with every node's
        children in ascending order.
    """

    parent: dict[int, int | str]

    def __post_init__(self) -> None:
        if ROOT not in self.parent.values():
            raise ValueError("overlay must contain the root node")
        if ROOT in self.parent:
            raise ValueError("the root node has no parent")
        children: dict[int | str, list[int | str]] = {
            node: [] for node in (ROOT, *self.parent)
        }
        for node in sorted(self.parent):
            children.setdefault(self.parent[node], []).append(node)
        order: list[int | str] = [ROOT]
        depth = {ROOT: 0}
        for node in order:  # breadth-first: the list grows as it is walked
            for child in children[node]:
                depth[child] = depth[node] + 1
                order.append(child)
        if len(order) != len(children):
            raise ValueError("overlay must be a tree: every node reaches the root")
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_depth", max(depth.values()))

    @property
    def n_machines(self) -> int:
        """Number of machine nodes (root excluded)."""
        return len(self.parent)

    @property
    def n_edges(self) -> int:
        """Number of tree edges (one per machine node)."""
        return len(self.parent)

    def children(self, node: int | str) -> list[int | str]:
        """Children of ``node`` in the rooted tree, ascending."""
        return list(self._children[node])

    def depth(self) -> int:
        """Longest root-to-leaf path (protocol latency in hops)."""
        return self._depth

    def bottom_up_order(self) -> list[int | str]:
        """Nodes ordered so every child precedes its parent (root last)."""
        return self._order[::-1]


def _check_size(n_machines: int) -> None:
    if n_machines < 1:
        raise ValueError("n_machines must be at least 1")


def star_overlay(n_machines: int) -> Overlay:
    """Every machine talks directly to the root (the centralised shape)."""
    _check_size(n_machines)
    return Overlay({k: ROOT for k in range(n_machines)})


def tree_overlay(n_machines: int, arity: int = 2) -> Overlay:
    """Balanced ``arity``-ary tree rooted at the mechanism node."""
    _check_size(n_machines)
    if arity < 1:
        raise ValueError("arity must be at least 1")
    # The first `arity` machines attach to the root; machine k >= arity
    # attaches to machine (k - arity) // arity, filling levels in order.
    return Overlay(
        {k: ROOT if k < arity else (k - arity) // arity for k in range(n_machines)}
    )


def random_tree_overlay(n_machines: int, rng: np.random.Generator) -> Overlay:
    """Uniform random recursive tree: node k attaches to a random earlier node."""
    _check_size(n_machines)
    parent: dict[int, int | str] = {}
    for k in range(n_machines):
        pick = int(rng.integers(0, k + 1))  # 0 is the root, j > 0 machine j-1
        parent[k] = ROOT if pick == 0 else pick - 1
    return Overlay(parent)
