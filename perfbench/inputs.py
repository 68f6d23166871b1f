"""Seeded inputs for every workload.

Everything the program sees is generated here from ``--seed``: the same
seed gives the same facts, goals, update stream and op order.  Sizes do
not depend on the seed, only which nodes and edges are drawn, so runs
with different seeds do the same amount of work in distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ANC_PROGRAM = """
anc(X,Y) :- par(X,Y).
anc(X,Y) :- par(X,Z), anc(Z,Y).
"""

SG_PROGRAM = """
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,U), sg(U,V), down(V,Y).
"""

TC_PROGRAM = """
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
"""

VIEW_PROGRAM = """
hop2(X,Y) :- e(X,Z), e(Z,Y).
"""


def facts_text(predicate: str, rows) -> str:
    return "\n".join(
        f"{predicate}({', '.join(str(v) for v in row)})." for row in rows
    )


@dataclass
class Forest:
    """A random-window forest: node ``j`` of a tree has its parent drawn
    uniformly from the ``window`` nodes numbered just below it, so depth
    (the ancestor-cone size of ``anc(c, X)?``) grows smoothly with ``j``
    and no percentile sits on a cliff between two query classes.

    ``parent`` maps child to parent; facts are ``par(child, parent)``.
    """

    trees: int
    tree_size: int
    window: int
    parent: dict[int, int]

    def par_rows(self):
        return sorted(self.parent.items())

    def reparent(self, rng: random.Random) -> tuple[tuple, tuple]:
        """Pick a non-root node and a new parent inside its window.

        Returns ``(removed_edge, added_edge)``; the forest stays a
        forest and keeps its depth distribution.
        """
        while True:
            child = rng.choice(self._children)
            local = child % self.tree_size
            base = child - local
            new = base + rng.randint(max(0, local - self.window), local - 1)
            old = self.parent[child]
            if new != old:
                self.parent[child] = new
                return (child, old), (child, new)

    def __post_init__(self) -> None:
        self._children = sorted(self.parent)


def forest(rng: random.Random, trees: int, tree_size: int, window: int) -> Forest:
    parent = {}
    for tree in range(trees):
        base = tree * tree_size
        for local in range(1, tree_size):
            parent[base + local] = base + rng.randint(
                max(0, local - window), local - 1
            )
    return Forest(trees, tree_size, window, parent)


@dataclass(frozen=True)
class SgTree:
    """A balanced tree for same-generation: ``up(child, parent)``,
    ``down(parent, child)``, ``flat`` between the root's children."""

    up: tuple
    down: tuple
    flat: tuple
    nodes: tuple

    def source(self) -> str:
        return "\n".join(
            facts_text(name, rows)
            for name, rows in (("up", self.up), ("down", self.down), ("flat", self.flat))
        )


def sg_tree(depth: int, branching: int, first: int = 0) -> SgTree:
    edges = []
    frontier = [first]
    nxt = first + 1
    for _ in range(depth):
        level = []
        for node in frontier:
            for _ in range(branching):
                edges.append((node, nxt))
                level.append(nxt)
                nxt += 1
        frontier = level
    children = [v for u, v in edges if u == first]
    flat = tuple((a, b) for a in children for b in children if a != b)
    return SgTree(
        up=tuple((v, u) for u, v in edges),
        down=tuple(edges),
        flat=flat,
        nodes=tuple(range(first, nxt)),
    )


def window_dag(
    rng: random.Random, components: int, size: int, out_degree: int, window: int
) -> set[tuple[int, int]]:
    """Disjoint random DAGs: each node links forward to ``out_degree``
    nodes within ``window`` positions of it, inside its component."""
    edges = set()
    for comp in range(components):
        base = comp * size
        for local in range(size - 1):
            hi = min(size - 1, local + window)
            targets = rng.sample(range(local + 1, hi + 1), min(out_degree, hi - local))
            for t in targets:
                edges.add((base + local, base + t))
    return edges

