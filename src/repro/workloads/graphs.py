"""Graph workloads for the 3-colourability hardness family (Theorem 5.4).

Graphs are plain edge lists built with the standard library.  Each
generator lists the same edges, in the same order, as ``Graph.edges()`` of
its :mod:`networkx` namesake (tests/workloads/test_graphs.py compares them
when networkx is installed), so seeded workloads keep their exact shape.
The 3-colourability check is an independent small backtracking search
(greedy colouring can only give an upper bound — the graphs in the workloads
are tiny).
"""

from __future__ import annotations

import itertools
import random
from typing import Hashable, Iterable

from repro.exceptions import WorkloadError

__all__ = [
    "Edge",
    "cycle_graph",
    "complete_graph",
    "wheel_graph",
    "petersen_graph",
    "random_graph",
    "bipartite_graph",
    "is_three_colorable",
]

Edge = tuple[Hashable, Hashable]

_PETERSEN: tuple[Edge, ...] = (
    (0, 1), (0, 4), (0, 5), (1, 2), (1, 6), (2, 3), (2, 7), (3, 4),
    (3, 8), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9), (7, 9),
)


def cycle_graph(length: int) -> list[Edge]:
    """The cycle on *length* vertices (3-colourable; 2-colourable iff even)."""
    if length < 3:
        raise WorkloadError("cycle graphs need at least three vertices")
    return [(0, 1), (0, length - 1)] + [(i, i + 1) for i in range(1, length - 1)]


def complete_graph(size: int) -> list[Edge]:
    """The complete graph ``K_size`` (3-colourable iff ``size ≤ 3``)."""
    if size < 2:
        raise WorkloadError("complete graphs need at least two vertices")
    return list(itertools.combinations(range(size), 2))


def wheel_graph(size: int) -> list[Edge]:
    """The wheel on ``size`` rim vertices (3-colourable iff the rim is even)."""
    if size < 3:
        raise WorkloadError("wheel graphs need at least three rim vertices")
    # Hub 0 with spokes to the rim 1..size, then the rim cycle shifted by one.
    spokes: list[Edge] = [(0, rim) for rim in range(1, size + 1)]
    return spokes + [(u + 1, v + 1) for u, v in cycle_graph(size)]


def petersen_graph() -> list[Edge]:
    """The Petersen graph (3-colourable)."""
    return list(_PETERSEN)


def bipartite_graph(left: int, right: int) -> list[Edge]:
    """The complete bipartite graph ``K_{left,right}`` (always 2-colourable)."""
    if left < 1 or right < 1:
        raise WorkloadError("both sides of a bipartite graph need at least one vertex")
    return list(itertools.product(range(left), range(left, left + right)))


def random_graph(vertices: int, edge_probability: float, seed: int | None = None) -> list[Edge]:
    """An Erdős–Rényi graph ``G(vertices, edge_probability)`` without isolated self-loops."""
    if vertices < 2:
        raise WorkloadError("random graphs need at least two vertices")
    if not 0 <= edge_probability <= 1:
        raise WorkloadError("the edge probability must lie in [0, 1]")
    # The edge stream is seeded by one draw from *seed*'s stream, which keeps
    # the edges equal to networkx's ``gnp_random_graph(n, p, seed=draw)``.
    edge_rng = random.Random(random.Random(seed).randrange(2**30))
    edges: list[Edge] = [
        pair
        for pair in itertools.combinations(range(vertices), 2)
        if edge_rng.random() < edge_probability
    ]
    if not edges:
        # Guarantee at least one edge so the reduction is well-defined.
        edges = [(0, 1)]
    return edges


def is_three_colorable(edges: Iterable[Edge]) -> bool:
    """Exact 3-colourability check by backtracking (independent of the reduction)."""
    edge_list = list(edges)
    vertices: list[Hashable] = sorted({v for edge in edge_list for v in edge}, key=str)
    adjacency: dict[Hashable, set[Hashable]] = {vertex: set() for vertex in vertices}
    for source, target in edge_list:
        if source == target:
            return False
        adjacency[source].add(target)
        adjacency[target].add(source)

    coloring: dict[Hashable, int] = {}

    def assign(index: int) -> bool:
        if index == len(vertices):
            return True
        vertex = vertices[index]
        for color in range(3):
            if all(coloring.get(neighbor) != color for neighbor in adjacency[vertex]):
                coloring[vertex] = color
                if assign(index + 1):
                    return True
                del coloring[vertex]
        return False

    return assign(0)
