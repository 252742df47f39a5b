"""Unit tests for the graph workloads and the exact 3-colourability checker."""

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.graphs import (
    bipartite_graph,
    complete_graph,
    cycle_graph,
    is_three_colorable,
    petersen_graph,
    random_graph,
    wheel_graph,
)


class TestGenerators:
    def test_cycle_graph(self):
        assert len(cycle_graph(5)) == 5
        with pytest.raises(WorkloadError):
            cycle_graph(2)

    def test_complete_graph(self):
        assert len(complete_graph(4)) == 6
        with pytest.raises(WorkloadError):
            complete_graph(1)

    def test_wheel_graph(self):
        assert len(wheel_graph(5)) == 10
        with pytest.raises(WorkloadError):
            wheel_graph(2)

    def test_bipartite_graph(self):
        assert len(bipartite_graph(2, 3)) == 6
        with pytest.raises(WorkloadError):
            bipartite_graph(0, 3)

    def test_petersen_graph(self):
        assert len(petersen_graph()) == 15

    def test_random_graph_is_seeded_and_never_empty(self):
        assert random_graph(6, 0.4, seed=1) == random_graph(6, 0.4, seed=1)
        assert len(random_graph(5, 0.0, seed=2)) >= 1
        with pytest.raises(WorkloadError):
            random_graph(1, 0.5)
        with pytest.raises(WorkloadError):
            random_graph(5, 1.5)


class TestThreeColorability:
    @pytest.mark.parametrize(
        "edges, expected",
        [
            (complete_graph(3), True),
            (complete_graph(4), False),
            (complete_graph(5), False),
            (cycle_graph(5), True),
            (cycle_graph(6), True),
            (bipartite_graph(3, 3), True),
            (wheel_graph(6), True),    # even rim: 3-colourable
            (wheel_graph(5), False),   # odd rim: needs 4 colours
            (petersen_graph(), True),
        ],
    )
    def test_known_graphs(self, edges, expected):
        assert is_three_colorable(edges) == expected

    def test_self_loops_are_never_colorable(self):
        assert not is_three_colorable([(1, 1)])

    def test_empty_edge_set_is_colorable(self):
        assert is_three_colorable([])


class TestNetworkxParity:
    """The stdlib generators list the same edges, in the same order, as networkx."""

    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def _edges(graph):
        return [(source, target) for source, target in graph.edges()]

    def test_structured_generators(self, nx):
        for size in range(3, 10):
            assert cycle_graph(size) == self._edges(nx.cycle_graph(size))
            assert wheel_graph(size) == self._edges(nx.wheel_graph(size + 1))
        for size in range(2, 10):
            assert complete_graph(size) == self._edges(nx.complete_graph(size))
        for left in range(1, 5):
            for right in range(1, 5):
                expected = self._edges(nx.complete_bipartite_graph(left, right))
                assert bipartite_graph(left, right) == expected
        assert petersen_graph() == self._edges(nx.petersen_graph())

    @pytest.mark.parametrize("probability", [0.0, 0.2, 0.5, 0.8, 1.0])
    def test_random_graph(self, nx, probability):
        import random

        for vertices in range(2, 12):
            for seed in range(5):
                inner_seed = random.Random(seed).randrange(2**30)
                graph = nx.gnp_random_graph(vertices, probability, seed=inner_seed)
                expected = self._edges(graph) or [(0, 1)]
                assert random_graph(vertices, probability, seed=seed) == expected
