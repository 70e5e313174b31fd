"""Dijkstra and virtual-node distance tests (networkx as oracle).

The random-graph oracle tests run every instance through both kernel
lanes: as generated (float weights, heap lane) and with its weights
rounded (integer weights, Dial lane).
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro import Graph
from repro.graph import generators
from repro.graph.shortest_paths import (
    dijkstra,
    multi_source_dijkstra,
    path_edges_to_source,
    reconstruct_path,
)

INF = float("inf")


def heap_and_dial(graph: Graph, integer_weighted) -> tuple:
    """``graph`` on the heap lane and its integer rounding on the Dial lane."""
    rounded = integer_weighted(graph)
    assert graph.freeze().int_adjacency is None
    assert rounded.freeze().int_adjacency is not None
    return graph, rounded


def to_networkx(graph: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.nodes())
    for u, v, w in graph.edges():
        nxg.add_edge(u, v, weight=w)
    return nxg


class TestSingleSource:
    def test_path_graph(self, path_graph):
        dist, parent = dijkstra(path_graph, 0)
        assert dist == [0.0, 1.0, 3.0]
        assert parent[0] == -1
        assert reconstruct_path(parent, 2) == [2, 1, 0]

    def test_unreachable(self):
        g = Graph()
        g.add_node()
        g.add_node()
        dist, parent = dijkstra(g, 0)
        assert dist == [0.0, INF]
        assert parent[1] == -1

    def test_early_stop_with_targets(self, star_graph):
        dist, _ = dijkstra(star_graph, 1, targets=[0])
        assert dist[0] == 1.0  # hub reached

    def test_matches_networkx_on_random_graphs(self, integer_weighted):
        for seed in range(8):
            generated = generators.random_graph(30, 60, seed=seed)
            for g in heap_and_dial(generated, integer_weighted):
                nxg = to_networkx(g)
                source = seed % g.num_nodes
                expected = nx.single_source_dijkstra_path_length(nxg, source)
                dist, parent = dijkstra(g, source)
                for node in g.nodes():
                    assert dist[node] == pytest.approx(expected.get(node, INF))
                # Parent pointers reconstruct paths of exactly dist weight.
                for node in g.nodes():
                    if dist[node] == INF or node == source:
                        continue
                    edges = path_edges_to_source(parent, node)
                    total = sum(g.edge_weight(u, v) for u, v in edges)
                    assert total == pytest.approx(dist[node])

    def test_bad_source_raises(self, path_graph):
        with pytest.raises(IndexError):
            dijkstra(path_graph, 99)


class TestMultiSource:
    def test_equivalent_to_virtual_node(self, integer_weighted):
        """Multi-source == Dijkstra from an explicit virtual node."""
        for seed in range(6):
            generated = generators.random_graph(25, 50, seed=seed)
            rng = random.Random(seed)
            sources = rng.sample(range(generated.num_nodes), 4)
            for g in heap_and_dial(generated, integer_weighted):
                dist, _ = multi_source_dijkstra(g, sources)

                # Build the explicit virtual-node graph in networkx.
                nxg = to_networkx(g)
                virtual = "VIRTUAL"
                for s in sources:
                    nxg.add_edge(virtual, s, weight=0.0)
                expected = nx.single_source_dijkstra_path_length(nxg, virtual)
                for node in g.nodes():
                    assert dist[node] == pytest.approx(expected.get(node, INF))

    def test_sources_have_zero_distance(self, star_graph):
        dist, parent = multi_source_dijkstra(star_graph, [1, 2])
        assert dist[1] == 0.0 and dist[2] == 0.0
        assert parent[1] == -1 and parent[2] == -1

    def test_parent_walk_ends_at_a_source(self, star_graph):
        dist, parent = multi_source_dijkstra(star_graph, [1, 2])
        path = reconstruct_path(parent, 3)
        assert path[-1] in (1, 2)
        assert dist[3] == pytest.approx(
            sum(star_graph.edge_weight(u, v) for u, v in zip(path, path[1:]))
        )

