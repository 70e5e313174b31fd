"""Dijkstra and virtual-node distance tests (networkx as oracle).

The random-graph oracle tests run every instance under each weight
class of ``conftest.weight_classes``: as generated, rounded, with zero
arcs, log-uniform and in tenths.  Tie-breaking among equal-length paths
is pinned by parent-array digests.
"""

from __future__ import annotations

import hashlib
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


def to_networkx(graph: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.nodes())
    for u, v, w in graph.edges():
        nxg.add_edge(u, v, weight=w)
    return nxg


class TestSingleSource:
    def test_path_graph(self, path_graph):
        dist, parent = dijkstra(path_graph, 0)
        assert list(dist) == [0.0, 1.0, 3.0]
        assert parent[0] == -1
        assert reconstruct_path(parent, 2) == [2, 1, 0]

    def test_unreachable(self):
        g = Graph()
        g.add_node()
        g.add_node()
        dist, parent = dijkstra(g, 0)
        assert list(dist) == [0.0, INF]
        assert parent[1] == -1

    def test_early_stop_with_targets(self, star_graph):
        dist, _ = dijkstra(star_graph, 1, targets=[0])
        assert dist[0] == 1.0  # hub reached

    def test_matches_networkx_on_random_graphs(self, reweighted):
        for seed in range(8):
            generated = generators.random_graph(30, 60, seed=seed)
            for g in reweighted(generated, seed).values():
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
    def test_equivalent_to_virtual_node(self, reweighted):
        """Multi-source == Dijkstra from an explicit virtual node."""
        for seed in range(6):
            generated = generators.random_graph(25, 50, seed=seed)
            rng = random.Random(seed)
            sources = rng.sample(range(generated.num_nodes), 4)
            for g in reweighted(generated, seed).values():
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


# sha256 (first 16 hex digits) of each label's parent array, joined with
# commas, as recorded from a binary-heap Dijkstra (float weights) and
# Dial's integer bucket queue (integer weights).  Among equal-length
# paths the kernel keeps the first parent it relaxes from, so these pin
# its tie-breaking: every feasible tree is built from these parent walks.
PARENT_DIGESTS = {
    ("dblp_like", "q0"): "cbc7b86cbefc7ceb",
    ("dblp_like", "q1"): "38905ed27780bc58",
    ("dblp_like", "q2"): "537f7d3669c6aa53",
    ("dblp_like", "q3"): "385a14093041168d",
    ("powerlaw", "q0"): "82b8abc81551597f",
    ("powerlaw", "q1"): "4853127a4f1d952a",
    ("powerlaw", "q2"): "2e147933b85cb7a7",
    ("powerlaw", "q3"): "62d44379b75aaa07",
}


class TestTieBreaking:
    def test_parent_arrays_match_recorded_digests(self):
        graphs = {
            # Weights 1.0 and 2.0: a bucket per integer distance.
            "dblp_like": generators.dblp_like(
                200, 150, num_query_labels=4, label_frequency=8, seed=5
            ),
            # Weights uniform over [1, 4): buckets hold many distances.
            "powerlaw": generators.powerlaw(
                400, num_query_labels=4, label_frequency=8, seed=5
            ),
        }
        for (name, label), expected in PARENT_DIGESTS.items():
            graph = graphs[name]
            members = sorted(graph.nodes_with_label(label))
            _, parent = multi_source_dijkstra(graph, members)
            text = ",".join(map(str, parent))
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert digest == expected, (name, label)
