"""QueryContext preprocessing tests."""

from __future__ import annotations

import networkx as nx
import pytest

from repro import Graph, GraphError, GSTQuery, InfeasibleQueryError
from repro.core.context import QueryContext
from repro.graph import generators

INF = float("inf")


def build(graph, labels):
    return QueryContext.build(graph, GSTQuery(labels))


class TestDistances:
    def test_path_graph(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        assert list(ctx.dist[0]) == [0.0, 1.0, 3.0]   # to label x at node 0
        assert list(ctx.dist[1]) == [3.0, 2.0, 0.0]   # to label y at node 2
        assert ctx.k == 2
        assert ctx.full_mask == 0b11

    def test_node_masks(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        assert ctx.node_masks == [0b01, 0, 0b10]

    def test_matches_networkx_virtual_node(self):
        """Per-label preprocessing == Dijkstra from an *independent*
        virtual node (one at a time — Section 3.1, not the enhanced
        graph of Section 4.1)."""
        for seed in range(5):
            g = generators.random_graph(
                25, 45, num_query_labels=3, label_frequency=3, seed=seed
            )
            ctx = build(g, ["q0", "q1", "q2"])
            for i in range(3):
                nxg = nx.Graph()
                for u, v, w in g.edges():
                    nxg.add_edge(u, v, weight=w)
                for node in g.nodes_with_label(f"q{i}"):
                    nxg.add_edge(("virt", i), node, weight=0.0)
                expected = nx.single_source_dijkstra_path_length(
                    nxg, ("virt", i)
                )
                for node in g.nodes():
                    assert ctx.dist[i][node] == pytest.approx(
                        expected.get(node, INF)
                    )

    def test_build_seconds_recorded(self, path_graph):
        ctx = build(path_graph, ["x"])
        assert ctx.build_seconds >= 0.0


class TestFeasibility:
    def test_connected_is_feasible(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        assert ctx.check_feasible_from(0)
        assert ctx.any_feasible_root() is not None
        ctx.require_feasible()

    def test_split_labels_infeasible(self):
        g = Graph()
        g.add_node(labels=["x"])
        g.add_node(labels=["y"])
        ctx = build(g, ["x", "y"])
        assert ctx.any_feasible_root() is None
        with pytest.raises(InfeasibleQueryError):
            ctx.require_feasible()

    def test_feasible_in_one_component(self, disconnected_graph):
        ctx = build(disconnected_graph, ["x", "y"])
        # Component {c1,d1,e1} covers both labels.
        assert ctx.any_feasible_root() is not None
        ctx.require_feasible()


class TestShortestPathEdges:
    def test_path_to_label(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        edges = ctx.shortest_path_edges(1, 0)  # from node 0 to label y
        total = sum(w for _, _, w in edges)
        assert total == pytest.approx(3.0)
        # Path is node0 -> node1 -> node2.
        assert [(u, v) for u, v, _ in edges] == [(0, 1), (1, 2)]

    def test_zero_path_when_node_carries_label(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        assert ctx.shortest_path_edges(0, 0) == []

    def test_unreachable_raises(self):
        g = Graph()
        g.add_node(labels=["x"])
        g.add_node(labels=["y"])
        ctx = build(g, ["x", "y"])
        with pytest.raises(ValueError):
            ctx.shortest_path_edges(1, 0)

    def test_parent_hop_without_edge_raises(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        parents = list(ctx.parent[1])
        parents[0] = 2  # nodes 0 and 2 are not adjacent
        ctx.parent[1] = parents
        with pytest.raises(GraphError):
            ctx.shortest_path_edges(1, 0)

    def test_path_weight_equals_distance_everywhere(self):
        g = generators.random_graph(
            30, 60, num_query_labels=2, label_frequency=3, seed=9
        )
        ctx = build(g, ["q0", "q1"])
        for node in g.nodes():
            for i in range(2):
                edges = ctx.shortest_path_edges(i, node)
                total = sum(w for _, _, w in edges)
                assert total == pytest.approx(ctx.dist[i][node])
                assert all(w == g.edge_weight(u, v) for u, v, w in edges)
                # The far end carries the label.
                end = edges[-1][1] if edges else node
                assert g.has_label(end, f"q{i}")


class TestNearestLabel:
    def test_nearest(self, path_graph):
        ctx = build(path_graph, ["x", "y"])
        assert ctx.nearest_label_distance(1) == 1.0
        assert ctx.nearest_label_distance(0) == 0.0
