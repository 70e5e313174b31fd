"""AllPaths (Algorithm 3) route-table tests.

Two independent oracles: Dijkstra on the materialized label-enhanced
graph (networkx) for the virtual distances, and brute-force route
enumeration for the closed tables.  The networkx checks run every
instance as generated (float weights) and with its weights rounded
(integer weights).
"""

from __future__ import annotations


import networkx as nx
import pytest

from repro import Graph, GSTQuery, QueryError
from repro.core.allpaths import MAX_ALLPATHS_LABELS, RouteTables
from repro.core.bruteforce import brute_force_route
from repro.core.context import QueryContext
from repro.core.state import iter_bits
from repro.graph import generators

INF = float("inf")


def context_of(graph, k):
    return QueryContext.build(graph, GSTQuery([f"q{i}" for i in range(k)]))


def virtual_distance(graph, labels):
    context = QueryContext.build(graph, GSTQuery(labels))
    return RouteTables.build(context).virtual_distance


class TestSmallCases:
    def test_singleton_route_is_zero(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        tables = RouteTables.build(context_of(g, 2))
        assert tables.route(0, 0, 0b01) == 0.0
        assert tables.route(1, 1, 0b10) == 0.0
        assert tables.tour(0, 0b01) == 0.0

    def test_pair_route_is_virtual_distance(self):
        g = generators.random_graph(10, 18, num_query_labels=3, seed=1)
        tables = RouteTables.build(context_of(g, 3))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                mask = (1 << i) | (1 << j)
                assert tables.route(i, j, mask) == pytest.approx(
                    tables.virtual_distance[i][j]
                )

    def test_route_requires_start_in_mask(self):
        g = generators.random_graph(8, 12, num_query_labels=2, seed=0)
        tables = RouteTables.build(context_of(g, 2))
        with pytest.raises(KeyError):
            tables.route(0, 1, 0b10)
        with pytest.raises(KeyError):
            tables.tour(1, 0b01)

    def test_too_many_labels_rejected(self):
        g = generators.random_graph(
            40, 80, num_query_labels=MAX_ALLPATHS_LABELS + 1, label_frequency=2, seed=0
        )
        with pytest.raises(QueryError):
            RouteTables.build(context_of(g, MAX_ALLPATHS_LABELS + 1))

    def test_num_entries_positive(self):
        g = generators.random_graph(10, 18, num_query_labels=3, seed=2)
        tables = RouteTables.build(context_of(g, 3))
        assert tables.num_entries > 0
        assert tables.build_seconds >= 0.0


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_full_table_matches_permutation_enumeration(self, seed):
        k = 4
        g = generators.random_graph(
            14, 26, num_query_labels=k, label_frequency=2, seed=seed
        )
        tables = RouteTables.build(context_of(g, k))
        dist = tables.virtual_distance
        full = (1 << k) - 1
        for mask in range(1, full + 1):
            bits = list(iter_bits(mask))
            for i in bits:
                for j in bits:
                    if i == j and len(bits) > 1:
                        continue
                    expected = brute_force_route(dist, i, j, bits)
                    got = tables.route(i, j, mask)
                    assert got == pytest.approx(expected), (mask, i, j)

    def test_tour_is_min_over_endpoints(self):
        k = 4
        g = generators.random_graph(
            14, 26, num_query_labels=k, label_frequency=2, seed=11
        )
        tables = RouteTables.build(context_of(g, k))
        full = (1 << k) - 1
        for mask in range(1, full + 1):
            bits = list(iter_bits(mask))
            for i in bits:
                expected = min(tables.route_row(i, mask)[j] for j in bits)
                assert tables.tour(i, mask) == pytest.approx(expected)


class TestTriangleInequalityStructure:
    def test_route_monotone_in_mask(self):
        """Adding a required stop can never shorten the route."""
        k = 4
        g = generators.random_graph(
            16, 30, num_query_labels=k, label_frequency=2, seed=3
        )
        tables = RouteTables.build(context_of(g, k))
        full = (1 << k) - 1
        for mask in range(1, full + 1):
            bits = list(iter_bits(mask))
            if len(bits) < 2:
                continue
            for i in bits:
                for extra in range(k):
                    if mask >> extra & 1:
                        continue
                    bigger = mask | (1 << extra)
                    assert tables.tour(i, bigger) >= tables.tour(i, mask) - 1e-9

    def test_disconnected_labels_give_inf(self):
        g = Graph()
        a = g.add_node(labels=["q0"])
        b = g.add_node(labels=["q1"])
        c = g.add_node(labels=["q2"])
        g.add_edge(a, b, 1.0)  # q2 disconnected
        tables = RouteTables.build(context_of(g, 3))
        assert tables.route(0, 1, 0b011) == 1.0
        assert tables.route(0, 2, 0b101) == INF
        assert tables.tour(0, 0b111) == INF


class TestLabelEnhancedDistances:
    def test_matches_explicit_enhanced_graph(self, integer_weighted):
        """Closure of the context's distances == Dijkstra on the enhanced graph."""
        labels = [f"q{i}" for i in range(4)]
        for seed in range(6):
            generated = generators.random_graph(
                24, 48, num_query_labels=4, label_frequency=3, seed=seed
            )
            for g in (generated, integer_weighted(generated)):
                ctx = QueryContext.build(g, GSTQuery(labels))
                got = RouteTables.build(ctx).virtual_distance

                nxg = nx.Graph()
                nxg.add_nodes_from(g.nodes())
                for u, v, w in g.edges():
                    nxg.add_edge(u, v, weight=w)
                for i, members in enumerate(ctx.groups):
                    for node in members:
                        nxg.add_edge(("virt", i), node, weight=0.0)
                for i in range(4):
                    expected = nx.single_source_dijkstra_path_length(
                        nxg, ("virt", i)
                    )
                    for j in range(4):
                        assert got[i][j] == pytest.approx(
                            expected.get(("virt", j), INF)
                        ), (seed, i, j)

    def test_symmetry_and_zero_diagonal(self):
        g = generators.random_graph(20, 35, num_query_labels=3, seed=1)
        d = virtual_distance(g, ["q0", "q1", "q2"])
        for i in range(3):
            assert d[i][i] == 0.0
            for j in range(3):
                assert d[i][j] == d[j][i]

    def test_overlapping_groups_distance_zero(self):
        g = Graph()
        v = g.add_node(labels=["a", "b"])
        w = g.add_node(labels=["c"])
        g.add_edge(v, w, 5.0)
        d = virtual_distance(g, ["a", "b", "c"])
        assert d[0][1] == 0.0
        assert d[0][2] == 5.0

    def test_disconnected_groups_inf(self):
        g = Graph()
        g.add_node(labels=["a"])
        g.add_node(labels=["b"])
        d = virtual_distance(g, ["a", "b"])
        assert d[0][1] == INF

    def test_route_through_a_third_group_bridges_components(self):
        """A(a)-1-C1(c) and C2(c)-1-B(b): only the stop at ṽ_c connects a to b."""
        g = Graph()
        a = g.add_node(labels=["a"])
        c1 = g.add_node(labels=["c"])
        c2 = g.add_node(labels=["c"])
        b = g.add_node(labels=["b"])
        g.add_edge(a, c1, 1.0)
        g.add_edge(c2, b, 1.0)
        d = virtual_distance(g, ["a", "b", "c"])
        assert d[0][1] == d[1][0] == 2.0

    def test_route_through_a_third_group_beats_the_direct_path(self):
        """Direct A-B costs 10; A-C1, a stop at ṽ_c, then C2-B costs 2."""
        g = Graph()
        a = g.add_node(labels=["a"])
        b = g.add_node(labels=["b"])
        c1 = g.add_node(labels=["c"])
        c2 = g.add_node(labels=["c"])
        g.add_edge(a, b, 10.0)
        g.add_edge(a, c1, 1.0)
        g.add_edge(c2, b, 1.0)
        g.add_edge(c1, c2, 50.0)
        d = virtual_distance(g, ["a", "b", "c"])
        assert d[0][1] == d[1][0] == 2.0
