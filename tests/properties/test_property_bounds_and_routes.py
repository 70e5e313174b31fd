"""Hypothesis properties of the AllPaths tables and lower bounds."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Graph, GSTQuery
from repro.core.allpaths import RouteTables
from repro.core.bounds import LowerBounds
from repro.core.bruteforce import brute_force_gst, brute_force_route
from repro.core.context import QueryContext
from repro.core.state import iter_bits


@st.composite
def labelled_graphs(draw, max_nodes=9, num_labels=3):
    n = draw(st.integers(num_labels, max_nodes))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6
        )
    )
    g = Graph()
    for _ in range(n):
        g.add_node()
    for child, parent in enumerate(parents, start=1):
        g.add_edge(child, parent, float(draw(st.integers(1, 15))))
    for u, v in extra:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(draw(st.integers(1, 15))))
    labels = []
    for i in range(num_labels):
        label = f"L{i}"
        labels.append(label)
        members = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=2)
        )
        for node in members:
            g.add_labels(node, [label])
    return g, labels


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=labelled_graphs())
def test_route_tables_match_permutation_oracle(case):
    graph, labels = case
    query = GSTQuery(labels)
    tables = RouteTables.build(QueryContext.build(graph, query))
    dist = tables.virtual_distance
    k = len(labels)
    full = (1 << k) - 1
    for mask in range(1, full + 1):
        bits = list(iter_bits(mask))
        for i in bits:
            for j in bits:
                if i == j and len(bits) > 1:
                    continue
                expected = brute_force_route(dist, i, j, bits)
                assert tables.route(i, j, mask) == pytest.approx(expected)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=labelled_graphs(max_nodes=8))
def test_combined_bound_admissible_everywhere(case):
    """π(v,X) <= f*_T(v, X̄) for every node and every mask."""
    graph, labels = case
    query = GSTQuery(labels)
    ctx = QueryContext.build(graph, query)
    tables = RouteTables.build(ctx)
    bounds = LowerBounds(ctx, tables)
    full = ctx.full_mask
    for v in graph.nodes():
        for covered in range(full):
            missing_labels = [
                labels[i] for i in iter_bits(full & ~covered)
            ]
            marked = graph.copy()
            marked.add_labels(v, ["__root__"])
            oracle, _ = brute_force_gst(marked, missing_labels + ["__root__"])
            assert bounds.pi(v, covered) <= oracle + 1e-9


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=labelled_graphs(max_nodes=10))
def test_virtual_distance_metric_properties(case):
    """Label-enhanced virtual distances form a pseudometric."""
    graph, labels = case
    query = GSTQuery(labels)
    tables = RouteTables.build(QueryContext.build(graph, query))
    d = tables.virtual_distance
    k = len(labels)
    for i in range(k):
        assert d[i][i] == 0.0
        for j in range(k):
            assert d[i][j] == d[j][i]
            assert d[i][j] >= 0.0
            for m in range(k):
                if d[i][m] < float("inf") and d[m][j] < float("inf"):
                    assert d[i][j] <= d[i][m] + d[m][j] + 1e-9
