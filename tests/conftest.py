"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations


import pytest

from repro import Graph
from repro.graph import generators


@pytest.fixture
def path_graph():
    """a(x) -1- b -2- c(y): the smallest interesting GST instance."""
    g = Graph()
    a = g.add_node(labels=["x"], name="a")
    b = g.add_node(name="b")
    c = g.add_node(labels=["y"], name="c")
    g.add_edge(a, b, 1.0)
    g.add_edge(b, c, 2.0)
    return g


@pytest.fixture
def diamond_graph():
    """Two routes between the labelled endpoints; optimum takes the light one.

        a(x) --1-- m1 --1-- d(y)
        a(x) --3-- m2 --3-- d(y)
    """
    g = Graph()
    a = g.add_node(labels=["x"], name="a")
    m1 = g.add_node(name="m1")
    m2 = g.add_node(name="m2")
    d = g.add_node(labels=["y"], name="d")
    g.add_edge(a, m1, 1.0)
    g.add_edge(m1, d, 1.0)
    g.add_edge(a, m2, 3.0)
    g.add_edge(m2, d, 3.0)
    return g


@pytest.fixture
def star_graph():
    """Hub h connected to three labelled leaves; optimum is the full star."""
    g = Graph()
    h = g.add_node(name="h")
    a = g.add_node(labels=["x"], name="a")
    b = g.add_node(labels=["y"], name="b")
    c = g.add_node(labels=["z"], name="c")
    g.add_edge(h, a, 1.0)
    g.add_edge(h, b, 2.0)
    g.add_edge(h, c, 3.0)
    # Expensive direct rim edges the optimum must avoid.
    g.add_edge(a, b, 10.0)
    g.add_edge(b, c, 10.0)
    return g


@pytest.fixture
def disconnected_graph():
    """Two components; only the second covers both labels."""
    g = Graph()
    a = g.add_node(labels=["x"], name="a0")
    b = g.add_node(name="b0")
    g.add_edge(a, b, 1.0)
    c = g.add_node(labels=["x"], name="c1")
    d = g.add_node(labels=["y"], name="d1")
    e = g.add_node(name="e1")
    g.add_edge(c, e, 2.0)
    g.add_edge(e, d, 3.0)
    return g


def small_random_graph(seed: int, n: int = 10, extra_edges: int = 8, k: int = 3):
    """Connected random graph with k query labels, for cross-checks."""
    return generators.random_graph(
        n,
        n - 1 + extra_edges,
        num_query_labels=k,
        label_frequency=2,
        weight_range=(1.0, 9.0),
        connected=True,
        seed=seed,
    )


@pytest.fixture
def random_graph_factory():
    return small_random_graph


def with_integer_weights(graph: Graph) -> Graph:
    """Copy of ``graph`` (nodes and labels) with every weight rounded.

    Integer weights put the frozen snapshot on the Dial lane
    (``int_adjacency``); the float-weighted original takes the heap lane.
    """
    rounded = Graph()
    for node in graph.nodes():
        rounded.add_node(labels=graph.labels_of(node))
    for u, v, weight in graph.edges():
        rounded.add_edge(u, v, float(round(weight)))
    return rounded


@pytest.fixture
def integer_weighted():
    return with_integer_weights
