"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, Iterable, List

import pytest

from repro import Graph
from repro.graph import generators

INF = float("inf")


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


@pytest.fixture
def store_index(graph, tmp_path):
    """A ``GraphIndex`` on the module's ``graph`` with a freshly built
    store attached; its result cache starts empty."""
    from repro.service import GraphIndex
    from repro.store import build_store

    path = str(tmp_path / "store")
    build_store(graph, path, top_k=4)
    index = GraphIndex(graph)
    index.attach_store(path)
    return index


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


def with_weights(graph: Graph, weight_of: Callable[[float], float]) -> Graph:
    """Copy of ``graph`` (nodes and labels) with each weight ``w`` replaced
    by ``weight_of(w)``, edge by edge in ``graph.edges()`` order."""
    copy = Graph()
    for node in graph.nodes():
        copy.add_node(labels=graph.labels_of(node))
    for u, v, weight in graph.edges():
        copy.add_edge(u, v, weight_of(weight))
    return copy


def with_integer_weights(graph: Graph) -> Graph:
    """Copy of ``graph`` (nodes and labels) with every weight rounded."""
    return with_weights(graph, lambda weight: float(round(weight)))


@pytest.fixture
def integer_weighted():
    return with_integer_weights


def weight_classes(graph: Graph, seed: int) -> Dict[str, Graph]:
    """``graph`` under every weight class the Dijkstra kernel must be exact on.

    * ``float``: as generated;
    * ``integer``: rounded;
    * ``zero arcs``: about 10% of the arcs weigh 0, which re-queue
      nodes in the bucket being processed;
    * ``log-uniform``: over 1e-6..1e6, so the weights span far more
      than ``BUCKET_SPAN``-fold and the bucket width is raised above
      the lightest arc;
    * ``tenths``: multiples of 0.1, so sums land on bucket edges.
    """
    rng = random.Random(seed)
    return {
        "float": graph,
        "integer": with_integer_weights(graph),
        "zero arcs": with_weights(
            graph, lambda w: 0.0 if rng.random() < 0.1 else w
        ),
        "log-uniform": with_weights(
            graph, lambda w: 10.0 ** rng.uniform(-6.0, 6.0)
        ),
        "tenths": with_weights(graph, lambda w: rng.randint(1, 20) / 10),
    }


@pytest.fixture
def reweighted():
    return weight_classes


def heap_dijkstra(graph: Graph, sources: Iterable[int]) -> List[float]:
    """Plain binary-heap multi-source Dijkstra: the kernel's reference."""
    dist = [INF] * graph.num_nodes
    heap = []
    for source in sources:
        dist[source] = 0.0
        heap.append((0.0, source))
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, weight in graph.neighbors(u):
            if d + weight < dist[v]:
                dist[v] = d + weight
                heapq.heappush(heap, (dist[v], v))
    return dist


@pytest.fixture
def reference_dijkstra():
    return heap_dijkstra
