"""The bounded answer a cold query reports while its label Dijkstras run.

* The round-robin sweep of :meth:`QueryContext.build` leaves every label
  table byte-identical to the one-label kernel's, under every weight
  class the kernel must be exact on.
* Every preprocessing point brackets the optimum (``LB <= f* <= UB``,
  with ``f*`` from DPBF) and the stream is monotone, on random,
  power-law and DBLP-like instances with some labels already cached.
* The solver's stream starts with those points and the engine's
  answer certifies against the same optimum.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DPBFSolver,
    GSTQuery,
    LabelDistanceCache,
    PrunedDPPlusPlusSolver,
    QueryContext,
)
from repro.core.early import _half_tour
from repro.graph import generators
from repro.graph.shortest_paths import multi_source_dijkstra
from repro.verify import certify_result, generate_instance

INF = float("inf")


def _tol(value: float) -> float:
    return 1e-9 * max(1.0, abs(value))


def _instance(kind: str, seed: int):
    """A graph and a 2-5 label query of one family."""
    if kind == "random":
        return generate_instance(seed, max_nodes=30, max_labels=5)
    rng = random.Random(seed)
    if kind == "powerlaw":
        graph = generators.powerlaw(
            120, num_query_labels=6, label_frequency=3, seed=seed
        )
    else:
        graph = generators.dblp_like(
            60, 40, num_query_labels=6, label_frequency=3, seed=seed
        )
    labels = rng.sample([f"q{i}" for i in range(6)], rng.randint(2, 5))
    return graph, labels


class TestRoundRobinTables:
    @pytest.mark.parametrize(
        "weights", ["float", "integer", "zero arcs", "log-uniform", "tenths"]
    )
    def test_tables_equal_the_one_label_kernel(self, reweighted, weights):
        base = generators.random_graph(
            90, 220, num_query_labels=5, label_frequency=4, seed=3
        )
        graph = reweighted(base, 3)[weights]
        labels = ["q0", "q1", "q2", "q3", "q4"]
        cache = LabelDistanceCache(graph)
        cache.distances("q2")  # one label warm, four swept round-robin
        context = QueryContext.build(graph, GSTQuery(labels), cache=cache)
        for i, label in enumerate(labels):
            dist, parent = multi_source_dijkstra(
                graph, list(graph.nodes_with_label(label))
            )
            cached_dist, cached_parent = cache.distances(label)
            assert cached_dist.tobytes() == dist.tobytes()
            assert cached_parent.tobytes() == parent.tobytes()
            assert context.dist[i] is cached_dist
            assert context.parent[i] is cached_parent

    def test_counts_one_miss_per_cold_label(self):
        graph = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=3, seed=5
        )
        cache = LabelDistanceCache(graph)
        cache.distances("q0")
        QueryContext.build(graph, GSTQuery(["q0", "q1", "q2"]), cache=cache)
        counters = cache.counters()
        assert (counters["hits"], counters["misses"]) == (1, 3)
        assert counters["cached_labels"] == 3

    def test_warm_query_has_no_early_answer(self):
        graph = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=3, seed=5
        )
        cache = LabelDistanceCache(graph)
        QueryContext.build(graph, GSTQuery(["q0", "q1"]), cache=cache)
        points = []
        context = QueryContext.build(
            graph, GSTQuery(["q0", "q1"]), cache=cache, on_progress=points.append
        )
        assert context.early is None and points == []


class TestHalfTour:
    def test_three_nodes_is_half_the_triangle(self):
        table = [[0.0, 1.0, 2.0], [1.0, 0.0, 2.5], [2.0, 2.5, 0.0]]
        assert _half_tour(table) == pytest.approx(2.75)

    def test_cheapest_order_of_four(self):
        # Points on a line at 0, 1, 2, 3: every closed tour is >= 6.
        table = [[float(abs(a - b)) for b in range(4)] for a in range(4)]
        assert _half_tour(table) == pytest.approx(3.0)

    def test_beyond_the_cap_is_zero(self):
        table = [[0.0] * 7 for _ in range(7)]
        assert _half_tour(table) == 0.0


def _assert_monotone(points):
    for earlier, later in zip(points, points[1:]):
        assert later.elapsed >= earlier.elapsed
        assert later.best_weight <= earlier.best_weight + _tol(earlier.best_weight)
        assert later.lower_bound >= earlier.lower_bound - _tol(earlier.lower_bound)
        assert later.ratio <= earlier.ratio + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["random", "powerlaw", "dblp"]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_preprocessing_points_bracket_the_optimum(kind, seed, data):
    graph, labels = _instance(kind, seed)
    warm = data.draw(
        st.lists(st.sampled_from(labels), max_size=len(labels) - 1, unique=True),
        label="pre-cached labels",
    )
    cache = LabelDistanceCache(graph)
    for label in warm:
        cache.distances(label)
    points = []
    context = QueryContext.build(
        graph, GSTQuery(labels), cache=cache, on_progress=points.append
    )
    if context.any_feasible_root() is None:
        assert context.early is None and points == []
        return
    optimum = DPBFSolver(graph, labels).solve().weight
    early = context.early
    assert early is not None and points
    assert list(early.points) == points
    early.tree.validate(graph, labels)
    assert early.weight == early.tree.weight
    for point in points:
        assert point.lower_bound <= optimum + _tol(optimum)
        assert optimum <= point.best_weight + _tol(optimum)
        assert point.elapsed <= context.build_seconds
    _assert_monotone(points)

    # The solver streams the same points first, and its answer (trace
    # included) certifies against the oracle.
    solved = []
    result = PrunedDPPlusPlusSolver(
        graph, labels, on_progress=solved.append
    ).solve()
    assert len(solved) == len(result.trace) >= 1
    _assert_monotone(solved)
    certify_result(graph, result, expected_weight=optimum).raise_if_failed()
