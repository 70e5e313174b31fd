"""Hypothesis-driven cross-checks of every solver against brute force.

These are the strongest correctness tests in the suite: random small
graphs (random topology, weights, label placement, query size) where
the exact optimum is computable by exhaustive enumeration, checked
against all five exact solvers and the feasibility of both heuristics.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Budget, Graph
from repro.baselines import Banks1Solver, Banks2Solver
from repro.core import (
    BasicSolver,
    DPBFSolver,
    PrunedDPPlusPlusSolver,
    PrunedDPPlusSolver,
    PrunedDPSolver,
    brute_force_gst,
)

EXACT_SOLVERS = [
    BasicSolver,
    PrunedDPSolver,
    PrunedDPPlusSolver,
    PrunedDPPlusPlusSolver,
    DPBFSolver,
]


@st.composite
def labelled_graphs(draw, max_nodes=9, max_labels=3):
    """Connected weighted graph + feasible query over <= max_labels labels."""
    n = draw(st.integers(2, max_nodes))
    k = draw(st.integers(1, max_labels))
    # Spanning tree first (guarantees connectivity + feasibility).
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    extra = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    weights = draw(
        st.lists(
            st.integers(1, 20),
            min_size=n - 1 + len(extra),
            max_size=n - 1 + len(extra),
        )
    )
    # Each label goes on 1..2 random nodes.
    label_nodes = [
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
        for _ in range(k)
    ]

    g = Graph()
    for i in range(n):
        g.add_node()
    w = iter(weights)
    for child, parent in enumerate(parents, start=1):
        g.add_edge(child, parent, float(next(w)))
    for u, v in extra:
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, float(next(w)))
    labels = []
    for i, nodes in enumerate(label_nodes):
        label = f"L{i}"
        labels.append(label)
        for node in nodes:
            g.add_labels(node, [label])
    return g, labels


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=labelled_graphs())
def test_all_exact_solvers_agree_with_brute_force(case):
    graph, labels = case
    expected, _ = brute_force_gst(graph, labels)
    assert expected < float("inf")
    for solver_cls in EXACT_SOLVERS:
        result = solver_cls(graph, labels).solve()
        assert result.optimal, solver_cls.__name__
        assert result.weight == pytest.approx(expected), solver_cls.__name__
        result.tree.validate(graph, labels)
        assert result.tree.weight == pytest.approx(expected)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=labelled_graphs(max_nodes=10, max_labels=3))
def test_heuristics_feasible_and_bounded_below_by_optimum(case):
    graph, labels = case
    expected, _ = brute_force_gst(graph, labels)
    for solver_cls in (Banks1Solver, Banks2Solver):
        result = solver_cls(graph, labels).solve()
        assert result.tree is not None
        result.tree.validate(graph, labels)
        assert result.weight >= expected - 1e-9


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=labelled_graphs(max_nodes=9, max_labels=3))
def test_progressive_traces_sound(case):
    """Trace invariants hold on arbitrary inputs, not just fixtures."""
    graph, labels = case
    expected, _ = brute_force_gst(graph, labels)
    for solver_cls in (BasicSolver, PrunedDPPlusPlusSolver):
        result = solver_cls(graph, labels).solve()
        previous_ratio = float("inf")
        for point in result.trace:
            assert point.lower_bound <= expected + 1e-9
            if point.best_weight != float("inf"):
                assert point.best_weight >= expected - 1e-9
            assert point.ratio <= previous_ratio + 1e-9
            previous_ratio = point.ratio
        assert result.trace[-1].ratio == pytest.approx(1.0)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=labelled_graphs(max_nodes=9, max_labels=3), epsilon=st.sampled_from([0.25, 0.5, 1.0]))
def test_epsilon_contract(case, epsilon):
    """Anytime answers honour their advertised guarantee."""
    graph, labels = case
    expected, _ = brute_force_gst(graph, labels)
    result = PrunedDPPlusPlusSolver(
        graph, labels, budget=Budget(epsilon=epsilon)
    ).solve()
    assert result.tree is not None
    result.tree.validate(graph, labels)
    assert result.weight <= (1.0 + epsilon) * expected + 1e-6
