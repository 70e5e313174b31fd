"""Directed GST tests: solver vs fixpoint oracle, arborescence validity."""

from __future__ import annotations

import random

import pytest

from repro import Budget, GraphError, InfeasibleQueryError
from repro.core.directed import (
    DirectedGSTSolver,
    DirectedSteinerTree,
    brute_force_directed_gst,
)
from repro.graph.digraph import DiGraph


def random_digraph(seed: int, n: int = 10, extra: int = 12, k: int = 3) -> DiGraph:
    """Random DiGraph where node 0 reaches everything (feasibility)."""
    rng = random.Random(seed)
    g = DiGraph()
    for _ in range(n):
        g.add_node()
    # Random out-arborescence from 0 guarantees reachability.
    order = list(range(1, n))
    rng.shuffle(order)
    placed = [0]
    for node in order:
        parent = placed[rng.randrange(len(placed))]
        g.add_edge(parent, node, rng.randint(1, 9))
        placed.append(node)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v, rng.randint(1, 9))
    for i in range(k):
        for node in rng.sample(range(n), 2):
            g.add_labels(node, [f"q{i}"])
    return g


class TestDiGraph:
    def test_directed_edges(self):
        g = DiGraph()
        a, b = g.add_node(), g.add_node()
        g.add_edge(a, b, 2.0)
        assert g.has_edge(a, b)
        assert not g.has_edge(b, a)
        assert g.edge_weight(a, b) == 2.0
        with pytest.raises(GraphError):
            g.edge_weight(b, a)
        assert g.out_neighbors(a) == [(b, 2.0)]
        assert g.in_neighbors(b) == [(a, 2.0)]

    def test_parallel_keeps_min(self):
        g = DiGraph()
        a, b = g.add_node(), g.add_node()
        g.add_edge(a, b, 5.0)
        g.add_edge(a, b, 2.0)
        assert g.num_edges == 1
        assert g.edge_weight(a, b) == 2.0
        g.validate()

    def test_self_loop_rejected(self):
        g = DiGraph()
        a = g.add_node()
        with pytest.raises(GraphError):
            g.add_edge(a, a)

    def test_validate_random(self):
        g = random_digraph(1)
        g.validate()
        assert g.num_edges == len(list(g.edges()))


class TestDirectedSteinerTree:
    def test_valid_arborescence(self):
        g = DiGraph()
        r, a, b = g.add_node(), g.add_node(labels=["x"]), g.add_node(labels=["y"])
        g.add_edge(r, a, 1.0)
        g.add_edge(r, b, 2.0)
        tree = DirectedSteinerTree(r, [(r, a, 1.0), (r, b, 2.0)])
        tree.validate(g, ["x", "y"])
        assert tree.weight == 3.0

    def test_double_parent_rejected(self):
        g = DiGraph()
        r, a, b = g.add_node(), g.add_node(), g.add_node()
        g.add_edge(r, b, 1.0)
        g.add_edge(a, b, 1.0)
        g.add_edge(r, a, 1.0)
        bad = DirectedSteinerTree(r, [(r, b, 1.0), (a, b, 1.0), (r, a, 1.0)])
        with pytest.raises(GraphError):
            bad.validate(g)

    def test_disconnected_rejected(self):
        g = DiGraph()
        r, a, b, c = (g.add_node() for _ in range(4))
        g.add_edge(r, a, 1.0)
        g.add_edge(b, c, 1.0)
        bad = DirectedSteinerTree(r, [(r, a, 1.0), (b, c, 1.0)])
        with pytest.raises(GraphError):
            bad.validate(g)


class TestDirectedSolver:
    def test_simple_chain(self):
        """Directionality matters: only the chain root can cover both."""
        g = DiGraph()
        a = g.add_node(labels=["x"])
        b = g.add_node()
        c = g.add_node(labels=["y"])
        g.add_edge(a, b, 1.0)
        g.add_edge(b, c, 2.0)
        result = DirectedGSTSolver(g, ["x", "y"]).solve()
        assert result.optimal
        assert result.weight == pytest.approx(3.0)
        assert result.tree.root == a
        result.tree.validate(g, ["x", "y"])

    def test_direction_forces_different_answer_than_undirected(self):
        """y -> x edge only: covering needs the root at y's side."""
        g = DiGraph()
        x = g.add_node(labels=["x"])
        y = g.add_node(labels=["y"])
        g.add_edge(y, x, 5.0)
        result = DirectedGSTSolver(g, ["x", "y"]).solve()
        assert result.weight == pytest.approx(5.0)
        assert result.tree.root == y

    def test_infeasible_when_no_root_reaches_all(self):
        g = DiGraph()
        x = g.add_node(labels=["x"])
        y = g.add_node(labels=["y"])
        mid = g.add_node()
        # Both point INTO mid; nothing reaches both x and y.
        g.add_edge(x, mid, 1.0)
        g.add_edge(y, mid, 1.0)
        with pytest.raises(InfeasibleQueryError):
            DirectedGSTSolver(g, ["x", "y"]).solve()

    def test_single_label(self):
        g = DiGraph()
        a = g.add_node(labels=["x"])
        b = g.add_node()
        g.add_edge(b, a, 3.0)
        result = DirectedGSTSolver(g, ["x"]).solve()
        assert result.weight == 0.0
        assert result.tree.nodes == frozenset({a})

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_fixpoint_oracle(self, seed):
        g = random_digraph(seed)
        labels = ["q0", "q1", "q2"]
        expected = brute_force_directed_gst(g, labels)
        result = DirectedGSTSolver(g, labels).solve()
        assert result.optimal, seed
        assert result.weight == pytest.approx(expected), seed
        result.tree.validate(g, labels)
        assert result.tree.weight == pytest.approx(expected)
        assert result.stats.reopened == 0

    def test_rerooting_makes_distance_bounds_inadmissible(self):
        """Regression for the documented design decision: a 'one-label'
        style bound built from dist(v -> V_i) would prune node 9's seed
        states here (9 cannot itself... actually it CAN; the killer is
        nodes inside optimal answers that cannot reach some group), yet
        the optimum routes through exactly such states.  The solver must
        find the true optimum on this instance."""
        g = random_digraph(6)
        labels = ["q0", "q1", "q2"]
        expected = brute_force_directed_gst(g, labels)
        result = DirectedGSTSolver(g, labels).solve()
        assert result.weight == pytest.approx(expected)
        # The optimal root reaches everything, but some constituent
        # subtree states' roots cannot (dist to a group is infinite):
        # an A* over per-root distances would have pruned them.
        tree = result.tree
        from repro.core.directed import _forward_distances

        dists = [
            _forward_distances(g, list(g.nodes_with_label(label)))[0]
            for label in labels
        ]
        assert any(
            any(dists[i][v] == float("inf") for i in range(3))
            for v in tree.nodes
        )

    def test_progressive_trace_monotone(self):
        g = random_digraph(7, n=30, extra=60, k=4)
        labels = [f"q{i}" for i in range(4)]
        result = DirectedGSTSolver(g, labels).solve()
        ubs = [p.best_weight for p in result.trace]
        lbs = [p.lower_bound for p in result.trace]
        assert all(b <= a + 1e-9 for a, b in zip(ubs, ubs[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:]))
        assert result.trace[-1].ratio == pytest.approx(1.0)

    def test_epsilon_mode(self):
        g = random_digraph(9, n=30, extra=60, k=4)
        labels = [f"q{i}" for i in range(4)]
        exact = DirectedGSTSolver(g, labels).solve()
        anytime = DirectedGSTSolver(g, labels, budget=Budget(epsilon=1.0)).solve()
        assert anytime.weight <= 2.0 * exact.weight + 1e-9
        assert anytime.stats.states_popped <= exact.stats.states_popped

    def test_all_labels_one_node(self):
        g = DiGraph()
        v = g.add_node(labels=["a", "b"])
        w = g.add_node()
        g.add_edge(v, w, 1.0)
        result = DirectedGSTSolver(g, ["a", "b"]).solve()
        assert result.weight == 0.0
