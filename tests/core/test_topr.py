"""Approximate top-r tests (paper Section 4.2 remark)."""

from __future__ import annotations

import pytest

from repro import Budget, Graph
from repro.core import BasicSolver, PrunedDPPlusPlusSolver, top_r_trees
from repro.graph import generators


class TestTopR:
    def test_r_must_be_positive(self, path_graph):
        with pytest.raises(ValueError):
            top_r_trees(path_graph, ["x", "y"], 0)

    def test_top1_is_optimum(self, diamond_graph):
        trees = top_r_trees(diamond_graph, ["x", "y"], 1)
        assert len(trees) == 1
        assert trees[0].weight == pytest.approx(2.0)

    def test_results_sorted_and_distinct(self):
        g = generators.random_graph(
            30, 70, num_query_labels=3, label_frequency=4, seed=12
        )
        labels = ["q0", "q1", "q2"]
        trees = top_r_trees(g, labels, 5)
        assert 1 <= len(trees) <= 5
        weights = [t.weight for t in trees]
        assert weights == sorted(weights)
        assert len({(t.edges, t.nodes) for t in trees}) == len(trees)
        for tree in trees:
            tree.validate(g, labels)

    def test_diamond_finds_near_optimal_alternative(self):
        """Two routes of similar weight: both are reported.

        (A *much* heavier alternative would be pruned against the
        incumbent before its tree is ever materialized — the paper's
        top-r remark only promises the near-optimal solutions seen
        during the search.)
        """
        g = Graph()
        a = g.add_node(labels=["x"])
        m1 = g.add_node()
        m2 = g.add_node()
        d = g.add_node(labels=["y"])
        g.add_edge(a, m1, 1.0)
        g.add_edge(m1, d, 1.0)
        g.add_edge(a, m2, 1.1)
        g.add_edge(m2, d, 1.1)
        trees = top_r_trees(g, ["x", "y"], 3, solver_cls=BasicSolver)
        weights = sorted(t.weight for t in trees)
        assert weights[0] == pytest.approx(2.0)
        assert any(w == pytest.approx(2.2) for w in weights)

    def test_all_trees_cover_query(self):
        g = generators.dblp_like(
            num_papers=80, num_authors=50,
            num_query_labels=8, label_frequency=4, seed=1,
        )
        labels = ["q0", "q1", "q2", "q3"]
        trees = top_r_trees(g, labels, 4, solver_cls=PrunedDPPlusPlusSolver)
        for tree in trees:
            assert tree.covers(g, labels)

    def test_solver_kwargs_forwarded(self, diamond_graph):
        trees = top_r_trees(
            diamond_graph, ["x", "y"], 2, budget=Budget(max_states=10_000)
        )
        assert trees
