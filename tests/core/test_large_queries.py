"""Larger-k query behaviour (the paper's Fig 16 territory) and misc
robustness: repeated solves, heavy label overlap, route-table limits.
"""

from __future__ import annotations

import pytest

from repro import Budget, Graph, QueryError
from repro.core import (
    BasicSolver,
    DPBFSolver,
    PrunedDPPlusPlusSolver,
    PrunedDPPlusSolver,
)
from repro.core.allpaths import MAX_ALLPATHS_LABELS
from repro.graph import generators


class TestLargeK:
    def test_k8_agreement(self):
        g = generators.random_graph(
            25, 50, num_query_labels=8, label_frequency=3, seed=13
        )
        labels = [f"q{i}" for i in range(8)]
        pp = PrunedDPPlusPlusSolver(g, labels).solve()
        dpbf = DPBFSolver(g, labels).solve()
        assert pp.optimal
        assert pp.weight == pytest.approx(dpbf.weight)
        pp.tree.validate(g, labels)

    def test_k10_plusplus(self):
        g = generators.random_graph(
            20, 40, num_query_labels=10, label_frequency=2, seed=14
        )
        labels = [f"q{i}" for i in range(10)]
        pp = PrunedDPPlusPlusSolver(g, labels).solve()
        plus = PrunedDPPlusSolver(g, labels).solve()
        assert pp.optimal and plus.optimal
        assert pp.weight == pytest.approx(plus.weight)
        assert pp.stats.states_popped <= plus.stats.states_popped

    @staticmethod
    def _labelled_star(k):
        """Star with k uniquely-labelled leaves: optimum is the full star.

        Note: NO instance makes k=15 cheap to solve exactly — the
        parameterized DP is Θ(2^k)-ish by nature (the paper's whole
        motivation) — so the beyond-table-limit tests below only check
        the code *paths* (error vs anytime answer), under state caps.
        """
        g = Graph()
        center = g.add_node()
        labels = []
        for i in range(k):
            leaf = g.add_node(labels=[f"q{i}"])
            g.add_edge(center, leaf, 1.0)
            labels.append(f"q{i}")
        return g, labels

    def test_k_beyond_route_table_limit_rejected(self):
        k = MAX_ALLPATHS_LABELS + 1
        g, labels = self._labelled_star(k)
        with pytest.raises(QueryError):
            PrunedDPPlusPlusSolver(g, labels).solve()
        # ...but the bound-free algorithms still produce anytime
        # answers under a state budget.
        result = BasicSolver(g, labels, budget=Budget(max_states=3000)).solve()
        assert result.tree is not None
        result.tree.validate(g, labels)
        assert result.weight == pytest.approx(k)  # the star is forced

    def test_tour_bounds_disabled_bypasses_limit(self):
        """PrunedDP++ with only the one-label bound has no table cap."""
        k = MAX_ALLPATHS_LABELS + 1
        g, labels = self._labelled_star(k)
        result = PrunedDPPlusPlusSolver(
            g, labels, use_tour1=False, use_tour2=False,
            budget=Budget(max_states=3000),
        ).solve()
        assert result.tree is not None
        assert result.weight == pytest.approx(k)


class TestRepeatedSolves:
    def test_solver_is_reusable(self, star_graph):
        solver = PrunedDPPlusPlusSolver(star_graph, ["x", "y", "z"])
        first = solver.solve()
        second = solver.solve()
        assert first.weight == second.weight
        assert first.tree.edges == second.tree.edges
        assert first.stats.states_popped == second.stats.states_popped


class TestHeavyOverlap:
    def test_one_node_carries_every_label(self):
        g = generators.random_graph(
            30, 60, num_query_labels=5, label_frequency=3, seed=16
        )
        hub = 0
        labels = [f"q{i}" for i in range(5)]
        g.add_labels(hub, labels)
        for solver_cls in (BasicSolver, PrunedDPPlusPlusSolver):
            result = solver_cls(g, labels).solve()
            assert result.weight == 0.0
            assert result.tree.nodes == frozenset({hub})

    def test_labels_share_every_group_member(self):
        g = Graph()
        a = g.add_node(labels=["p", "q", "r"])
        b = g.add_node(labels=["p", "q", "r"])
        c = g.add_node()
        g.add_edge(a, c, 1.0)
        g.add_edge(c, b, 1.0)
        result = PrunedDPPlusPlusSolver(g, ["p", "q", "r"]).solve()
        assert result.weight == 0.0

    def test_duplicate_weight_paths(self):
        """Many equal-weight optima: any one is acceptable, weight unique."""
        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        mids = [g.add_node() for _ in range(4)]
        for mid in mids:
            g.add_edge(a, mid, 1.0)
            g.add_edge(mid, b, 1.0)
        weights = set()
        for solver_cls in (BasicSolver, PrunedDPPlusPlusSolver, DPBFSolver):
            result = solver_cls(g, ["x", "y"]).solve()
            result.tree.validate(g, ["x", "y"])
            weights.add(result.weight)
        assert weights == {2.0}
