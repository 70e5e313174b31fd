"""Tests for the BANKS-I / BANKS-II approximation baselines."""

from __future__ import annotations

import pytest

from repro import Budget, InfeasibleQueryError
from repro.baselines import Banks1Solver, Banks2Solver
from repro.core import DPBFSolver, brute_force_gst
from repro.graph import generators

SOLVERS = [Banks1Solver, Banks2Solver]


@pytest.mark.parametrize("solver_cls", SOLVERS)
class TestFeasibility:
    def test_path(self, path_graph, solver_cls):
        result = solver_cls(path_graph, ["x", "y"]).solve()
        assert result.tree is not None
        result.tree.validate(path_graph, ["x", "y"])
        assert result.weight == pytest.approx(3.0)  # trivially optimal here
        assert not result.optimal  # heuristics never claim optimality

    def test_always_feasible_on_random_graphs(self, solver_cls):
        for seed in range(8):
            g = generators.random_graph(
                30, 60, num_query_labels=4, label_frequency=3, seed=seed
            )
            labels = [f"q{i}" for i in range(4)]
            result = solver_cls(g, labels).solve()
            assert result.tree is not None, seed
            result.tree.validate(g, labels)

    def test_single_label(self, path_graph, solver_cls):
        result = solver_cls(path_graph, ["x"]).solve()
        assert result.weight == 0.0
        assert result.tree.nodes == frozenset({0})

    def test_infeasible_raises(self, path_graph, solver_cls):
        with pytest.raises(InfeasibleQueryError):
            solver_cls(path_graph, ["x", "ghost"]).solve()

    def test_never_better_than_optimum(self, solver_cls, random_graph_factory):
        for seed in range(8):
            g = random_graph_factory(seed, n=10, extra_edges=8, k=3)
            labels = ["q0", "q1", "q2"]
            optimum, _ = brute_force_gst(g, labels)
            result = solver_cls(g, labels).solve()
            assert result.weight >= optimum - 1e-9

    def test_lower_bound_is_trivial(self, path_graph, solver_cls):
        result = solver_cls(path_graph, ["x", "y"]).solve()
        assert result.lower_bound == 0.0


class TestApproximationQuality:
    def test_banks1_within_k_approx_with_full_exploration(self):
        """With unbounded candidates, BANKS-I's best connection node
        yields a <= k-approximation (union of k shortest paths)."""
        for seed in range(6):
            g = generators.random_graph(
                25, 55, num_query_labels=3, label_frequency=3, seed=seed
            )
            labels = ["q0", "q1", "q2"]
            optimum = DPBFSolver(g, labels).solve().weight
            result = Banks1Solver(g, labels, max_candidates=10**9).solve()
            assert result.weight <= 3 * optimum + 1e-9, seed

    def test_banks2_reasonable_on_dblp_like(self):
        g = generators.dblp_like(
            num_papers=150, num_authors=90,
            num_query_labels=10, label_frequency=5, seed=3,
        )
        labels = [f"q{i}" for i in range(4)]
        optimum = DPBFSolver(g, labels).solve().weight
        result = Banks2Solver(g, labels).solve()
        ratio = result.weight / optimum
        assert 1.0 - 1e-9 <= ratio <= 4.0  # paper sees ~1.1-1.5

    def test_banks2_explores_most_of_graph(self):
        """The paper's explanation for BANKS-II's cost: it settles ~k·n
        node/group pairs, unlike PrunedDP++'s partial exploration."""

        g = generators.dblp_like(
            num_papers=200, num_authors=120,
            num_query_labels=10, label_frequency=6, seed=4,
        )
        labels = [f"q{i}" for i in range(4)]
        banks = Banks2Solver(g, labels).solve()
        assert banks.stats.states_popped >= 0.5 * g.num_nodes

    def test_degree_penalty_changes_exploration(self):
        g = generators.powerlaw(300, num_query_labels=6, label_frequency=5, seed=0)
        labels = [f"q{i}" for i in range(3)]
        damped = Banks2Solver(g, labels, degree_penalty=1.0).solve()
        plain = Banks2Solver(g, labels, degree_penalty=0.0).solve()
        # Both feasible; answers may differ but both are valid trees.
        damped.tree.validate(g, labels)
        plain.tree.validate(g, labels)


class TestProgressiveTrace:
    def test_banks2_trace_improves(self):
        g = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=4, seed=7
        )
        labels = [f"q{i}" for i in range(4)]
        result = Banks2Solver(g, labels).solve()
        weights = [p.best_weight for p in result.trace]
        assert weights == sorted(weights, reverse=True)

    def test_time_limit_respected(self):
        g = generators.powerlaw(500, num_query_labels=6, label_frequency=6, seed=1)
        labels = [f"q{i}" for i in range(5)]
        result = Banks2Solver(g, labels, budget=Budget(time_limit=0.01)).solve()
        # Either finished very fast or stopped near the limit.
        assert result.stats.total_seconds < 2.0
