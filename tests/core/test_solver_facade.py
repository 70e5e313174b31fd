"""Tests for the solve_gst facade."""

from __future__ import annotations

import pytest

from repro import Budget, InfeasibleQueryError, solve_gst
from repro.core.solver import ALGORITHMS, default_algorithm
from repro.graph import generators


class TestAlgorithmSelection:
    def test_default_is_plusplus(self):
        assert default_algorithm() == "pruneddp++"

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_algorithm_runs(self, name, path_graph):
        result = solve_gst(path_graph, ["x", "y"], algorithm=name)
        assert result.weight == pytest.approx(3.0)
        assert result.optimal

    def test_case_insensitive(self, path_graph):
        result = solve_gst(path_graph, ["x", "y"], algorithm="PrunedDP++")
        assert result.weight == pytest.approx(3.0)

    def test_unknown_algorithm(self, path_graph):
        with pytest.raises(ValueError):
            solve_gst(path_graph, ["x"], algorithm="magic")


class TestDisconnectedHandling:
    def test_split_components(self, disconnected_graph):
        result = solve_gst(disconnected_graph, ["x", "y"])
        assert result.optimal
        assert result.weight == pytest.approx(5.0)
        # Node ids are translated back to the original graph.
        assert result.tree.nodes == frozenset({2, 3, 4})
        result.tree.validate(disconnected_graph, ["x", "y"])

    def test_multiple_covering_components_picks_best(self):
        from repro import Graph

        g = Graph()
        # Component 1: expensive connection.
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        g.add_edge(a, b, 10.0)
        # Component 2: cheap connection.
        c = g.add_node(labels=["x"])
        d = g.add_node(labels=["y"])
        g.add_edge(c, d, 2.0)
        result = solve_gst(g, ["x", "y"])
        assert result.weight == pytest.approx(2.0)
        assert result.tree.nodes == frozenset({c, d})

    def test_infeasible_raises(self, disconnected_graph):
        with pytest.raises(InfeasibleQueryError):
            solve_gst(disconnected_graph, ["x", "y", "nothere"])


class TestKwargsForwarding:
    def test_epsilon_forwarded(self):
        g = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=4, seed=2
        )
        labels = [f"q{i}" for i in range(4)]
        result = solve_gst(g, labels, budget=Budget(epsilon=1.0))
        assert result.ratio <= 2.0 + 1e-9

    def test_on_progress_forwarded(self, path_graph):
        events = []
        solve_gst(path_graph, ["x", "y"], on_progress=events.append)
        assert events

class TestProgressStream:
    def test_on_progress_monotone_ub_lb(self):
        g = generators.random_graph(
            80, 200, num_query_labels=5, label_frequency=4, seed=9
        )
        points = []
        result = solve_gst(
            g, ["q0", "q1", "q2"], algorithm="basic",
            on_progress=points.append,
        )
        assert len(points) >= 2
        for earlier, later in zip(points, points[1:]):
            assert later.best_weight <= earlier.best_weight + 1e-12
            assert later.lower_bound >= earlier.lower_bound - 1e-12
            assert later.elapsed >= earlier.elapsed
        assert points[-1].best_weight == pytest.approx(result.weight)

    def test_dpbf_accepts_on_progress(self, path_graph):
        """Interface parity: the non-progressive tier emits exactly one
        terminal point instead of rejecting the callback."""
        points = []
        result = solve_gst(
            path_graph, ["x", "y"], algorithm="dpbf",
            on_progress=points.append,
        )
        assert len(points) == 1
        assert points[0].best_weight == pytest.approx(result.weight)
