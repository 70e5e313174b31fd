"""DPBF-specific tests (the non-progressive prior state of the art)."""

from __future__ import annotations

import pytest

from repro import Budget, InfeasibleQueryError
from repro.core import DPBFSolver, brute_force_gst, dpbf_optimal_weight
from repro.graph import generators


class TestDPBF:
    def test_path(self, path_graph):
        result = DPBFSolver(path_graph, ["x", "y"]).solve()
        assert result.optimal
        assert result.weight == pytest.approx(3.0)
        result.tree.validate(path_graph, ["x", "y"])

    def test_agrees_with_brute_force(self, random_graph_factory):
        for seed in range(8):
            g = random_graph_factory(seed, n=10, extra_edges=8, k=3)
            labels = ["q0", "q1", "q2"]
            expected, _ = brute_force_gst(g, labels)
            assert dpbf_optimal_weight(g, labels) == pytest.approx(expected)

    def test_no_trace_until_done(self, path_graph):
        """DPBF's defining limitation: exactly one (final) answer event."""
        result = DPBFSolver(path_graph, ["x", "y"]).solve()
        assert len(result.trace) == 1
        assert result.trace[0].ratio == pytest.approx(1.0)

    def test_infeasible_raises(self, path_graph):
        with pytest.raises(InfeasibleQueryError):
            DPBFSolver(path_graph, ["x", "nope"]).solve()

    def test_max_states_interrupt(self):
        g = generators.random_graph(
            50, 120, num_query_labels=4, label_frequency=4, seed=0
        )
        labels = [f"q{i}" for i in range(4)]
        result = DPBFSolver(g, labels, budget=Budget(max_states=5)).solve()
        assert result.tree is None
        assert result.weight == float("inf")
        assert not result.optimal

    def test_stats_populated(self, star_graph):
        result = DPBFSolver(star_graph, ["x", "y", "z"]).solve()
        stats = result.stats
        assert stats.states_popped > 0
        assert stats.states_pushed >= stats.states_popped
        assert stats.peak_live_states > 0
        assert stats.total_seconds >= 0.0
