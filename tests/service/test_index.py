"""GraphIndex: shared caches, solving, execute()."""

from __future__ import annotations

import pytest

from repro import Graph
from repro.core import PrunedDPPlusPlusSolver, solve_gst
from repro.core.cache import LabelDistanceCache
from repro.errors import InfeasibleQueryError, LimitExceededError
from repro.graph import generators
from repro.service import Budget, GraphIndex
from repro.service.telemetry import STAGES


@pytest.fixture
def graph():
    return generators.random_graph(
        60, 130, num_query_labels=6, label_frequency=4, seed=33
    )


@pytest.fixture
def two_islands():
    """Two disconnected components with distinct and shared labels."""
    g = Graph()
    a = g.add_node(labels=["x", "shared"], name="a")
    b = g.add_node(labels=["y"], name="b")
    g.add_edge(a, b, 1.0)
    c = g.add_node(labels=["z", "shared"], name="c")
    d = g.add_node(labels=["w"], name="d")
    g.add_edge(c, d, 2.0)
    return g


class TestConstruction:
    def test_ensure_identity(self, graph):
        index = GraphIndex(graph)
        assert GraphIndex.ensure(index) is index
        assert isinstance(GraphIndex.ensure(graph), GraphIndex)

    def test_foreign_cache_rejected(self, graph):
        other = generators.random_graph(
            10, 15, num_query_labels=2, label_frequency=2, seed=1
        )
        with pytest.raises(ValueError):
            GraphIndex(graph, cache=LabelDistanceCache(other))

    def test_stats_mirror_graph(self, graph):
        index = GraphIndex(graph)
        assert index.num_nodes == graph.num_nodes
        assert index.num_edges == graph.num_edges
        assert index.num_labels == graph.num_labels
        assert index.label_frequency("q0") == graph.label_frequency("q0")

    def test_build_seconds_recorded(self, graph):
        index = GraphIndex(graph)
        assert index.build_seconds >= 0.0


class TestSolveParity:
    def test_same_answers_as_cold_solver(self, graph):
        index = GraphIndex(graph)
        for labels in (["q0", "q1"], ["q1", "q2", "q3"], ["q0", "q4"]):
            warm = index.solve(labels)
            cold = PrunedDPPlusPlusSolver(graph, labels).solve()
            assert warm.optimal and cold.optimal
            assert warm.weight == pytest.approx(cold.weight)

    def test_all_algorithms_agree(self, graph):
        index = GraphIndex(graph)
        weights = {
            algorithm: index.solve(["q0", "q1"], algorithm=algorithm).weight
            for algorithm in ("basic", "pruneddp", "pruneddp+", "pruneddp++", "dpbf")
        }
        reference = weights["pruneddp++"]
        for algorithm, weight in weights.items():
            assert weight == pytest.approx(reference), algorithm

    def test_algorithm_selection(self, graph):
        index = GraphIndex(graph)
        basic = index.solve(["q0", "q1"], algorithm="basic")
        pp = index.solve(["q0", "q1"], algorithm="pruneddp++")
        assert basic.weight == pytest.approx(pp.weight)
        with pytest.raises(ValueError):
            index.solve(["q0"], algorithm="magic")

    def test_kwargs_forwarded(self, graph):
        result = GraphIndex(graph).solve(
            ["q0", "q1", "q2"], budget=Budget(epsilon=1.0)
        )
        assert result.ratio <= 2.0 + 1e-9

    def test_auto_algorithm_resolves(self, graph):
        outcome = GraphIndex(graph).execute(["q0", "q1"], algorithm="auto")
        assert outcome.ok
        assert outcome.algorithm != "auto"

    def test_solve_gst_facade_delegates(self, graph):
        facade = solve_gst(graph, ["q0", "q1"])
        direct = GraphIndex(graph).solve(["q0", "q1"])
        assert facade.weight == pytest.approx(direct.weight)


class TestCacheSharing:
    def test_repeated_labels_hit_cache(self, graph):
        index = GraphIndex(graph)
        index.solve(["q0", "q1"])
        before = index.cache_info()
        index.solve(["q0", "q2"])
        after = index.cache_info()
        assert after["hits"] > before["hits"]

    def test_trace_counts_hits_and_misses(self, graph):
        index = GraphIndex(graph)
        first = index.execute(["q0", "q1"])
        assert first.trace.cache_hits == 0
        assert first.trace.cache_misses == 2
        second = index.execute(["q0", "q2"])
        assert second.trace.cache_hits == 1
        assert second.trace.cache_misses == 1

    def test_lru_bound_enforced(self, graph):
        index = GraphIndex(graph, max_cached_labels=2)
        index.solve(["q0", "q1"])
        index.solve(["q2", "q3"])
        index.solve(["q4", "q5"])
        info = index.cache_info()
        assert info["cached_labels"] <= 2
        assert info["evictions"] >= 4
        assert info["max_labels"] == 2


class TestComponents:
    def test_solve_within_component(self, two_islands):
        result = GraphIndex(two_islands).solve(["z", "w"])
        assert result.optimal
        assert result.weight == pytest.approx(2.0)

    def test_cross_component_query_infeasible(self, two_islands):
        outcome = GraphIndex(two_islands).execute(["x", "w"])
        assert not outcome.ok
        assert isinstance(outcome.error, InfeasibleQueryError)
        assert outcome.trace.status == "infeasible"


class TestExecute:
    def test_never_raises_on_bad_algorithm(self, graph):
        outcome = GraphIndex(graph).execute(["q0"], algorithm="nonsense")
        assert not outcome.ok
        assert isinstance(outcome.error, ValueError)
        assert outcome.trace.status == "error"
        with pytest.raises(ValueError):
            outcome.raise_for_error()

    def test_never_raises_on_missing_label(self, graph):
        outcome = GraphIndex(graph).execute(["q0", "no-such-label"])
        assert not outcome.ok
        assert outcome.trace.status == "infeasible"

    def test_expired_budget_skips(self, graph):
        import time

        budget = Budget().replace(deadline=time.perf_counter() - 1.0)
        outcome = GraphIndex(graph).execute(["q0", "q1"], budget=budget)
        assert not outcome.ok
        assert isinstance(outcome.error, LimitExceededError)
        assert outcome.trace.status == "skipped"
        assert outcome.trace.stages == {}

    def test_trace_stages_partition_wall(self, graph):
        outcome = GraphIndex(graph).execute(["q0", "q1", "q2"])
        trace = outcome.trace
        assert outcome.ok
        assert set(trace.stages) == set(STAGES)
        assert all(value >= 0.0 for value in trace.stages.values())
        assert trace.stage_total <= trace.wall_seconds + 1e-6
        assert trace.weight == pytest.approx(outcome.result.weight)
        assert trace.stats["feasible_seconds"] >= 0.0

    def test_query_id_passthrough(self, graph):
        outcome = GraphIndex(graph).execute(["q0", "q1"], query_id="abc")
        assert outcome.query_id == "abc"
        assert outcome.trace.query_id == "abc"

    def test_events_recorded(self, graph):
        outcome = GraphIndex(graph).execute(["q0", "q1"])
        names = [event["event"] for event in outcome.trace.events]
        assert "search_started" in names
        assert "search_finished" in names
