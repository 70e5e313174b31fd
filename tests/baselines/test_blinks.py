"""BLINKS-style solver tests: top-k roots, early termination, soundness."""

from __future__ import annotations

import pytest

from repro import Budget, InfeasibleQueryError
from repro.baselines import DistanceNetworkSolver
from repro.baselines.blinks import BlinksSolver
from repro.core import brute_force_gst
from repro.core.context import QueryContext
from repro.core.query import GSTQuery
from repro.graph import generators


def exact_root_scores(graph, labels):
    """Oracle: score(v) = Σ_i dist(v, V_i) for every node, exactly."""
    ctx = QueryContext.build(graph, GSTQuery(labels))
    scores = []
    for v in graph.nodes():
        total = 0.0
        for i in range(ctx.k):
            d = ctx.dist[i][v]
            if d == float("inf"):
                total = float("inf")
                break
            total += d
        scores.append(total)
    return scores


class TestBasics:
    def test_path(self, path_graph):
        result = BlinksSolver(path_graph, ["x", "y"]).solve()
        assert result.tree is not None
        result.tree.validate(path_graph, ["x", "y"])
        assert result.weight == pytest.approx(3.0)
        assert not result.optimal

    def test_k_answers_validation(self, path_graph):
        with pytest.raises(ValueError):
            BlinksSolver(path_graph, ["x"], k_answers=0)

    def test_infeasible_raises(self, path_graph):
        with pytest.raises(InfeasibleQueryError):
            BlinksSolver(path_graph, ["x", "ghost"]).solve()

    def test_split_groups_raise(self):
        from repro import Graph

        g = Graph()
        g.add_node(labels=["x"])
        g.add_node(labels=["y"])
        with pytest.raises(InfeasibleQueryError):
            BlinksSolver(g, ["x", "y"]).solve()

    def test_feasible_on_random_graphs(self):
        for seed in range(6):
            g = generators.random_graph(
                30, 60, num_query_labels=4, label_frequency=3, seed=seed
            )
            labels = [f"q{i}" for i in range(4)]
            result = BlinksSolver(g, labels).solve()
            result.tree.validate(g, labels)


class TestTopKCorrectness:
    @pytest.mark.parametrize("seed", range(8))
    def test_best_root_score_is_exact(self, seed):
        """Early termination must not change the top-1 root score."""
        g = generators.random_graph(
            30, 65, num_query_labels=3, label_frequency=3, seed=seed
        )
        labels = ["q0", "q1", "q2"]
        solver = BlinksSolver(g, labels, k_answers=3)
        solver.solve()
        answers = solver.top_roots()
        assert answers
        oracle = exact_root_scores(g, labels)
        best_possible = min(oracle)
        assert answers[0].score == pytest.approx(best_possible), seed

    @pytest.mark.parametrize("seed", range(5))
    def test_topk_scores_match_oracle(self, seed):
        g = generators.random_graph(
            25, 50, num_query_labels=3, label_frequency=3, seed=seed + 50
        )
        labels = ["q0", "q1", "q2"]
        k_answers = 4
        solver = BlinksSolver(g, labels, k_answers=k_answers)
        solver.solve()
        got = [a.score for a in solver.top_roots()]
        oracle = sorted(exact_root_scores(g, labels))[:k_answers]
        oracle = [s for s in oracle if s < float("inf")]
        assert got == pytest.approx(oracle[: len(got)])
        assert len(got) == min(k_answers, len(oracle))

    def test_scores_sorted_and_roots_distinct(self):
        g = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=4, seed=3
        )
        labels = [f"q{i}" for i in range(4)]
        solver = BlinksSolver(g, labels, k_answers=5)
        solver.solve()
        answers = solver.top_roots()
        scores = [a.score for a in answers]
        assert scores == sorted(scores)
        assert len({a.root for a in answers}) == len(answers)


class TestEarlyTermination:
    def test_terminates_before_full_exploration(self):
        """On a big graph with close-together keywords, BLINKS settles
        far fewer node/keyword pairs than the k·n full exploration."""
        g = generators.road_grid(
            30, 30, num_query_labels=6, label_frequency=30, seed=4
        )
        labels = [f"q{i}" for i in range(4)]
        solver = BlinksSolver(g, labels, k_answers=3)
        result = solver.solve()
        full_work = 4 * g.num_nodes
        assert result.stats.states_popped < 0.8 * full_work

    def test_answer_quality_against_optimum(self):
        for seed in range(5):
            g = generators.random_graph(
                10, 16, num_query_labels=3, label_frequency=2, seed=seed
            )
            labels = ["q0", "q1", "q2"]
            optimum, _ = brute_force_gst(g, labels)
            result = BlinksSolver(g, labels).solve()
            assert optimum - 1e-9 <= result.weight <= 3 * optimum + 1e-9

    def test_same_best_tree_weight_as_distance_network(self):
        """BLINKS' best root minimizes the same objective the
        distance-network heuristic scans for; answer weights agree
        after identical pruning."""
        for seed in range(5):
            g = generators.random_graph(
                35, 75, num_query_labels=3, label_frequency=3, seed=seed + 9
            )
            labels = ["q0", "q1", "q2"]
            blinks = BlinksSolver(g, labels).solve()
            dn = DistanceNetworkSolver(g, labels).solve()
            # Both pick a root minimizing the same score, so after the
            # identical path-union + prune pipeline the answers match.
            assert blinks.weight == pytest.approx(dn.weight)

    def test_time_limit(self):
        g = generators.powerlaw(
            600, num_query_labels=6, label_frequency=5, seed=5
        )
        labels = [f"q{i}" for i in range(5)]
        result = BlinksSolver(g, labels, budget=Budget(time_limit=0.005)).solve()
        # Either finished or stopped; no exception, stats sane.
        assert result.stats.total_seconds < 2.0


class TestBiLevelIndex:
    def test_index_preserves_answers(self):
        from repro.baselines.blinks import BlinksIndex

        for seed in range(5):
            g = generators.random_graph(
                40, 85, num_query_labels=3, label_frequency=3, seed=seed + 30
            )
            labels = ["q0", "q1", "q2"]
            plain = BlinksSolver(g, labels, k_answers=3)
            plain.solve()
            index = BlinksIndex(g, block_size=8)
            indexed = BlinksSolver(g, labels, k_answers=3, index=index)
            indexed.solve()
            assert [a.score for a in indexed.top_roots()] == pytest.approx(
                [a.score for a in plain.top_roots()]
            )

    def test_index_never_explores_more(self):
        from repro.baselines.blinks import BlinksIndex

        g = generators.road_grid(
            25, 25, num_query_labels=6, label_frequency=20, seed=6
        )
        labels = [f"q{i}" for i in range(4)]
        plain = BlinksSolver(g, labels, k_answers=2).solve()
        index = BlinksIndex(g, block_size=25)
        indexed = BlinksSolver(g, labels, k_answers=2, index=index).solve()
        assert indexed.weight == pytest.approx(plain.weight)
        assert (
            indexed.stats.states_popped
            <= plain.stats.states_popped + 64  # check-interval slack
        )

    def test_keyword_bounds_admissible(self):
        from repro.baselines.blinks import BlinksIndex
        from repro.core.context import QueryContext
        from repro.core.query import GSTQuery

        g = generators.random_graph(
            45, 95, num_query_labels=3, label_frequency=4, seed=9
        )
        labels = ["q0", "q1", "q2"]
        index = BlinksIndex(g, block_size=7)
        query = GSTQuery(labels)
        groups = query.groups(g)
        bounds = index.keyword_bounds(groups)
        ctx = QueryContext.build(g, query)
        for i in range(3):
            for v in g.nodes():
                block = index.partition.block_of(v)
                assert bounds[i][block] <= ctx.dist[i][v] + 1e-9

    def test_index_for_wrong_graph_rejected(self):
        from repro import GraphError
        from repro.baselines.blinks import BlinksIndex

        g1 = generators.random_graph(10, 15, num_query_labels=2, seed=1)
        g2 = generators.random_graph(10, 15, num_query_labels=2, seed=2)
        index = BlinksIndex(g1)
        with pytest.raises(GraphError):
            BlinksSolver(g2, ["q0", "q1"], index=index)
