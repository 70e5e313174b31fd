"""End-to-end correctness tests for the four progressive solvers.

The invariants checked here are the paper's claims:

* all four algorithms (and DPBF) return the same, optimal weight;
* returned trees are valid covering trees of exactly that weight;
* every solve is *progressive*: UB non-increasing, LB non-decreasing,
  proven ratio monotone, final ratio 1;
* PrunedDP pops no more states than Basic, PrunedDP++ no more than
  PrunedDP (the pruning/A* theorems at work);
* anytime knobs (epsilon, time_limit, max_states) return sound
  guarantees.
"""

from __future__ import annotations

import pytest

from repro import Budget, Graph, GraphError, InfeasibleQueryError
from repro.core import (
    BasicSolver,
    DPBFSolver,
    PrunedDPPlusPlusSolver,
    PrunedDPPlusSolver,
    PrunedDPSolver,
    brute_force_gst,
    dpbf_optimal_weight,
)
from repro.graph import generators
from repro.verify import certify_result, generate_instance

ALL_PROGRESSIVE = [
    BasicSolver,
    PrunedDPSolver,
    PrunedDPPlusSolver,
    PrunedDPPlusPlusSolver,
]
ALL_EXACT = ALL_PROGRESSIVE + [DPBFSolver]

INF = float("inf")


@pytest.mark.parametrize("solver_cls", ALL_EXACT)
class TestSmallInstances:
    def test_path(self, path_graph, solver_cls):
        result = solver_cls(path_graph, ["x", "y"]).solve()
        assert result.optimal
        assert result.weight == pytest.approx(3.0)
        result.tree.validate(path_graph, ["x", "y"])

    def test_diamond_prefers_light_route(self, diamond_graph, solver_cls):
        result = solver_cls(diamond_graph, ["x", "y"]).solve()
        assert result.weight == pytest.approx(2.0)
        assert frozenset({0, 1, 3}) == result.tree.nodes

    def test_star(self, star_graph, solver_cls):
        result = solver_cls(star_graph, ["x", "y", "z"]).solve()
        assert result.weight == pytest.approx(6.0)
        assert 0 in result.tree.nodes  # must route through the hub

    def test_single_label_is_single_node(self, path_graph, solver_cls):
        result = solver_cls(path_graph, ["x"]).solve()
        assert result.optimal
        assert result.weight == 0.0
        assert result.tree.nodes == frozenset({0})

    def test_all_labels_on_one_node(self, solver_cls):
        g = Graph()
        v = g.add_node(labels=["a", "b", "c"])
        w = g.add_node(labels=["a"])
        g.add_edge(v, w, 4.0)
        result = solver_cls(g, ["a", "b", "c"]).solve()
        assert result.weight == 0.0
        assert result.tree.nodes == frozenset({v})

    def test_two_nodes_sharing_labels(self, solver_cls):
        g = Graph()
        a = g.add_node(labels=["p", "q"])
        b = g.add_node(labels=["q", "r"])
        g.add_edge(a, b, 2.5)
        result = solver_cls(g, ["p", "q", "r"]).solve()
        assert result.weight == pytest.approx(2.5)

    def test_missing_label_raises(self, path_graph, solver_cls):
        with pytest.raises(InfeasibleQueryError):
            solver_cls(path_graph, ["x", "ghost"]).solve()

    def test_split_labels_raise(self, solver_cls):
        g = Graph()
        g.add_node(labels=["x"])
        g.add_node(labels=["y"])
        with pytest.raises(InfeasibleQueryError):
            solver_cls(g, ["x", "y"]).solve()

    def test_disconnected_graph_uses_covering_component(
        self, disconnected_graph, solver_cls
    ):
        result = solver_cls(disconnected_graph, ["x", "y"]).solve()
        assert result.optimal
        assert result.weight == pytest.approx(5.0)
        assert result.tree.nodes == frozenset({2, 3, 4})


class TestCrossAlgorithmAgreement:
    @pytest.mark.parametrize("seed", range(15))
    def test_agree_with_brute_force(self, seed, random_graph_factory):
        g = random_graph_factory(seed, n=10, extra_edges=8, k=3)
        labels = ["q0", "q1", "q2"]
        expected, _ = brute_force_gst(g, labels)
        for solver_cls in ALL_EXACT:
            result = solver_cls(g, labels).solve()
            assert result.optimal, solver_cls.__name__
            assert result.weight == pytest.approx(expected), solver_cls.__name__
            result.tree.validate(g, labels)
            assert result.tree.weight == pytest.approx(result.weight)

    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_agree_across_query_sizes(self, k):
        g = generators.random_graph(
            30, 60, num_query_labels=k, label_frequency=3, seed=99
        )
        labels = [f"q{i}" for i in range(k)]
        weights = set()
        for solver_cls in ALL_EXACT:
            result = solver_cls(g, labels).solve()
            assert result.optimal
            weights.add(round(result.weight, 9))
            result.tree.validate(g, labels)
        assert len(weights) == 1

    def test_no_reopens_observed(self, random_graph_factory):
        """The consistency fix keeps the exactness safety net idle."""
        for seed in range(10):
            g = random_graph_factory(seed, n=12, extra_edges=10, k=4)
            labels = [f"q{i}" for i in range(4)]
            for solver_cls in ALL_PROGRESSIVE:
                result = solver_cls(g, labels).solve()
                assert result.stats.reopened == 0

    def test_safety_net_reopens_and_stays_exact(self):
        """The counter is not always 0: this instance reopens a state.

        Default PrunedDP++ reaches one settled state again by a strictly
        cheaper derivation here; the reopen keeps the answer exact.
        """
        graph, labels = generate_instance(275, max_nodes=60, max_labels=6)
        result = PrunedDPPlusPlusSolver(graph, labels).solve()
        assert result.stats.reopened >= 1
        assert result.optimal
        assert result.weight == pytest.approx(dpbf_optimal_weight(graph, labels))
        certify_result(graph, result, labels=labels).raise_if_failed()


class TestPruningEffectiveness:
    def test_state_count_ordering(self):
        """Theorems 1-2 + A*: each refinement pops fewer states."""
        g = generators.dblp_like(
            num_papers=150, num_authors=90,
            num_query_labels=12, label_frequency=5, seed=5,
        )
        labels = [f"q{i}" for i in range(4)]
        popped = {}
        for solver_cls in ALL_PROGRESSIVE:
            result = solver_cls(g, labels).solve()
            assert result.optimal
            popped[result.algorithm] = result.stats.states_popped
        assert popped["PrunedDP"] <= popped["Basic"]
        assert popped["PrunedDP+"] <= popped["PrunedDP"]
        assert popped["PrunedDP++"] <= popped["PrunedDP+"]

    def test_basic_prunes_versus_dpbf(self):
        g = generators.dblp_like(
            num_papers=120, num_authors=70,
            num_query_labels=10, label_frequency=5, seed=2,
        )
        labels = [f"q{i}" for i in range(4)]
        basic = BasicSolver(g, labels).solve()
        dpbf = DPBFSolver(g, labels).solve()
        assert basic.weight == pytest.approx(dpbf.weight)
        # Basic's best-solution pruning keeps its live state set at or
        # below DPBF's (the paper's argument for it as baseline).
        assert basic.stats.peak_live_states <= dpbf.stats.peak_live_states


class TestProgressiveProperties:
    @pytest.mark.parametrize("solver_cls", ALL_PROGRESSIVE)
    def test_trace_monotone(self, solver_cls):
        g = generators.random_graph(
            40, 80, num_query_labels=4, label_frequency=4, seed=21
        )
        labels = [f"q{i}" for i in range(4)]
        result = solver_cls(g, labels).solve()
        trace = result.trace
        assert trace, "progressive solvers must emit progress"
        for a, b in zip(trace, trace[1:]):
            assert b.best_weight <= a.best_weight + 1e-9       # UB down
            assert b.lower_bound >= a.lower_bound - 1e-9       # LB up
            assert b.elapsed >= a.elapsed - 1e-9
            if a.ratio != INF:
                assert b.ratio <= a.ratio + 1e-9               # ratio down
        assert trace[-1].ratio == pytest.approx(1.0)
        assert trace[-1].best_weight == pytest.approx(result.weight)

    @pytest.mark.parametrize("solver_cls", ALL_PROGRESSIVE)
    def test_on_progress_callback(self, solver_cls, path_graph):
        events = []
        solver_cls(path_graph, ["x", "y"], on_progress=events.append).solve()
        assert events
        assert events[-1].ratio == pytest.approx(1.0)

    def test_lower_bound_never_exceeds_optimum_during_run(self):
        g = generators.random_graph(
            12, 20, num_query_labels=3, label_frequency=2, seed=4
        )
        labels = ["q0", "q1", "q2"]
        optimum, _ = brute_force_gst(g, labels)
        for solver_cls in ALL_PROGRESSIVE:
            result = solver_cls(g, labels).solve()
            for point in result.trace:
                assert point.lower_bound <= optimum + 1e-9
                if point.best_weight != INF:
                    assert point.best_weight >= optimum - 1e-9


class TestAnytimeKnobs:
    def test_epsilon_guarantee(self):
        g = generators.dblp_like(
            num_papers=150, num_authors=90,
            num_query_labels=12, label_frequency=5, seed=5,
        )
        labels = [f"q{i}" for i in range(5)]
        exact = PrunedDPPlusPlusSolver(g, labels).solve()
        approx = PrunedDPPlusPlusSolver(g, labels, budget=Budget(epsilon=0.5)).solve()
        assert approx.weight <= (1.5 + 1e-9) * exact.weight
        assert approx.ratio <= 1.5 + 1e-9
        assert approx.stats.states_popped <= exact.stats.states_popped

    def test_epsilon_zero_still_exact(self, star_graph):
        result = PrunedDPPlusPlusSolver(
            star_graph, ["x", "y", "z"], budget=Budget(epsilon=0.0)
        ).solve()
        assert result.optimal
        assert result.weight == pytest.approx(6.0)

    def test_negative_epsilon_rejected(self, star_graph):
        from repro.core.engine import SearchEngine
        from repro.core.context import QueryContext
        from repro import GSTQuery

        ctx = QueryContext.build(star_graph, GSTQuery(["x", "y"]))
        with pytest.raises(ValueError):
            SearchEngine(ctx, algorithm_name="t", budget=Budget(epsilon=-0.1))

    def test_time_limit_returns_sound_answer(self):
        g = generators.dblp_like(
            num_papers=200, num_authors=120,
            num_query_labels=12, label_frequency=6, seed=6,
        )
        labels = [f"q{i}" for i in range(6)]
        result = BasicSolver(g, labels, budget=Budget(time_limit=0.02)).solve()
        # Whatever it returned is a real covering tree (or nothing yet),
        # and the proven ratio is honest.
        if result.tree is not None:
            result.tree.validate(g, labels)
            exact = PrunedDPPlusPlusSolver(g, labels).solve()
            assert result.weight >= exact.weight - 1e-9
            if result.lower_bound > 0:
                assert result.weight <= result.ratio * result.lower_bound + 1e-6

    def test_max_states_return_mode(self):
        g = generators.random_graph(
            40, 80, num_query_labels=4, label_frequency=4, seed=3
        )
        labels = [f"q{i}" for i in range(4)]
        result = BasicSolver(g, labels, budget=Budget(max_states=300)).solve()
        assert result.stats.states_popped <= 300 + 256  # check interval slack


class TestWeightValidation:
    def test_pruned_rejects_zero_weights(self):
        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        g.add_edge(a, b, 0.0)
        with pytest.raises(GraphError):
            PrunedDPSolver(g, ["x", "y"])
        with pytest.raises(GraphError):
            PrunedDPPlusPlusSolver(g, ["x", "y"])

    def test_basic_accepts_zero_weights(self):
        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        g.add_edge(a, b, 0.0)
        result = BasicSolver(g, ["x", "y"]).solve()
        assert result.weight == 0.0
        assert result.optimal


class TestBoundAblations:
    def test_plusplus_bound_toggles_all_exact(self):
        g = generators.random_graph(
            25, 50, num_query_labels=4, label_frequency=3, seed=8
        )
        labels = [f"q{i}" for i in range(4)]
        reference = DPBFSolver(g, labels).solve().weight
        for flags in [
            dict(use_one_label=True, use_tour1=False, use_tour2=False),
            dict(use_one_label=False, use_tour1=True, use_tour2=False),
            dict(use_one_label=False, use_tour1=False, use_tour2=True),
            dict(use_one_label=True, use_tour1=True, use_tour2=False),
            dict(use_one_label=True, use_tour1=False, use_tour2=True),
        ]:
            result = PrunedDPPlusPlusSolver(g, labels, **flags).solve()
            assert result.optimal, flags
            assert result.weight == pytest.approx(reference), flags
