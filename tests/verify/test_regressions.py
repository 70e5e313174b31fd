"""Regression pins for the bound/ratio bugfix sweep.

Every test here encodes a defect the differential harness exists to
catch.  The constructor- and engine-level tests fail on the pre-fix
code: zero-weight optima used to come back ``optimal=False``/``ratio
inf`` (and could drain the queue into a state-limit error with the
proven answer already in hand), crossed lower bounds used to survive
into results, traces, and the persisted cache, and the brute-force
oracle used to fold absent labels into plain infeasibility instead of
raising the typed error every other tier raises.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.budget import Budget
from repro.core.bruteforce import brute_force_gst
from repro.core.result import GSTResult, ProgressPoint, SearchStats
from repro.core.solver import ALGORITHMS, solve_gst
from repro.core.tree import SteinerTree
from repro.errors import InfeasibleQueryError, StoreCorruptError
from repro.graph import Graph, generators
from repro.service import GraphIndex, QueryExecutor
from repro.store.result_cache import CachedAnswer, ResultCache

INF = float("inf")


def _result(**overrides) -> GSTResult:
    base = dict(
        algorithm="basic",
        labels=("x",),
        tree=SteinerTree([(0, 1, 5.0)]),
        weight=5.0,
        lower_bound=0.0,
        optimal=False,
        stats=SearchStats(),
    )
    base.update(overrides)
    return GSTResult(**base)


class TestZeroWeightOptimal:
    """A weight-0.0 covering tree is trivially optimal (weights >= 0)."""

    def test_constructor_normalizes_zero_weight(self):
        result = _result(
            tree=SteinerTree([], nodes=(3,)), weight=0.0, optimal=False
        )
        assert result.optimal
        assert result.ratio == 1.0
        assert result.lower_bound == 0.0

    def test_all_tiers_classify_zero_weight_as_optimal(self):
        graph = Graph()
        hub = graph.add_node(labels=["x", "y", "z"])
        other = graph.add_node(labels=["x"])
        graph.add_edge(hub, other, 4.0)
        labels = ["x", "y", "z"]
        for algorithm in sorted(ALGORITHMS):
            result = solve_gst(graph, labels, algorithm=algorithm)
            assert result.weight == 0.0, algorithm
            assert result.optimal, algorithm
            assert result.ratio == 1.0, algorithm
        weight, tree = brute_force_gst(graph, labels)
        assert weight == 0.0 and tree is not None

    def test_engine_stops_promptly_on_zero_weight_incumbent(self):
        # One hub node carries the whole query; 300 more nodes carry a
        # query label, so the engine seeds 300+ zero-cost states.  The
        # first pop of the hub yields a weight-0 incumbent; the search
        # must stop there instead of draining every remaining seed —
        # pre-fix the epsilon check demanded a positive lower bound, so
        # the drain ran on to max_states with the proven optimum
        # already in hand.
        graph = Graph()
        hub = graph.add_node(labels=["x", "y"])
        previous = hub
        for _ in range(300):
            node = graph.add_node(labels=["x"])
            graph.add_edge(previous, node, 1.0)
            previous = node
        result = solve_gst(
            graph, ["x", "y"], algorithm="basic", budget=Budget(max_states=64)
        )
        assert result.weight == 0.0
        assert result.optimal
        assert result.stats.states_popped < 64


class TestLowerBoundClamping:
    """No report may ever claim lower_bound > best_weight."""

    def test_crossing_bound_is_discarded(self):
        result = _result(lower_bound=7.0)
        assert result.lower_bound == 0.0  # untrustworthy bound dropped
        assert result.ratio == INF        # never a false guarantee

    def test_rounding_level_crossing_clamps_to_weight(self):
        result = _result(lower_bound=5.0 + 1e-12)
        assert result.lower_bound == 5.0
        assert result.ratio == 1.0
        assert not result.optimal  # clamping proves the ratio, not optimality

    def test_negative_bound_resets_to_zero(self):
        assert _result(lower_bound=-3.0).lower_bound == 0.0

    def test_progress_point_enforces_non_crossing(self):
        crossed = ProgressPoint(0.0, 5.0, 7.0)
        assert crossed.lower_bound == 0.0
        assert crossed.ratio == INF
        rounded = ProgressPoint(0.0, 5.0, 5.0 + 1e-12)
        assert rounded.lower_bound == 5.0
        assert rounded.ratio == 1.0

    def test_live_traces_never_cross(self):
        graph = generators.random_graph(
            40, 90, num_query_labels=4, label_frequency=4, seed=21
        )
        for algorithm in ("basic", "pruneddp", "pruneddp+", "pruneddp++"):
            for epsilon in (0.0, 0.25):
                result = solve_gst(
                    graph,
                    ["q0", "q1", "q2", "q3"],
                    algorithm=algorithm,
                    budget=Budget(epsilon=epsilon),
                )
                assert result.lower_bound <= result.weight
                for point in result.trace:
                    assert point.lower_bound <= point.best_weight, (
                        algorithm, epsilon, point
                    )


class TestAbsentLabelErrors:
    """An unknown label is a typed error on every tier, not inf."""

    @pytest.mark.parametrize(
        "algorithm", ["bruteforce"] + sorted(ALGORITHMS)
    )
    def test_every_tier_raises_typed_error(self, path_graph, algorithm):
        labels = ["x", "no-such-label"]
        with pytest.raises(InfeasibleQueryError):
            if algorithm == "bruteforce":
                brute_force_gst(path_graph, labels)
            else:
                solve_gst(path_graph, labels, algorithm=algorithm)

    def test_present_but_disconnected_is_not_an_error(self):
        # The typed error is strictly for labels absent from the graph;
        # a present-but-unreachable group stays plain infeasibility.
        graph = Graph()
        graph.add_node(labels=["x"])
        graph.add_node(labels=["y"])
        weight, tree = brute_force_gst(graph, ["x", "y"])
        assert weight == INF and tree is None

    def test_service_path_maps_to_infeasible_outcome(self, path_graph):
        outcome = GraphIndex(path_graph).execute(["x", "no-such-label"])
        assert not outcome.ok
        assert isinstance(outcome.error, InfeasibleQueryError)
        assert outcome.trace.status == "infeasible"


class TestCachedBoundHygiene:
    """Crossed bounds must not enter or leave the result cache."""

    @pytest.fixture
    def graph(self):
        return generators.random_graph(
            30, 60, num_query_labels=3, label_frequency=4, seed=9
        )

    def test_from_record_rejects_crossing_bound(self, graph):
        result = solve_gst(graph, ["q0", "q1"])
        cache = ResultCache()
        entry = cache.put(["q0", "q1"], "pruneddp++", result)
        record = entry.to_record()
        record["lower_bound"] = record["weight"] * 2.0
        record["optimal"] = False
        with pytest.raises(StoreCorruptError):
            CachedAnswer.from_record(record)

    def _poison(self, index, labels):
        """Cache an answer whose claimed weight is half the real one."""
        honest = index.solve(labels)
        lied = dataclasses.replace(honest, trace=[])
        lied.weight = honest.weight / 2.0
        index.result_cache = ResultCache()
        assert index.result_cache.put(labels, "pruneddp++", lied) is not None
        return honest

    def test_uncertified_executor_serves_poisoned_hit(self, graph):
        index = GraphIndex(graph)
        honest = self._poison(index, ["q0", "q1"])
        with QueryExecutor(index, max_workers=1) as executor:
            outcome = executor.run_batch([["q0", "q1"]])[0]
        assert outcome.trace.result_cache == "hit"
        assert outcome.result.weight == pytest.approx(honest.weight / 2.0)

    def test_certifying_executor_evicts_and_resolves(self, graph):
        index = GraphIndex(graph)
        honest = self._poison(index, ["q0", "q1"])
        with QueryExecutor(
            index, max_workers=1, certify_cache_hits=True
        ) as executor:
            outcome = executor.run_batch([["q0", "q1"]])[0]
        assert outcome.ok
        assert outcome.trace.result_cache != "hit"
        assert outcome.result.weight == pytest.approx(honest.weight)
        assert index.result_cache.evictions >= 1

    def test_certifying_executor_passes_honest_hits(self, graph):
        index = GraphIndex(graph)
        index.result_cache = ResultCache()
        labels = ["q0", "q1"]
        honest = index.solve(labels)
        index.result_cache.put(labels, "pruneddp++", honest)
        with QueryExecutor(
            index, max_workers=1, certify_cache_hits=True
        ) as executor:
            outcome = executor.run_batch([labels])[0]
        assert outcome.trace.result_cache == "hit"
        assert outcome.result.weight == pytest.approx(honest.weight)
        assert index.result_cache.evictions == 0
