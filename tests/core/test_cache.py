"""Cross-query distance cache tests."""

from __future__ import annotations

import tracemalloc
from array import array

import pytest

from repro.core import PrunedDPPlusPlusSolver
from repro.core.cache import LabelDistanceCache
from repro.graph import generators


@pytest.fixture
def graph():
    return generators.random_graph(
        50, 110, num_query_labels=6, label_frequency=4, seed=21
    )


class TestLabelDistanceCache:
    def test_hit_miss_accounting(self, graph):
        cache = LabelDistanceCache(graph)
        cache.distances("q0")
        cache.distances("q1")
        cache.distances("q0")
        assert cache.misses == 2
        assert cache.hits == 1
        assert len(cache) == 2
        assert "q0" in cache and "q5" not in cache

    def test_unknown_label_raises(self, graph):
        with pytest.raises(KeyError):
            LabelDistanceCache(graph).distances("ghost")

    def test_cached_arrays_identical_to_fresh(self, graph):
        from repro.graph.shortest_paths import multi_source_dijkstra

        cache = LabelDistanceCache(graph)
        dist_cached, parent_cached = cache.distances("q2")
        dist_fresh, _ = multi_source_dijkstra(
            graph, list(graph.nodes_with_label("q2"))
        )
        assert dist_cached == dist_fresh

    def test_clear(self, graph):
        cache = LabelDistanceCache(graph)
        cache.distances("q0")
        cache.clear()
        assert len(cache) == 0


class TestCacheGraphBinding:
    def test_foreign_graph_cache_rejected(self, graph):
        """A cache bound to another graph must be refused, not silently
        misindexed."""
        from repro.core import PrunedDPPlusPlusSolver
        from repro.graph import generators

        other = generators.random_graph(
            50, 110, num_query_labels=6, label_frequency=4, seed=99
        )
        cache = LabelDistanceCache(other)
        with pytest.raises(ValueError):
            PrunedDPPlusPlusSolver(
                graph, ["q0", "q1"], distance_cache=cache
            ).solve()

    def test_disconnected_graph_with_cache_stays_correct(self):
        """solve_gst now solves disconnected graphs whole (no node
        renumbering), so a shared cache stays valid and answers right."""
        from repro import Graph, solve_gst

        g = Graph()
        a = g.add_node(labels=["x"])
        b = g.add_node(labels=["y"])
        g.add_edge(a, b, 4.0)
        c = g.add_node(labels=["x"])
        d = g.add_node(labels=["y"])
        g.add_edge(c, d, 1.0)
        cache = LabelDistanceCache(g)
        result = solve_gst(g, ["x", "y"], distance_cache=cache)
        assert result.weight == pytest.approx(1.0)
        assert result.optimal


class TestLRUBound:
    def test_max_labels_validation(self, graph):
        with pytest.raises(ValueError):
            LabelDistanceCache(graph, max_labels=0)
        with pytest.raises(ValueError):
            LabelDistanceCache(graph, max_labels=-3)

    def test_unbounded_by_default(self, graph):
        cache = LabelDistanceCache(graph)
        for i in range(6):
            cache.distances(f"q{i}")
        assert len(cache) == 6
        assert cache.evictions == 0

    def test_oldest_label_evicted_first(self, graph):
        cache = LabelDistanceCache(graph, max_labels=2)
        cache.distances("q0")
        cache.distances("q1")
        cache.distances("q2")  # pushes q0 out
        assert len(cache) == 2
        assert cache.evictions == 1
        assert "q0" not in cache
        assert "q1" in cache and "q2" in cache

    def test_hit_refreshes_recency(self, graph):
        cache = LabelDistanceCache(graph, max_labels=2)
        cache.distances("q0")
        cache.distances("q1")
        cache.distances("q0")  # q0 becomes most recent
        cache.distances("q2")  # so q1 is the one evicted
        assert "q0" in cache
        assert "q1" not in cache

    def test_evicted_label_recomputed_on_return(self, graph):
        cache = LabelDistanceCache(graph, max_labels=1)
        first, _ = cache.distances("q0")
        cache.distances("q1")
        again, _ = cache.distances("q0")  # recomputed after eviction
        assert cache.evictions == 2
        assert again == first

    def test_counters_snapshot(self, graph):
        cache = LabelDistanceCache(graph, max_labels=2)
        cache.distances("q0")
        cache.distances("q0")
        cache.distances("q1")
        cache.distances("q2")
        assert cache.counters() == {
            "hits": 1,
            "misses": 3,
            "evictions": 1,
            "cached_labels": 2,
            "max_labels": 2,
            "warm_loads": 0,
            "warm_labels": 0,
            "table_bytes": 2 * 12 * graph.num_nodes,
        }


class TestFootprint:
    """Tables are array('d') + array('i'): 12 bytes per node, whatever
    filled the cache."""

    def test_table_bytes_counts_twelve_per_node(self, graph):
        from repro.service import GraphIndex

        index = GraphIndex(graph)
        for count, label in enumerate(["q0", "q1", "q2", "q3"], start=1):
            index.cache.distances(label)
            assert index.cache_info()["table_bytes"] == count * 12 * graph.num_nodes
        index.cache.clear()
        assert index.cache_info()["table_bytes"] == 0

    def test_every_entry_has_the_kernel_layout(self, graph):
        from repro.graph.shortest_paths import multi_source_dijkstra

        cache = LabelDistanceCache(graph)
        dist, parent = multi_source_dijkstra(
            graph, list(graph.nodes_with_label("q1"))
        )
        cache.preload("q1", (list(dist), list(parent)))
        cache.preload("q2", multi_source_dijkstra(
            graph, list(graph.nodes_with_label("q2"))
        ))
        cache.distances("q0")
        for label in ("q0", "q1", "q2"):
            got_dist, got_parent = cache.distances(label)
            assert isinstance(got_dist, array) and got_dist.typecode == "d"
            assert isinstance(got_parent, array) and got_parent.typecode == "i"
        assert cache.distances("q1") == (dist, parent)

    def test_traced_growth_per_label_is_at_most_16_bytes_a_node(self):
        graph = generators.random_graph(
            4000, 9000, num_query_labels=7, label_frequency=8, seed=5
        )
        graph.freeze()
        cache = LabelDistanceCache(graph)
        cache.distances("q0")  # first-call set-up is not per-label growth
        labels = [f"q{i}" for i in range(1, 7)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for label in labels:
                cache.distances(label)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == 1 + len(labels)
        assert grown / len(labels) <= 16 * graph.num_nodes


class TestPreload:
    """Store warm-loading into the live cache (repro.store wiring)."""

    def test_preload_counts_warm_not_miss(self, graph):
        from repro.graph.shortest_paths import multi_source_dijkstra

        cache = LabelDistanceCache(graph)
        entry = multi_source_dijkstra(graph, list(graph.nodes_with_label("q0")))
        cache.preload("q0", entry)
        assert cache.warm_loads == 1
        assert cache.misses == 0
        assert cache.is_warm("q0")
        # A later query on q0 is a hit served from the preloaded arrays.
        dist, parent = cache.distances("q0")
        assert cache.hits == 1
        assert dist == entry[0]

    def test_preload_validates_array_shape(self, graph):
        cache = LabelDistanceCache(graph)
        with pytest.raises(ValueError, match="nodes"):
            cache.preload("q0", ([0.0], [-1]))

    def test_preload_keeps_live_entry(self, graph):
        cache = LabelDistanceCache(graph)
        live_dist, _ = cache.distances("q0")
        cache.preload("q0", ([0.0] * graph.num_nodes, [-1] * graph.num_nodes))
        dist, _ = cache.distances("q0")
        assert dist == live_dist  # the live arrays won

    def test_eviction_clears_warm_flag(self, graph):
        from repro.graph.shortest_paths import multi_source_dijkstra

        cache = LabelDistanceCache(graph, max_labels=1)
        entry = multi_source_dijkstra(graph, list(graph.nodes_with_label("q0")))
        cache.preload("q0", entry)
        cache.distances("q1")  # evicts q0
        assert not cache.is_warm("q0")
        assert cache.counters()["warm_labels"] == 0

    def test_clear_resets_warm(self, graph):
        from repro.graph.shortest_paths import multi_source_dijkstra

        cache = LabelDistanceCache(graph)
        entry = multi_source_dijkstra(graph, list(graph.nodes_with_label("q0")))
        cache.preload("q0", entry)
        cache.clear()
        assert not cache.is_warm("q0")
        assert len(cache) == 0
