"""Units for the CSR snapshot layer (`repro.graph.csr`) and satellites:

* ``Graph.freeze`` / ``Graph.snapshot`` lifecycle and invalidation,
* CSR buffer shape/content against the source graph,
* the integer-weight Dial fast lane, its ``MAX_DIAL_WEIGHT`` cutoff, and
  its agreement with the heap lane on the same snapshot,
* the O(1) duplicate-edge collapse rule (parallel edges keep the
  lighter weight — pinned here so the edge-position index can never
  silently change it),
* :class:`~repro.errors.NodeRangeError` typing on kernel source checks.
"""

from __future__ import annotations

import pytest

from repro.errors import GraphError, NodeRangeError
from repro.graph.csr import CSRGraph, MAX_DIAL_WEIGHT
from repro.graph.graph import Graph
from repro.graph.shortest_paths import (
    _msd_heap,
    dijkstra,
    dijkstra_csr,
    multi_source_dijkstra,
    multi_source_dijkstra_csr,
)


def path_graph(weights, labels=()):
    """0 - 1 - ... - n with the given edge weights."""
    graph = Graph()
    for _ in range(len(weights) + 1):
        graph.add_node()
    for i, w in enumerate(weights):
        graph.add_edge(i, i + 1, w)
    for node, label in labels:
        graph.add_labels(node, [label])
    return graph


class TestFreezeLifecycle:
    def test_freeze_returns_cached_snapshot(self):
        graph = path_graph([1.0, 2.0])
        first = graph.freeze()
        assert isinstance(first, CSRGraph)
        assert graph.freeze() is first
        assert graph.snapshot() is first

    def test_unfrozen_graph_has_no_snapshot(self):
        assert path_graph([1.0]).snapshot() is None

    def test_add_node_invalidates(self):
        graph = path_graph([1.0])
        graph.freeze()
        graph.add_node()
        assert graph.snapshot() is None

    def test_add_edge_invalidates(self):
        graph = path_graph([1.0])
        graph.add_node()
        graph.freeze()
        graph.add_edge(1, 2, 3.0)
        assert graph.snapshot() is None

    def test_duplicate_edge_with_lighter_weight_invalidates(self):
        graph = path_graph([5.0])
        graph.freeze()
        graph.add_edge(0, 1, 2.0)  # weight actually changes
        assert graph.snapshot() is None

    def test_duplicate_edge_with_heavier_weight_keeps_snapshot(self):
        graph = path_graph([2.0])
        snapshot = graph.freeze()
        graph.add_edge(0, 1, 9.0)  # no-op by the min-weight rule
        assert graph.snapshot() is snapshot

    def test_add_labels_invalidates_only_on_new_label(self):
        graph = path_graph([1.0], labels=[(0, "a")])
        snapshot = graph.freeze()
        graph.add_labels(0, ["a"])  # already present: no mutation
        assert graph.snapshot() is snapshot
        graph.add_labels(1, ["b"])
        assert graph.snapshot() is None

    def test_copy_starts_unfrozen(self):
        graph = path_graph([1.0])
        graph.freeze()
        clone = graph.copy()
        assert clone.snapshot() is None
        assert graph.snapshot() is not None

    def test_shortest_paths_freeze_the_graph(self):
        graph = path_graph([1.0, 2.0])
        dist, _ = multi_source_dijkstra(graph, [0])
        snapshot = graph.snapshot()
        assert snapshot is not None
        assert dist == multi_source_dijkstra_csr(snapshot, [0])[0]


class TestCSRBuffers:
    def test_buffers_mirror_adjacency(self):
        graph = path_graph([1.0, 2.0, 4.0])
        csr = graph.freeze()
        assert csr.num_nodes == 4
        assert csr.num_edges == 3
        assert list(csr.indptr) == [0, 1, 3, 5, 6]
        # Each undirected edge appears once per endpoint.
        assert len(csr.indices) == 2 * csr.num_edges
        assert len(csr.weights) == 2 * csr.num_edges
        for u in range(csr.num_nodes):
            start, end = csr.indptr[u], csr.indptr[u + 1]
            flat = list(zip(csr.indices[start:end], csr.weights[start:end]))
            assert flat == list(csr.adjacency[u])
            assert csr.degree(u) == end - start

    def test_label_members_captured(self):
        graph = path_graph([1.0, 1.0], labels=[(0, "a"), (2, "a"), (1, "b")])
        csr = graph.freeze()
        assert csr.members("a") == (0, 2)
        assert csr.members("b") == (1,)
        assert csr.members("missing") == ()
        assert csr.num_labels == 2
        assert set(csr.all_labels()) == {"a", "b"}

    def test_fingerprint_stable_and_structure_sensitive(self):
        one = path_graph([1.0, 2.0]).freeze()
        two = path_graph([1.0, 2.0]).freeze()
        other = path_graph([1.0, 3.0]).freeze()
        assert one.fingerprint == two.fingerprint
        assert one.fingerprint != other.fingerprint

    def test_info_is_json_safe_summary(self):
        info = path_graph([1.0]).freeze().info()
        assert info["num_nodes"] == 2
        assert info["num_edges"] == 1
        assert info["integer_weights"] is True


class TestDialLane:
    def test_small_integer_weights_take_dial(self):
        csr = path_graph([1.0, 2.0, float(MAX_DIAL_WEIGHT)]).freeze()
        assert csr.integer_weights
        assert csr.int_adjacency is not None
        assert csr.max_int_weight == MAX_DIAL_WEIGHT

    def test_float_weights_fall_back_to_heap(self):
        csr = path_graph([1.5, 2.0]).freeze()
        assert not csr.integer_weights
        assert csr.int_adjacency is None

    def test_large_integer_weights_fall_back_to_heap(self):
        csr = path_graph([1.0, float(MAX_DIAL_WEIGHT + 1)]).freeze()
        assert not csr.integer_weights

    def test_dial_and_heap_agree_with_zero_weight_edges(self):
        csr = path_graph([0.0, 1.0, 0.0, 2.0]).freeze()
        assert csr.int_adjacency is not None
        dist, parent = dijkstra_csr(csr, 0)
        assert dist == [0.0, 0.0, 1.0, 1.0, 3.0]
        assert dist == _msd_heap(csr, [0], None)[0]

    def test_targets_early_exit_matches(self):
        csr = path_graph([1.0, 1.0, 1.0, 1.0]).freeze()
        assert csr.int_adjacency is not None
        dial_dist, _ = multi_source_dijkstra_csr(csr, [0], targets=[2])
        heap_dist, _ = _msd_heap(csr, [0], [2])
        assert dial_dist[2] == heap_dist[2] == 2.0


class TestNodeRangeError:
    def test_legacy_sources_raise_typed_error(self):
        graph = path_graph([1.0])
        with pytest.raises(NodeRangeError):
            multi_source_dijkstra(graph, [5])

    def test_csr_sources_raise_typed_error(self):
        csr = path_graph([1.0]).freeze()
        with pytest.raises(NodeRangeError):
            multi_source_dijkstra_csr(csr, [-1])

    def test_subclasses_both_hierarchies(self):
        graph = path_graph([1.0])
        # Callers that historically caught IndexError keep working...
        with pytest.raises(IndexError):
            dijkstra(graph, 99)
        # ...and so do callers catching the package hierarchy.
        with pytest.raises(GraphError):
            dijkstra(graph, 99)


class TestDuplicateEdgeCollapse:
    """Pin the O(1) parallel-edge rule: lighter weight always wins."""

    def test_lighter_duplicate_replaces(self):
        graph = path_graph([5.0])
        graph.add_edge(0, 1, 2.0)
        assert graph.num_edges == 1
        assert graph.edge_weight(0, 1) == 2.0
        assert graph.edge_weight(1, 0) == 2.0
        assert graph.total_weight == 2.0

    def test_heavier_duplicate_is_ignored(self):
        graph = path_graph([2.0])
        graph.add_edge(1, 0, 7.0)
        assert graph.num_edges == 1
        assert graph.edge_weight(0, 1) == 2.0
        assert graph.total_weight == 2.0

    def test_equal_duplicate_is_ignored(self):
        graph = path_graph([2.0])
        graph.add_edge(0, 1, 2.0)
        assert graph.num_edges == 1
        assert graph.total_weight == 2.0

    def test_collapse_keeps_validate_happy(self):
        graph = path_graph([3.0, 4.0])
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(2, 1, 9.0)
        graph.validate()
