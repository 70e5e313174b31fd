"""Units for the CSR snapshot layer (`repro.graph.csr`) and satellites:

* ``Graph.freeze`` / ``Graph.snapshot`` lifecycle and invalidation,
* CSR buffer shape/content against the source graph,
* the bucket width Δ the snapshot computes for the Dijkstra kernel, and
  the kernel (Dial's bucket queue, one bucket per Δ) on zero-weight
  arcs, arcs lighter than Δ and the ``targets`` early exit,
* the O(1) duplicate-edge collapse rule (parallel edges keep the
  lighter weight — pinned here so the edge-position index can never
  silently change it),
* :class:`~repro.errors.NodeRangeError` typing on kernel source and
  target checks.
"""

from __future__ import annotations

import pytest

from repro.errors import GraphError, NodeRangeError
from repro.graph.csr import BUCKET_SPAN, CSRGraph
from repro.graph.graph import Graph
from repro.graph.shortest_paths import (
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
        assert info["bucket_width"] == 1.0


class TestBucketWidth:
    def test_lightest_positive_weight_sets_the_width(self):
        assert path_graph([2.5, 1.5, 3.0]).freeze().bucket_width == 1.5

    def test_zero_weights_do_not_set_the_width(self):
        assert path_graph([0.0, 2.0, 3.0]).freeze().bucket_width == 2.0

    def test_no_positive_weight_gives_unit_width(self):
        assert path_graph([0.0, 0.0]).freeze().bucket_width == 1.0
        assert path_graph([]).freeze().bucket_width == 1.0

    def test_wide_span_raises_the_width(self):
        graph = path_graph([1.0, 1000.0, 1.0])
        csr = graph.freeze()
        assert csr.bucket_width == 1000.0 / BUCKET_SPAN
        # Both 1.0 arcs are lighter than the raised width: exact anyway.
        assert list(dijkstra_csr(csr, 0)[0]) == [0.0, 1.0, 1001.0, 1002.0]


class TestDialLane:
    """The one kernel: Dial's bucket queue, one bucket per Δ of distance."""

    def test_small_integer_weights_take_dial(self):
        # A lightest arc of 1 gives Dial's original queue: one bucket per
        # integer distance.
        csr = path_graph([1.0, 2.0, float(BUCKET_SPAN)]).freeze()
        assert csr.bucket_width == 1.0

    def test_dial_and_heap_agree_with_zero_weight_edges(self, reference_dijkstra):
        graph = path_graph([0.0, 1.0, 0.0, 2.0])
        dist, parent = dijkstra_csr(graph.freeze(), 0)
        assert list(dist) == [0.0, 0.0, 1.0, 1.0, 3.0]
        assert list(dist) == reference_dijkstra(graph, [0])
        assert list(parent) == [-1, 0, 1, 2, 3]

    def test_targets_early_exit_matches(self, reference_dijkstra):
        graph = path_graph([1.0, 1.0, 1.0, 1.0])
        dist, _ = multi_source_dijkstra_csr(graph.freeze(), [0], targets=[2])
        assert dist[2] == reference_dijkstra(graph, [0])[2] == 2.0
        # The search stops once target 2's bucket is done: node 3 was
        # queued from it, node 4 never.
        assert list(dist[3:]) == [3.0, float("inf")]


class TestNodeRangeError:
    def test_legacy_sources_raise_typed_error(self):
        graph = path_graph([1.0])
        with pytest.raises(NodeRangeError):
            multi_source_dijkstra(graph, [5])

    def test_csr_sources_raise_typed_error(self):
        csr = path_graph([1.0]).freeze()
        with pytest.raises(NodeRangeError):
            multi_source_dijkstra_csr(csr, [-1])

    def test_targets_raise_typed_error(self):
        graph = path_graph([1.0, 1.0])
        with pytest.raises(NodeRangeError):
            dijkstra(graph, 0, targets=[5])

    def test_negative_target_raises_typed_error(self):
        csr = path_graph([1.0, 1.0]).freeze()
        with pytest.raises(NodeRangeError):
            multi_source_dijkstra_csr(csr, [0], targets=[-1])

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
