"""Properties of the CSR snapshot layer.

Two families, as the refactor's safety net:

* *Invalidation*: any mutating ``Graph`` operation performed after
  ``freeze()`` drops the cached snapshot, so a stale CSR view can never
  be served (randomized over mutation kinds via Hypothesis).
* *Kernel agreement*: the integer-weight Dial lane computes exactly
  the heap lane's answers on the same snapshot.  The instances are the
  differential sweep's own, from
  :func:`repro.verify.differential.generate_instance` (so the seeds
  replay under ``repro verify``), with every weight rounded to an
  integer, which is what puts the snapshot on the Dial lane.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.graph.shortest_paths import _msd_heap, multi_source_dijkstra_csr
from repro.verify.differential import generate_instance

# ----------------------------------------------------------------------
# Invalidation: mutation after freeze() always drops the snapshot.
# ----------------------------------------------------------------------


@st.composite
def frozen_graph_and_mutation(draw):
    n = draw(st.integers(2, 10))
    graph = Graph()
    for _ in range(n):
        graph.add_node()
    for u, v, w in draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(1.0, 20.0, allow_nan=False),
            ),
            max_size=20,
        )
    ):
        if u != v:
            graph.add_edge(u, v, w)
    for node, label in draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from("abc")),
            max_size=8,
        )
    ):
        graph.add_labels(node, [label])
    mutation = draw(st.sampled_from(["add_node", "add_edge", "add_labels"]))
    payload = (
        draw(st.integers(0, n - 1)),
        draw(st.integers(0, n - 1)),
        draw(st.floats(0.5, 25.0, allow_nan=False)),
        draw(st.sampled_from("abcxyz")),
    )
    return graph, mutation, payload


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=frozen_graph_and_mutation())
def test_mutation_after_freeze_invalidates(case):
    graph, mutation, (u, v, weight, label) = case
    snapshot = graph.freeze()
    assert graph.snapshot() is snapshot

    if mutation == "add_node":
        graph.add_node()
        mutated = True
    elif mutation == "add_edge":
        if u == v:
            return  # self-loops are rejected; nothing to check
        before = graph.edge_weight(u, v) if graph.has_edge(u, v) else None
        graph.add_edge(u, v, weight)
        # The min-weight collapse makes heavier duplicates a no-op.
        mutated = before is None or weight < before
    else:
        mutated = label not in graph.labels_of(u)
        graph.add_labels(u, [label])

    if mutated:
        assert graph.snapshot() is None
        fresh = graph.freeze()
        assert fresh is not snapshot
        # The refrozen snapshot reflects the mutation.
        assert fresh.num_nodes == graph.num_nodes
        assert fresh.num_edges == graph.num_edges
    else:
        # No actual change: the cached snapshot stays valid (and equal).
        assert graph.snapshot() is snapshot


# ----------------------------------------------------------------------
# Dial lane == heap lane on the differential sweep's own instances.
# ----------------------------------------------------------------------

AGREEMENT_SEEDS = range(1000, 1040)


def dial_snapshot(seed, integer_weighted, **kwargs):
    """Seed ``seed``'s sweep instance, rounded and frozen onto the Dial lane."""
    graph, labels = generate_instance(seed, **kwargs)
    graph = integer_weighted(graph)
    csr = graph.freeze()
    assert csr.int_adjacency is not None, f"seed {seed} missed the Dial lane"
    return graph, labels, csr


def test_dijkstra_kernels_agree_on_random_graphs(integer_weighted):
    for seed in AGREEMENT_SEEDS:
        graph, _labels, csr = dial_snapshot(
            seed, integer_weighted, max_nodes=30, max_labels=5
        )
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 4)):
            dial_dist, _ = multi_source_dijkstra_csr(csr, [source])
            heap_dist, _ = _msd_heap(csr, [source], None)
            assert dial_dist == heap_dist, f"seed {seed}, source {source}"


def test_multi_source_kernels_agree(integer_weighted):
    for seed in AGREEMENT_SEEDS:
        graph, labels, csr = dial_snapshot(
            seed, integer_weighted, max_nodes=30, max_labels=5
        )
        groups = [list(graph.nodes_with_label(label)) for label in labels]
        groups = [members for members in groups if members]
        for members in groups:
            dial_dist, _ = multi_source_dijkstra_csr(csr, members)
            heap_dist, _ = _msd_heap(csr, members, None)
            assert dial_dist == heap_dist, f"seed {seed}"


def test_targets_early_exit_agrees_on_requested_nodes(integer_weighted):
    for seed in AGREEMENT_SEEDS:
        graph, _labels, csr = dial_snapshot(
            seed, integer_weighted, max_nodes=24, max_labels=4
        )
        targets = list(range(0, graph.num_nodes, 3)) or [0]
        dial_dist, _ = multi_source_dijkstra_csr(csr, [0], targets=targets)
        heap_dist, _ = _msd_heap(csr, [0], targets)
        for t in targets:
            assert dial_dist[t] == heap_dist[t], f"seed {seed}, target {t}"
