"""Properties of the CSR snapshot layer.

Two families, as the refactor's safety net:

* *Invalidation*: any mutating ``Graph`` operation performed after
  ``freeze()`` drops the cached snapshot, so a stale CSR view can never
  be served (randomized over mutation kinds via Hypothesis).
* *Kernel agreement*: the bucket-queue Dijkstra computes exactly (with
  ``==``) the distances of a plain binary-heap Dijkstra kept in the
  tests as the reference, and of networkx, and its parent trees are
  tight.  One sweep covers single sources, label groups and the
  ``targets`` early exit, each under every weight class of
  ``conftest.weight_classes``.  The instances are the differential
  sweep's own, from :func:`repro.verify.differential.generate_instance`
  (so the seeds replay under ``repro verify``).
"""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.csr import BUCKET_SPAN
from repro.graph.graph import Graph
from repro.graph.shortest_paths import (
    multi_source_dijkstra_csr,
    reconstruct_path,
)
from repro.verify.differential import generate_instance

INF = float("inf")

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
# The kernel == the reference heap == networkx, on every weight class.
# ----------------------------------------------------------------------

AGREEMENT_SEEDS = range(1000, 1040)


def sweep(reweighted, **kwargs):
    """``(where, weight class, graph, labels, snapshot)`` for every
    instance of the agreement sweep under every weight class."""
    for seed in AGREEMENT_SEEDS:
        generated, labels = generate_instance(seed, **kwargs)
        for name, graph in reweighted(generated, seed).items():
            yield f"seed {seed}, {name}", name, graph, labels, graph.freeze()


def networkx_distances(graph, sources):
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.nodes())
    for u, v, w in graph.edges():
        nxg.add_edge(u, v, weight=w)
    found = nx.multi_source_dijkstra_path_length(nxg, set(sources))
    return [found.get(node, INF) for node in graph.nodes()]


def check_kernel(where, graph, csr, sources, reference_dijkstra):
    """Exact distances, and a tight parent tree rooted at the sources."""
    dist, parent = multi_source_dijkstra_csr(csr, sources)
    assert list(dist) == reference_dijkstra(graph, sources), where
    assert list(dist) == networkx_distances(graph, sources), where
    for v in graph.nodes():
        if v in sources or dist[v] == INF:
            assert parent[v] == -1, (where, v)
            continue
        u = parent[v]
        assert dist[v] == dist[u] + graph.edge_weight(u, v), (where, v)
        assert reconstruct_path(parent, v)[-1] in sources, (where, v)


def test_dijkstra_kernels_agree_on_random_graphs(reweighted, reference_dijkstra):
    raised = 0
    for where, name, graph, _labels, csr in sweep(
        reweighted, max_nodes=30, max_labels=5
    ):
        for source in range(0, graph.num_nodes, max(1, graph.num_nodes // 4)):
            check_kernel(where, graph, csr, [source], reference_dijkstra)
        if name == "log-uniform":
            lightest = min(w for _, _, w in graph.edges())
            heaviest = max(w for _, _, w in graph.edges())
            assert csr.bucket_width == max(lightest, heaviest / BUCKET_SPAN)
            raised += csr.bucket_width > lightest
    # Most log-uniform instances span more than BUCKET_SPAN-fold, so the
    # sweep runs arcs lighter than the bucket width.
    assert raised > len(AGREEMENT_SEEDS) // 2


def test_multi_source_kernels_agree(reweighted, reference_dijkstra):
    for where, _name, graph, labels, csr in sweep(
        reweighted, max_nodes=30, max_labels=5
    ):
        for label in labels:
            members = list(graph.nodes_with_label(label))
            if members:
                check_kernel(where, graph, csr, members, reference_dijkstra)


def test_targets_early_exit_agrees_on_requested_nodes(
    reweighted, reference_dijkstra
):
    for where, _name, graph, _labels, csr in sweep(
        reweighted, max_nodes=24, max_labels=4
    ):
        targets = list(range(0, graph.num_nodes, 3)) or [0]
        dist, _ = multi_source_dijkstra_csr(csr, [0], targets=targets)
        expected = reference_dijkstra(graph, [0])
        for t in targets:
            assert dist[t] == expected[t], f"{where}, target {t}"
