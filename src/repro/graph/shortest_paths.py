"""Dijkstra shortest paths, including the paper's virtual-node variants.

The paper's preprocessing (Section 3.1) attaches, for each query label
``p``, a virtual node ``ṽ_p`` connected with zero-weight edges to every
node of the group ``V_p``, then runs single-source Dijkstra from ``ṽ_p``.
That is exactly a *multi-source* Dijkstra from ``V_p`` with all source
distances zero, which is what :func:`multi_source_dijkstra` computes —
no materialized virtual node needed.

Section 4.1 additionally needs distances between virtual nodes in the
*label-enhanced graph* where **all** virtual edges are present
simultaneously (so a route may "teleport" for free between two nodes
sharing a label).  :func:`label_enhanced_distances` computes those
pairwise virtual-node distances without materializing the enhanced
graph either: a virtual node ``ṽ_q`` is reached at cost
``min_{u in V_q} dist(u)``, and leaving it re-seeds every node of
``V_q`` at that cost.

Kernels
-------
Everything runs over the graph's frozen :class:`~repro.graph.csr.CSRGraph`
snapshot.  The ``Graph``-taking functions call ``graph.freeze()`` (cached
until the next mutation) and hand the snapshot to their ``*_csr`` twin.
Each ``*_csr`` function has two kernels, chosen by ``csr.int_adjacency``:
Dial's bucket queue when the snapshot proved every weight a small
integer, and a binary heap otherwise.  Both return identical tables;
the tests compare the Dial lane with the heap lane on the same snapshot
and both with networkx.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import NodeRangeError
from .csr import CSRGraph
from .graph import Graph

__all__ = [
    "dijkstra",
    "dijkstra_csr",
    "multi_source_dijkstra",
    "multi_source_dijkstra_csr",
    "reconstruct_path",
    "path_edges_to_source",
    "label_enhanced_distances",
    "label_enhanced_distances_csr",
]

INF = float("inf")


def _check_sources(sources: Sequence[int], n: int) -> None:
    for source in sources:
        if not 0 <= source < n:
            raise NodeRangeError(f"source {source} out of range")


def dijkstra(
    graph: Graph,
    source: int,
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[List[float], List[int]]:
    """Single-source Dijkstra.

    Returns ``(dist, parent)`` where ``parent[v]`` is the predecessor of
    ``v`` on a shortest path from ``source`` (``-1`` for the source and
    unreached nodes).  If ``targets`` is given the search stops early
    once all targets are settled.
    """
    return multi_source_dijkstra(graph, [source], targets=targets)


def dijkstra_csr(
    csr: CSRGraph,
    source: int,
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[List[float], List[int]]:
    """Single-source Dijkstra over a frozen CSR snapshot."""
    return multi_source_dijkstra_csr(csr, [source], targets=targets)


def multi_source_dijkstra(
    graph: Graph,
    sources: Sequence[int],
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[List[float], List[int]]:
    """Dijkstra from a set of sources, all starting at distance 0.

    This is the paper's virtual-node search: the virtual node ``ṽ_p`` is
    connected to every node of ``V_p`` with weight 0, so
    ``dist(v, ṽ_p) = min_{u in V_p} dist(v, u)``.

    ``parent[v]`` points one hop toward the nearest source; walking
    parents from ``v`` reproduces the shortest path the feasible-tree
    construction unions together.

    Freezes the graph and runs :func:`multi_source_dijkstra_csr`;
    out-of-range sources raise :class:`~repro.errors.NodeRangeError` (a
    :class:`GraphError` that still subclasses ``IndexError`` for
    backwards compatibility).
    """
    return multi_source_dijkstra_csr(graph.freeze(), sources, targets=targets)


def multi_source_dijkstra_csr(
    csr: CSRGraph,
    sources: Sequence[int],
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[List[float], List[int]]:
    """Multi-source Dijkstra over the frozen snapshot.

    Uses Dial's bucket queue when the snapshot's weights are small
    integers (exact integer arithmetic, no per-push tuple allocation),
    and the binary-heap kernel over the snapshot's immutable adjacency
    views otherwise.  Both kernels return identical tables.
    """
    n = csr.num_nodes
    _check_sources(sources, n)
    if csr.int_adjacency is not None:
        return _msd_dial(csr, sources, targets)
    return _msd_heap(csr, sources, targets)


def _msd_heap(
    csr: CSRGraph,
    sources: Sequence[int],
    targets: Optional[Iterable[int]],
) -> Tuple[List[float], List[int]]:
    n = csr.num_nodes
    dist: List[float] = [INF] * n
    parent: List[int] = [-1] * n
    adjacency = csr.adjacency
    push = heappush
    pop = heappop

    heap: List[Tuple[float, int]] = []
    for source in sources:
        if dist[source] != 0.0:
            dist[source] = 0.0
            push(heap, (0.0, source))

    remaining = set(targets) if targets is not None else None
    if remaining is not None:
        remaining = {t for t in remaining if dist[t] != 0.0}

    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, weight in adjacency[u]:
            nd = d + weight
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
    return dist, parent


def _msd_dial(
    csr: CSRGraph,
    sources: Sequence[int],
    targets: Optional[Iterable[int]],
) -> Tuple[List[float], List[int]]:
    """Dial's algorithm: bucket per integer distance, lazy stale check.

    Distances are exact ints while the search runs and are converted to
    the float table the rest of the package expects on the way out
    (every produced value is integral, so the conversion is lossless).
    """
    n = csr.num_nodes
    dist: List[float] = [INF] * n  # holds ints while searching
    parent: List[int] = [-1] * n
    adjacency = csr.int_adjacency

    seeds: List[int] = []
    for source in sources:
        if dist[source] != 0:
            dist[source] = 0
            seeds.append(source)

    remaining = set(targets) if targets is not None else None
    if remaining is not None:
        remaining = {t for t in remaining if dist[t] != 0}

    buckets: List[List[int]] = [seeds]
    num_buckets = 1
    d = 0
    while d < num_buckets:
        # A zero-weight relaxation appends to the bucket currently being
        # iterated; Python's list iterator picks the new entries up, so
        # same-distance cascades settle within this round.
        for u in buckets[d]:
            if dist[u] != d:
                continue  # stale entry
            if remaining is not None:
                remaining.discard(u)
                if not remaining:
                    return _dial_finish(dist, parent)
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    while nd >= num_buckets:
                        buckets.append([])
                        num_buckets += 1
                    buckets[nd].append(v)
        buckets[d] = ()  # release settled bucket memory early
        d += 1
    return _dial_finish(dist, parent)


def _dial_finish(
    dist: List[float], parent: List[int]
) -> Tuple[List[float], List[int]]:
    inf = INF
    return [x if x is inf else float(x) for x in dist], parent


def reconstruct_path(parent: Sequence[int], node: int) -> List[int]:
    """Walk ``parent`` pointers from ``node`` back to a source.

    Returns the node sequence ``[node, ..., source]``.  The caller must
    ensure ``node`` was reached (``dist[node] < inf``), otherwise the
    result is just ``[node]``.
    """
    path = [node]
    current = node
    seen = {node}
    while parent[current] != -1:
        current = parent[current]
        if current in seen:  # pragma: no cover - corrupted parent array
            raise ValueError("cycle in parent pointers")
        seen.add(current)
        path.append(current)
    return path


def path_edges_to_source(
    parent: Sequence[int], node: int
) -> List[Tuple[int, int]]:
    """Edges (as ``(u, v)`` pairs) along the parent walk from ``node``."""
    edges: List[Tuple[int, int]] = []
    current = node
    while parent[current] != -1:
        nxt = parent[current]
        edges.append((current, nxt))
        current = nxt
    return edges


def label_enhanced_distances(
    graph: Graph,
    groups: Sequence[Sequence[int]],
) -> List[List[float]]:
    """All-pairs distances between virtual label nodes, Section 4.1 style.

    ``groups[i]`` is the node set ``V_{p_i}`` of the i-th query label.
    Returns a ``k × k`` matrix ``D`` with ``D[i][j] = dist(ṽ_i, ṽ_j)`` in
    the *label-enhanced* graph (every virtual node present at once, each
    attached with zero-weight edges).

    Implementation: one Dijkstra per source label over the original
    graph, augmented with "teleport" relaxations — whenever a node of
    group ``q`` is settled at distance ``d``, the virtual node ``ṽ_q``
    is reached at ``d``, and all other members of ``V_q`` are relaxed to
    ``d``.  This matches Dijkstra on the enhanced graph exactly.

    Freezes the graph and runs :func:`label_enhanced_distances_csr`.
    """
    return label_enhanced_distances_csr(graph.freeze(), groups)


def label_enhanced_distances_csr(
    csr: CSRGraph,
    groups: Sequence[Sequence[int]],
) -> List[List[float]]:
    """Label-enhanced virtual-node distances over the frozen snapshot.

    The teleport-augmented Dijkstra described in
    :func:`label_enhanced_distances`; on integer snapshots the bucket
    queue replaces the heap (teleports are zero-weight relaxations, i.e.
    same-bucket appends that the running bucket scan picks up).
    """
    k = len(groups)
    n = csr.num_nodes
    for members in groups:
        _check_sources(members, n)

    membership: List[Sequence[int]] = [()] * n
    for gi, members in enumerate(groups):
        for node in members:
            current = membership[node]
            membership[node] = (*current, gi) if current else (gi,)

    int_adjacency = csr.int_adjacency
    result: List[List[float]] = []
    for src in range(k):
        if int_adjacency is not None:
            group_dist = _led_dial(csr, groups, membership, src)
        else:
            group_dist = _led_heap(csr, groups, membership, src)
        result.append(group_dist)
    for i in range(k):
        for j in range(i + 1, k):
            best = min(result[i][j], result[j][i])
            result[i][j] = best
            result[j][i] = best
    return result


def _led_heap(
    csr: CSRGraph,
    groups: Sequence[Sequence[int]],
    membership: Sequence[Sequence[int]],
    src: int,
) -> List[float]:
    n = csr.num_nodes
    k = len(groups)
    adjacency = csr.adjacency
    dist: List[float] = [INF] * n
    group_dist: List[float] = [INF] * k
    group_expanded = [False] * k
    group_dist[src] = 0.0

    heap: List[Tuple[float, int]] = []
    for node in groups[src]:
        if dist[node] > 0.0:
            dist[node] = 0.0
            heappush(heap, (0.0, node))

    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for gi in membership[u]:
            if d < group_dist[gi]:
                group_dist[gi] = d
            if not group_expanded[gi]:
                group_expanded[gi] = True
                for other in groups[gi]:
                    if d < dist[other]:
                        dist[other] = d
                        heappush(heap, (d, other))
        for v, weight in adjacency[u]:
            nd = d + weight
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return group_dist


def _led_dial(
    csr: CSRGraph,
    groups: Sequence[Sequence[int]],
    membership: Sequence[Sequence[int]],
    src: int,
) -> List[float]:
    n = csr.num_nodes
    k = len(groups)
    adjacency = csr.int_adjacency
    dist: List[float] = [INF] * n  # ints while searching
    group_dist: List[float] = [INF] * k
    group_expanded = [False] * k
    group_dist[src] = 0

    seeds: List[int] = []
    for node in groups[src]:
        if dist[node] != 0:
            dist[node] = 0
            seeds.append(node)

    buckets: List[List[int]] = [seeds]
    num_buckets = 1
    d = 0
    while d < num_buckets:
        bucket = buckets[d]
        for u in bucket:
            if dist[u] != d:
                continue
            for gi in membership[u]:
                if d < group_dist[gi]:
                    group_dist[gi] = d
                if not group_expanded[gi]:
                    group_expanded[gi] = True
                    # Teleport = zero-weight relaxation: append to the
                    # bucket being scanned; the iterator sees it.
                    for other in groups[gi]:
                        if d < dist[other]:
                            dist[other] = d
                            bucket.append(other)
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    while nd >= num_buckets:
                        buckets.append([])
                        num_buckets += 1
                    buckets[nd].append(v)
        buckets[d] = ()
        d += 1
    inf = INF
    return [x if x is inf else float(x) for x in group_dist]
