"""Dijkstra shortest paths, including the paper's virtual-node variant.

The paper's preprocessing (Section 3.1) attaches, for each query label
``p``, a virtual node ``ṽ_p`` connected with zero-weight edges to every
node of the group ``V_p``, then runs single-source Dijkstra from ``ṽ_p``.
That is exactly a *multi-source* Dijkstra from ``V_p`` with all source
distances zero, which is what :func:`multi_source_dijkstra` computes —
no materialized virtual node needed.

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

