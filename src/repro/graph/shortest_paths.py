"""Dijkstra shortest paths, including the paper's virtual-node variant.

The paper's preprocessing (Section 3.1) attaches, for each query label
``p``, a virtual node ``ṽ_p`` connected with zero-weight edges to every
node of the group ``V_p``, then runs single-source Dijkstra from ``ṽ_p``.
That is exactly a *multi-source* Dijkstra from ``V_p`` with all source
distances zero, which is what :func:`multi_source_dijkstra` computes —
no materialized virtual node needed.

Kernel
------
Everything runs over the graph's frozen :class:`~repro.graph.csr.CSRGraph`
snapshot.  The ``Graph``-taking functions call ``graph.freeze()`` (cached
until the next mutation) and hand the snapshot to their ``*_csr`` twin,
and every call runs one kernel: Dial's bucket queue with each bucket as
wide as the snapshot's ``bucket_width`` Δ (Dinitz's variant for real
weights).  A node at distance ``d`` is queued in bucket ``int(d / Δ)``;
buckets are processed in order, each in insertion order.  Δ is the
lightest positive arc weight, so leaving a bucket costs at least Δ and
a node is final when its bucket is reached: the bucket needs no
ordering.  A node that improves inside the bucket being processed is
queued again in that bucket.  That covers a zero-weight arc, float
rounding at a bucket edge, and the arcs lighter than Δ that exist when
the snapshot raised Δ to cap the bucket count (see
:data:`~repro.graph.csr.BUCKET_SPAN`), so the tables are exact for
every finite non-negative weight.  A search costs O(m + n + D/Δ),
with D the largest finite distance, plus one rescan per re-queue.  The
tests compare distances and parent trees with a plain binary-heap
Dijkstra and with networkx.

The kernel is resumable: :class:`DialSweep` stops after any bucket,
and :func:`multi_source_dijkstra_csr` runs one to its end.  Query
preprocessing advances the sweeps of several labels round-robin, a
bucket each, and reads what they have settled in between
(:mod:`repro.core.early`); each table is the same either way.

Tables
------
Every function returns ``(dist, parent)`` as ``array('d')`` and
``array('i')``: 12 bytes a node, against about 40 for two Python lists
of boxed floats, so the label cache holds three times the tables in
the same memory.  The kernel relaxes arcs over plain lists (a list
store is cheaper than an array store) and packs them once, after the
last bucket; the packed values are bit-identical to the lists'.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import NodeRangeError
from .csr import CSRGraph
from .graph import Graph

__all__ = [
    "DialSweep",
    "dijkstra",
    "dijkstra_csr",
    "multi_source_dijkstra",
    "multi_source_dijkstra_csr",
    "reconstruct_path",
    "path_edges_to_source",
]

INF = float("inf")


def _check_nodes(nodes: Iterable[int], n: int, role: str) -> None:
    for node in nodes:
        if not 0 <= node < n:
            raise NodeRangeError(f"{role} {node} out of range")


def dijkstra(
    graph: Graph,
    source: int,
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[array, array]:
    """Single-source Dijkstra.

    Returns ``(dist, parent)``, an ``array('d')`` and an ``array('i')``
    of ``graph.num_nodes`` entries, where ``parent[v]`` is the
    predecessor of ``v`` on a shortest path from ``source`` (``-1`` for
    the source, and for unreached nodes, whose ``dist`` is ``inf``).  If
    ``targets`` is given the search stops once it has finished the
    bucket in which the last target settled; the targets' entries are
    then final, other nodes' may not be.
    """
    return multi_source_dijkstra(graph, [source], targets=targets)


def dijkstra_csr(
    csr: CSRGraph,
    source: int,
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[array, array]:
    """Single-source Dijkstra over a frozen CSR snapshot."""
    return multi_source_dijkstra_csr(csr, [source], targets=targets)


def multi_source_dijkstra(
    graph: Graph,
    sources: Sequence[int],
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[array, array]:
    """Dijkstra from a set of sources, all starting at distance 0.

    This is the paper's virtual-node search: the virtual node ``ṽ_p`` is
    connected to every node of ``V_p`` with weight 0, so
    ``dist(v, ṽ_p) = min_{u in V_p} dist(v, u)``.

    ``parent[v]`` points one hop toward the nearest source; walking
    parents from ``v`` reproduces the shortest path the feasible-tree
    construction unions together.

    Freezes the graph and runs :func:`multi_source_dijkstra_csr`;
    out-of-range sources or targets raise
    :class:`~repro.errors.NodeRangeError` (a :class:`GraphError` that
    still subclasses ``IndexError`` for backwards compatibility).
    """
    return multi_source_dijkstra_csr(graph.freeze(), sources, targets=targets)


def multi_source_dijkstra_csr(
    csr: CSRGraph,
    sources: Sequence[int],
    *,
    targets: Optional[Iterable[int]] = None,
) -> Tuple[array, array]:
    """Multi-source Dijkstra over the frozen snapshot (see module docstring).

    Returns ``(dist, parent)`` as ``array('d')`` and ``array('i')``.
    Runs a :class:`DialSweep` to its end, or, with ``targets``, to the
    end of the bucket in which the last target settled.
    """
    sweep = DialSweep(csr, sources)
    if targets is None:
        sweep.finish()
    else:
        remaining = set(targets)
        _check_nodes(remaining, csr.num_nodes, "target")
        # A bucket's queue entries are the nodes it settled, plus stale
        # entries of nodes an earlier bucket already settled.
        while not sweep.done:
            remaining.difference_update(sweep.advance())
            if not remaining:
                break
    return sweep.tables()


class DialSweep:
    """One multi-source Dijkstra that stops after any bucket.

    :meth:`advance` processes one bucket of the queue (see the module
    docstring) and :meth:`finish` processes the rest.  ``dist`` and
    ``parent`` are the kernel's working lists; read them, never write
    to them.  After each bucket every node closer to the sources than
    :attr:`radius` is *settled*: its entries are final, and so is every
    entry on its parent walk, since a node's parent settled no later,
    at the distance the node's final entry was relaxed from.
    Every other node is at least ``radius`` away.  ``radius`` is the
    lower edge of the next bucket, and ``inf`` once the queue is empty.
    :meth:`tables` packs the lists exactly as
    :func:`multi_source_dijkstra_csr` returns them.
    """

    __slots__ = ("dist", "parent", "radius", "_rounds")

    def __init__(self, csr: CSRGraph, sources: Sequence[int]) -> None:
        n = csr.num_nodes
        _check_nodes(sources, n, "source")
        self.dist: List[float] = [INF] * n
        self.parent: List[int] = [-1] * n
        self.radius = 0.0
        self._rounds = _bucket_rounds(
            csr.adjacency, csr.bucket_width, sources, self.dist, self.parent
        )

    @property
    def done(self) -> bool:
        return self.radius == INF

    def advance(self) -> List[int]:
        """Process one bucket; returns its queue entries (``[]`` when done)."""
        bucket, self.radius = next(self._rounds, ([], INF))
        return bucket

    def finish(self) -> None:
        """Process every bucket left."""
        for _ in self._rounds:
            pass
        self.radius = INF

    def tables(self) -> Tuple[array, array]:
        """``(dist, parent)`` as ``array('d')`` and ``array('i')``."""
        return _packed("d", self.dist), _packed("i", self.parent)


def _bucket_rounds(
    adjacency, width: float, sources: Sequence[int], dist: List[float],
    parent: List[int],
):
    """The kernel: yields ``(bucket, radius)`` after each bucket it processes.

    ``bucket`` is the list of queue entries it went through and
    ``radius`` the lower edge of the next bucket (``inf`` when none is
    left).
    """
    n = len(dist)
    # The distance each node's arcs were last relaxed from: a queue entry
    # whose node already went out at its current distance is stale.
    scanned: List[float] = [-1.0] * n

    seeds: List[int] = []
    for source in sources:
        if dist[source] != 0.0:
            dist[source] = 0.0
            seeds.append(source)

    buckets: List[List[int]] = [seeds]
    num_buckets = 1
    i = 0
    while i < num_buckets:
        # A relaxation into this bucket appends to the list being
        # iterated; Python's list iterator picks the new entries up, so
        # re-queued nodes go out again within this round.
        bucket = buckets[i]
        for u in bucket:
            d = dist[u]
            if d == scanned[u]:
                continue
            scanned[u] = d
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    b = int(nd / width)
                    while b >= num_buckets:
                        buckets.append([])
                        num_buckets += 1
                    buckets[b].append(v)
        buckets[i] = ()  # release settled bucket memory early
        i += 1
        yield bucket, (i * width if i < num_buckets else INF)


def _packed(typecode: str, values: List) -> array:
    """``values`` in an ``array(typecode)`` of exactly their length.

    ``pack_into`` writes the C values in one pass; building the array
    from bytes would over-allocate it by a sixteenth.
    """
    table = array(typecode, [0]) * len(values)
    struct.pack_into(f"{len(values)}{typecode}", table, 0, *values)
    return table


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

