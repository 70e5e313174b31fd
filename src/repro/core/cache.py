"""Cross-query preprocessing cache.

Query preprocessing (Section 3.1) runs one multi-source Dijkstra per
query label — ``O(k(m + n log n))``, the dominant fixed cost of every
solve on large graphs.  Real keyword-search deployments answer many
queries over one graph, and popular labels recur, so a per-label cache
amortizes that cost exactly as a production system would.

Usage::

    cache = LabelDistanceCache(graph, max_labels=1024)
    ctx1 = QueryContext.build(graph, query1, cache=cache)
    ctx2 = QueryContext.build(graph, query2, cache=cache)  # shared labels free

or one level up (see :class:`repro.service.GraphIndex`, which owns a
bounded cache, shares it across a worker pool, and adds telemetry)::

    index = GraphIndex(graph)
    result = index.solve(["db", "ml"])        # caches as it goes
    result = index.solve(["db", "graphs"])    # 'db' Dijkstra reused

Each entry is the label's ``(dist, parent)`` pair as the Dijkstra
kernel returns it: an ``array('d')`` and an ``array('i')``, 12 bytes
per graph node (two lists of Python floats would take about 40).  So
the count bound is also a byte bound: ``max_labels`` tables of an
``n``-node graph hold at most ``12 * n * max_labels`` bytes of table
data, e.g. 141 MiB for
:data:`~repro.service.index.DEFAULT_MAX_CACHED_LABELS` (4,096) labels
of a 3,000-node graph.  :meth:`LabelDistanceCache.counters` reports
the live figure as ``table_bytes``.

The cache is LRU-bounded (``max_labels``; ``None`` = unbounded) and
thread-safe: lookups/insertions take an internal lock, while the
Dijkstra itself runs outside it so concurrent misses on *different*
labels don't serialize.  It is invalidated manually (``clear``) — the
graph is assumed immutable while cached, which
:class:`~repro.service.GraphIndex` documents as its contract (matching
every index structure in the literature).
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from typing import Hashable, Optional, Sequence, Tuple

from ..graph.graph import Graph
from ..graph.shortest_paths import multi_source_dijkstra

__all__ = ["LabelDistanceCache"]


class LabelDistanceCache:
    """Memoizes per-label multi-source Dijkstra results (LRU-bounded)."""

    __slots__ = (
        "graph",
        "max_labels",
        "_entries",
        "_warm",
        "_lock",
        "hits",
        "misses",
        "evictions",
        "warm_loads",
    )

    def __init__(self, graph: Graph, *, max_labels: Optional[int] = None) -> None:
        if max_labels is not None and max_labels <= 0:
            raise ValueError("max_labels must be positive (or None)")
        self.graph = graph
        self.max_labels = max_labels
        self._entries: "OrderedDict[Hashable, Tuple[array, array]]" = OrderedDict()
        # Labels whose arrays came from a persistent store (preload)
        # rather than a live Dijkstra — telemetry distinguishes them.
        self._warm: set = set()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.warm_loads = 0

    def distances(self, label: Hashable) -> Tuple[array, array]:
        """``(dist, parent)`` arrays for the label's virtual node.

        ``dist`` is an ``array('d')``, ``parent`` an ``array('i')``;
        callers share them and must not write to them.  A miss runs the
        label's Dijkstra and stores its tables (:meth:`insert`).
        """
        entry = self.lookup(label)
        if entry is not None:
            return entry
        # Compute outside the lock: a popular-label miss must not block
        # concurrent misses on other labels (pure-Python Dijkstras still
        # share the GIL, but they interleave instead of queueing).
        members = list(self.graph.nodes_with_label(label))
        if not members:
            raise KeyError(f"label {label!r} occurs on no node")
        return self.insert(label, multi_source_dijkstra(self.graph, members))

    def lookup(self, label: Hashable) -> Optional[Tuple[array, array]]:
        """The label's cached tables (a hit), or ``None`` (a miss).

        Counts the hit or the miss.  After a miss the caller computes
        the tables itself and hands them to :meth:`insert`.
        """
        with self._lock:
            entry = self._entries.get(label)
            if entry is not None:
                self._entries.move_to_end(label)
                self.hits += 1
                return entry
            self.misses += 1
            return None

    def insert(
        self, label: Hashable, entry: Tuple[array, array]
    ) -> Tuple[array, array]:
        """Store the tables a miss computed; returns the entry to use.

        When another thread stored the label meanwhile, its entry wins
        and is returned (both are identical by the immutable-graph
        contract).
        """
        with self._lock:
            winner = self._entries.get(label)
            if winner is not None:
                self._entries.move_to_end(label)
                return winner
            self._entries[label] = entry
            self._evict_over_bound()
        return entry

    def preload(
        self, label: Hashable, entry: Tuple[Sequence[float], Sequence[int]]
    ) -> None:
        """Insert precomputed ``(dist, parent)`` arrays (store warm-load).

        Unlike a miss-driven insert this counts as a ``warm_load``, not
        a miss, and marks the label *warm* so telemetry can attribute
        later hits to the store.  The arrays must be sized for this
        cache's graph; a live entry for the label is kept (it is
        identical by the immutable-graph contract).  Any other sequence
        is converted to ``array('d')``/``array('i')``, so every entry
        has the layout the Dijkstra kernel returns.
        """
        dist, parent = entry
        if not (isinstance(dist, array) and dist.typecode == "d"):
            dist = array("d", dist)
        if not (isinstance(parent, array) and parent.typecode == "i"):
            parent = array("i", parent)
        if len(dist) != self.graph.num_nodes or len(parent) != self.graph.num_nodes:
            raise ValueError(
                f"preloaded arrays for label {label!r} have "
                f"{len(dist)} nodes; graph has {self.graph.num_nodes}"
            )
        with self._lock:
            if label not in self._entries:
                self._entries[label] = (dist, parent)
            self._warm.add(label)
            self.warm_loads += 1
            self._evict_over_bound()

    def _evict_over_bound(self) -> None:
        # Caller holds the lock.
        if self.max_labels is None:
            return
        while len(self._entries) > self.max_labels:
            evicted, _ = self._entries.popitem(last=False)
            self._warm.discard(evicted)
            self.evictions += 1

    def is_warm(self, label: Hashable) -> bool:
        """Whether the label's cached arrays came from a store."""
        with self._lock:
            return label in self._warm and label in self._entries

    def counters(self) -> dict:
        """Snapshot of the hit/miss/eviction counters (telemetry).

        ``table_bytes`` is the memory the cached tables' values take:
        ``itemsize * len`` summed over every cached array.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "warm_loads": self.warm_loads,
                "warm_labels": len(self._warm & set(self._entries)),
                "cached_labels": len(self._entries),
                "max_labels": self.max_labels,
                "table_bytes": sum(
                    dist.itemsize * len(dist) + parent.itemsize * len(parent)
                    for dist, parent in self._entries.values()
                ),
            }

    def __contains__(self, label: Hashable) -> bool:
        with self._lock:
            return label in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all cached arrays (call after mutating the graph)."""
        with self._lock:
            self._entries.clear()
            self._warm.clear()
