"""Immutable CSR snapshot of a :class:`~repro.graph.graph.Graph`.

The mutable adjacency-list :class:`Graph` is the construction surface;
every read-path kernel (the Dijkstra family, the DP search engines)
wants a flat, immutable view it can index without defensive copies or
locks.  :class:`CSRGraph` is that view:

* the canonical compressed-sparse-row buffers — ``indptr`` /
  ``indices`` / ``weights`` as flat ``array('q')`` / ``array('d')``
  arcs (each undirected edge appears twice) — which future compiled or
  numpy backends can adopt wholesale and which :attr:`fingerprint`
  hashes byte-for-byte,
* per-node immutable ``(neighbor, weight)`` tuple views
  (:attr:`adjacency`) that the pure-Python kernels iterate — in
  CPython, tuple iteration beats per-element flat-array indexing, so
  the flat buffers are the interchange format and the tuple views are
  the interpreter-shaped mirror of the same data,
* per-label group arrays (:meth:`members`) so kernels stop re-querying
  the mutable graph's group dict, and
* the :attr:`bucket_width` Δ of the Dijkstra kernel's bucket queue,
  computed once from the arc weights: the lightest positive weight,
  raised to ``max_weight / BUCKET_SPAN`` when the weights span more
  than ``BUCKET_SPAN``-fold, and 1.0 when no arc is positive.

:attr:`CSRGraph.fingerprint` is the graph's one identity: store
manifests record it, checkpoints are bound to it, and a shared-memory
attach re-derives it with the same :func:`snapshot_digest` before it
trusts the mapped bytes.

A ``CSRGraph`` is never mutated after construction, so it is safe to
share across threads without locking; :meth:`Graph.freeze`
caches one per graph and drops it on any mutation.
"""

from __future__ import annotations

import hashlib
import time
from array import array
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["CSRGraph", "BUCKET_SPAN", "snapshot_digest"]

# The Dijkstra kernel keeps one bucket per Δ of distance up to the
# largest settled one (<= max_weight * (n - 1)).  Capping the heaviest
# arc at BUCKET_SPAN buckets keeps that list O(n) whatever the weights'
# range; arcs lighter than Δ then cost re-queues, never wrong answers.
BUCKET_SPAN = 64


def snapshot_digest(
    num_nodes: int, num_edges: int, indptr, indices, weights, label_members
) -> str:
    """sha256 over the flat buffers and label groups of one snapshot.

    ``indptr``/``indices``/``weights`` are anything exposing the buffer
    protocol (the arrays of :meth:`CSRGraph.from_graph` or the mapped
    views of a shared segment); ``label_members`` maps each label to
    its member ids.  Two snapshots agree iff they describe the same
    structure *in the same construction order*.
    """
    digest = hashlib.sha256()
    digest.update(f"csr;n={num_nodes};m={num_edges};".encode())
    digest.update(indptr)
    digest.update(indices)
    digest.update(weights)
    for label in sorted(label_members, key=str):
        members = label_members[label]
        digest.update(f"l={label!s}:{','.join(map(str, members))};".encode())
    return digest.hexdigest()


def _bucket_width(weights) -> float:
    """Δ for ``weights`` (see the module docstring)."""
    lightest = min(weights, default=0.0)
    if lightest == 0.0:
        lightest = min((w for w in weights if w > 0.0), default=0.0)
    if lightest == 0.0:
        return 1.0
    return max(lightest, max(weights) / BUCKET_SPAN)


class CSRGraph:
    """Frozen flat-array view of one graph (see module docstring)."""

    __slots__ = (
        "num_nodes",
        "num_edges",
        "indptr",
        "indices",
        "weights",
        "adjacency",
        "bucket_width",
        "build_seconds",
        "_label_members",
        "_fingerprint",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        indptr: array,
        indices: array,
        weights: array,
        adjacency: Tuple[Tuple[Tuple[int, float], ...], ...],
        label_members: Dict[Hashable, Tuple[int, ...]],
        build_seconds: float,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.adjacency = adjacency
        self.bucket_width = _bucket_width(weights)
        self.build_seconds = build_seconds
        self._label_members = label_members
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Snapshot ``graph`` (one O(n + m) pass; no fingerprint yet)."""
        started = time.perf_counter()
        n = graph.num_nodes
        raw = graph.adjacency()

        indptr = array("q", [0])
        indices = array("q")
        weights = array("d")
        adjacency: List[Tuple[Tuple[int, float], ...]] = []
        for u in range(n):
            row = tuple(raw[u])
            adjacency.append(row)
            for v, w in row:
                indices.append(v)
                weights.append(w)
            indptr.append(len(indices))

        label_members: Dict[Hashable, Tuple[int, ...]] = {
            label: tuple(graph.nodes_with_label(label))
            for label in graph.all_labels()
        }

        return cls(
            num_nodes=n,
            num_edges=graph.num_edges,
            indptr=indptr,
            indices=indices,
            weights=weights,
            adjacency=tuple(adjacency),
            label_members=label_members,
            build_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def to_shared(self):
        """Export this snapshot into a shared-memory segment.

        Returns the owner-side :class:`~repro.graph.shm.SharedCSR`
        handle; worker processes attach by ``handle.name`` via
        :meth:`from_shared`.  The owner's :meth:`close
        <repro.graph.shm.SharedCSR.close>` unlinks the segment; mappings
        attached before that stay valid until they are closed.
        """
        from .shm import SharedCSR

        return SharedCSR.create(self)

    @classmethod
    def from_shared(
        cls, name: str, *, expect_fingerprint: Optional[str] = None
    ):
        """Attach a shared segment and materialize its snapshot.

        Returns ``(csr, handle)``: the :class:`CSRGraph` whose flat
        buffers are zero-copy views into the mapped segment, and the
        :class:`~repro.graph.shm.SharedCSR` handle keeping the mapping
        alive — close it only after the returned graph is no longer
        used.  The attach is fingerprint verified; pass
        ``expect_fingerprint`` to additionally pin the exact snapshot
        identity (raises :class:`~repro.errors.StoreFingerprintError`
        on any mismatch).
        """
        from .shm import SharedCSR

        handle = SharedCSR.attach(name)
        try:
            csr = handle.load(expect_fingerprint=expect_fingerprint)
        except Exception:
            handle.close()
            raise
        return csr, handle

    # ------------------------------------------------------------------
    def members(self, label: Hashable) -> Tuple[int, ...]:
        """The group ``V_p`` at freeze time (empty tuple when absent)."""
        return self._label_members.get(label, ())

    def all_labels(self):
        """Iterate the labels captured at freeze time."""
        return iter(self._label_members)

    @property
    def num_labels(self) -> int:
        return len(self._label_members)

    def degree(self, node: int) -> int:
        return self.indptr[node + 1] - self.indptr[node]

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """The graph's identity: :func:`snapshot_digest` (lazy, cached)."""
        if self._fingerprint is None:
            self._fingerprint = snapshot_digest(
                self.num_nodes,
                self.num_edges,
                self.indptr,
                self.indices,
                self.weights,
                self._label_members,
            )
        return self._fingerprint

    # ------------------------------------------------------------------
    def info(self) -> dict:
        """JSON-safe summary (surfaced by ``GraphIndex.cache_info``)."""
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_labels": self.num_labels,
            "bucket_width": self.bucket_width,
            "build_seconds": self.build_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"labels={self.num_labels}, bucket_width={self.bucket_width:g})"
        )
