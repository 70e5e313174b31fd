"""The store handle: open, validate, warm-load, write back.

A :class:`PrecomputeStore` is one store *directory* (manifest +
distance tables + persisted result cache) bound to one immutable
graph.  Opening validates the manifest and — when a graph is supplied
— its snapshot fingerprint, so a stale or foreign artifact is rejected
before a single array is trusted; every failure is a typed
:class:`~repro.errors.StoreError`, which is the contract the service
layer's fall-back-to-cold-solve paths rely on.
"""

from __future__ import annotations

import os
from array import array
from typing import Dict, List, Optional, Tuple

from ..core.cache import LabelDistanceCache
from ..errors import StoreCorruptError, StoreFingerprintError
from ..graph.graph import Graph
from .builder import DISTANCES_NAME, RESULTS_NAME, resolve_label
from .format import iter_records, read_header, unpack_label_table
from .manifest import Manifest
from .result_cache import ResultCache

__all__ = ["PrecomputeStore"]


class PrecomputeStore:
    """Validated handle on one store directory."""

    def __init__(self, path: str, manifest: Manifest) -> None:
        self.path = path
        self.manifest = manifest

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str, graph: Optional[Graph] = None) -> "PrecomputeStore":
        """Open a store, fail-closed.

        Validates the manifest (typed errors for corruption / version
        skew) and, when ``graph`` is given, compares fingerprints —
        a mismatch raises :class:`~repro.errors.StoreFingerprintError`.
        """
        if not os.path.isdir(path):
            raise StoreCorruptError(f"store path {path!r} is not a directory")
        manifest = Manifest.load(path)
        store = cls(path, manifest)
        if graph is not None:
            store.check_graph(graph)
        return store

    def check_graph(self, graph: Graph) -> None:
        """Raise unless this store was built for exactly ``graph``.

        Compares the manifest's snapshot fingerprint with the live
        graph's frozen snapshot, which also pins the construction order
        of the flat arrays; a mismatch raises
        :class:`~repro.errors.StoreFingerprintError`.
        """
        stored = self.manifest.snapshot_fingerprint
        live = graph.freeze().fingerprint
        if live != stored:
            raise StoreFingerprintError(
                f"store {self.path!r} was built for a different graph "
                f"(stored fingerprint {stored[:12]}…, live graph "
                f"{live[:12]}…); rebuild with `repro precompute`"
            )

    # ------------------------------------------------------------------
    # Distance tables
    # ------------------------------------------------------------------
    @property
    def labels(self) -> List[str]:
        """Labels whose distance tables this store holds."""
        return list(self.manifest.labels)

    def load_tables(self) -> Dict[str, Tuple[array, array]]:
        """Stream the distance file into ``{label: (dist, parent)}``.

        Each table comes back as the ``array('d')``/``array('i')`` pair
        the label cache holds, so :meth:`warm` inserts it uncopied.

        Truncation, checksum and shape problems raise typed errors.
        """
        path = os.path.join(self.path, DISTANCES_NAME)
        what = f"store {self.path!r} distances"
        tables: Dict[str, Tuple[array, array]] = {}
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise StoreCorruptError(f"{what}: cannot open: {exc}") from None
        with handle:
            read_header(handle, what=what)
            for payload in iter_records(handle, what=what):
                label, dist, parent = unpack_label_table(payload, what=what)
                if len(dist) != self.manifest.num_nodes:
                    raise StoreCorruptError(
                        f"{what}: table for label {label!r} has "
                        f"{len(dist)} nodes, manifest says "
                        f"{self.manifest.num_nodes}"
                    )
                tables[label] = (dist, parent)
        return tables

    def warm(self, cache: LabelDistanceCache) -> int:
        """Preload a live label cache from disk; returns tables loaded.

        The cache must belong to a fingerprint-matching graph — callers
        go through :meth:`GraphIndex.attach_store
        <repro.service.index.GraphIndex.attach_store>`, which checks.
        """
        tables = self.load_tables()
        count = 0
        for label, (dist, parent) in tables.items():
            raw = resolve_label(cache.graph, label)
            if raw is None:
                continue
            cache.preload(raw, (dist, parent))
            count += 1
        return count

    # ------------------------------------------------------------------
    # Result cache persistence
    # ------------------------------------------------------------------
    def load_result_cache(self) -> ResultCache:
        """The persisted result cache (empty when none was saved yet)."""
        cache = ResultCache()
        path = os.path.join(self.path, RESULTS_NAME)
        if os.path.exists(path):
            what = f"store {self.path!r} results"
            try:
                handle = open(path, "rb")
            except OSError as exc:
                raise StoreCorruptError(f"{what}: cannot open: {exc}") from None
            with handle:
                cache.load_from(handle, what=what)
        return cache

    def save_result_cache(self, cache: ResultCache) -> int:
        """Persist the result cache next to the tables; returns entries."""
        path = os.path.join(self.path, RESULTS_NAME)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            count = cache.save_to(handle)
        os.replace(tmp, path)
        return count

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"PrecomputeStore({self.path!r}, labels={len(self.manifest.labels)}, "
            f"fingerprint={self.manifest.snapshot_fingerprint[:12]}…)"
        )
