"""``repro.store`` — persistent precompute & epsilon-aware result cache.

The durable, cross-process layer under the query service: a serving
deployment answers many queries over one immutable graph, so both the
Section-3.1 preprocessing (one multi-source Dijkstra per label) and
finished answers with proven ratios are worth keeping *across process
restarts*, not just in the per-process LRU the service already has.

* :func:`build_store` / ``repro precompute`` — offline builder that
  materializes per-label virtual-node distance tables for the top-K
  hottest labels, plus label statistics, into a versioned store
  directory whose manifest records the graph's snapshot fingerprint;
* :class:`PrecomputeStore` — validated handle: open (fail-closed on
  corruption / version skew / fingerprint mismatch, all typed
  :class:`~repro.errors.StoreError`), warm-load a live
  :class:`~repro.core.cache.LabelDistanceCache`, persist the result
  cache;
* :class:`ResultCache` — epsilon-aware answer cache: an answer proven
  within ``(1+ε)`` serves any later request asking for ``ε' ≥ ε``
  (same label set, same algorithm tier), LRU bounded;
* wired through :meth:`GraphIndex.attach_store
  <repro.service.index.GraphIndex.attach_store>` /
  :meth:`GraphIndex.open <repro.service.index.GraphIndex.open>` and the
  executor (result-cache consult before admission control, write-back
  after success).

Typical use::

    from repro.store import build_store, PrecomputeStore
    from repro.service import GraphIndex

    build_store(graph, "artifacts/dblp.store", top_k=64)
    ...
    index = GraphIndex(graph)
    index.attach_store(PrecomputeStore.open("artifacts/dblp.store", graph))
    index.solve(["database", "graphs"])    # hot labels cost no Dijkstra
"""

from .builder import (
    DEFAULT_TOP_K,
    DISTANCES_NAME,
    RESULTS_NAME,
    BuildReport,
    build_store,
    select_labels,
)
from .format import FORMAT_VERSION, MAGIC
from .manifest import MANIFEST_NAME, Manifest
from .result_cache import CachedAnswer, ResultCache, result_key
from .store import PrecomputeStore

__all__ = [
    "BuildReport",
    "CachedAnswer",
    "DEFAULT_TOP_K",
    "DISTANCES_NAME",
    "FORMAT_VERSION",
    "MAGIC",
    "MANIFEST_NAME",
    "Manifest",
    "PrecomputeStore",
    "RESULTS_NAME",
    "ResultCache",
    "build_store",
    "result_key",
    "select_labels",
]
