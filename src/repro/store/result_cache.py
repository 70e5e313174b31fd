"""Epsilon-aware query result cache (in-memory + persistable).

The progressive framework's proven ratios make cached answers
*reusable across quality targets*: an answer proven within
``(1 + ε)`` of optimal satisfies every later request that asks for
``ε' ≥ ε`` — an exact answer (ε = 0) serves everything, while a loose
ε = 0.5 answer must never serve an ε' = 0.1 or exact request.  That
asymmetric rule is the whole point of this cache; a plain
equality-keyed cache would either miss safe reuse or, worse, return
under-proven answers.

Canonical key: ``frozenset(str(label) ...)`` + the resolved algorithm
tier.  Labels are stringified so persisted entries (JSON) and live
entries share one key space; algorithm tiers never cross-serve (a
``basic`` answer proving ε = 0.3 is still a different object of study
than a ``pruneddp++`` one in every benchmark, and tiers may diverge in
tie-breaking).

Eviction is LRU, bounded by :data:`MAX_ENTRIES`.  Entries never
expire: a store is bound by fingerprint to one immutable graph, so a
cached answer cannot go stale.  Persisted records carry a wall-clock
``created`` timestamp (provenance only).  Persistence uses the store's
CRC-framed format — see :meth:`ResultCache.save_to` /
:meth:`ResultCache.load_from`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import BinaryIO, FrozenSet, Hashable, Iterable, List, Optional, Tuple

from ..core.result import GSTResult, SearchStats
from ..core.tree import SteinerTree
from ..errors import StoreCorruptError
from ..obs.instruments import record_result_cache_event
from .format import (
    iter_records,
    pack_json,
    read_header,
    unpack_json,
    write_header,
    write_record,
)

__all__ = ["CachedAnswer", "ResultCache", "result_key", "MAX_ENTRIES"]

INF = float("inf")
_EPS_SLACK = 1e-12
# LRU bound on live entries.
MAX_ENTRIES = 1024


def result_key(
    labels: Iterable[Hashable], algorithm: str
) -> Tuple[FrozenSet[str], str]:
    """Canonical cache key: stringified label set + algorithm tier."""
    return frozenset(str(label) for label in labels), algorithm


@dataclass
class CachedAnswer:
    """One stored answer with its proven approximation guarantee.

    ``epsilon`` is the *proven* gap: 0.0 for optimal answers, otherwise
    ``ratio - 1`` at the time the answer was produced.  ``serves(eps)``
    implements the reuse rule.  ``tree`` is the answer's
    :class:`~repro.core.tree.SteinerTree`, built once from
    ``tree_edges``/``tree_nodes`` when the entry is made; it is
    immutable, so every hit shares it.
    """

    labels: Tuple[str, ...]
    algorithm: str
    weight: float
    lower_bound: float
    optimal: bool
    epsilon: float
    tree_nodes: Tuple[int, ...]
    tree_edges: Tuple[Tuple[int, int, float], ...]
    created: float
    tree: SteinerTree = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.tree = SteinerTree(self.tree_edges, nodes=self.tree_nodes)

    def serves(self, requested_epsilon: float) -> bool:
        """Whether this answer's proven gap satisfies ``ε'`` requests."""
        return self.epsilon <= requested_epsilon + _EPS_SLACK

    # ------------------------------------------------------------------
    def to_result(
        self, requested_labels: Iterable[Hashable], algorithm_name: str
    ) -> GSTResult:
        """Rehydrate a :class:`GSTResult` (zeroed search counters).

        ``algorithm_name`` is the solver's name (``"PrunedDP++"``), which
        a live solve reports; ``self.algorithm`` is the cache tier key.
        The result carries the entry's shared :attr:`tree`.
        """
        return GSTResult(
            algorithm=algorithm_name,
            labels=tuple(requested_labels),
            tree=self.tree,
            weight=self.weight,
            lower_bound=self.lower_bound,
            optimal=self.optimal,
            stats=SearchStats(),
        )

    def to_record(self) -> dict:
        return {
            "labels": sorted(self.labels),
            "algorithm": self.algorithm,
            "weight": self.weight,
            "lower_bound": self.lower_bound,
            "optimal": self.optimal,
            "epsilon": self.epsilon,
            "tree_nodes": sorted(self.tree_nodes),
            "tree_edges": [[u, v, w] for u, v, w in self.tree_edges],
            "created": self.created,
        }

    @classmethod
    def from_record(cls, record: dict, *, what: str = "result cache") -> "CachedAnswer":
        try:
            answer = cls(
                labels=tuple(str(label) for label in record["labels"]),
                algorithm=str(record["algorithm"]),
                weight=float(record["weight"]),
                lower_bound=float(record["lower_bound"]),
                optimal=bool(record["optimal"]),
                epsilon=float(record["epsilon"]),
                tree_nodes=tuple(int(n) for n in record["tree_nodes"]),
                tree_edges=tuple(
                    (int(u), int(v), float(w)) for u, v, w in record["tree_edges"]
                ),
                created=float(record["created"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # OverflowError: JSON numbers past a float (10**400) or an
            # integer node id of 1e400, which parses as infinity.
            raise StoreCorruptError(
                f"{what}: malformed cached-answer record: {exc!r}"
            ) from None
        # A live solve can never produce lower_bound > weight (report-time
        # clamping in repro.core.result); a persisted record claiming it
        # is corrupt and must not rehydrate into a false ratio-1 answer.
        if answer.lower_bound > answer.weight + _EPS_SLACK * max(
            1.0, abs(answer.weight)
        ):
            raise StoreCorruptError(
                f"{what}: cached answer claims lower_bound="
                f"{answer.lower_bound!r} > weight={answer.weight!r}"
            )
        return answer


class ResultCache:
    """LRU cache of proven answers, keyed by label set and tier."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[FrozenSet[str], str], CachedAnswer]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def lookup(
        self,
        labels: Iterable[Hashable],
        algorithm: str,
        epsilon: float = 0.0,
    ) -> Optional[CachedAnswer]:
        """An answer proven at least as tight as ``epsilon``, or None.

        A hit refreshes LRU recency.  An entry whose proven gap is
        looser than the request is a miss (it stays cached for looser
        callers).
        """
        key = result_key(labels, algorithm)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not entry.serves(epsilon):
                self.misses += 1
                record_result_cache_event("miss")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            record_result_cache_event("hit")
            return entry

    def put(
        self,
        labels: Iterable[Hashable],
        algorithm: str,
        result: GSTResult,
    ) -> Optional[CachedAnswer]:
        """Store a finished solve's answer; returns the cached entry.

        Only storable answers are kept: a feasible tree with a finite
        weight and a finite proven ratio.  An existing entry is only
        replaced by a *tighter* one (smaller proven ε) — caching a
        loose anytime answer never degrades an exact one already held.
        """
        if result.tree is None or result.weight == INF:
            return None
        epsilon = 0.0 if result.optimal else result.ratio - 1.0
        if epsilon == INF:
            return None
        entry = CachedAnswer(
            labels=tuple(sorted(str(label) for label in labels)),
            algorithm=algorithm,
            weight=result.weight,
            lower_bound=result.lower_bound,
            optimal=result.optimal,
            epsilon=epsilon,
            tree_nodes=tuple(result.tree.nodes),
            tree_edges=tuple(result.tree.edges),
            created=time.time(),
        )
        key = result_key(labels, algorithm)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.epsilon <= entry.epsilon:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            self._entries.move_to_end(key)
            record_result_cache_event("insertion")
            self._evict_over_bound()
        return entry

    def invalidate(
        self, labels: Iterable[Hashable], algorithm: str
    ) -> bool:
        """Evict one entry (certification failure, staleness); True if found.

        Used by the executor's ``certify_cache_hits`` guard: a cached
        answer that fails re-validation against the live graph must not
        be served to the *next* caller either.
        """
        key = result_key(labels, algorithm)
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.evictions += 1
            record_result_cache_event("eviction")
            return True

    def _evict_over_bound(self) -> None:
        # Caller holds the lock.
        while len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1
            record_result_cache_event("eviction")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Tuple[FrozenSet[str], str]) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def counters(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "max_entries": MAX_ENTRIES,
            }

    def entries(self) -> List[CachedAnswer]:
        """Snapshot of the live entries, LRU-oldest first."""
        with self._lock:
            return list(self._entries.values())

    # ------------------------------------------------------------------
    # Persistence (CRC-framed JSON records)
    # ------------------------------------------------------------------
    def save_to(self, fh: BinaryIO) -> int:
        """Write every live entry; returns the number written."""
        write_header(fh)
        count = 0
        for entry in self.entries():
            write_record(fh, pack_json(entry.to_record()))
            count += 1
        return count

    def load_from(self, fh: BinaryIO, *, what: str = "result cache") -> int:
        """Merge persisted entries into this cache; returns the count.

        A live entry proven at least as tight wins over a persisted one.
        """
        read_header(fh, what=what)
        count = 0
        for payload in iter_records(fh, what=what):
            entry = CachedAnswer.from_record(
                unpack_json(payload, what=what), what=what
            )
            key = result_key(entry.labels, entry.algorithm)
            with self._lock:
                existing = self._entries.get(key)
                if existing is not None and existing.epsilon <= entry.epsilon:
                    continue
                self._entries[key] = entry
                record_result_cache_event("insertion")
                self._evict_over_bound()
            count += 1
        return count
