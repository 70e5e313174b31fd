"""Lower bounds for A*-search (Section 4.1).

For a state ``(v, X)`` the A* solvers need a lower bound on
``f*_T(v, X̄)`` — the weight of the cheapest tree rooted at ``v``
covering the *missing* labels ``X̄ = P \\ X``.  Three bounds are
implemented, each obtained by relaxing a constraint of that tree:

* **one-label** (``π₁``): drop all but one missing label —
  ``max_{x∈X̄} dist(v, ṽ_x)``.  This alone gives PrunedDP+.
* **tour bound 1** (``π_t1``): relax "tree" to "closed tour": half the
  cheapest tour ``v → ṽ_i → … → ṽ_j → v`` through all missing virtual
  nodes (Eq. 3-4), read off the AllPaths tables.
* **tour bound 2** (``π_t2``): half of
  ``max_i ( dist(v, ṽ_i) + W(ṽ_i, X̄) + min_j dist(ṽ_j, v) )`` (Eq. 6) —
  a max over entry points instead of a min over endpoints.

``π₁`` and ``π_t1`` are consistent (Lemmas 5-6); raw ``π_t2`` is not,
which the engines repair with the paper's path-max propagation (the
bound cache below is monotonically *raised* as propagated values
arrive, which keeps every cached value admissible — Section 4.2).

``π₁``'s terms live in :attr:`LowerBounds.missing_rows`: per covered
mask, the ``dist`` rows of the missing labels.  The engine reads them to
prune a successor on ``cost + π₁`` before it asks for the full bound.
"""

from __future__ import annotations

from typing import Dict, Optional

from .allpaths import RouteTables
from .context import QueryContext
from .state import iter_bits

__all__ = ["LowerBounds"]

INF = float("inf")


class _MissingRows(dict):
    """Covered mask -> tuple of the missing labels' ``dist`` rows.

    Filled on first use of a mask (at most 2^k entries), so subscripting
    is one dict lookup on the engine's hot path.
    """

    __slots__ = ("dist", "full_mask")

    def __init__(self, context: QueryContext) -> None:
        super().__init__()
        self.dist = context.dist
        self.full_mask = context.full_mask

    def __missing__(self, covered_mask: int) -> tuple:
        missing = self.full_mask & ~covered_mask
        rows = tuple(self.dist[i] for i in iter_bits(missing))
        self[covered_mask] = rows
        return rows


class LowerBounds:
    """Admissible lower-bound oracle ``π(v, X)`` with a raisable cache.

    ``use_one_label`` / ``use_tour1`` / ``use_tour2`` select which
    bounds participate (the paper's PrunedDP+ is one-label only;
    PrunedDP++ is all three).  The ablation benchmarks toggle them
    individually.
    """

    __slots__ = (
        "context",
        "routes",
        "use_one_label",
        "use_tour1",
        "use_tour2",
        "_cache",
        "_bits",
        "missing_rows",
        "full_mask",
        "key_bits",
        "evaluations",
        "hits",
        "misses",
    )

    def __init__(
        self,
        context: QueryContext,
        routes: Optional[RouteTables] = None,
        *,
        use_one_label: bool = True,
        use_tour1: bool = True,
        use_tour2: bool = True,
    ) -> None:
        if (use_tour1 or use_tour2) and routes is None:
            raise ValueError("tour-based bounds require RouteTables")
        self.context = context
        self.routes = routes
        self.use_one_label = use_one_label
        self.use_tour1 = use_tour1
        self.use_tour2 = use_tour2
        # Memo keyed by packed ``node << key_bits | covered_mask`` ints —
        # the same packing the engine uses for queue/store keys, so the
        # search loop shares one key value across all three structures.
        # It lives for one query, so it needs no bound.
        self._cache: Dict[int, float] = {}
        # mask -> tuple of set bit positions; at most 2^k entries, each
        # tiny, and it removes a generator per cache miss.
        self._bits: Dict[int, tuple] = {}
        self.missing_rows = _MissingRows(context)
        self.full_mask = context.full_mask
        self.key_bits = context.k
        self.evaluations = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def pi(self, node: int, covered_mask: int) -> float:
        """Current lower bound on completing state ``(node, covered_mask)``."""
        missing = self.full_mask & ~covered_mask
        if missing == 0:
            return 0.0
        key = (node << self.key_bits) | covered_mask
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        value = self._evaluate(node, covered_mask)
        self._cache[key] = value
        return value

    def raise_to(self, node: int, covered_mask: int, value: float) -> float:
        """Path-max: raise the cached bound for a state, return the max.

        The engines call this when expanding ``(v, X) → (u, X)`` with
        ``π(v,X) - w(v,u)`` and when merging with ``π(v,X) - f*(v,X')``
        — both are valid lower bounds for the successor state (proof of
        Lemmas 5-7), so the cache only ever moves toward the truth.
        """
        if (self.full_mask & ~covered_mask) == 0:
            return 0.0
        current = self.pi(node, covered_mask)
        if value > current:
            self._cache[(node << self.key_bits) | covered_mask] = value
            return value
        return current

    # ------------------------------------------------------------------
    def _evaluate(self, node: int, covered_mask: int) -> float:
        self.evaluations += 1
        dist = self.context.dist
        missing = self.full_mask & ~covered_mask
        bits = self._bits.get(missing)
        if bits is None:
            bits = tuple(iter_bits(missing))
            self._bits[missing] = bits

        best = 0.0
        if self.use_one_label:
            for row in self.missing_rows[covered_mask]:
                d = row[node]
                if d > best:
                    best = d

        if self.use_tour1 and self.routes is not None:
            # Eq. 3-4: half the cheapest closed tour v → ṽ_i … ṽ_j → v.
            tour = INF
            routes = self.routes
            for i in bits:
                entry = dist[i][node]
                if entry >= tour:  # route weights are >= 0
                    continue
                row = routes.route_row(i, missing)
                for j in bits:
                    candidate = entry + row[j] + dist[j][node]
                    if candidate < tour:
                        tour = candidate
            half = tour / 2.0
            if half > best:
                best = half

        if self.use_tour2 and self.routes is not None:
            # Eq. 6: max over entry virtual nodes of entry + open tour +
            # cheapest exit, halved.
            exit_leg = min(dist[j][node] for j in bits)
            routes = self.routes
            worst = 0.0
            for i in bits:
                candidate = dist[i][node] + routes.tour(i, missing) + exit_leg
                if candidate > worst:
                    worst = candidate
            half = worst / 2.0
            if half > best:
                best = half

        return best

    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Memo size/hit/miss counters (surfaced in traces)."""
        return {
            "size": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "evaluations": self.evaluations,
        }
