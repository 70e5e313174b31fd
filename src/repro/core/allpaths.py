"""Algorithm 3 — ``AllPaths``: route DP over the virtual label nodes.

For the tour-based lower bounds of Section 4.1, PrunedDP++ needs, for
every pair of query labels ``(i, j)`` and every label subset ``X̄``, the
weight ``W(ṽ_i, ṽ_j, X̄)`` of the minimum-weight route that starts at
virtual node ``ṽ_i``, ends at ``ṽ_j`` and passes through every virtual
node of ``X̄`` — where movement happens in the *label-enhanced graph*
(all virtual nodes attached simultaneously, so consecutive legs are
virtual-to-virtual shortest paths).

The legs ``dist(ṽ_a, ṽ_b)`` come from the query context's arrays, not
from new Dijkstras.  Let ``D0[a][b] = min_{v ∈ V_b} dist(v, ṽ_a)``, the
plain group-to-group distance in ``G``.  Cut a shortest ``ṽ_a → ṽ_b``
route of the enhanced graph at every virtual node it visits: each piece
is a plain path in ``G`` between two groups, so it costs at least its
``D0`` entry, and every ``D0`` entry is the length of a real path.  So
the enhanced-graph distances are the min-plus closure of ``D0``, which
Floyd–Warshall over the ``k`` virtual nodes computes in
``O(k·Σ|V_p| + k^3)``.  The ``O(k(m + n log n))`` virtual-node
Dijkstras of Theorem 3 are the ones
:meth:`~repro.core.context.QueryContext.build` has already run (or read
from the label cache).

The paper drives the recurrence

    W(ṽ_i, ṽ_j, X̄) = min_{p ∈ X̄ \\ {j}} W(ṽ_i, ṽ_p, X̄ \\ {j}) + dist(ṽ_p, ṽ_j)

with best-first search; we evaluate the identical recurrence by subset
size (Held-Karp order), which computes exactly the same closed table in
``O(2^k k^3)``.  Tests check the distances against Dijkstra on the
materialized enhanced graph and the table against brute-force route
enumeration.

The derived open-tour table ``W(ṽ_i, X̄) = min_j W(ṽ_i, ṽ_j, X̄)`` is
precomputed too (used by the second tour bound π_t2).
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..errors import QueryError
from .context import QueryContext
from .state import iter_bits, popcount

__all__ = ["RouteTables", "MAX_ALLPATHS_LABELS", "min_plus_closure"]

INF = float("inf")

# 2^k * k^2 floats; k=14 is ~3.2M entries (~tens of MB as Python lists),
# the practical ceiling for the pure-Python table.
MAX_ALLPATHS_LABELS = 14


def _virtual_distances(
    dist: Sequence[Sequence[float]], groups: Sequence[Sequence[int]]
) -> List[List[float]]:
    """``dist(ṽ_a, ṽ_b)`` in the label-enhanced graph (see the module doc)."""
    k = len(groups)
    # Groups are non-empty (GSTQuery.groups), so the diagonal is 0.
    table = [
        [min(map(row.__getitem__, members)) for members in groups] for row in dist
    ]
    for a in range(k):
        for b in range(a):
            # The two directions sum one path's weights in opposite
            # orders, so they can differ in the last ulp.
            table[a][b] = table[b][a] = min(table[a][b], table[b][a])
    return min_plus_closure(table)


def min_plus_closure(table: List[List[float]]) -> List[List[float]]:
    """Close a symmetric ``k x k`` table under min-plus, in place.

    Floyd–Warshall over the virtual nodes: each entry becomes the
    lightest chain of entries between its two nodes.  Returns ``table``.
    """
    k = len(table)
    # Row and column m are fixed while m is the pivot, so the closure
    # keeps the table exactly symmetric.
    for m in range(k):
        via = table[m]
        for row in table:
            to_m = row[m]
            if to_m == INF:
                continue
            for b in range(k):
                candidate = to_m + via[b]
                if candidate < row[b]:
                    row[b] = candidate
    return table


class RouteTables:
    """Closed route tables ``W(ṽ_i, ṽ_j, X̄)`` and tours ``W(ṽ_i, X̄)``.

    ``route(i, j, mask)`` and ``tour(i, mask)`` expect ``mask`` to
    contain bit ``i`` (and ``j``); ``inf`` is returned for unreachable
    configurations (disconnected graphs).
    """

    __slots__ = ("k", "virtual_distance", "_routes", "_tours", "build_seconds")

    def __init__(
        self,
        k: int,
        virtual_distance: List[List[float]],
        routes: List[Dict[int, List[float]]],
        tours: List[Dict[int, float]],
        build_seconds: float,
    ) -> None:
        self.k = k
        self.virtual_distance = virtual_distance
        self._routes = routes
        self._tours = tours
        self.build_seconds = build_seconds

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, context: QueryContext) -> "RouteTables":
        """Compute the full table set from the query context's distances."""
        groups = context.groups
        k = len(groups)
        if k > MAX_ALLPATHS_LABELS:
            raise QueryError(
                f"AllPaths route tables support at most {MAX_ALLPATHS_LABELS} "
                f"labels, got {k}"
            )
        started = time.perf_counter()
        virtual_distance = _virtual_distances(context.dist, groups)

        # Masks grouped by popcount, ascending, so every sub-state of the
        # recurrence is already final when read (Held-Karp order).
        full = (1 << k) - 1
        by_size: List[List[int]] = [[] for _ in range(k + 1)]
        for mask in range(1, full + 1):
            by_size[popcount(mask)].append(mask)

        routes: List[Dict[int, List[float]]] = []
        for i in range(k):
            bit_i = 1 << i
            table: Dict[int, List[float]] = {}
            base = [INF] * k
            base[i] = 0.0
            table[bit_i] = base
            for size in range(2, k + 1):
                for mask in by_size[size]:
                    if not mask & bit_i:
                        continue
                    row = [INF] * k
                    for j in iter_bits(mask):
                        if j == i:
                            continue  # routes return to i only at size 1
                        prev_mask = mask ^ (1 << j)
                        prev_row = table[prev_mask]
                        dist_to_j = virtual_distance[j]
                        best = INF
                        for p in iter_bits(prev_mask):
                            candidate = prev_row[p] + dist_to_j[p]
                            if candidate < best:
                                best = candidate
                        row[j] = best
                    table[mask] = row
            routes.append(table)

        tours: List[Dict[int, float]] = []
        for i in range(k):
            table = routes[i]
            tours.append({mask: min(row) for mask, row in table.items()})

        return cls(
            k,
            virtual_distance,
            routes,
            tours,
            time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def route(self, i: int, j: int, mask: int) -> float:
        """``W(ṽ_i, ṽ_j, mask)``; requires ``i, j ∈ mask``."""
        row = self._routes[i].get(mask)
        if row is None:
            raise KeyError(f"mask {mask:#b} does not contain start label {i}")
        return row[j]

    def route_row(self, i: int, mask: int) -> List[float]:
        """All endpoints at once: ``[W(ṽ_i, ṽ_j, mask) for j in 0..k-1]``."""
        row = self._routes[i].get(mask)
        if row is None:
            raise KeyError(f"mask {mask:#b} does not contain start label {i}")
        return row

    def tour(self, i: int, mask: int) -> float:
        """Open tour ``W(ṽ_i, mask) = min_j W(ṽ_i, ṽ_j, mask)``."""
        value = self._tours[i].get(mask)
        if value is None:
            raise KeyError(f"mask {mask:#b} does not contain start label {i}")
        return value

    @property
    def num_entries(self) -> int:
        """Total stored floats (feeds the memory accounting)."""
        return sum(len(table) * self.k for table in self._routes) + sum(
            len(table) for table in self._tours
        )
