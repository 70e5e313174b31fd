"""A bounded first answer while a cold query's label Dijkstras run.

:meth:`QueryContext.build <repro.core.context.QueryContext.build>` runs
the Dijkstras of a query's cold labels round-robin, one bucket of each
per round (:class:`~repro.graph.shortest_paths.DialSweep`), and hands
each round's buckets to :class:`EarlyBounds`:

* **Upper bound.**  A node that every sweep has settled is *met* (a
  cached label counts wherever its distance is finite).  A settled
  node's parent walk is final, so the shortest path from a met node to
  every group is known, and :func:`~repro.core.feasible.build_feasible_tree`
  unites them into a real covering tree.  The first round that meets a
  node builds the tree of the node it met with the least distance sum;
  later rounds build none.
* **Lower bound.**  ``D0[a][b] = min_{v in V_b} dist(v, ṽ_a)`` is the
  plain group-to-group distance (:mod:`repro.core.allpaths`).  A sweep
  at radius ``r`` has settled every node nearer than ``r``, and every
  other node is at least ``r`` away.  So ``min(min_{v in V_b}
  dist_a(v), r_a)`` is at most ``D0[a][b]``, and equals it once the
  sweep has reached ``V_b``.  ``D0`` is symmetric, so a pair takes the
  larger of its two directions.  The min-plus closure of these entries
  is at most the enhanced-graph distance ``δ(a, b)`` between virtual
  nodes.  An optimal tree holds a path between any two groups, so
  ``f* >= δ(a, b)``; walked around, its edges twice over form a closed
  walk through every group, so ``f*`` is at least half the cheapest
  closed tour over ``δ``.  Tours are enumerated for at most
  :data:`TOUR_LABELS` labels; beyond that the bound is the largest
  closed entry.

A round whose bounds pass :meth:`ProgressPoint.improves_on
<repro.core.result.ProgressPoint.improves_on>` is reported, stamped in
seconds since the context build started.  Once every pair is exact the
bounds cannot move (:attr:`EarlyBounds.final`), and the build runs the
sweeps left one after another.  The search
engine treats the result, an :class:`EarlyAnswer`, as a floor under its
own incumbent and lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, List, Optional, Sequence, Tuple

from .allpaths import min_plus_closure
from .context import QueryContext
from .feasible import build_feasible_tree
from .result import ProgressPoint
from .tree import SteinerTree

__all__ = ["EarlyAnswer", "EarlyBounds", "TOUR_LABELS"]

INF = float("inf")

# Closed tours are enumerated for at most this many labels: (k - 1)!
# orders, 120 at k = 6.
TOUR_LABELS = 6


@dataclass(frozen=True)
class EarlyAnswer:
    """A covering tree and proven bounds found before the sweeps ended.

    ``points`` are the progress reports made along the way, in seconds
    since the context build started.
    """

    tree: SteinerTree
    weight: float
    lower_bound: float
    points: Tuple[ProgressPoint, ...] = ()


class EarlyBounds:
    """The bounds of a context build, round by round (see module doc)."""

    def __init__(
        self,
        context: QueryContext,
        sweeps: Sequence,
        started: float,
        on_progress: Optional[Callable[[ProgressPoint], None]],
    ) -> None:
        self.context = context
        # Per label: its running DialSweep, or None once its table is
        # whole (a cached label, or a finished sweep).
        self.sweeps = sweeps
        self.started = started
        self.on_progress = on_progress
        self.tree: Optional[SteinerTree] = None
        self.lower_bound = 0.0
        self.points: List[ProgressPoint] = []
        self._exact = False

    def after_round(self, buckets: Sequence[Sequence[int]]) -> None:
        """Update the bounds from one round of buckets, one per label.

        ``buckets[i]`` holds the queue entries label ``i``'s sweep went
        through this round (empty for a label that is not running).
        """
        if self._exact:
            return
        if self.tree is None:
            root = self._met_node(buckets)
            if root is None:
                return
            self.tree = build_feasible_tree(self.context, [], root, 0)
        lower, self._exact = self._pair_bound()
        if lower > self.lower_bound:
            self.lower_bound = lower
        point = ProgressPoint(
            time.perf_counter() - self.started, self.tree.weight, self.lower_bound
        )
        if self.points and not point.improves_on(self.points[-1]):
            return
        self.points.append(point)
        if self.on_progress is not None:
            self.on_progress(point)

    @property
    def final(self) -> bool:
        """Whether later rounds can no longer change the bounds."""
        return self._exact

    def answer(self) -> Optional[EarlyAnswer]:
        """The build's answer, or ``None`` when no node was ever met."""
        if self.tree is None:
            return None
        weight = self.tree.weight
        return EarlyAnswer(
            self.tree, weight, min(self.lower_bound, weight), tuple(self.points)
        )

    # ------------------------------------------------------------------
    def _radii(self) -> List[float]:
        """Per label: every node nearer than this is settled."""
        return [INF if sweep is None else sweep.radius for sweep in self.sweeps]

    def _met_node(self, buckets: Sequence[Sequence[int]]) -> Optional[int]:
        """The node these buckets met with the least distance sum, if any.

        Every entry of a processed bucket is settled by its own sweep:
        it went out at its final distance, now or in an earlier bucket.
        """
        dist = self.context.dist
        radii = self._radii()
        met: List[int] = []
        for a, bucket in enumerate(buckets):
            for b, (row, radius) in enumerate(zip(dist, radii)):
                if not bucket:
                    break
                if b != a:
                    bucket = [u for u in bucket if row[u] < radius]
            met.extend(bucket)
        if not met:
            return None
        return min(met, key=lambda u: (sum(row[u] for row in dist), u))

    def _pair_bound(self) -> Tuple[float, bool]:
        """The closure's lower bound, and whether every pair is exact."""
        dist = self.context.dist
        groups = self.context.groups
        radii = self._radii()
        # nearest[a][b]: the least distance label a's sweep has settled
        # in group b, or its radius when it has settled none.  Exact
        # when below the radius, or when the sweep is over.
        nearest = [
            [min(radius, *map(row.__getitem__, members)) for members in groups]
            for row, radius in zip(dist, radii)
        ]
        k = len(groups)
        table = [[0.0] * k for _ in range(k)]
        exact = True
        for a in range(k):
            for b in range(a):
                ab, ba = nearest[a][b], nearest[b][a]
                table[a][b] = table[b][a] = ab if ab > ba else ba
                exact = exact and (
                    ab < radii[a] or ba < radii[b] or INF in (radii[a], radii[b])
                )
        min_plus_closure(table)
        return max(max(map(max, table)), _half_tour(table)), exact


def _half_tour(table: List[List[float]]) -> float:
    """Half the cheapest closed tour through every node of ``table``.

    ``0.0`` when there are more than :data:`TOUR_LABELS` nodes.  With
    two nodes it equals the one entry, which the caller already has.
    """
    k = len(table)
    if k < 3 or k > TOUR_LABELS:
        return 0.0
    best = INF
    for order in permutations(range(1, k)):
        if order[0] > order[-1]:
            continue  # the same tour walked backwards
        cost = table[0][order[0]] + table[order[-1]][0]
        for a, b in zip(order, order[1:]):
            cost += table[a][b]
        if cost < best:
            best = cost
    return best / 2.0
