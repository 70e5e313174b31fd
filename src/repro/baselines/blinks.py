"""BLINKS-style backward search with provable early termination.

BLINKS (He, Wang, Yang, Yu — SIGMOD 2007) answers keyword queries with
*root-based* semantics: an answer is a root node ``r`` plus one
shortest path to each keyword group, scored

    score(r) = Σ_i dist(r, V_i)

and the system returns the top-k roots.  Its algorithmic core — the
part independent of the disk-oriented bi-level index — is a set of
per-keyword **backward Dijkstras** expanded cost-balanced (smallest
frontier first) with a sound early-termination test: a root not yet
completed has

    score(v)  >=  S(v) + Σ_{i not yet settled v} frontier_i

where ``S(v)`` is the partial score from the iterators that already
settled ``v`` and ``frontier_i`` only ever grows; once every potential
root's bound reaches the current k-th best score, the search stops.
That is BLINKS' optimality argument, and it stops far earlier than the
BANKS-style full exploration — which the tests assert.

The best root's path union (collapsed to a tree and pruned) is also a
feasible GST answer with the usual ``k``-approximation guarantee, so
:class:`BlinksSolver` doubles as another approximate GST baseline.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Hashable, Iterable, List, Optional, Set, Tuple, Union

from ..core.budget import Budget
from ..core.feasible import prune_redundant_leaves, steiner_tree_from_edges
from ..core.query import GSTQuery
from ..core.result import GSTResult, ProgressPoint, SearchStats
from ..core.tree import SteinerTree
from ..errors import GraphError, InfeasibleQueryError
from ..graph.graph import Graph
from ..graph.partition import Partition, bfs_partition

__all__ = ["BlinksSolver", "BlinksIndex", "RootAnswer"]

INF = float("inf")
_TERMINATION_CHECK_INTERVAL = 64


class RootAnswer:
    """One BLINKS answer: a root, its score, and the answer tree."""

    __slots__ = ("root", "score", "tree")

    def __init__(self, root: int, score: float, tree: SteinerTree) -> None:
        self.root = root
        self.score = score
        self.tree = tree

    def __repr__(self) -> str:
        return f"RootAnswer(root={self.root}, score={self.score:g})"


class BlinksIndex:
    """The bi-level index: a block partition + block-level bounds.

    Built once per graph (BLINKS' offline phase); at query time
    :meth:`keyword_bounds` runs one Dijkstra per keyword over the tiny
    *block graph*, yielding ``lb_i[b] <= dist(v, V_i)`` for every node
    ``v`` of block ``b`` — admissible because every block transition on
    a real path costs at least the cheapest edge crossing between the
    two blocks.  :class:`BlinksSolver` uses these to terminate earlier:
    a block none of whose nodes has been touched can be written off
    wholesale once ``Σ_i max(lb_i[b], frontier_i)`` reaches the k-th
    best score.
    """

    __slots__ = ("graph", "partition")

    def __init__(self, graph: Graph, block_size: int = 64) -> None:
        self.graph = graph
        self.partition: Partition = bfs_partition(graph, block_size)

    def keyword_bounds(self, groups) -> List[List[float]]:
        """Per keyword group: block-level lower-bound distance array."""
        partition = self.partition
        bounds: List[List[float]] = []
        for members in groups:
            source_blocks = sorted({partition.block_of(v) for v in members})
            bounds.append(partition.block_distances(source_blocks))
        return bounds


class _MaskContext:
    """Lightweight stand-in for QueryContext in leaf pruning."""

    __slots__ = ("k", "node_masks")

    def __init__(self, graph: Graph, query: GSTQuery) -> None:
        self.k = query.k
        masks = [0] * graph.num_nodes
        for i, label in enumerate(query.labels):
            bit = 1 << i
            for node in graph.nodes_with_label(label):
                masks[node] |= bit
        self.node_masks = masks


class BlinksSolver:
    """Top-k root search by early-terminated backward expansion."""

    algorithm_name = "BLINKS"

    def __init__(
        self,
        graph: Graph,
        query: Union[GSTQuery, Iterable[Hashable]],
        *,
        k_answers: int = 10,
        budget: Optional[Budget] = None,
        index: Optional[BlinksIndex] = None,
    ) -> None:
        if k_answers < 1:
            raise ValueError("k_answers must be >= 1")
        if index is not None and index.graph is not graph:
            raise GraphError("index was built for a different graph")
        self.graph = graph
        self.query = query if isinstance(query, GSTQuery) else GSTQuery(query)
        self.k_answers = k_answers
        self.budget = budget if budget is not None else Budget()
        self.index = index
        self._answers: List[RootAnswer] = []

    # ------------------------------------------------------------------
    def solve(self) -> GSTResult:
        """Run the search; returns the best answer as a ``GSTResult``.

        The full top-k list is available afterwards via
        :meth:`top_roots`.  Raises :class:`InfeasibleQueryError` when no
        node reaches every keyword group.
        """
        started = time.perf_counter()
        time_limit = self.budget.effective_time_limit()
        groups = self.query.groups(self.graph)
        stats = SearchStats()
        k = self.query.k
        n = self.graph.num_nodes
        adjacency = self.graph.adjacency()

        dist: List[List[float]] = [[INF] * n for _ in range(k)]
        parent: List[List[int]] = [[-1] * n for _ in range(k)]
        settled: List[List[bool]] = [[False] * n for _ in range(k)]
        frontier: List[float] = [0.0] * k
        exhausted: List[bool] = [False] * k
        partial_score: List[float] = [0.0] * n
        hits: List[int] = [0] * n
        partial_nodes: Set[int] = set()

        heaps: List[List[Tuple[float, int]]] = [[] for _ in range(k)]
        for i, members in enumerate(groups):
            for node in members:
                if dist[i][node] > 0.0:
                    dist[i][node] = 0.0
                    heappush(heaps[i], (0.0, node))

        top: List[RootAnswer] = []  # sorted ascending by score
        trace: List[ProgressPoint] = []
        mask_context = _MaskContext(self.graph, self.query)

        # Bi-level index: block-level keyword bounds + per-block count
        # of still-untouched nodes.
        block_bounds: Optional[List[List[float]]] = None
        untouched_per_block: List[int] = []
        block_of: List[int] = []
        if self.index is not None:
            block_bounds = self.index.keyword_bounds(groups)
            block_of = self.index.partition.assignment
            untouched_per_block = [
                len(members) for members in self.index.partition.blocks
            ]

        def kth_best() -> float:
            if len(top) < self.k_answers:
                return INF
            return top[-1].score

        def unreached_bound() -> float:
            """Lower bound on the score of any entirely untouched node."""
            if any(exhausted):
                # An exhausted iterator settled everything it can reach:
                # untouched nodes are unreachable for it.
                return INF
            if block_bounds is None:
                return sum(frontier)
            best = INF
            for block, count in enumerate(untouched_per_block):
                if count == 0:
                    continue
                bound = 0.0
                for i in range(k):
                    lb = block_bounds[i][block]
                    f = frontier[i]
                    bound += lb if lb > f else f
                if bound < best:
                    best = bound
            return best

        def can_terminate() -> bool:
            """BLINKS early termination: no incomplete root can still
            enter the top-k."""
            threshold = kth_best()
            if threshold == INF:
                return False
            if unreached_bound() < threshold:
                return False
            # Partially reached nodes.
            for v in partial_nodes:
                bound = partial_score[v]
                impossible = False
                for i in range(k):
                    if settled[i][v]:
                        continue
                    if exhausted[i]:
                        impossible = True
                        break
                    bound += frontier[i]
                if not impossible and bound < threshold:
                    return False
            return True

        expansions = 0
        timed_out = False
        while True:
            if (
                time_limit is not None
                and time.perf_counter() - started >= time_limit
            ):
                timed_out = True
                break
            live = [i for i in range(k) if not exhausted[i]]
            if not live:
                break
            expansions += 1
            if expansions % _TERMINATION_CHECK_INTERVAL == 0 and can_terminate():
                break
            # Cost-balanced strategy: expand the smallest frontier.
            i = min(live, key=lambda idx: frontier[idx])
            heap = heaps[i]
            node = -1
            while heap:
                d, node = heappop(heap)
                if not settled[i][node] and d <= dist[i][node]:
                    break
            else:
                exhausted[i] = True
                continue
            settled[i][node] = True
            frontier[i] = d
            stats.states_popped += 1
            partial_score[node] += d
            hits[node] += 1
            if hits[node] == 1:
                partial_nodes.add(node)
                if untouched_per_block:
                    untouched_per_block[block_of[node]] -= 1
            if hits[node] == k:
                partial_nodes.discard(node)
                answer = self._materialize(
                    node, dist, parent, mask_context
                )
                if answer is not None and (
                    len(top) < self.k_answers or answer.score < top[-1].score
                ):
                    top.append(answer)
                    top.sort(key=lambda a: (a.score, a.root))
                    del top[self.k_answers:]
                    trace.append(
                        ProgressPoint(
                            time.perf_counter() - started,
                            top[0].tree.weight,
                            0.0,
                        )
                    )
            for neighbor, weight in adjacency[node]:
                nd = d + weight
                if nd < dist[i][neighbor]:
                    dist[i][neighbor] = nd
                    parent[i][neighbor] = node
                    heappush(heaps[i], (nd, neighbor))
            stats.peak_live_states = max(
                stats.peak_live_states, sum(len(h) for h in heaps)
            )

        self._answers = list(top)
        stats.total_seconds = time.perf_counter() - started
        if not top and not timed_out:
            raise InfeasibleQueryError(
                f"no node reaches every keyword group "
                f"{list(self.query.labels)!r}"
            )
        best = top[0] if top else None
        return GSTResult(
            algorithm=self.algorithm_name,
            labels=self.query.labels,
            tree=best.tree if best else None,
            weight=best.tree.weight if best else INF,
            lower_bound=0.0,
            optimal=False,
            stats=stats,
            trace=trace,
        )

    def top_roots(self) -> List[RootAnswer]:
        """The top-k root answers of the last :meth:`solve` call."""
        return list(self._answers)

    # ------------------------------------------------------------------
    def _materialize(
        self, root: int, dist, parent, mask_context
    ) -> Optional[RootAnswer]:
        score = 0.0
        edges = []
        for i in range(self.query.k):
            if dist[i][root] == INF:
                return None
            score += dist[i][root]
            current = root
            while parent[i][current] != -1:
                nxt = parent[i][current]
                edges.append(
                    (current, nxt, self.graph.edge_weight(current, nxt))
                )
                current = nxt
        tree = steiner_tree_from_edges(edges, anchor=root)
        tree = prune_redundant_leaves(mask_context, tree)
        return RootAnswer(root=root, score=score, tree=tree)
