"""The progressive best-first / A* search engine.

Algorithms 1 (``Basic``), 2 (``PrunedDP``) and 4 (``PrunedDP++``) share
their entire control flow — pop the best state, construct a feasible
solution, expand by *edge growing* and *tree merging*, maintain the best
feasible answer and a monotone lower bound — and differ only in four
policy knobs:

======================  =======  =========  ==========  ============
knob                    Basic    PrunedDP   PrunedDP+   PrunedDP++
======================  =======  =========  ==========  ============
``bounds`` (A* π)       —        —          one-label   π₁+π_t1+π_t2
``prune_half``          no       yes        yes         yes
``merge_factor``        —        2/3        2/3         2/3
``complement_shortcut`` no       yes        yes         yes
======================  =======  =========  ==========  ============

``prune_half`` is Theorem 1 (only states lighter than ``best/2`` are
expanded), ``merge_factor`` is Theorem 2 (two subtrees merge only when
their total is at most ``2/3 · best``), and ``complement_shortcut`` is
Algorithm 2 lines 16-18 (a popped state whose complement is settled
immediately forms the feasible state and is not otherwise expanded).

A* priorities use the paper's path-max fix (Section 4.2): the bound
cache is raised with ``π(parent) - δ`` on every expansion, which keeps
the combined bound consistent in practice.  As a *belt-and-braces*
exactness guarantee — independent of any consistency argument — the
engine reopens a settled state if a strictly cheaper derivation ever
appears (``stats.reopened`` counts these; the test suite asserts
agreement with plain DPBF on thousands of random instances).

Progressiveness: the engine emits :class:`~repro.core.result.ProgressPoint`
events whose ``(best_weight, lower_bound)`` pairs are exactly the UB/LB
curves of the paper's Figure 10, and every intermediate answer carries a
sound approximation guarantee (monotone non-increasing ratio).

A context whose labels were cold may bring an answer found while its
Dijkstras ran (:attr:`QueryContext.early
<repro.core.context.QueryContext.early>`).  The engine treats it as a
floor: its stream continues from the context's reports, each point
carries the lower UB and the higher LB of the engine's own state and
the floor, and the result holds the better tree.  The search itself
never reads the floor, so its pops, pruning and trees are those of a
warm run.

There is one search loop, :meth:`SearchEngine.run`.  It always runs over
the frozen CSR snapshot that :meth:`QueryContext.build
<repro.core.context.QueryContext.build>` takes from ``Graph.freeze()``,
with states keyed by packed ``node << k | mask`` ints.  Its answers are
pinned by independent oracles: brute force, DPBF and the certifier in
:mod:`repro.verify`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import CheckpointRangeError
from ..graph.heap import IndexedHeap
from .bounds import LowerBounds
from .budget import Budget
from .context import QueryContext
from .early import EarlyAnswer
from .feasible import (
    build_feasible_tree,
    kept_core_weight,
    prune_redundant_leaves,
    steiner_tree_from_edges,
)
from .result import GSTResult, ProgressPoint, SearchStats
from .state import StateStore
from .tree import SteinerTree

__all__ = ["SearchEngine"]

INF = float("inf")
_COST_EPS = 1e-12
# A kept core skips its union's refinement only when it reaches the
# incumbent by this relative margin, which covers its summation order
# differing from ``SteinerTree``'s sorted sum.
_CORE_MARGIN = 1.0 + 1e-9
_LIMIT_CHECK_INTERVAL = 256


class SearchEngine:
    """One run of the progressive GST search over a prepared query context."""

    def __init__(
        self,
        context: QueryContext,
        *,
        algorithm_name: str,
        bounds: Optional[LowerBounds] = None,
        prune_half: bool = False,
        merge_factor: Optional[float] = None,
        complement_shortcut: bool = False,
        budget: Optional[Budget] = None,
        checkpointer=None,
        debug_certify: bool = False,
        on_progress: Optional[Callable[[ProgressPoint], None]] = None,
        on_feasible: Optional[Callable[[SteinerTree], None]] = None,
        on_event: Optional[Callable[[str, dict], None]] = None,
        init_seconds: Optional[float] = None,
        table_entries: int = 0,
    ) -> None:
        if merge_factor is not None and not 0.0 < merge_factor <= 1.0:
            raise ValueError("merge_factor must be in (0, 1]")
        self.context = context
        self.algorithm_name = algorithm_name
        self.bounds = bounds
        self.prune_half = prune_half
        self.merge_factor = merge_factor
        self.complement_shortcut = complement_shortcut
        # The limits are read off the budget once, here: the time limit
        # is its own, clamped by whatever remains of its deadline.
        if budget is None:
            budget = Budget()
        self.time_limit = budget.effective_time_limit()
        self.epsilon = budget.epsilon
        self.max_states = budget.max_states
        self.cancel_token = budget.cancel_token
        # Durability hook (see :mod:`repro.service.durability`): an
        # object with ``maybe_checkpoint(engine)`` called once per loop
        # iteration at a consistent point (before the pop), and invoked
        # with ``checkpoint(engine)`` on cooperative cancellation.
        self.checkpointer = checkpointer
        self.debug_certify = debug_certify
        self.on_progress = on_progress
        self.on_feasible = on_feasible
        self.on_event = on_event

        # The clock starts ``init_seconds`` before run(); by default the
        # context build's time, so the context's reports come first.
        if init_seconds is None:
            init_seconds = context.build_seconds
        self.stats = SearchStats(
            init_seconds=init_seconds, table_entries=table_entries
        )
        self._floor: Optional[EarlyAnswer] = context.early
        self.trace: List[ProgressPoint] = (
            list(self._floor.points) if self._floor is not None else []
        )

        # Queue and pending keys are packed ``node << k | mask`` ints.
        self._queue = IndexedHeap()
        self._pending: Dict[int, Tuple[float, tuple]] = {}
        self._store = StateStore(context.graph.num_nodes, context.k)
        self._full = context.full_mask
        # Feasible-build memos: materialized shortest-path pieces per
        # (label, node), and signatures of feasible-tree unions already
        # evaluated (see ``_build_feasible_memoized``).
        self._path_pieces: Dict[int, Optional[tuple]] = {}
        self._union_seen: set = set()
        self._best = INF
        self._best_tree: Optional[SteinerTree] = None
        self._global_lb = 0.0
        self._started = 0.0
        # Set by :meth:`restore`: skips seeding and offsets the clock so
        # elapsed time is cumulative across checkpoint/resume cycles.
        self._restored = False
        self._elapsed_offset = 0.0

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run(self) -> GSTResult:
        """Execute the search and return the (possibly anytime) result.

        The packed-key search loop over the context's frozen snapshot.

        Hot-path mechanics:

        * state keys are single ints ``node << k | mask`` shared by the
          queue, the pending map, the settled store, and the bound cache
          — no tuple allocation or composite hashing per touch;
        * adjacency comes from the snapshot's immutable per-node tuple
          views (no method call, no defensive copy);
        * the ``update`` procedure is a closure over local bindings
          instead of a bound method;
        * when π₁ is part of π, ``update`` prunes a successor on
          ``cost + π₁ >= best`` (k reads of the bounds' per-mask
          ``missing_rows``) before it evaluates the tour bounds or
          touches the bound memo.  π >= π₁ in the same float form, so
          the pruning decisions are those of the full test; only the
          successors that pass it store a path-max raise;
        * the settled store starts every node on one shared empty
          mapping instead of allocating n dicts per query;
        * feasible-tree construction memoizes shortest-path pieces,
          skips a union of edges it has already seen, and skips the MST
          and leaf prune for a union tree whose kept core already
          weighs at least the incumbent
          (:meth:`_build_feasible_memoized`).  Both skips are *exact*,
          so the incumbent trajectory is unchanged.  The top-r
          collector (``on_feasible``) bypasses them so every candidate
          still materializes;
        * peak-size tracking is sampled at the limit-check interval
          rather than per push.
        """
        self._started = time.perf_counter() - self.stats.init_seconds
        self._emit("search_started", algorithm=self.algorithm_name)
        floor = self._floor
        if self.debug_certify and floor is not None:
            self._certify(floor.tree, floor.weight, floor.lower_bound)
        if self.cancel_token is not None and self.cancel_token.cancelled:
            self.stats.cancelled = True
            self.stats.total_seconds = self._elapsed()
            self._record_progress(force=True)
            self._emit("search_cancelled", elapsed=self.stats.total_seconds)
            return self._result(False)

        context = self.context
        kb = context.k
        mask_filter = (1 << kb) - 1
        full = self._full
        store = self._store
        store_cost = store._cost
        pending = self._pending
        queue = self._queue
        queue_update = queue.update
        queue_pop = queue.pop
        pending_pop = pending.pop
        bounds = self.bounds
        raise_bound = bounds.raise_to if bounds is not None else None
        has_bounds = bounds is not None
        # None when π₁ is not part of π (the tour-only ablations): those
        # run no pre-test.
        missing_rows = (
            bounds.missing_rows if has_bounds and bounds.use_one_label else None
        )
        adjacency = context.snapshot.adjacency
        stats = self.stats
        eps = _COST_EPS
        merge_factor = self.merge_factor
        prune_half = self.prune_half
        complement_shortcut = self.complement_shortcut
        on_feasible = self.on_feasible

        # Resumed runs continue the checkpointed counters (cumulative
        # across interruptions); cold runs start from the zeros the
        # constructor put in ``stats``.
        pops = stats.states_popped
        pushes = stats.states_pushed
        expanded = stats.states_expanded
        grown = stats.edges_grown
        merges = stats.merges_performed
        pruned = stats.states_pruned

        def update(node, mask, cost, backpointer, parent_f):
            # The paper's ``update`` procedure (Alg 1 lines 21-26 / Alg 4
            # 28-36) over packed keys; reads ``self._best`` fresh so
            # mid-expansion incumbent drops tighten pruning immediately.
            nonlocal pushes, pruned
            # Most successors land on a node with no settled state, whose
            # bucket is the store's shared read-only mapping: ``in`` is
            # the cheapest test there.
            bucket = store_cost[node]
            if mask in bucket:
                if cost >= bucket[mask] - eps:
                    return
                store.reopen(node, mask)
                stats.reopened += 1
            if missing_rows is not None:
                # π₁ pre-test: π >= π₁, so ``cost + π₁ >= best`` prunes
                # exactly the successors the full test below would, for
                # k array reads and without touching the bound memo.
                best = self._best
                for row in missing_rows[mask]:
                    if cost + row[node] >= best:
                        pruned += 1
                        return
            if raise_bound is not None:
                f_value = cost + raise_bound(node, mask, parent_f - cost)
            else:
                f_value = cost
            if f_value >= self._best:
                pruned += 1
                return
            if mask == full and cost < self._best - eps:
                self._adopt_best_state(node, mask, cost, backpointer)
            key = (node << kb) | mask
            existing = pending.get(key)
            if existing is not None and existing[0] <= cost + eps:
                return
            if existing is None:
                pushes += 1
            pending[key] = (cost, backpointer)
            queue_update(key, f_value)

        if not self._restored:
            # Seeding one label per state matches the paper; nodes carrying
            # several query labels reach the richer masks via zero-cost
            # merges of their seed states.
            for label_index, members in enumerate(context.groups):
                bit = 1 << label_index
                seed_bp = ("seed", label_index)
                for node in members:
                    update(node, bit, 0.0, seed_bp, 0.0)
        self._track_peak()

        checkpointer = self.checkpointer
        optimal = False
        limited = False
        pops_since_check = 0
        try:
            while queue:
                if checkpointer is not None:
                    # Sync the counters the checkpoint serializes, then
                    # give the cadence hook its per-iteration look.  Loop
                    # top is the consistent point: queue, pending, and
                    # settled store agree with each other here.
                    stats.states_popped = pops
                    stats.states_pushed = pushes
                    stats.states_expanded = expanded
                    stats.edges_grown = grown
                    stats.merges_performed = merges
                    stats.states_pruned = pruned
                    checkpointer.maybe_checkpoint(self)
                pops_since_check += 1
                if pops_since_check >= _LIMIT_CHECK_INTERVAL:
                    pops_since_check = 0
                    stats.states_popped = pops
                    self._track_peak()
                    if self._limits_hit():
                        limited = True
                        break
                if self._epsilon_satisfied():
                    optimal = self.epsilon == 0.0 or self._best <= 0.0
                    break

                key, f_value = queue_pop()
                node = key >> kb
                mask = key & mask_filter
                cost, backpointer = pending_pop(key)
                pops += 1
                self._raise_global_lb(f_value if has_bounds else cost)

                if mask == full:
                    # Goal popped: its cost is the proven optimum.
                    if cost < self._best - eps:
                        self._adopt_best_state(node, mask, cost, backpointer)
                    store.settle(node, mask, cost, backpointer)
                    self._raise_global_lb(self._best)
                    optimal = True
                    break

                store.settle(node, mask, cost, backpointer)

                if on_feasible is not None:
                    self._build_feasible(node, mask)
                elif cost < self._best:
                    self._build_feasible_memoized(node, mask)

                parent_f = f_value if has_bounds else cost

                if complement_shortcut:
                    complement = full ^ mask
                    complement_cost = store_cost[node].get(complement)
                    if complement_cost is not None:
                        update(
                            node,
                            full,
                            cost + complement_cost,
                            ("merge", mask, complement),
                            parent_f,
                        )
                        continue  # Algorithm 2 line 18

                if prune_half and cost >= self._best / 2.0:
                    pruned += 1
                    continue  # Theorem 1: no expansion needed

                expanded += 1
                for neighbor, weight in adjacency[node]:
                    grown += 1
                    update(
                        neighbor,
                        mask,
                        cost + weight,
                        ("grow", node, weight),
                        parent_f,
                    )
                best = self._best
                merge_budget = (
                    merge_factor * best
                    if merge_factor is not None and best < INF
                    else INF
                )
                # list() copy: a reopen inside update() mutates this dict.
                for other_mask, other_cost in list(store_cost[node].items()):
                    if other_mask & mask:
                        continue
                    combined = cost + other_cost
                    new_mask = mask | other_mask
                    if new_mask != full and combined > merge_budget:
                        continue  # Theorem 2: unpromising partial merge
                    merges += 1
                    update(
                        node,
                        new_mask,
                        combined,
                        ("merge", mask, other_mask),
                        parent_f,
                    )
            else:
                # Queue drained without popping a goal: every alternative
                # was pruned against `best`, so the best feasible answer
                # is optimal (provided one exists at all).
                if self._best < INF:
                    optimal = True
                    self._raise_global_lb(self._best)
        finally:
            stats.states_popped = pops
            stats.states_pushed = pushes
            stats.states_expanded = expanded
            stats.edges_grown = grown
            stats.merges_performed = merges
            stats.states_pruned = pruned

        if self._best < INF and self._global_lb >= self._best - eps:
            optimal = True
        self._track_peak()
        stats.total_seconds = self._elapsed()
        self._record_progress(force=True)
        if limited and checkpointer is not None:
            # An anytime exit (cancellation, time limit, state cap)
            # persists the frontier, so the query can later be resumed
            # to proven optimality instead of restarting cold.  Written
            # after the final progress point, so a resumed stream's
            # clock starts at or past it.
            checkpointer.checkpoint(self)
        result = self._result(optimal)
        self._emit(
            "search_finished",
            optimal=result.optimal,
            elapsed=stats.total_seconds,
            states_popped=stats.states_popped,
            best_weight=result.weight,
        )
        return result

    def _result(self, optimal: bool) -> GSTResult:
        """The answer at exit: the engine's tree, or the floor's if lighter."""
        tree, weight = self._best_tree, self._best
        lower = weight if optimal else min(self._global_lb, weight)
        floor = self._floor
        if floor is not None and not optimal:
            if floor.weight < weight - _COST_EPS:
                tree, weight = floor.tree, floor.weight
            lower = min(max(lower, floor.lower_bound), weight)
            optimal = weight < INF and lower >= weight - _COST_EPS
            if optimal:
                lower = weight
        return GSTResult(
            algorithm=self.algorithm_name,
            labels=self.context.query.labels,
            tree=tree,
            weight=weight,
            lower_bound=lower,
            optimal=optimal,
            stats=self.stats,
            trace=self.trace,
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore (durability layer)
    # ------------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Serialize the live search state to a JSON-safe dict.

        Captures everything :meth:`restore` needs to continue the search
        as if it had never stopped: the priority queue (``(key, f)``
        pairs), the pending map (``(key, cost, backpointer)``), the
        settled :class:`~repro.core.state.StateStore`, the incumbent
        tree, the global lower bound, cumulative elapsed time, and the
        stats counters.  State keys are the packed ``node << k | mask``
        ints (:func:`~repro.core.state.pack_state`) the loop runs on.
        Must be called at a consistent point — between loop iterations,
        which is where the engine invokes its checkpointer.
        """
        kb = self.context.k
        queue = [[key, f] for key, f in self._queue.items()]
        pending = [
            [key, cost, list(bp)] for key, (cost, bp) in self._pending.items()
        ]
        settled = [
            [(node << kb) | mask, cost, list(bp)]
            for node, mask, cost, bp in self._store.items()
        ]
        floor = self._floor
        stats = self.stats
        return {
            "key_bits": kb,
            "algorithm": self.algorithm_name,
            "epsilon": self.epsilon,
            "elapsed": self._elapsed(),
            "best_weight": self._best,
            "best_tree": _tree_record(self._best_tree),
            "global_lb": self._global_lb,
            "floor": None if floor is None else {
                "weight": floor.weight,
                "lower_bound": floor.lower_bound,
                "tree": _tree_record(floor.tree),
            },
            "queue": queue,
            "pending": pending,
            "settled": settled,
            "stats": {
                "states_popped": stats.states_popped,
                "states_pushed": stats.states_pushed,
                "states_expanded": stats.states_expanded,
                "states_pruned": stats.states_pruned,
                "incumbent_improvements": stats.incumbent_improvements,
                "merges_performed": stats.merges_performed,
                "edges_grown": stats.edges_grown,
                "feasible_built": stats.feasible_built,
                "reopened": stats.reopened,
                "peak_queue_size": stats.peak_queue_size,
                "peak_store_size": stats.peak_store_size,
                "peak_live_states": stats.peak_live_states,
                "feasible_seconds": stats.feasible_seconds,
            },
        }

    def restore(self, state: dict) -> None:
        """Rehydrate a :meth:`checkpoint` dict; call before :meth:`run`.

        Rebuilds the queue, pending map, settled store, incumbent, lower
        bound and floor, and marks the engine restored so :meth:`run`
        skips seeding and continues the clock and counters cumulatively.
        The context's own early answer is dropped: the stream goes on
        from the checkpointed floor, with no new preprocessing point.
        The caller (:mod:`repro.service.durability`) is responsible for
        binding the checkpoint to the right graph/query.  This method
        checks the mask width (``ValueError``), and every node id and
        mask against the graph (:class:`~repro.errors.CheckpointRangeError`).
        """
        kb = int(state["key_bits"])
        if kb != self.context.k:
            raise ValueError(
                f"checkpoint was taken with key_bits={kb} but this query "
                f"has k={self.context.k} labels"
            )
        mask_filter = (1 << kb) - 1
        check = _RangeCheck(self.context.graph.num_nodes, kb)
        for packed, cost, bp in state["settled"]:
            check.key(packed, bp)
            self._store.settle(
                packed >> kb, packed & mask_filter, cost, tuple(bp)
            )
        for packed, cost, bp in state["pending"]:
            check.key(packed, bp)
            self._pending[packed] = (cost, tuple(bp))
        for packed, f_value in state["queue"]:
            check.key(packed)
            self._queue.update(packed, f_value)
        self._best = float(state["best_weight"])
        self._best_tree = check.tree(state.get("best_tree"))
        self._global_lb = float(state["global_lb"])
        floor = state.get("floor")
        self._floor = None
        if floor is not None:
            self._floor = EarlyAnswer(
                check.tree(floor["tree"]),
                float(floor["weight"]),
                float(floor["lower_bound"]),
            )
        self.trace = []
        self._elapsed_offset = float(state.get("elapsed", 0.0))
        counters = state.get("stats", {})
        stats = self.stats
        stats.states_popped = int(counters.get("states_popped", 0))
        stats.states_pushed = int(counters.get("states_pushed", 0))
        stats.states_expanded = int(counters.get("states_expanded", 0))
        stats.states_pruned = int(counters.get("states_pruned", 0))
        stats.incumbent_improvements = int(
            counters.get("incumbent_improvements", 0)
        )
        stats.merges_performed = int(counters.get("merges_performed", 0))
        stats.edges_grown = int(counters.get("edges_grown", 0))
        stats.feasible_built = int(counters.get("feasible_built", 0))
        stats.reopened = int(counters.get("reopened", 0))
        stats.peak_queue_size = int(counters.get("peak_queue_size", 0))
        stats.peak_store_size = int(counters.get("peak_store_size", 0))
        stats.peak_live_states = int(counters.get("peak_live_states", 0))
        stats.feasible_seconds = float(counters.get("feasible_seconds", 0.0))
        self._restored = True
        self._emit(
            "search_resumed",
            states_popped=stats.states_popped,
            queue_size=len(self._queue),
            best_weight=self._best,
        )

    # ------------------------------------------------------------------
    # Feasible solutions and progress reporting
    # ------------------------------------------------------------------
    def _build_feasible(self, node: int, mask: int) -> None:
        """Algorithms 1/2/4 lines 10-15: upper bound from this state.

        Serves the top-r collector (``on_feasible``): every candidate is
        materialized and handed to it, with no memo and no gate against
        the incumbent.
        """
        started = time.perf_counter()
        state_edges = self._store.tree_edges(node, mask)
        tree = build_feasible_tree(self.context, state_edges, node, mask)
        self.stats.feasible_built += 1
        self.stats.feasible_seconds += time.perf_counter() - started
        if tree is None:
            return
        self.on_feasible(tree)
        if tree.weight < self._best - _COST_EPS:
            self._new_incumbent(tree, tree.weight)

    def _build_feasible_memoized(self, node: int, mask: int) -> None:
        """Memoized feasible construction for the search loop.

        Same incumbent as :meth:`_build_feasible` with three exact
        accelerations:

        * the shortest-path edge walk from ``v`` toward each missing
          group depends only on ``(label, v)`` and is cached across
          pops (the parent trees are fixed for the whole query);
        * the union of state edges + path pieces is deduped once into
          ``{(u, v): w}`` pairs, whose key set is its signature.  A
          union already evaluated earlier in the run would produce the
          *same* tree, whose weight was already compared against an
          incumbent that has only decreased since — so duplicates skip
          the MST/prune refinement with zero effect on the trajectory;
        * a new union that weighs at least the incumbent and is a tree
          is refined only if its kept core
          (:func:`~repro.core.feasible.kept_core_weight`) is lighter
          than the incumbent.  Every refinement of the union contains
          the core, so a skipped union could not have produced a new
          best (``docs/algorithms.md``, Algorithm 1).  Skipped unions
          still count in ``stats.feasible_built``.
        """
        started = time.perf_counter()
        state_edges = self._store.tree_edges(node, mask)
        pieces = self._path_pieces
        context = self.context
        kb = self._store.key_bits
        missing = self._full & ~mask
        union: List[tuple] = list(state_edges)
        m = missing
        while m:
            low = m & -m
            m ^= low
            label_index = low.bit_length() - 1
            key = (node << kb) | label_index
            piece = pieces.get(key, False)
            if piece is False:
                if context.dist[label_index][node] == INF:
                    piece = None
                else:
                    piece = tuple(
                        context.shortest_path_edges(label_index, node)
                    )
                pieces[key] = piece
            if piece is None:
                # Missing label unreachable: no feasible tree here.
                self.stats.feasible_seconds += time.perf_counter() - started
                return
            union.extend(piece)

        # One weight per pair: the graph keeps one edge per pair, and
        # state trees and path pieces both read it.
        pairs: Dict[Tuple[int, int], float] = {
            ((u, v) if u < v else (v, u)): w for u, v, w in union
        }
        signature = frozenset(pairs)
        if signature in self._union_seen:
            self.stats.feasible_seconds += time.perf_counter() - started
            return
        self._union_seen.add(signature)

        best = self._best
        if best < INF and sum(pairs.values()) >= best:
            # The union is connected: the state tree and every path piece
            # contain ``node``.  If it is a tree, every refinement of it
            # keeps its kept core, so a core at least ``best`` means the
            # refined tree could not beat the incumbent.
            core = kept_core_weight(context, pairs)
            if core is not None and core >= best * _CORE_MARGIN:
                self.stats.feasible_built += 1
                self.stats.feasible_seconds += time.perf_counter() - started
                return

        tree = steiner_tree_from_edges(union, anchor=node)
        tree = prune_redundant_leaves(context, tree)
        self.stats.feasible_built += 1
        self.stats.feasible_seconds += time.perf_counter() - started
        if tree.weight < self._best - _COST_EPS:
            self._new_incumbent(tree, tree.weight)

    def _adopt_best_state(
        self, node: int, mask: int, cost: float, backpointer: tuple
    ) -> None:
        """A goal state beat the incumbent: rebuild its tree."""
        started = time.perf_counter()
        edges = self._store.tree_edges(node, mask, override=(node, mask, backpointer))
        tree = steiner_tree_from_edges(edges, anchor=node)
        self.stats.feasible_seconds += time.perf_counter() - started
        if self.on_feasible is not None:
            self.on_feasible(tree)
        # Merged derivations may share edges, in which case the actual
        # union is even lighter than the state cost; keep the real weight.
        self._new_incumbent(tree, min(cost, tree.weight))

    def _new_incumbent(self, tree: SteinerTree, weight: float) -> None:
        """Adopt ``tree`` as the incumbent and report the improvement."""
        self._best = weight
        self._best_tree = tree
        self.stats.incumbent_improvements += 1
        # ``_raise_global_lb`` clamps against the incumbent *at raise
        # time*, so a new incumbent below the already-raised bound would
        # cross it (the pi bound paths can also overshoot by float
        # rounding).  Every report derives its LB from
        # ``min(_global_lb, _best)``; this keeps the stored state sound.
        if self._global_lb > weight:
            self._global_lb = weight
        self._emit("new_best", weight=weight, elapsed=self._elapsed())
        self._record_progress()
        if self.debug_certify:
            self._certify_incumbent()

    def _raise_global_lb(self, value: float) -> None:
        if value > self._global_lb:
            self._global_lb = min(value, self._best)
            self._record_progress()

    def _certify_incumbent(self) -> None:
        """``debug_certify`` hook: independently re-validate the incumbent."""
        self._certify(self._best_tree, self._best, min(self._global_lb, self._best))

    def _certify(self, tree, weight: float, lower_bound: float) -> None:
        from ..verify.certify import certify_incumbent

        certify_incumbent(
            self.context.graph, self.context.query.labels, tree, weight, lower_bound
        )

    def _record_progress(self, force: bool = False) -> None:
        best = self._best
        lower = min(self._global_lb, best)
        floor = self._floor
        if floor is not None:
            if floor.weight < best:
                best = floor.weight
            if floor.lower_bound > lower:
                lower = floor.lower_bound
        point = ProgressPoint(
            elapsed=self._elapsed(), best_weight=best, lower_bound=lower
        )
        if not force and self.trace and not point.improves_on(self.trace[-1]):
            return
        self.trace.append(point)
        if self.on_progress is not None:
            self.on_progress(point)

    def _emit(self, name: str, **payload) -> None:
        """Publish a lifecycle event to the telemetry hook, if any."""
        if self.on_event is not None:
            self.on_event(name, payload)

    # ------------------------------------------------------------------
    # Limits
    # ------------------------------------------------------------------
    def _elapsed(self) -> float:
        # ``_elapsed_offset`` carries the wall-clock already spent before
        # a checkpoint this engine was restored from (0.0 on cold runs),
        # so progress reports and time limits see cumulative time.
        return time.perf_counter() - self._started + self._elapsed_offset

    def _epsilon_satisfied(self) -> bool:
        if self._best == INF:
            return False
        if self._best <= 0.0:
            # Non-negative edge weights make a zero-weight incumbent
            # trivially optimal; without this the lb-positivity guard
            # below would drain the whole queue (and could even trip
            # max_states) with the proven answer already in hand.
            return True
        if self._global_lb <= 0.0:
            return False
        return self._best <= (1.0 + self.epsilon) * self._global_lb + _COST_EPS

    def _limits_hit(self) -> bool:
        if self.cancel_token is not None and self.cancel_token.cancelled:
            # Cooperative cancellation: checked every
            # ``_LIMIT_CHECK_INTERVAL`` pops, so a cancelled query stops
            # within that many pops and returns its incumbent answer.
            self.stats.cancelled = True
            self._emit("search_cancelled", elapsed=self._elapsed())
            return True
        if self.time_limit is not None and self._elapsed() >= self.time_limit:
            return True
        if self.max_states is not None and self.stats.states_popped >= self.max_states:
            return True
        return False

    def _track_peak(self) -> None:
        live = len(self._queue) + len(self._store)
        if live > self.stats.peak_live_states:
            self.stats.peak_live_states = live
        if len(self._queue) > self.stats.peak_queue_size:
            self.stats.peak_queue_size = len(self._queue)
        if len(self._store) > self.stats.peak_store_size:
            self.stats.peak_store_size = len(self._store)


def _tree_record(tree: Optional[SteinerTree]) -> Optional[dict]:
    """A tree as a checkpoint stores it."""
    if tree is None:
        return None
    return {
        "edges": [[u, v, w] for u, v, w in tree.edges],
        "nodes": sorted(tree.nodes),
    }


class _RangeCheck:
    """Rejects checkpoint rows that name a node or mask outside the query."""

    def __init__(self, num_nodes: int, key_bits: int) -> None:
        self.key_bits = key_bits
        self.nodes = range(num_nodes)
        self.masks = range(1, 1 << key_bits)
        # The ids each backpointer kind's integer fields take.
        self.fields = {
            "seed": (range(key_bits),),
            "grow": (self.nodes,),
            "merge": (self.masks, self.masks),
        }

    @staticmethod
    def _within(value: int, allowed: range, what: str) -> None:
        if value not in allowed:
            raise CheckpointRangeError(
                f"checkpoint names {what} {value}, outside "
                f"{allowed.start}..{allowed.stop - 1}"
            )

    def key(self, packed: int, backpointer=None) -> None:
        """A packed ``node << k | mask`` key and its backpointer."""
        self._within(packed >> self.key_bits, self.nodes, "node")
        mask = packed & ((1 << self.key_bits) - 1)
        self._within(mask, self.masks, "label mask")
        if backpointer is not None:
            kind, *values = backpointer
            for value, allowed in zip(values, self.fields.get(kind, ())):
                self._within(value, allowed, f"{kind} field")

    def tree(self, record: Optional[dict]) -> Optional[SteinerTree]:
        """A checkpointed tree, its nodes checked against the graph."""
        if record is None:
            return None
        for node in record["nodes"]:
            self._within(node, self.nodes, "node")
        for u, v, _ in record["edges"]:
            self._within(u, self.nodes, "node")
            self._within(v, self.nodes, "node")
        return SteinerTree(
            ((u, v, w) for u, v, w in record["edges"]), nodes=record["nodes"]
        )
