"""The four progressive GST solvers of the paper.

Each class prepares the per-query context (and, for PrunedDP++, the
AllPaths route tables), configures the shared
:class:`~repro.core.engine.SearchEngine` with the algorithm's policy,
and returns a :class:`~repro.core.result.GSTResult`.

All solvers accept the same keyword arguments, every resource limit
arriving in one :class:`~repro.core.budget.Budget`:

``budget``
    A :class:`Budget` carrying ``time_limit`` (seconds after which the
    best feasible answer so far is returned; ``result.optimal`` tells
    whether optimality was proven anyway), ``epsilon`` (stop as soon
    as the proven ratio reaches ``1 + epsilon`` — the anytime mode the
    paper's progressive framework enables) and ``max_states`` (a cap
    on popped states), and, for batch execution, an absolute deadline
    and/or a cooperative :class:`~repro.core.budget.CancellationToken`
    (a fired token stops the engine within a bounded number of state
    pops, returning the best feasible answer so far with
    ``result.stats.cancelled`` set).  None means no limit.
``on_progress``
    Callback invoked with every :class:`ProgressPoint` (UB/LB event).
``on_event``
    Callback ``(name, payload)`` for engine lifecycle events
    (``search_started`` / ``new_best`` / ``search_finished``) — the
    structured-telemetry hook the service layer records.
``debug_certify``
    Opt-in correctness paranoia: every incumbent update is re-validated
    by the independent certifier in :mod:`repro.verify` (tree shape,
    coverage, recomputed weight, bound soundness); a violation raises
    :class:`~repro.errors.CertificationError` at the exact pop that
    produced the bad answer.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Union

from ..errors import GraphError
from ..graph.graph import Graph
from .allpaths import RouteTables
from .bounds import LowerBounds
from .budget import Budget
from .context import QueryContext
from .engine import SearchEngine
from .query import GSTQuery
from .result import GSTResult, ProgressPoint

__all__ = [
    "BasicSolver",
    "PrunedDPSolver",
    "PrunedDPPlusSolver",
    "PrunedDPPlusPlusSolver",
]

QueryLike = Union[GSTQuery, Iterable[Hashable]]


def _coerce_query(query: QueryLike) -> GSTQuery:
    return query if isinstance(query, GSTQuery) else GSTQuery(query)


class _ProgressiveSolverBase:
    """Shared plumbing: context building, policy assembly, solve()."""

    algorithm_name = "?"
    prune_half = False
    merge_factor: Optional[float] = None
    complement_shortcut = False
    requires_positive_weights = False
    # Lower-bound selection (None → no A*).
    use_one_label = False
    use_tour1 = False
    use_tour2 = False

    def __init__(
        self,
        graph: Graph,
        query: QueryLike,
        *,
        budget: Optional[Budget] = None,
        on_progress: Optional[Callable[[ProgressPoint], None]] = None,
        on_feasible=None,
        on_event: Optional[Callable[[str, dict], None]] = None,
        distance_cache=None,
        debug_certify: bool = False,
        checkpointer=None,
        restore_state: Optional[dict] = None,
    ) -> None:
        self.graph = graph
        self.query = _coerce_query(query)
        self.budget = budget
        self.on_progress = on_progress
        self.on_feasible = on_feasible
        self.on_event = on_event
        self.distance_cache = distance_cache
        # Opt-in paranoia: the engine certifies every incumbent update
        # through repro.verify (see SearchEngine.debug_certify).
        self.debug_certify = debug_certify
        # Durability hooks (repro.service.durability): a cadence object
        # the engine calls every loop iteration, and an optional
        # SearchEngine.checkpoint() dict to resume from instead of
        # seeding a cold search.
        self.checkpointer = checkpointer
        self.restore_state = restore_state
        if self.requires_positive_weights and graph.num_edges > 0:
            if graph.min_edge_weight <= 0.0:
                raise GraphError(
                    f"{self.algorithm_name} requires strictly positive edge "
                    "weights (Theorem 1, optimal-tree decomposition); "
                    f"graph has min weight {graph.min_edge_weight}"
                )

    # Subclasses override to attach tables / bounds.
    def _prepare(self, context: QueryContext):
        """Return ``(bounds, extra_init_seconds, table_entries)``."""
        return None, 0.0, 0

    # ------------------------------------------------------------------
    # Staged execution — the service layer calls these separately so it
    # can time each stage; solve() chains them for everyone else.
    # ------------------------------------------------------------------
    def build_context(self) -> QueryContext:
        """Stage 1: per-query preprocessing (the k label Dijkstras).

        Reports the context's early answers to ``on_progress``, unless
        the solve resumes a checkpoint: its stream goes on from the
        checkpointed floor instead.
        """
        context = QueryContext.build(
            self.graph,
            self.query,
            cache=self.distance_cache,
            on_progress=self.on_progress if self.restore_state is None else None,
        )
        context.require_feasible()
        return context

    def prepare(self, context: QueryContext):
        """Stage 2: algorithm-specific tables and lower bounds."""
        return self._prepare(context)

    def run_search(self, context: QueryContext, prepared=None) -> GSTResult:
        """Stage 3: the progressive best-first search itself."""
        if prepared is None:
            prepared = self._prepare(context)
        bounds, extra_init, table_entries = prepared
        engine = SearchEngine(
            context,
            algorithm_name=self.algorithm_name,
            bounds=bounds,
            prune_half=self.prune_half,
            merge_factor=self.merge_factor,
            complement_shortcut=self.complement_shortcut,
            debug_certify=self.debug_certify,
            on_progress=self.on_progress,
            on_feasible=self.on_feasible,
            on_event=self.on_event,
            init_seconds=context.build_seconds + extra_init,
            table_entries=table_entries,
            budget=self.budget,
            checkpointer=self.checkpointer,
        )
        if self.restore_state is not None:
            engine.restore(self.restore_state)
        return engine.run()

    def solve(self) -> GSTResult:
        """Run the algorithm; always returns, never raises for timeouts."""
        context = self.build_context()
        return self.run_search(context, self.prepare(context))


class BasicSolver(_ProgressiveSolverBase):
    """Algorithm 1 — progressive best-first DP with best-solution pruning.

    The baseline of the paper's experiments: already progressive and
    faster than plain DPBF thanks to the ``cost >= best`` pruning, but
    without the decomposition/merging theorems or A* bounds.
    """

    algorithm_name = "Basic"


class PrunedDPSolver(_ProgressiveSolverBase):
    """Algorithm 2 — optimal-tree decomposition + conditional merging.

    Expands only states lighter than ``best/2`` (Theorem 1), merges two
    subtrees only when their total is at most ``2/3·best`` (Theorem 2,
    whose factor the paper proves optimal), and immediately forms the
    feasible state from complementary settled pairs.
    """

    algorithm_name = "PrunedDP"
    prune_half = True
    merge_factor = 2.0 / 3.0
    complement_shortcut = True
    requires_positive_weights = True


class PrunedDPPlusSolver(PrunedDPSolver):
    """PrunedDP + A*-search with the one-label lower bound ``π₁``."""

    algorithm_name = "PrunedDP+"
    use_one_label = True

    def _prepare(self, context: QueryContext):
        bounds = LowerBounds(
            context,
            routes=None,
            use_one_label=True,
            use_tour1=False,
            use_tour2=False,
        )
        return bounds, 0.0, 0


class PrunedDPPlusPlusSolver(PrunedDPSolver):
    """Algorithm 4 — A*-search with the combined tour-based bounds.

    Builds the AllPaths route tables (Algorithm 3) once per query and
    uses ``π = max(π₁, π_t1, π_t2)`` with the path-max consistency fix.
    Individual bounds can be disabled for the ablation experiments.
    """

    algorithm_name = "PrunedDP++"
    use_one_label = True
    use_tour1 = True
    use_tour2 = True

    def __init__(
        self,
        graph: Graph,
        query: QueryLike,
        *,
        use_one_label: bool = True,
        use_tour1: bool = True,
        use_tour2: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(graph, query, **kwargs)
        self.use_one_label = use_one_label
        self.use_tour1 = use_tour1
        self.use_tour2 = use_tour2

    def _prepare(self, context: QueryContext):
        needs_tables = self.use_tour1 or self.use_tour2
        routes = RouteTables.build(context) if needs_tables else None
        bounds = LowerBounds(
            context,
            routes=routes,
            use_one_label=self.use_one_label,
            use_tour1=self.use_tour1,
            use_tour2=self.use_tour2,
        )
        extra = routes.build_seconds if routes is not None else 0.0
        entries = routes.num_entries if routes is not None else 0
        return bounds, extra, entries
