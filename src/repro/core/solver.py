"""One-call facade: :func:`solve_gst`.

Downstream users (and the applications in :mod:`repro.apps`) usually
just want "the best tree covering these labels, within this budget" —
the budget being one :class:`~repro.core.budget.Budget`, which every
solver class takes the same way.  This module maps algorithm names to solver classes and delegates the
actual execution to the query service
(:class:`repro.service.GraphIndex`): each call builds a transient index
over the graph — or adopts the caller's ``distance_cache`` — and runs
the query through the same staged path batch serving uses.  Multi-query
workloads should build one :class:`~repro.service.GraphIndex` (or
:class:`~repro.service.QueryExecutor`) and reuse it; this facade is the
one-shot convenience wrapper.

The disconnected-graph case of the paper's preliminaries is handled by
the full-graph search itself: per-label virtual-node Dijkstras confine
feasible roots to covering components, and the engine's pruning keeps
dead components' seed states from mattering — the best answer over all
covering components comes back with original node ids.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, Optional

from ..graph.graph import Graph
from .algorithms import (
    BasicSolver,
    PrunedDPPlusPlusSolver,
    PrunedDPPlusSolver,
    PrunedDPSolver,
)
from .budget import Budget
from .dpbf import DPBFSolver
from .result import GSTResult

__all__ = ["solve_gst", "ALGORITHMS", "default_algorithm"]

ALGORITHMS: Dict[str, type] = {
    "basic": BasicSolver,
    "pruneddp": PrunedDPSolver,
    "pruneddp+": PrunedDPPlusSolver,
    "pruneddp++": PrunedDPPlusPlusSolver,
    "dpbf": DPBFSolver,
}


def default_algorithm() -> str:
    """The paper's best algorithm — what you get when you don't choose."""
    return "pruneddp++"


def solve_gst(
    graph: Graph,
    labels: Iterable[Hashable],
    *,
    algorithm: str = "pruneddp++",
    budget: Optional[Budget] = None,
    on_progress: Optional[Callable] = None,
    **solver_kwargs,
) -> GSTResult:
    """Find the minimum-weight connected tree covering ``labels``.

    Parameters
    ----------
    graph:
        The labelled graph to search.
    labels:
        The query label set ``P``.
    algorithm:
        One of ``basic``, ``pruneddp``, ``pruneddp+``, ``pruneddp++``
        (default, the paper's fastest), ``dpbf`` (the prior state of
        the art, non-progressive), or ``auto`` to let the planner pick
        (see :mod:`repro.core.planner`).
    budget:
        A :class:`~repro.core.budget.Budget` bundling ``time_limit`` /
        ``epsilon`` / ``max_states`` — the only way a limit reaches the
        solve.  None means no limit.
    on_progress:
        Called with a :class:`~repro.core.result.ProgressPoint` each
        time the incumbent improves — the paper's anytime UB/LB stream.
        Successive points are monotone: ``best_weight`` never
        increases, ``lower_bound`` never decreases.  The
        non-progressive ``dpbf`` emits a single terminal point.
    solver_kwargs:
        Forwarded to the solver: ``on_event``, ``distance_cache``,
        ``debug_certify``, ...

    Raises
    ------
    InfeasibleQueryError
        When no connected component covers every label.
    """
    from ..service.index import GraphIndex

    labels = tuple(labels)
    cache = solver_kwargs.pop("distance_cache", None)
    if on_progress is not None:
        solver_kwargs["on_progress"] = on_progress
    index = GraphIndex(graph, cache=cache, max_cached_labels=None)
    return index.solve(
        labels, algorithm=algorithm, budget=budget, **solver_kwargs
    )
