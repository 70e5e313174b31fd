"""Result and progress-reporting types shared by all solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Tuple

from .tree import SteinerTree

__all__ = ["ProgressPoint", "SearchStats", "GSTResult"]

INF = float("inf")

# Tolerance for lower-bound/incumbent comparisons.  Float rounding in
# the A* bound paths (halved tour bounds, path-max raising) can push a
# lower bound a few ulps past the incumbent; a crossing within this
# relative tolerance is rounding noise and is clamped to the incumbent.
# A crossing *beyond* it means the bound itself cannot be trusted, so it
# is discarded (reset to 0.0 — "nothing proven") rather than laundered
# into a false optimality certificate.
_BOUND_TOL = 1e-9

# The progress filter: a report is kept when it lowers the upper bound
# by more than _UB_STEP, or improves the ratio by more than 0.1%.
_UB_STEP = 1e-12
_RATIO_STEP = 0.999


def _clamped_lower_bound(lower_bound: float, weight: float) -> float:
    """``lower_bound`` made sound against ``weight`` (never crossing it)."""
    if lower_bound < 0.0:
        return 0.0
    if lower_bound <= weight:
        return lower_bound
    if weight < INF and lower_bound <= weight + _BOUND_TOL * max(1.0, abs(weight)):
        return weight
    return 0.0


# Rough per-state footprint used to translate peak live-state counts into
# the byte figures the paper plots (Figs 8/9).  A state costs a queue
# entry (priority tuple + key tuple + heap slot + position-map slot) or a
# store entry (cost + backpointer) — ~100 bytes in CPython either way.
BYTES_PER_STATE = 100


@dataclass(frozen=True)
class ProgressPoint:
    """One progressive-report event: the paper's (UB, LB) pair over time.

    ``ratio`` is the proven approximation guarantee ``UB / LB`` of the
    feasible solution held at ``elapsed`` seconds (``inf`` before the
    first lower bound, ``1.0`` at proven optimality).
    """

    elapsed: float
    best_weight: float
    lower_bound: float

    def __post_init__(self) -> None:
        # Report-time enforcement of the non-crossing invariant: no
        # progress event may ever claim LB > UB (the certifier asserts
        # this on every trace).
        clamped = _clamped_lower_bound(self.lower_bound, self.best_weight)
        if clamped != self.lower_bound:
            object.__setattr__(self, "lower_bound", clamped)

    @property
    def ratio(self) -> float:
        if self.best_weight == INF:
            return INF
        if self.lower_bound <= 0.0:
            return INF if self.best_weight > 0.0 else 1.0
        return max(1.0, self.best_weight / self.lower_bound)

    def improves_on(self, last: "ProgressPoint") -> bool:
        """Whether this point is worth reporting after ``last``.

        Every progress stream applies this filter: each report lowers
        the upper bound or tightens the ratio by more than 0.1%.
        """
        return (
            self.best_weight < last.best_weight - _UB_STEP
            or self.ratio < last.ratio * _RATIO_STEP
        )


@dataclass
class SearchStats:
    """Counters a solve accumulates; the basis of the memory experiments."""

    states_popped: int = 0
    states_pushed: int = 0
    states_expanded: int = 0
    # States rejected by the bound test (f >= incumbent) or the
    # PrunedDP half-weight rule before doing any work.
    states_pruned: int = 0
    # Times the incumbent (best feasible tree) strictly improved.
    incumbent_improvements: int = 0
    merges_performed: int = 0
    edges_grown: int = 0
    # Feasible unions evaluated (Algorithm 1 lines 10-15): refined into
    # a tree, or rejected because their kept core already weighs at
    # least the incumbent.  A union seen before is not counted again,
    # except under a top-r collector, which refines every one.
    feasible_built: int = 0
    reopened: int = 0
    peak_queue_size: int = 0
    peak_store_size: int = 0
    peak_live_states: int = 0
    table_entries: int = 0
    init_seconds: float = 0.0
    total_seconds: float = 0.0
    feasible_seconds: float = 0.0
    # True when a cooperative cancellation token stopped the search
    # before it could finish (the result is then the best-so-far answer).
    cancelled: bool = False

    @property
    def estimated_bytes(self) -> int:
        """Approximate peak working-set size in bytes.

        Live DP states dominate (the paper's own argument for why its
        memory and time curves look alike); PrunedDP++ adds the
        ``O(2^k k^2)`` route tables.
        """
        return self.peak_live_states * BYTES_PER_STATE + self.table_entries * 8

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every counter (telemetry)."""
        return {
            "states_popped": self.states_popped,
            "states_pushed": self.states_pushed,
            "states_expanded": self.states_expanded,
            "states_pruned": self.states_pruned,
            "incumbent_improvements": self.incumbent_improvements,
            "merges_performed": self.merges_performed,
            "edges_grown": self.edges_grown,
            "feasible_built": self.feasible_built,
            "reopened": self.reopened,
            "peak_queue_size": self.peak_queue_size,
            "peak_store_size": self.peak_store_size,
            "peak_live_states": self.peak_live_states,
            "table_entries": self.table_entries,
            "estimated_bytes": self.estimated_bytes,
            "init_seconds": self.init_seconds,
            "total_seconds": self.total_seconds,
            "feasible_seconds": self.feasible_seconds,
            "cancelled": self.cancelled,
        }


@dataclass
class GSTResult:
    """Outcome of a (possibly interrupted) GST solve.

    ``optimal`` is True only when optimality was *proven* (a goal state
    was popped, the queue drained, or the lower bound met the upper
    bound).  ``ratio`` is always a sound guarantee: ``weight`` is within
    that factor of the true optimum.
    """

    algorithm: str
    labels: Tuple[Hashable, ...]
    tree: Optional[SteinerTree]
    weight: float
    lower_bound: float
    optimal: bool
    stats: SearchStats
    trace: List[ProgressPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Edge weights are validated non-negative, so a weight-0.0
        # feasible tree (a single node carrying every query label, or a
        # zero-weight component) is trivially optimal: nothing can cost
        # less.  Normalizing here fixes every producer at once — the
        # engine, the baselines, and cache rehydration.
        if self.tree is not None and self.weight == 0.0:
            self.optimal = True
        if self.optimal and self.weight < INF:
            self.lower_bound = self.weight
        else:
            self.lower_bound = _clamped_lower_bound(self.lower_bound, self.weight)

    @property
    def ratio(self) -> float:
        """Proven approximation ratio of ``weight`` (1.0 when optimal)."""
        if self.optimal:
            return 1.0
        if self.weight == INF:
            return INF
        if self.lower_bound <= 0.0:
            return INF if self.weight > 0.0 else 1.0
        return max(1.0, self.weight / self.lower_bound)

    def time_to_ratio(self, target: float) -> Optional[float]:
        """Seconds until the proven ratio first dropped to ``target``.

        This is how the paper's Figures 4-9 are read: one curve point
        per (algorithm, target-ratio).  Returns ``None`` if the solve
        never achieved the target.
        """
        for point in self.trace:
            if point.ratio <= target + 1e-12:
                return point.elapsed
        return None

    def to_dict(self) -> dict:
        """JSON-serializable record of the solve (experiment logging).

        Tree edges are included verbatim; ``inf`` weights become the
        string ``"inf"`` so the dict survives ``json.dumps`` round
        trips losslessly.
        """
        def _num(value: float):
            return "inf" if value == INF else value

        return {
            "algorithm": self.algorithm,
            "labels": [str(label) for label in self.labels],
            "weight": _num(self.weight),
            "lower_bound": _num(self.lower_bound),
            "optimal": self.optimal,
            "ratio": _num(self.ratio),
            "tree": {
                "nodes": sorted(self.tree.nodes),
                "edges": [[u, v, w] for u, v, w in self.tree.edges],
            }
            if self.tree is not None
            else None,
            "stats": self.stats.to_dict(),
            "trace": [
                [p.elapsed, _num(p.best_weight), p.lower_bound]
                for p in self.trace
            ],
        }

    def __repr__(self) -> str:
        status = "optimal" if self.optimal else f"ratio<={self.ratio:.3f}"
        return (
            f"GSTResult({self.algorithm}, weight={self.weight:g}, {status}, "
            f"popped={self.stats.states_popped})"
        )
