"""Progressive benchmark runner.

Reproduces how the paper *reads* its algorithms: every solve is run to
completion while recording the trace of ``(elapsed, UB, LB)`` events,
then each of Figures 4-9's curves is the **time until the proven
approximation ratio first reached each checkpoint** (their x-axes:
8, 5.66, 4, 2.83, 2, 1.41, 1), and the memory figures read the peak
live-state byte estimate at the same checkpoints.

``run_query`` executes one (algorithm, query) cell; ``run_suite``
aggregates a batch of queries into the per-checkpoint means a figure
plots; ``run_throughput`` measures serving throughput (queries/sec)
through the concurrent query service instead of the paper's
one-query-at-a-time protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..baselines.banks1 import Banks1Solver
from ..baselines.banks2 import Banks2Solver
from ..baselines.blinks import BlinksSolver
from ..baselines.distance_network import DistanceNetworkSolver
from ..core.algorithms import (
    BasicSolver,
    PrunedDPPlusPlusSolver,
    PrunedDPPlusSolver,
    PrunedDPSolver,
)
from ..core.budget import Budget
from ..core.dpbf import DPBFSolver
from ..core.result import GSTResult
from ..graph.graph import Graph
from ..service.executor import QueryExecutor
from ..service.index import GraphIndex, QueryOutcome
from ..service.telemetry import TraceSink
from .metrics import mean

__all__ = [
    "RATIO_CHECKPOINTS",
    "PROGRESSIVE_ALGORITHMS",
    "ALL_ALGORITHMS",
    "QueryRun",
    "SuiteResult",
    "ThroughputResult",
    "run_query",
    "run_suite",
    "run_throughput",
]

# The x-axis of the paper's Figures 4-9 (2^(3/2) spacing, 8 → 1).
RATIO_CHECKPOINTS: Tuple[float, ...] = (8.0, 5.66, 4.0, 2.83, 2.0, 1.41, 1.0)

PROGRESSIVE_ALGORITHMS: Tuple[str, ...] = (
    "Basic",
    "PrunedDP",
    "PrunedDP+",
    "PrunedDP++",
)
ALL_ALGORITHMS: Tuple[str, ...] = PROGRESSIVE_ALGORITHMS + (
    "DPBF",
    "BANKS-I",
    "BANKS-II",
    "BLINKS",
    "DistanceNetwork",
)

_SOLVERS = {
    "Basic": BasicSolver,
    "PrunedDP": PrunedDPSolver,
    "PrunedDP+": PrunedDPPlusSolver,
    "PrunedDP++": PrunedDPPlusPlusSolver,
    "DPBF": DPBFSolver,
    "BANKS-I": Banks1Solver,
    "BANKS-II": Banks2Solver,
    "BLINKS": BlinksSolver,
    "DistanceNetwork": DistanceNetworkSolver,
}


@dataclass
class QueryRun:
    """One (algorithm, query) execution with its progressive readings."""

    algorithm: str
    labels: Tuple[Hashable, ...]
    result: GSTResult
    wall_seconds: float

    @property
    def time_to_ratio(self) -> Dict[float, Optional[float]]:
        """Seconds to reach each checkpoint ratio (None = never)."""
        return {
            target: self.result.time_to_ratio(target)
            for target in RATIO_CHECKPOINTS
        }

    @property
    def states_popped(self) -> int:
        return self.result.stats.states_popped

    @property
    def peak_bytes(self) -> int:
        return self.result.stats.estimated_bytes


@dataclass
class SuiteResult:
    """Aggregated runs of several algorithms over a query batch."""

    runs: Dict[str, List[QueryRun]] = field(default_factory=dict)

    def algorithms(self) -> List[str]:
        return list(self.runs)

    def mean_time_to_ratio(self, algorithm: str, target: float) -> float:
        """Mean seconds to the checkpoint; unreached queries count as
        their full solve time (the curve's plateau in the paper)."""
        values = []
        for run in self.runs[algorithm]:
            t = run.result.time_to_ratio(target)
            values.append(t if t is not None else run.result.stats.total_seconds)
        return mean(values)

    def mean_total_seconds(self, algorithm: str) -> float:
        return mean([r.result.stats.total_seconds for r in self.runs[algorithm]])

    def mean_states(self, algorithm: str) -> float:
        return mean([float(r.states_popped) for r in self.runs[algorithm]])

    def mean_peak_bytes(self, algorithm: str) -> float:
        return mean([float(r.peak_bytes) for r in self.runs[algorithm]])

    def mean_weight(self, algorithm: str) -> float:
        return mean([r.result.weight for r in self.runs[algorithm]])

    def all_optimal(self, algorithm: str) -> bool:
        return all(r.result.optimal for r in self.runs[algorithm])


def run_query(
    algorithm: str,
    graph: Graph,
    labels: Sequence[Hashable],
    **solver_kwargs,
) -> QueryRun:
    """Run one algorithm on one query, capturing the progressive trace.

    ``solver_kwargs`` go to every class alike, and every class takes
    ``budget=``: the paper's solvers, DPBF, and the BANKS-I/II, BLINKS
    and ``DistanceNetwork`` baselines (the one-shot scan reads none of
    the budget's limits).
    """
    try:
        solver_cls = _SOLVERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(_SOLVERS)}"
        ) from None
    started = time.perf_counter()
    result = solver_cls(graph, labels, **solver_kwargs).solve()
    wall = time.perf_counter() - started
    return QueryRun(
        algorithm=algorithm,
        labels=tuple(labels),
        result=result,
        wall_seconds=wall,
    )


def run_suite(
    graph: Graph,
    queries: Sequence[Sequence[Hashable]],
    algorithms: Sequence[str] = PROGRESSIVE_ALGORITHMS,
    **solver_kwargs,
) -> SuiteResult:
    """Run every algorithm on every query of a batch."""
    suite = SuiteResult()
    for algorithm in algorithms:
        suite.runs[algorithm] = [
            run_query(algorithm, graph, labels, **solver_kwargs)
            for labels in queries
        ]
    return suite


# ----------------------------------------------------------------------
# Throughput mode (query service)
# ----------------------------------------------------------------------
@dataclass
class ThroughputResult:
    """A batch's serving-rate reading through the query executor."""

    outcomes: List[QueryOutcome]
    total_seconds: float
    max_workers: int
    algorithm: str

    @property
    def num_queries(self) -> int:
        return len(self.outcomes)

    @property
    def num_ok(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def num_failed(self) -> int:
        return self.num_queries - self.num_ok

    @property
    def queries_per_second(self) -> float:
        if self.total_seconds <= 0.0:
            return float("inf")
        return self.num_queries / self.total_seconds

    @property
    def mean_query_seconds(self) -> float:
        return mean([outcome.trace.wall_seconds for outcome in self.outcomes])

    def summary(self) -> str:
        return (
            f"{self.num_queries} queries ({self.num_ok} ok, "
            f"{self.num_failed} failed) in {self.total_seconds:.3f}s "
            f"= {self.queries_per_second:.1f} q/s "
            f"[{self.algorithm}, {self.max_workers} workers]"
        )


def run_throughput(
    graph: Union[Graph, GraphIndex],
    queries: Sequence[Sequence[Hashable]],
    *,
    algorithm: str = "pruneddp++",
    max_workers: Optional[int] = None,
    budget: Optional[Budget] = None,
    deadline: Optional[float] = None,
    trace_sink: Optional[TraceSink] = None,
) -> ThroughputResult:
    """Serve a query batch through the executor and read queries/sec.

    Accepts a raw graph (an index is built, cold) or a pre-built
    :class:`~repro.service.GraphIndex` (the amortized serving path).
    Failures stay isolated per query — the throughput reading includes
    them, mirroring what a real service's load numbers would show.
    """
    index = GraphIndex.ensure(graph)
    started = time.perf_counter()
    with QueryExecutor(
        index,
        max_workers=max_workers,
        algorithm=algorithm,
        budget=budget,
        trace_sink=trace_sink,
    ) as executor:
        outcomes = executor.run_batch(queries, deadline=deadline)
    total = time.perf_counter() - started
    return ThroughputResult(
        outcomes=outcomes,
        total_seconds=total,
        max_workers=executor.max_workers,
        algorithm=algorithm,
    )
