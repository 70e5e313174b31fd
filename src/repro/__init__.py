"""repro — Efficient and Progressive Group Steiner Tree Search.

A complete, pure-Python reproduction of Li, Qin, Yu & Mao,
*"Efficient and Progressive Group Steiner Tree Search"*, SIGMOD 2016:
the Basic / PrunedDP / PrunedDP+ / PrunedDP++ progressive algorithms,
the DPBF prior state of the art, the BANKS approximation baselines, and
the keyword-search and team-formation applications the paper motivates.

Quickstart::

    from repro import Graph, solve_gst

    g = Graph()
    a = g.add_node(labels=["database"])
    b = g.add_node(labels=["graphs"])
    c = g.add_node()
    g.add_edge(a, c, 1.0)
    g.add_edge(c, b, 2.0)

    result = solve_gst(g, ["database", "graphs"])
    print(result.weight, result.optimal)   # 3.0 True
"""

from .errors import (
    ReproError,
    GraphError,
    QueryError,
    InfeasibleQueryError,
    LimitExceededError,
    QueryRejectedError,
    QueryCancelledError,
    ProtocolError,
    RemoteQueryError,
    StoreError,
    StoreCorruptError,
    StoreVersionError,
    StoreFingerprintError,
    WorkerCrashedError,
)
from .graph import Graph
from .core import (
    Budget,
    GSTQuery,
    SteinerTree,
    GSTResult,
    ProgressPoint,
    BasicSolver,
    PrunedDPSolver,
    PrunedDPPlusSolver,
    PrunedDPPlusPlusSolver,
    DPBFSolver,
    solve_gst,
    top_r_trees,
    exact_top_r_trees,
)
from .service import (
    AdmissionController,
    AdmissionPolicy,
    CancellationToken,
    Checkpointer,
    FleetPool,
    GraphIndex,
    QueryExecutor,
    QueryOutcome,
    QueryTrace,
    RetryPolicy,
    TraceSink,
    WorkerPolicy,
    checkpointed_execute,
    resume_query,
)
from .store import (
    PrecomputeStore,
    ResultCache,
    build_store,
)
from .server import (
    AsyncGSTClient,
    GSTClient,
    GSTServer,
    StreamUpdate,
)
from .obs import (
    MetricsRegistry,
    get_registry,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "Budget",
    "GraphIndex",
    "QueryExecutor",
    "QueryOutcome",
    "QueryTrace",
    "TraceSink",
    "GSTQuery",
    "SteinerTree",
    "GSTResult",
    "ProgressPoint",
    "BasicSolver",
    "PrunedDPSolver",
    "PrunedDPPlusSolver",
    "PrunedDPPlusPlusSolver",
    "DPBFSolver",
    "solve_gst",
    "top_r_trees",
    "exact_top_r_trees",
    "ReproError",
    "GraphError",
    "QueryError",
    "InfeasibleQueryError",
    "LimitExceededError",
    "QueryRejectedError",
    "QueryCancelledError",
    "ProtocolError",
    "RemoteQueryError",
    "StoreError",
    "StoreCorruptError",
    "StoreVersionError",
    "StoreFingerprintError",
    "WorkerCrashedError",
    "PrecomputeStore",
    "ResultCache",
    "build_store",
    "CancellationToken",
    "AdmissionController",
    "AdmissionPolicy",
    "RetryPolicy",
    "Checkpointer",
    "FleetPool",
    "WorkerPolicy",
    "checkpointed_execute",
    "resume_query",
    "GSTServer",
    "GSTClient",
    "AsyncGSTClient",
    "StreamUpdate",
    "MetricsRegistry",
    "get_registry",
    "__version__",
]
