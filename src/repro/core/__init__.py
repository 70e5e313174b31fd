"""Core GST algorithms: the paper's contribution.

Public surface:

* :class:`GSTQuery`, :class:`SteinerTree`, :class:`GSTResult` — the
  value types;
* :class:`BasicSolver`, :class:`PrunedDPSolver`,
  :class:`PrunedDPPlusSolver`, :class:`PrunedDPPlusPlusSolver` — the
  paper's four progressive algorithms;
* :class:`DPBFSolver` — the prior state of the art (comparison point);
* :func:`solve_gst` — the one-call facade;
* :func:`top_r_trees` — approximate top-r per the paper's remark.
"""

from .budget import Budget
from .query import GSTQuery, MAX_QUERY_LABELS
from .tree import SteinerTree
from .result import GSTResult, ProgressPoint, SearchStats
from .context import QueryContext
from .allpaths import RouteTables, MAX_ALLPATHS_LABELS
from .bounds import LowerBounds
from .engine import SearchEngine
from .algorithms import (
    BasicSolver,
    PrunedDPSolver,
    PrunedDPPlusSolver,
    PrunedDPPlusPlusSolver,
)
from .dpbf import DPBFSolver, dpbf_optimal_weight
from .bruteforce import brute_force_gst, brute_force_route
from .topr import top_r_trees, exact_top_r_trees
from .solver import solve_gst, ALGORITHMS, default_algorithm
from .steiner import steiner_tree, steiner_tree_weight
from .cache import LabelDistanceCache
from .directed import (
    DirectedGSTSolver,
    DirectedSteinerTree,
    brute_force_directed_gst,
)

__all__ = [
    "Budget",
    "GSTQuery",
    "MAX_QUERY_LABELS",
    "SteinerTree",
    "GSTResult",
    "ProgressPoint",
    "SearchStats",
    "QueryContext",
    "RouteTables",
    "MAX_ALLPATHS_LABELS",
    "LowerBounds",
    "SearchEngine",
    "BasicSolver",
    "PrunedDPSolver",
    "PrunedDPPlusSolver",
    "PrunedDPPlusPlusSolver",
    "DPBFSolver",
    "dpbf_optimal_weight",
    "brute_force_gst",
    "brute_force_route",
    "top_r_trees",
    "exact_top_r_trees",
    "solve_gst",
    "ALGORITHMS",
    "default_algorithm",
    "steiner_tree",
    "steiner_tree_weight",
    "LabelDistanceCache",
    "DirectedGSTSolver",
    "DirectedSteinerTree",
    "brute_force_directed_gst",
]
