"""Graph substrate: storage, shortest paths, MST, generators, I/O."""

from .graph import Graph
from .csr import CSRGraph
from .shm import SharedCSR
from .digraph import DiGraph
from .heap import IndexedHeap
from .union_find import UnionFind
from .shortest_paths import (
    dijkstra,
    multi_source_dijkstra,
    reconstruct_path,
    path_edges_to_source,
)
from .mst import kruskal_mst, minimum_spanning_forest, is_tree
from .components import (
    connected_components,
    component_ids,
    is_connected,
    component_covering_labels,
    components_covering_labels,
)
from .partition import Partition, bfs_partition
from . import generators
from .io import save_graph, load_graph

__all__ = [
    "Graph",
    "CSRGraph",
    "SharedCSR",
    "DiGraph",
    "IndexedHeap",
    "UnionFind",
    "dijkstra",
    "multi_source_dijkstra",
    "reconstruct_path",
    "path_edges_to_source",
    "kruskal_mst",
    "minimum_spanning_forest",
    "is_tree",
    "connected_components",
    "component_ids",
    "is_connected",
    "component_covering_labels",
    "components_covering_labels",
    "Partition",
    "bfs_partition",
    "generators",
    "save_graph",
    "load_graph",
]
