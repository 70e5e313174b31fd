"""Named benchmark datasets: scaled stand-ins for the paper's graphs.

The paper evaluates on DBLP (15.8M nodes), IMDB (30.4M), LiveJournal
(4.8M, power-law) and RoadUSA (23.9M, near-planar).  Pure Python cannot
sweep graphs of that size, so each dataset here is a structurally
faithful scaled synthetic (see ``DESIGN.md`` §3 for the substitution
argument), with **query-label pools at several frequencies** attached so
the ``kwf`` sweep of Exp-2 can run on a single graph.

``kwf`` scaling: the paper's 200/400/800/1600 on ~15M nodes corresponds
to group densities of 1.3e-5 .. 1e-4; on our ~1-2k-node graphs the pools
``4, 8, 16, 32`` nodes per label span the same relative range.

Datasets are built lazily and memoized per ``(name, scale)``.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Tuple

from ..graph.graph import Graph
from ..graph import generators

__all__ = [
    "KWF_VALUES",
    "DEFAULT_KWF",
    "DATASET_NAMES",
    "get_dataset",
    "kwf_pool",
    "clear_cache",
]

# Scaled analogues of the paper's kwf ∈ {200, 400, 800, 1600}.
KWF_VALUES: Tuple[int, ...] = (4, 8, 16, 32)
DEFAULT_KWF = 8
POOL_SIZE = 24  # labels per frequency pool

DATASET_NAMES = ("dblp", "imdb", "livejournal", "roadusa")

_SCALES: Dict[str, Dict[str, dict]] = {
    "tiny": {
        "dblp": dict(num_papers=120, num_authors=80),
        "imdb": dict(num_movies=140, num_people=100),
        "livejournal": dict(num_nodes=250),
        "roadusa": dict(rows=16, cols=16),
    },
    "small": {
        "dblp": dict(num_papers=500, num_authors=300),
        "imdb": dict(num_movies=550, num_people=400),
        "livejournal": dict(num_nodes=900),
        "roadusa": dict(rows=30, cols=30),
    },
    "medium": {
        "dblp": dict(num_papers=1500, num_authors=900),
        "imdb": dict(num_movies=1700, num_people=1200),
        "livejournal": dict(num_nodes=2500),
        "roadusa": dict(rows=50, cols=50),
    },
}

_cache: Dict[Tuple[str, str], Graph] = {}


def kwf_pool(kwf: int) -> List[str]:
    """Label names of the frequency-``kwf`` query pool."""
    if kwf not in KWF_VALUES:
        raise ValueError(f"kwf must be one of {KWF_VALUES}, got {kwf}")
    return [f"kwf{kwf}:{i}" for i in range(POOL_SIZE)]


def get_dataset(name: str, scale: str = "small") -> Graph:
    """Build (or fetch the cached) named dataset at the given scale."""
    name = name.lower()
    if name not in DATASET_NAMES:
        raise ValueError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    if scale not in _SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(_SCALES)}")
    key = (name, scale)
    if key not in _cache:
        _cache[key] = _build(name, scale)
    return _cache[key]


def clear_cache() -> None:
    """Drop memoized datasets (tests use this to bound memory)."""
    _cache.clear()


def _build(name: str, scale: str) -> Graph:
    params = _SCALES[scale][name]
    seed = zlib.crc32(repr((name, scale)).encode()) & 0xFFFF
    if name == "dblp":
        graph = generators.dblp_like(seed=seed, num_query_labels=0, **params)
    elif name == "imdb":
        graph = generators.imdb_like(seed=seed, num_query_labels=0, **params)
    elif name == "livejournal":
        graph = generators.powerlaw(seed=seed, num_query_labels=0, **params)
    else:  # roadusa
        graph = generators.road_grid(seed=seed, num_query_labels=0, **params)
    _attach_kwf_pools(graph, seed)
    return graph


def _attach_kwf_pools(graph: Graph, seed: int) -> None:
    rng = random.Random(seed ^ 0x5EED)
    nodes = list(graph.nodes())
    for kwf in KWF_VALUES:
        freq = min(kwf, len(nodes))
        for label in kwf_pool(kwf):
            for node in rng.sample(nodes, freq):
                graph.add_labels(node, [label])
