"""The four benchmark workloads: seeded inputs and the server they run on.

A workload is a graph, a fixed list of requests, the ``repro serve``
flags it is served with, and how many client connections drive it.
Every random choice comes from :func:`derive_seed`, a sha256 of
``--seed`` and a purpose string, so the inputs are the same in every
process whatever its ``PYTHONHASHSEED``.  (``repro.bench.datasets``
seeds with ``hash((name, scale))`` and is never used here.)

Each graph's topology is fixed per workload, like the fixed datasets
of the paper; the seed places the query labels on it and draws the
requests.  Query cost varies widely with the label set, so a workload
draws its requests from a pool of a hundred labels or more in balanced
blocks (each block uses every pool label once): a run's medians then
average over many label placements instead of a few.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.graph import generators
from repro.graph.graph import Graph

__all__ = [
    "OK",
    "INFEASIBLE",
    "Request",
    "Inputs",
    "Workload",
    "WORKLOADS",
    "derive_seed",
    "distinct_label_sets",
    "queries_digest",
]

OK = "ok"
INFEASIBLE = "infeasible"

# Labels that no generator emits: a request carrying one must come back
# ``ERROR code=infeasible``.
ABSENT_PREFIX = "absent:"


def derive_seed(seed: int, *purpose: str) -> int:
    """A 64-bit integer seed for one purpose, stable across processes."""
    text = ":".join([str(seed), *purpose])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class Request:
    """One query as the client sends it, with the outcome it must get."""

    labels: Tuple[str, ...]
    expect: str = OK  # OK (an optimal tree, ratio 1) or INFEASIBLE


@dataclass
class Inputs:
    """A workload's generated inputs for one seed.

    ``order`` indexes ``table``: the client sends ``table[order[0]]``,
    then ``table[order[1]]``, ... until the run's time is up or the
    list ends.  Repeating workloads keep the table small and the order
    long.
    """

    graph: Graph
    table: List[Request]
    order: Sequence[int]

    def requests(self):
        return (self.table[i] for i in self.order)


def queries_digest(inputs: Inputs) -> str:
    """sha256 of the request list, in the order the client sends it."""
    digest = hashlib.sha256()
    digest.update(
        json.dumps(
            [[list(r.labels), r.expect] for r in inputs.table]
        ).encode("utf-8")
    )
    digest.update(json.dumps(list(inputs.order)).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    """How one workload is generated, served and driven."""

    name: str
    why: str
    connections: int
    serve_args: Tuple[str, ...]
    uses_store: bool
    make_inputs: Callable[[int], Inputs]
    # Untimed warm-up: rounds of label tuples, one per connection, sent
    # together; a round ends when every connection has its answer.
    warmup: Callable[[Inputs], List[Tuple[Tuple[str, ...], ...]]]


# ----------------------------------------------------------------------
# Graphs
# ----------------------------------------------------------------------
def _labelled(topology: Graph, seed: int, name: str, pool: int, frequency: int) -> Graph:
    generators.attach_query_labels(
        topology, pool, frequency, random.Random(derive_seed(seed, name, "labels"))
    )
    return topology


def _dblp_graph(seed: int, name: str) -> Graph:
    topology = generators.dblp_like(
        DBLP_PAPERS, DBLP_AUTHORS, num_query_labels=0,
        seed=derive_seed(0, "dblp-topology"),
    )
    return _labelled(topology, seed, name, DBLP_POOL, LABEL_FREQUENCY)


def _powerlaw_graph(seed: int, name: str, nodes: int, pool: int) -> Graph:
    topology = generators.powerlaw(
        nodes, num_query_labels=0, seed=derive_seed(0, f"powerlaw-{nodes}")
    )
    return _labelled(topology, seed, name, pool, LABEL_FREQUENCY)


def _balanced_queries(pool: Sequence[str], k: int, count: int, rng: random.Random) -> List[Request]:
    """``count`` k-label queries in blocks that each use every label once."""
    queries: List[Request] = []
    while len(queries) < count:
        block = list(pool)
        rng.shuffle(block)
        for start in range(0, len(block) - k + 1, k):
            queries.append(Request(tuple(block[start:start + k])))
    return queries[:count]


def _pool(size: int) -> List[str]:
    return [f"{generators.QUERY_LABEL_PREFIX}{i}" for i in range(size)]


def _pairs(labels: Sequence[str]) -> List[Tuple[str, ...]]:
    """Two-label queries that together touch every label."""
    pairs = [tuple(labels[i:i + 2]) for i in range(0, len(labels), 2)]
    if len(pairs[-1]) == 1:
        pairs[-1] = (pairs[-1][0], labels[0])
    return pairs


# ----------------------------------------------------------------------
# dblp-progressive
# ----------------------------------------------------------------------
DBLP_PAPERS = 800
DBLP_AUTHORS = 500
DBLP_POOL = 400
LABEL_FREQUENCY = 16
PROGRESSIVE_K = 4
PROGRESSIVE_QUERIES = 6000


def _progressive_inputs(seed: int) -> Inputs:
    name = "dblp-progressive"
    graph = _dblp_graph(seed, name)
    rng = random.Random(derive_seed(seed, name, "queries"))
    table = _balanced_queries(_pool(DBLP_POOL), PROGRESSIVE_K, PROGRESSIVE_QUERIES, rng)
    return Inputs(graph, table, range(len(table)))


def _progressive_warmup(inputs: Inputs):
    return [(pair,) for pair in _pairs(_pool(DBLP_POOL))]


# ----------------------------------------------------------------------
# powerlaw-cold
# ----------------------------------------------------------------------
COLD_NODES = 3000
COLD_POOL = 2400
COLD_K = 3


def _cold_inputs(seed: int) -> Inputs:
    name = "powerlaw-cold"
    graph = _powerlaw_graph(seed, name, COLD_NODES, COLD_POOL)
    labels = _pool(COLD_POOL)
    random.Random(derive_seed(seed, name, "queries")).shuffle(labels)
    # Disjoint label sets: within one server every query misses the
    # label cache.
    table = [
        Request(tuple(labels[i:i + COLD_K]))
        for i in range(0, len(labels) - COLD_K + 1, COLD_K)
    ]
    return Inputs(graph, table, range(len(table)))


# ----------------------------------------------------------------------
# hot-repeat
# ----------------------------------------------------------------------
HOT_K = 4
HOT_DISTINCT = 200
HOT_ZIPF = 1.2
HOT_INFEASIBLE_SHARE = 0.02
HOT_REQUESTS = 120000


def _hot_inputs(seed: int) -> Inputs:
    name = "hot-repeat"
    graph = _dblp_graph(seed, name)
    rng = random.Random(derive_seed(seed, name, "queries"))
    table = _balanced_queries(_pool(DBLP_POOL), HOT_K, HOT_DISTINCT, rng)
    # One infeasible twin per label set: three real labels and one that
    # no node carries.
    table += [
        Request(r.labels[:-1] + (f"{ABSENT_PREFIX}{i}",), INFEASIBLE)
        for i, r in enumerate(table)
    ]
    weights = [rank ** -HOT_ZIPF for rank in range(1, HOT_DISTINCT + 1)]
    picks = rng.choices(range(HOT_DISTINCT), weights=weights, k=HOT_REQUESTS)
    order = [
        pick + HOT_DISTINCT if rng.random() < HOT_INFEASIBLE_SHARE else pick
        for pick in picks
    ]
    return Inputs(graph, table, order)


def _hot_warmup(inputs: Inputs):
    # Every feasible label set once, two at a time: the timed phase then
    # reads a warm result cache, and its cost does not hang on how hard
    # the sets the seed drew are to solve.
    sets = [r.labels for r in inputs.table if r.expect == OK]
    return [tuple(sets[i:i + 2]) for i in range(0, len(sets), 2)]


# ----------------------------------------------------------------------
# fleet-powerlaw
# ----------------------------------------------------------------------
FLEET_NODES = 5000
FLEET_POOL = 100
FLEET_K = 3
FLEET_QUERIES = 6000
FLEET_WORKERS = 2


def _fleet_inputs(seed: int) -> Inputs:
    name = "fleet-powerlaw"
    graph = _powerlaw_graph(seed, name, FLEET_NODES, FLEET_POOL)
    rng = random.Random(derive_seed(seed, name, "queries"))
    table = _balanced_queries(_pool(FLEET_POOL), FLEET_K, FLEET_QUERIES, rng)
    return Inputs(graph, table, range(len(table)))


def _fleet_warmup(inputs: Inputs):
    # Both connections send the same pair at once, so each of the two
    # workers computes (and caches) every pool label.
    return [(pair, pair) for pair in _pairs(_pool(FLEET_POOL))]


def _no_warmup(inputs: Inputs):
    return []


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="dblp-progressive",
            why="the paper's workload: exact k=4 keyword queries on a warm "
            "label cache, so search and feasible-tree builds dominate",
            connections=1,
            serve_args=(),
            uses_store=False,
            make_inputs=_progressive_inputs,
            warmup=_progressive_warmup,
        ),
        Workload(
            name="powerlaw-cold",
            why="every query's labels are new to the server, so per-label "
            "Dijkstra and AllPaths bounds dominate and search does not",
            connections=1,
            serve_args=(),
            uses_store=False,
            make_inputs=_cold_inputs,
            warmup=_no_warmup,
        ),
        Workload(
            name="hot-repeat",
            why="Zipf-repeated queries on a store-backed server with a warm "
            "result cache: ~98% hits, so wire, dispatch and cache set latency",
            connections=2,
            serve_args=(),
            uses_store=True,
            make_inputs=_hot_inputs,
            warmup=_hot_warmup,
        ),
        Workload(
            name="fleet-powerlaw",
            why="serve --workers 2: shared-memory fleet IPC is on every "
            "query's path and answers come without PROGRESS frames",
            connections=2,
            serve_args=("--workers", str(FLEET_WORKERS)),
            uses_store=False,
            make_inputs=_fleet_inputs,
            warmup=_fleet_warmup,
        ),
    )
}


def distinct_label_sets(inputs: Inputs, limit: Optional[int] = None) -> List[Tuple[str, ...]]:
    """Feasible label sets in first-request order (at most ``limit``)."""
    seen = {}
    for request in inputs.requests():
        if request.expect == OK and request.labels not in seen:
            seen[request.labels] = None
            if limit is not None and len(seen) >= limit:
                break
    return list(seen)
