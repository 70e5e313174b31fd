#!/usr/bin/env python
"""Profile the PrunedDP++ hot path.

Runs cProfile over a batch of solves on the DBLP-like generator and
prints the top functions by cumulative time.  Every solve runs on the
graph's frozen CSR snapshot (packed state keys, flat adjacency,
bucket-queue Dijkstra preprocessing, memoized feasible construction);
the snapshot is built once up front, and its build time, bucket
width and the bytes one cached label's distance table takes are
printed separately.

    PYTHONPATH=src python scripts/profile_hotpath.py
    PYTHONPATH=src python scripts/profile_hotpath.py --solves 5 --top 40
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time

from repro.core.algorithms import PrunedDPPlusPlusSolver
from repro.core.cache import LabelDistanceCache
from repro.graph import generators

GRAPH_KW = dict(
    num_papers=900,
    num_authors=600,
    num_query_labels=8,
    label_frequency=16,
    seed=7,
)
QUERY = [f"q{i}" for i in range(6)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--solves", type=int, default=3,
                        help="solves per profiled batch (default 3)")
    parser.add_argument("--top", type=int, default=25,
                        help="stats rows to print (default 25)")
    parser.add_argument("--seed", type=int, default=GRAPH_KW["seed"],
                        help="generator seed")
    args = parser.parse_args(argv)

    graph = generators.dblp_like(**dict(GRAPH_KW, seed=args.seed))
    freeze_started = time.perf_counter()
    snapshot = graph.freeze()
    freeze_seconds = time.perf_counter() - freeze_started
    cache = LabelDistanceCache(graph)
    for label in QUERY:
        cache.distances(label)
    label_bytes = cache.counters()["table_bytes"] // len(QUERY)
    print(f"freeze(): {freeze_seconds * 1e3:.1f} ms "
          f"({snapshot.num_nodes} nodes, {snapshot.num_edges} edges, "
          f"bucket_width {snapshot.bucket_width:g}, "
          f"{label_bytes} bytes per cached label)")

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    for _ in range(args.solves):
        result = PrunedDPPlusPlusSolver(graph, QUERY).solve()
        assert result.optimal
    profiler.disable()
    elapsed = time.perf_counter() - started
    print(f"\n=== {args.solves} solves in {elapsed:.3f}s ===")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
