#!/usr/bin/env python
"""Profile the PrunedDP++ hot path.

Runs cProfile over a batch of solves on the DBLP-like generator and
prints the top functions by cumulative time.  Every solve runs on the
graph's frozen CSR snapshot (packed state keys, flat adjacency,
bucket-queue Dijkstra preprocessing, memoized feasible construction);
the snapshot is built once up front, and its build time, bucket
width and the bytes one cached label's distance table takes are
printed separately.

After the profile it prints, with profiling off, each cold solve's
first progress point next to its context build time: the label
Dijkstras run round-robin and report a bounded answer before they end.
Then the in-process CPU of one result-cache hit, split the way the
server spends it: decoding the QUERY frame, ``QueryExecutor.cached``
(the lookup plus the trace's metrics), and building plus encoding the
RESULT frame.  Each part is the median over rounds of its per-hit CPU
time.

    PYTHONPATH=src python scripts/profile_hotpath.py
    PYTHONPATH=src python scripts/profile_hotpath.py --solves 5 --top 40
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time

from repro.core.algorithms import PrunedDPPlusPlusSolver
from repro.core.cache import LabelDistanceCache
from repro.graph import generators
from repro.server.protocol import (
    FrameDecoder,
    encode_frame,
    query_frame,
    result_frame,
)
from repro.service import GraphIndex, QueryExecutor
from repro.store.result_cache import ResultCache

GRAPH_KW = dict(
    num_papers=900,
    num_authors=600,
    num_query_labels=8,
    label_frequency=16,
    seed=7,
)
QUERY = [f"q{i}" for i in range(6)]
HIT_REPEATS = 2000
HIT_ROUNDS = 5


def cpu_us_per_call(call, repeats: int = HIT_REPEATS, rounds: int = HIT_ROUNDS) -> float:
    """Median over ``rounds`` of the process CPU microseconds per call."""
    samples = []
    for _ in range(rounds):
        started = time.process_time()
        for _ in range(repeats):
            call()
        samples.append((time.process_time() - started) / repeats * 1e6)
    return statistics.median(samples)


def print_cold_first_point(graph, solves: int) -> None:
    """Each cold solve's first point against its context build time."""
    print("\n=== cold solves: first progress point vs context build ===")
    for _ in range(solves):
        points = []
        solver = PrunedDPPlusPlusSolver(graph, QUERY, on_progress=points.append)
        context = solver.build_context()
        result = solver.run_search(context, solver.prepare(context))
        first = points[0]
        print(
            f"  first point {first.elapsed * 1e3:7.2f} ms (ratio "
            f"{first.ratio:.3f})  context build "
            f"{context.build_seconds * 1e3:7.2f} ms  solve "
            f"{result.stats.total_seconds * 1e3:7.2f} ms"
        )


def print_cache_hit_split(graph, result) -> None:
    """One result-cache hit's CPU: decode, ``cached()``, RESULT encode."""
    index = GraphIndex(graph)
    index.result_cache = ResultCache()
    index.result_cache.put(
        QUERY, index.resolve_algorithm("pruneddp++", QUERY), result
    )
    wire = encode_frame(query_frame("hit", QUERY))
    decoder = FrameDecoder()
    with QueryExecutor(index, max_workers=1) as executor:
        outcome = executor.cached(QUERY, query_id="hit")
        assert outcome is not None, "the answer must be a cache hit"
        parts = {
            "frame decode": cpu_us_per_call(lambda: decoder.feed(wire)),
            "QueryExecutor.cached": cpu_us_per_call(
                lambda: executor.cached(QUERY, query_id="hit")
            ),
            "RESULT build + encode": cpu_us_per_call(
                lambda: encode_frame(result_frame("hit", outcome.result))
            ),
        }
    total = sum(parts.values())
    print(f"\n=== one result-cache hit: {total:.1f} us of CPU in process ===")
    for name, micros in parts.items():
        print(f"  {name:<24}{micros:8.1f} us  ({micros / total:5.1%})")


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
    print_cold_first_point(graph, args.solves)
    print_cache_hit_split(graph, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
