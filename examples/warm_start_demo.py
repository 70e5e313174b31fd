#!/usr/bin/env python
"""Cold vs. warm start: the persistent precompute store end to end.

Walks the full ``repro.store`` lifecycle on a synthetic keyword graph:

1. **Offline build** — ``build_store`` runs the Section-3.1 per-label
   Dijkstras once and materializes them (plus a graph fingerprint) in
   a store directory.
2. **Cold vs. warm serving** — the same workload through a cold
   :class:`repro.GraphIndex` and through one warm-started with
   ``attach_store``; the warm index skips every stored Dijkstra.
3. **Epsilon-aware result cache** — repeated queries are answered
   straight from the cache, including an exact answer serving a looser
   ``epsilon=0.25`` request; then the answers are persisted and served
   again by a *fresh* index (a simulated second process).
4. **Fail-closed trust** — the store refuses a graph it was not built
   for (fingerprint mismatch) instead of silently mis-indexing.

Run:  python examples/warm_start_demo.py
"""

import random
import shutil
import tempfile
import time

from repro import Budget, GraphIndex, StoreError, build_store
from repro.graph import generators


def run_workload(index: GraphIndex, queries) -> float:
    started = time.perf_counter()
    for labels in queries:
        outcome = index.execute(labels)
        assert outcome.ok, outcome.trace.error
    return time.perf_counter() - started


def main() -> None:
    graph = generators.random_graph(
        3000, 7500, num_query_labels=8, label_frequency=50, seed=7
    )
    rng = random.Random(13)
    pool = [f"q{i}" for i in range(8)]
    queries = [rng.sample(pool, rng.choice((2, 3))) for _ in range(12)]

    store_path = tempfile.mkdtemp(prefix="gst-store-")
    try:
        # ------------------------------------------------------- build
        report = build_store(
            graph, store_path, top_k=8, workload=queries
        )
        print(f"offline build        : {report.summary()}")

        # ----------------------------------------------- cold vs. warm
        cold_seconds = run_workload(GraphIndex(graph), queries)
        print(f"cold serving         : {cold_seconds:.3f}s "
              "(every query pays its own Dijkstras)")

        warm_index = GraphIndex(graph)
        warmed = warm_index.attach_store(store_path)
        warm_seconds = run_workload(warm_index, queries)
        info = warm_index.cache_info()
        print(f"warm serving         : {warm_seconds:.3f}s after "
              f"preloading {warmed} label tables "
              f"({cold_seconds / warm_seconds:.1f}x)")
        print(f"label cache          : {info['hits']} hits, "
              f"{info['misses']} misses, {info['warm_loads']} warm loads")

        # -------------------------------------- epsilon-aware reuse
        repeat = warm_index.execute(queries[0])
        print(f"repeat query         : result_cache={repeat.trace.result_cache} "
              f"in {repeat.trace.wall_seconds * 1e3:.2f} ms")
        loose = warm_index.execute(queries[0], budget=Budget(epsilon=0.25))
        print(f"loose (eps=0.25) ask : result_cache={loose.trace.result_cache} "
              "(an exact answer serves any epsilon)")

        persisted = warm_index.save_results()
        print(f"persisted            : {persisted} proven answers")

        second_process = GraphIndex.open(store_path, graph)
        served = second_process.execute(queries[0])
        print(f"fresh index          : result_cache={served.trace.result_cache} "
              "(answer survived the restart)")

        # ------------------------------------------------ fail closed
        drifted = generators.random_graph(
            3000, 7500, num_query_labels=8, label_frequency=50, seed=8
        )
        try:
            GraphIndex(drifted).attach_store(store_path)
        except StoreError as exc:
            print(f"drifted graph        : rejected ({type(exc).__name__})")
    finally:
        shutil.rmtree(store_path, ignore_errors=True)


if __name__ == "__main__":
    main()
