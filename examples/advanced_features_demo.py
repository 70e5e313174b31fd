#!/usr/bin/env python
"""Beyond the paper: library features a production deployment would use.

* GraphIndex — amortize per-label Dijkstras across queries;
* algorithm="auto" — the planner picks the right solver;
* exact_top_r_trees — true top-r reduced answers;
* classic Steiner trees via the GST reduction;
* BLINKS with the bi-level block index.

Run:  python examples/advanced_features_demo.py
"""

import time

from repro import GraphIndex, exact_top_r_trees, solve_gst, top_r_trees
from repro.baselines.blinks import BlinksIndex, BlinksSolver
from repro.bench import make_workload
from repro.core import steiner_tree
from repro.core.planner import plan_algorithm


def main() -> None:
    graph, queries = make_workload(
        "dblp", scale="small", knum=4, kwf=8, num_queries=4, seed=9
    )
    print(f"graph: {graph}\n")

    # --- GraphIndex: warm per-label distance cache ---------------------
    graph_index = GraphIndex(graph)
    batch = list(queries)
    started = time.perf_counter()
    for labels in batch:
        graph_index.solve(labels)
    warm = time.perf_counter() - started
    cache = graph_index.cache
    print(f"4-query batch via GraphIndex    : {warm * 1e3:7.1f} ms "
          f"(cache: {cache.hits} hits / {cache.misses} misses)")

    started = time.perf_counter()
    for labels in batch:
        solve_gst(graph, labels)
    cold = time.perf_counter() - started
    print(f"same batch, cold solver         : {cold * 1e3:7.1f} ms\n")

    # --- the planner ----------------------------------------------------
    labels = batch[0]
    name, reason = plan_algorithm(graph, labels)
    print(f"planner picks {name!r}: {reason}")
    result = solve_gst(graph, labels, algorithm="auto")
    print(f"auto solve: weight={result.weight:g} via {result.algorithm}\n")

    # --- top-r: approximate vs exact ------------------------------------
    approx = top_r_trees(graph, labels, 3)
    exact = exact_top_r_trees(graph, labels, 3)
    print("top-3 answers (approximate harvest vs exact enumeration):")
    for i in range(max(len(approx), len(exact))):
        a = f"{approx[i].weight:g}" if i < len(approx) else "-"
        e = f"{exact[i].weight:g}" if i < len(exact) else "-"
        print(f"  #{i + 1}: approx={a:>8}  exact={e:>8}")
    print()

    # --- classic Steiner tree -------------------------------------------
    terminals = sorted(exact[0].nodes)[:3]
    st = steiner_tree(graph, terminals)
    print(f"classic Steiner tree over terminals {terminals}: "
          f"weight={st.weight:g} (optimal={st.optimal})\n")

    # --- BLINKS with the bi-level index ----------------------------------
    index = BlinksIndex(graph, block_size=32)
    plain_result = BlinksSolver(graph, labels, k_answers=3).solve()
    indexed = BlinksSolver(graph, labels, k_answers=3, index=index)
    indexed_result = indexed.solve()
    print("BLINKS top-3 roots (bi-level index on):")
    for answer in indexed.top_roots():
        print(f"  root={answer.root} score={answer.score:g} "
              f"tree-weight={answer.tree.weight:g}")
    print(f"settled pairs: plain={plain_result.stats.states_popped} "
          f"indexed={indexed_result.stats.states_popped}")


if __name__ == "__main__":
    main()
