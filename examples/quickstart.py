#!/usr/bin/env python
"""Quickstart: build a labelled graph and find the optimal group Steiner tree.

Run:  python examples/quickstart.py
"""

from repro import Budget, Graph, solve_gst, top_r_trees


def main() -> None:
    # A small collaboration graph.  Labels mark topics a person works on;
    # edge weights measure how costly it is to connect two people.
    g = Graph()
    alice = g.add_node(labels=["databases"], name="alice")
    bob = g.add_node(labels=["ml"], name="bob")
    carol = g.add_node(labels=["systems"], name="carol")
    dave = g.add_node(labels=["databases", "systems"], name="dave")
    erin = g.add_node(name="erin")  # no topics: a pure connector

    g.add_edge(alice, erin, 1.0)
    g.add_edge(erin, bob, 1.0)
    g.add_edge(bob, carol, 5.0)
    g.add_edge(erin, dave, 2.0)
    g.add_edge(dave, carol, 1.0)

    # The minimum-weight connected tree touching all three topics.
    result = solve_gst(g, ["databases", "ml", "systems"])
    print(f"optimal weight : {result.weight:g}")
    print(f"proven optimal : {result.optimal}")
    print(f"members        : {sorted(g.name_of(v) for v in result.tree.nodes)}")
    print(result.tree.render(g))
    print()

    # Every solver is progressive: ask for an anytime answer instead.
    anytime = solve_gst(
        g, ["databases", "ml", "systems"], budget=Budget(epsilon=0.5)
    )
    print(f"anytime weight {anytime.weight:g} with proven ratio <= {anytime.ratio:.2f}")

    # Approximate top-r (paper Section 4.2 remark).
    trees = top_r_trees(g, ["databases", "ml", "systems"], r=3)
    print("\ntop-3 distinct answers:")
    for i, tree in enumerate(trees, 1):
        names = sorted(g.name_of(v) for v in tree.nodes)
        print(f"  #{i}: weight={tree.weight:g} members={names}")


if __name__ == "__main__":
    main()
