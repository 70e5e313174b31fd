"""Weighted, node-labelled, undirected graph.

This is the substrate every algorithm in the package runs on.  The
representation is a plain adjacency list over dense integer node ids
(``0..n-1``) because the DP solvers index per-node arrays in their hot
loops; external (application-level) node names are kept in a side table
so keyword-search and team-formation layers can round-trip their domain
objects.

Labels are arbitrary hashable values.  Each label ``p`` implicitly
defines the *group* ``V_p`` — the set of nodes carrying ``p`` — which is
exactly the "group" of the Group Steiner Tree problem.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import GraphError

__all__ = ["Graph", "Edge"]

Label = Hashable
Edge = Tuple[int, int, float]


class Graph:
    """Undirected weighted graph with labelled nodes.

    Nodes are created with :meth:`add_node` and addressed by the dense
    integer id it returns.  Parallel edges are collapsed to the minimum
    weight; self-loops are rejected (they can never appear in a tree).

    >>> g = Graph()
    >>> a = g.add_node(labels=["db"])
    >>> b = g.add_node(labels=["ml"])
    >>> g.add_edge(a, b, 2.5)
    >>> g.num_nodes, g.num_edges
    (2, 1)
    >>> sorted(g.nodes_with_label("db"))
    [0]
    """

    __slots__ = (
        "_adj",
        "_labels",
        "_groups",
        "_names",
        "_name_to_id",
        "_num_edges",
        "_total_weight",
        "_min_weight",
        "_edge_pos",
        "_snapshot",
    )

    def __init__(self) -> None:
        self._adj: List[List[Tuple[int, float]]] = []
        self._labels: List[FrozenSet[Label]] = []
        self._groups: Dict[Label, List[int]] = {}
        self._names: List[Optional[Hashable]] = []
        self._name_to_id: Dict[Hashable, int] = {}
        # (u, v) -> position of v inside _adj[u], kept for both edge
        # directions.  Positions are stable because edges are never
        # deleted, so duplicate-edge collapse and edge_weight are O(1)
        # instead of an O(deg) adjacency scan.
        self._edge_pos: Dict[Tuple[int, int], int] = {}
        self._num_edges = 0
        self._total_weight = 0.0
        self._min_weight = float("inf")
        # Immutable CSR snapshot (see repro.graph.csr); built by
        # freeze(), dropped by any mutation.
        self._snapshot = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        labels: Iterable[Label] = (),
        name: Optional[Hashable] = None,
    ) -> int:
        """Add a node and return its integer id.

        ``labels`` attaches the node to the corresponding groups;
        ``name`` registers an optional external identifier that must be
        unique across the graph.
        """
        node = len(self._adj)
        if name is not None:
            if name in self._name_to_id:
                raise GraphError(f"duplicate node name: {name!r}")
            self._name_to_id[name] = node
        self._snapshot = None
        self._adj.append([])
        label_set = frozenset(labels)
        self._labels.append(label_set)
        self._names.append(name)
        for label in label_set:
            self._groups.setdefault(label, []).append(node)
        return node

    def add_labels(self, node: int, labels: Iterable[Label]) -> None:
        """Attach additional labels to an existing node."""
        self._check_node(node)
        new = frozenset(labels) - self._labels[node]
        if not new:
            return
        self._snapshot = None
        self._labels[node] = self._labels[node] | new
        for label in new:
            self._groups.setdefault(label, []).append(node)

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add an undirected edge; parallel edges keep the lighter weight.

        Weights must be finite and non-negative.  (The PrunedDP family
        additionally requires strictly positive weights and validates
        that at solve time.)
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not allowed")
        weight = float(weight)
        if not (weight >= 0.0) or weight == float("inf"):
            raise GraphError(f"edge weight must be finite and >= 0, got {weight!r}")
        pos = self._edge_pos.get((u, v))
        if pos is not None:
            existing = self._adj[u][pos][1]
            if weight < existing:
                self._snapshot = None
                self._replace_edge_weight(u, v, weight)
                self._total_weight += weight - existing
                if weight < self._min_weight:
                    self._min_weight = weight
            return
        self._snapshot = None
        self._edge_pos[(u, v)] = len(self._adj[u])
        self._edge_pos[(v, u)] = len(self._adj[v])
        self._adj[u].append((v, weight))
        self._adj[v].append((u, weight))
        self._num_edges += 1
        self._total_weight += weight
        if weight < self._min_weight:
            self._min_weight = weight

    def _replace_edge_weight(self, u: int, v: int, weight: float) -> None:
        self._adj[u][self._edge_pos[(u, v)]] = (v, weight)
        self._adj[v][self._edge_pos[(v, u)]] = (u, weight)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (``n`` in the paper)."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (``m`` in the paper)."""
        return self._num_edges

    @property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return self._total_weight

    @property
    def min_edge_weight(self) -> float:
        """Smallest edge weight, ``inf`` for an edgeless graph."""
        return self._min_weight

    def nodes(self) -> range:
        """Iterate node ids ``0..n-1``."""
        return range(len(self._adj))

    def neighbors(self, node: int) -> Sequence[Tuple[int, float]]:
        """Return the ``(neighbor, weight)`` adjacency list of ``node``."""
        self._check_node(node)
        return self._adj[node]

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        """Expose the raw adjacency structure (read-only by convention).

        Hot loops (Dijkstra, the DP engines) index this directly instead
        of paying a method call per edge.
        """
        return self._adj

    def degree(self, node: int) -> int:
        """Number of incident edges."""
        self._check_node(node)
        return len(self._adj[node])

    def edges(self) -> Iterator[Edge]:
        """Yield each undirected edge once as ``(u, v, weight)`` with u < v."""
        for u, adj in enumerate(self._adj):
            for v, weight in adj:
                if u < v:
                    yield (u, v, weight)

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of edge ``(u, v)``; raises ``GraphError`` if absent."""
        self._check_node(u)
        self._check_node(v)
        weight = self._edge_weight(u, v)
        if weight is None:
            raise GraphError(f"no edge between {u} and {v}")
        return weight

    def has_edge(self, u: int, v: int) -> bool:
        """Whether an edge between ``u`` and ``v`` exists."""
        self._check_node(u)
        self._check_node(v)
        return self._edge_weight(u, v) is not None

    def _edge_weight(self, u: int, v: int) -> Optional[float]:
        pos = self._edge_pos.get((u, v))
        if pos is None:
            return None
        return self._adj[u][pos][1]

    # ------------------------------------------------------------------
    # Labels and groups
    # ------------------------------------------------------------------
    def labels_of(self, node: int) -> FrozenSet[Label]:
        """The label set ``S_v`` of a node."""
        self._check_node(node)
        return self._labels[node]

    def has_label(self, node: int, label: Label) -> bool:
        """Whether ``node`` carries ``label``."""
        self._check_node(node)
        return label in self._labels[node]

    def nodes_with_label(self, label: Label) -> Sequence[int]:
        """The group ``V_p`` — every node carrying ``label`` (may be empty)."""
        return self._groups.get(label, ())

    def all_labels(self) -> Iterator[Label]:
        """Iterate over every distinct label in the graph."""
        return iter(self._groups)

    @property
    def num_labels(self) -> int:
        """Number of distinct labels."""
        return len(self._groups)

    def label_frequency(self, label: Label) -> int:
        """Size of the group ``V_p`` (the paper's ``kwf`` is the mean of this)."""
        return len(self._groups.get(label, ()))

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def name_of(self, node: int) -> Optional[Hashable]:
        """The external name registered for ``node`` (or ``None``)."""
        self._check_node(node)
        return self._names[node]

    def node_by_name(self, name: Hashable) -> int:
        """Resolve an external name back to its node id."""
        try:
            return self._name_to_id[name]
        except KeyError:
            raise GraphError(f"unknown node name: {name!r}") from None

    def has_name(self, name: Hashable) -> bool:
        """Whether a node with the external name exists."""
        return name in self._name_to_id

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def subgraph(self, nodes: Iterable[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the new graph and a mapping from old node id to new.
        Labels and names are preserved (names only if unique, which they
        are by construction).
        """
        keep = sorted(set(nodes))
        mapping: Dict[int, int] = {}
        sub = Graph()
        for old in keep:
            self._check_node(old)
            mapping[old] = sub.add_node(labels=self._labels[old], name=self._names[old])
        kept = set(keep)
        for old in keep:
            for neighbor, weight in self._adj[old]:
                if neighbor in kept and old < neighbor:
                    sub.add_edge(mapping[old], mapping[neighbor], weight)
        return sub, mapping

    def copy(self) -> "Graph":
        """Deep-enough copy (labels are immutable frozensets, shared)."""
        clone = Graph()
        clone._adj = [list(adj) for adj in self._adj]
        clone._labels = list(self._labels)
        clone._groups = {label: list(nodes) for label, nodes in self._groups.items()}
        clone._names = list(self._names)
        clone._name_to_id = dict(self._name_to_id)
        clone._edge_pos = dict(self._edge_pos)
        clone._num_edges = self._num_edges
        clone._total_weight = self._total_weight
        clone._min_weight = self._min_weight
        # The clone starts unfrozen: a CSRGraph is bound to one graph's
        # exact structure, and the clone is free to mutate.
        return clone

    # ------------------------------------------------------------------
    # Immutable CSR snapshot
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr) -> "Graph":
        """Rebuild a mutable graph from a CSR snapshot, adopting it.

        The inverse of :meth:`freeze`, used by fleet workers that
        receive the graph through shared memory
        (:mod:`repro.graph.shm`) rather than by pickling.  The rebuilt
        graph reproduces the donor's internal state *exactly* —
        adjacency rows in the donor's insertion order and label groups
        in the donor's membership order — and ``csr`` itself is
        installed as the cached snapshot, so ``freeze()`` returns the
        shared (fingerprint-identical) buffers instead of rebuilding:
        checkpoint paths, store lookups, and answers all match the
        owner process bit-for-bit.  External node names are not part of
        a snapshot and come back empty.
        """
        graph = cls()
        n = csr.num_nodes
        label_sets: List[set] = [set() for _ in range(n)]
        graph._groups = {
            label: list(csr.members(label)) for label in csr.all_labels()
        }
        for label, members in graph._groups.items():
            for node in members:
                label_sets[node].add(label)
        graph._adj = [list(csr.adjacency[u]) for u in range(n)]
        graph._labels = [frozenset(s) for s in label_sets]
        graph._names = [None] * n
        total = 0.0
        min_w = float("inf")
        for u, row in enumerate(graph._adj):
            for pos, (v, w) in enumerate(row):
                graph._edge_pos[(u, v)] = pos
                if u < v:
                    total += w
                    if w < min_w:
                        min_w = w
        graph._num_edges = csr.num_edges
        graph._total_weight = total
        graph._min_weight = min_w
        graph._snapshot = csr
        return graph

    def freeze(self):
        """Build (or return the cached) immutable CSR snapshot.

        Returns a :class:`~repro.graph.csr.CSRGraph` over the current
        structure.  The snapshot is cached on the graph.  Every
        shortest-path function and every query context calls this on
        first use, so all solves run on the snapshot and pay its O(n + m)
        build once per graph.  Any later mutation (``add_node`` /
        ``add_labels`` / ``add_edge`` that changes an edge) drops it, so
        a stale snapshot can never be observed.
        """
        if self._snapshot is None:
            from .csr import CSRGraph

            self._snapshot = CSRGraph.from_graph(self)
        return self._snapshot

    def snapshot(self):
        """The live CSR snapshot, or ``None`` when not frozen (or stale)."""
        return self._snapshot

    def validate(self) -> None:
        """Check internal invariants; raises ``GraphError`` on corruption."""
        edge_count = 0
        for u, adj in enumerate(self._adj):
            seen = set()
            for v, weight in adj:
                if not 0 <= v < len(self._adj):
                    raise GraphError(f"node {u} links to out-of-range node {v}")
                if v == u:
                    raise GraphError(f"self-loop stored on node {u}")
                if v in seen:
                    raise GraphError(f"parallel edge stored between {u} and {v}")
                seen.add(v)
                back = self._edge_weight(v, u)
                if back is None or back != weight:
                    raise GraphError(f"asymmetric edge between {u} and {v}")
                edge_count += 1
        if edge_count != 2 * self._num_edges:
            raise GraphError("edge counter out of sync with adjacency lists")
        if len(self._edge_pos) != 2 * self._num_edges:
            raise GraphError("edge position index out of sync")
        for (u, v), pos in self._edge_pos.items():
            entry = self._adj[u][pos] if pos < len(self._adj[u]) else None
            if entry is None or entry[0] != v:
                raise GraphError(f"edge position index broken for ({u}, {v})")
        for label, group in self._groups.items():
            for node in group:
                if label not in self._labels[node]:
                    raise GraphError(f"group index broken for label {label!r}")

    def _check_node(self, node: int) -> None:
        if not isinstance(node, int) or not 0 <= node < len(self._adj):
            raise GraphError(f"invalid node id: {node!r}")

    def __repr__(self) -> str:
        return (
            f"Graph(n={self.num_nodes}, m={self.num_edges}, "
            f"labels={self.num_labels})"
        )
