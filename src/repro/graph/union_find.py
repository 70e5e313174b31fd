"""Disjoint-set (union-find) structure with path compression + union by rank.

Used by Kruskal's MST (feasible-tree construction runs one MST per popped
DP state whose union may beat the incumbent) and by the connectivity
validator.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over arbitrary hashable items (auto-created on use).

    >>> uf = UnionFind()
    >>> uf.union(1, 2)
    True
    >>> uf.union(2, 1)
    False
    >>> uf.connected(1, 2)
    True
    """

    __slots__ = ("_parent", "_rank", "_components")

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._rank: Dict[Hashable, int] = {}
        self._components = 0
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Register ``item`` as its own singleton set (no-op if present)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0
            self._components += 1

    def find(self, item: Hashable) -> Hashable:
        """Return the canonical representative of ``item``'s set."""
        self.add(item)
        parent = self._parent
        root = item
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[item] != root:
            parent[item], item = root, parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> bool:
        """Merge the sets of ``a`` and ``b``; return True if they were separate."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        rank = self._rank
        if rank[root_a] < rank[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        if rank[root_a] == rank[root_b]:
            rank[root_a] += 1
        self._components -= 1
        return True

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """Whether ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)

    @property
    def num_components(self) -> int:
        """Number of disjoint sets among registered items."""
        return self._components

    def __len__(self) -> int:
        return len(self._parent)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent
