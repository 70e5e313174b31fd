"""DP state bookkeeping for the parameterized Steiner tree algorithms.

A state is a pair ``(v, X)`` — node id plus bitmask of covered query
labels.  :class:`StateStore` is the set ``D`` of the paper: the states
whose optimal weight has been settled, together with *backpointers*
recording how each state's tree was derived so the actual Steiner tree
can be reconstructed:

* ``('seed', label_index)`` — initial state ``(v, {p})`` with weight 0;
* ``('grow', parent_node, weight)`` — tree of ``(v, X)`` is the tree of
  ``(parent_node, X)`` plus the edge ``(v, parent_node)``;
* ``('merge', mask_a, mask_b)`` — tree of ``(v, X)`` is the union of the
  trees of ``(v, mask_a)`` and ``(v, mask_b)``.

The store also answers the queries the engines hammer in their inner
loops: "which settled masks exist at node v" (tree merging) and "is the
complement of X settled at v" (PrunedDP's complementary-pair merge).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["StateStore", "iter_bits", "popcount", "pack_state", "unpack_state"]

Backpointer = Tuple  # ('seed', i) | ('grow', u, w) | ('merge', m1, m2)

# The bucket of every node that has no settled state yet: one shared,
# read-only empty mapping, so no caller can write into all of them.
_EMPTY: Mapping[int, float] = MappingProxyType({})

# Default width of the mask field in a packed state key.  32 bits is far
# above any real query (MAX_ALLPATHS_LABELS is 14 and the paper's k
# tops out well below 32), so the default keeps packing transparent for
# callers that construct a store without announcing their k.
DEFAULT_KEY_BITS = 32


def pack_state(node: int, mask: int, key_bits: int = DEFAULT_KEY_BITS) -> int:
    """Pack ``(node, mask)`` into one int: ``node << key_bits | mask``.

    The engines key their queues, settled sets, and bound caches by
    packed ints instead of ``(node, mask)`` tuples — one small-int hash
    instead of a tuple allocation + composite hash per touch.  ``mask``
    must fit in ``key_bits`` bits (the engines pass ``key_bits =
    len(query)``, the exact mask width).
    """
    return (node << key_bits) | mask


def unpack_state(key: int, key_bits: int = DEFAULT_KEY_BITS) -> Tuple[int, int]:
    """Inverse of :func:`pack_state`: recover ``(node, mask)``."""
    return key >> key_bits, key & ((1 << key_bits) - 1)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


try:
    popcount = int.bit_count  # type: ignore[attr-defined]  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9 fallback

    def popcount(mask: int) -> int:
        return bin(mask).count("1")


class StateStore:
    """Settled DP states (the paper's ``D``) with tree reconstruction."""

    __slots__ = ("_cost", "_backpointer", "_size", "_peak", "key_bits")

    def __init__(self, num_nodes: int, key_bits: int = DEFAULT_KEY_BITS) -> None:
        # Per-node buckets keep the merge scan ("all settled masks at v")
        # allocation-free and O(#masks at v).  Every node starts on the
        # shared ``_EMPTY`` mapping and gets its own dict from ``settle``,
        # so a query pays for the nodes it settles, not for all n.
        # Backpointers are keyed by packed ``node << key_bits | mask``
        # ints; engines that share the store's ``key_bits`` can address
        # ``_backpointer`` without building tuples.
        self._cost: List[Mapping[int, float]] = [_EMPTY] * num_nodes
        self._backpointer: Dict[int, Backpointer] = {}
        self._size = 0
        self._peak = 0
        self.key_bits = key_bits

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def settle(self, node: int, mask: int, cost: float, backpointer: Backpointer) -> None:
        """Record ``(node, mask)`` as settled with its derivation."""
        bucket = self._cost[node]
        if mask not in bucket:
            if bucket is _EMPTY:
                bucket = self._cost[node] = {}
            self._size += 1
            if self._size > self._peak:
                self._peak = self._size
        bucket[mask] = cost
        self._backpointer[(node << self.key_bits) | mask] = backpointer

    def reopen(self, node: int, mask: int) -> None:
        """Remove a settled state (safety net for inconsistent bounds)."""
        bucket = self._cost[node]
        if mask in bucket:
            del bucket[mask]
            self._size -= 1
        self._backpointer.pop((node << self.key_bits) | mask, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def contains(self, node: int, mask: int) -> bool:
        return mask in self._cost[node]

    def cost(self, node: int, mask: int) -> float:
        """Settled cost; raises ``KeyError`` if not settled."""
        return self._cost[node][mask]

    def cost_or_none(self, node: int, mask: int) -> Optional[float]:
        return self._cost[node].get(mask)

    def masks_at(self, node: int) -> Mapping[int, float]:
        """All settled ``mask -> cost`` entries at ``node`` (live view).

        A node with no settled state returns the shared read-only empty
        mapping.
        """
        return self._cost[node]

    def backpointer(self, node: int, mask: int) -> Backpointer:
        return self._backpointer[(node << self.key_bits) | mask]

    def __len__(self) -> int:
        return self._size

    def items(self) -> Iterator[Tuple[int, int, float, Backpointer]]:
        """Yield every settled ``(node, mask, cost, backpointer)``.

        Iteration order follows node id, then the per-node dict's
        insertion order — deterministic for a deterministic search, which
        keeps engine checkpoints byte-stable across identical runs.
        """
        key_bits = self.key_bits
        for node, bucket in enumerate(self._cost):
            for mask, cost in bucket.items():
                yield node, mask, cost, self._backpointer[(node << key_bits) | mask]

    @property
    def peak_size(self) -> int:
        """High-water mark of settled states (memory accounting)."""
        return self._peak

    # ------------------------------------------------------------------
    # Tree reconstruction
    # ------------------------------------------------------------------
    def tree_edges(
        self,
        node: int,
        mask: int,
        override: Optional[Tuple[int, int, Backpointer]] = None,
    ) -> List[Tuple[int, int, float]]:
        """Edges of the tree recorded for state ``(node, mask)``.

        ``override`` lets the caller reconstruct a *pending* (not yet
        settled) state: it supplies ``(node, mask, backpointer)`` for the
        root of the derivation while all referenced sub-states must be
        settled — which the engines guarantee, since a state is only
        generated from settled parents.
        """
        edges: List[Tuple[int, int, float]] = []
        if override is not None:
            stack: List[Tuple[int, int, Optional[Backpointer]]] = [
                (override[0], override[1], override[2])
            ]
        else:
            stack = [(node, mask, None)]
        key_bits = self.key_bits
        while stack:
            v, m, bp = stack.pop()
            if bp is None:
                bp = self._backpointer[(v << key_bits) | m]
            kind = bp[0]
            if kind == "seed":
                continue
            if kind == "grow":
                _, parent, weight = bp
                edges.append((v, parent, weight))
                stack.append((parent, m, None))
            elif kind == "merge":
                _, mask_a, mask_b = bp
                stack.append((v, mask_a, None))
                stack.append((v, mask_b, None))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown backpointer kind {kind!r}")
        return edges
