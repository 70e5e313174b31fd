"""Addressable binary min-heap with decrease-key.

The DP searches of this package — the parameterized DP (DPBF), Basic,
PrunedDP and the A*-search variants, and the directed solver — are
driven by a priority queue whose entries must be updatable in place:
when a DP state is reached along a cheaper path its priority must
*decrease* without leaving a stale duplicate behind.  (Dijkstra does
not use it: its kernel in :mod:`repro.graph.shortest_paths` runs a
bucket queue.)  The classic ``heapq`` lazy-deletion
idiom works but inflates the queue (and therefore the memory numbers the
paper reports), so we implement a proper addressable heap.

The heap maps arbitrary hashable *keys* to comparable *priorities*.
``push`` inserts or decreases; ``update`` allows arbitrary re-priority
(sifting in either direction), which PrunedDP++ needs because a state's
stored lower bound can be *raised* by the path-max consistency fix.

Complexities: ``push``/``pop``/``update`` are ``O(log n)``; ``__contains__``
and ``priority_of`` are ``O(1)``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Tuple

__all__ = ["IndexedHeap"]


class IndexedHeap:
    """Binary min-heap over ``(priority, key)`` pairs with O(1) addressing.

    >>> h = IndexedHeap()
    >>> h.push("a", 3.0); h.push("b", 1.0); h.push("a", 2.0)
    >>> h.pop()
    ('b', 1.0)
    >>> h.pop()
    ('a', 2.0)
    >>> len(h)
    0
    """

    __slots__ = ("_entries", "_pos")

    def __init__(self) -> None:
        # Parallel array of (priority, key); _pos maps key -> index.
        self._entries: List[Tuple[Any, Hashable]] = []
        self._pos: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._pos

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate over keys in *heap order* (not sorted order)."""
        return iter(key for _, key in self._entries)

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate over ``(key, priority)`` pairs in *heap order*.

        Heap order is an implementation detail, but it is a valid
        insertion order: re-``push``-ing the pairs into an empty heap
        reproduces an equivalent queue.  Engine checkpointing relies on
        this to serialize the frontier without destroying it.
        """
        return iter((key, priority) for priority, key in self._entries)

    def priority_of(self, key: Hashable) -> Any:
        """Return the current priority of ``key``.

        Raises ``KeyError`` if the key is not in the heap.
        """
        return self._entries[self._pos[key]][0]

    def peek(self) -> Tuple[Hashable, Any]:
        """Return ``(key, priority)`` of the minimum without removing it."""
        if not self._entries:
            raise IndexError("peek from an empty heap")
        priority, key = self._entries[0]
        return key, priority

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, key: Hashable, priority: Any) -> bool:
        """Insert ``key`` or decrease its priority.

        Returns ``True`` if the heap changed (new key, or a strictly
        smaller priority for an existing key); a push with a priority
        that is not an improvement is ignored and returns ``False``.
        """
        pos = self._pos.get(key)
        if pos is None:
            self._entries.append((priority, key))
            self._pos[key] = len(self._entries) - 1
            self._sift_up(len(self._entries) - 1)
            return True
        if priority < self._entries[pos][0]:
            self._entries[pos] = (priority, key)
            self._sift_up(pos)
            return True
        return False

    def update(self, key: Hashable, priority: Any) -> None:
        """Set ``key``'s priority unconditionally (raise or lower).

        Inserts the key if absent.  PrunedDP++ uses this to raise a
        queued state's f-value after the consistency path-max.
        """
        pos = self._pos.get(key)
        if pos is None:
            self.push(key, priority)
            return
        old = self._entries[pos][0]
        self._entries[pos] = (priority, key)
        if priority < old:
            self._sift_up(pos)
        elif old < priority:
            self._sift_down(pos)

    def pop(self) -> Tuple[Hashable, Any]:
        """Remove and return the ``(key, priority)`` with minimum priority."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        priority, key = self._entries[0]
        last = self._entries.pop()
        del self._pos[key]
        if self._entries:
            self._entries[0] = last
            self._pos[last[1]] = 0
            self._sift_down(0)
        return key, priority

    def discard(self, key: Hashable) -> bool:
        """Remove ``key`` if present; return whether it was removed."""
        pos = self._pos.get(key)
        if pos is None:
            return False
        last = self._entries.pop()
        del self._pos[key]
        if pos < len(self._entries):
            self._entries[pos] = last
            self._pos[last[1]] = pos
            # The replacement may need to move either way.
            self._sift_up(pos)
            self._sift_down(self._pos[last[1]])
        return True

    def clear(self) -> None:
        """Remove every entry."""
        self._entries.clear()
        self._pos.clear()

    # ------------------------------------------------------------------
    # Internal sifting
    # ------------------------------------------------------------------
    def _sift_up(self, pos: int) -> None:
        entries = self._entries
        positions = self._pos
        item = entries[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            parent_item = entries[parent]
            if item[0] < parent_item[0]:
                entries[pos] = parent_item
                positions[parent_item[1]] = pos
                pos = parent
            else:
                break
        entries[pos] = item
        positions[item[1]] = pos

    def _sift_down(self, pos: int) -> None:
        entries = self._entries
        positions = self._pos
        size = len(entries)
        item = entries[pos]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and entries[right][0] < entries[child][0]:
                child = right
            child_item = entries[child]
            if child_item[0] < item[0]:
                entries[pos] = child_item
                positions[child_item[1]] = pos
                pos = child
            else:
                break
        entries[pos] = item
        positions[item[1]] = pos

    # ------------------------------------------------------------------
    # Validation helper (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the heap property and position-map coherence."""
        entries = self._entries
        for i, (priority, key) in enumerate(entries):
            if self._pos[key] != i:
                raise AssertionError(f"position map broken for {key!r}")
            child = 2 * i + 1
            if child < len(entries) and entries[child][0] < priority:
                raise AssertionError(f"heap property broken at index {i}")
            child += 1
            if child < len(entries) and entries[child][0] < priority:
                raise AssertionError(f"heap property broken at index {i}")
        if len(self._pos) != len(entries):
            raise AssertionError("position map size mismatch")
