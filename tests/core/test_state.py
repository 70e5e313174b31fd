"""StateStore and bit-iteration tests."""

from __future__ import annotations

import pytest

from repro.core.state import StateStore, iter_bits, popcount


class TestBitHelpers:
    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(1)) == [0]
        assert list(iter_bits(0b1011)) == [0, 1, 3]

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount((1 << 20) - 1) == 20


class TestStateStore:
    def test_settle_and_lookup(self):
        store = StateStore(4)
        store.settle(2, 0b01, 3.0, ("seed", 0))
        assert store.contains(2, 0b01)
        assert not store.contains(2, 0b10)
        assert store.cost(2, 0b01) == 3.0
        assert store.cost_or_none(2, 0b10) is None
        assert store.backpointer(2, 0b01) == ("seed", 0)
        assert len(store) == 1

    def test_masks_at(self):
        store = StateStore(3)
        store.settle(1, 0b01, 1.0, ("seed", 0))
        store.settle(1, 0b10, 2.0, ("seed", 1))
        store.settle(2, 0b01, 3.0, ("seed", 0))
        assert store.masks_at(1) == {0b01: 1.0, 0b10: 2.0}

    def test_reopen(self):
        store = StateStore(2)
        store.settle(0, 1, 1.0, ("seed", 0))
        store.reopen(0, 1)
        assert not store.contains(0, 1)
        assert len(store) == 0
        store.reopen(0, 1)  # idempotent

    def test_peak_size(self):
        store = StateStore(2)
        store.settle(0, 1, 1.0, ("seed", 0))
        store.settle(1, 1, 1.0, ("seed", 0))
        store.reopen(0, 1)
        assert len(store) == 1
        assert store.peak_size == 2

    def test_missing_cost_raises(self):
        with pytest.raises(KeyError):
            StateStore(1).cost(0, 1)


class TestSharedEmptyBucket:
    """Nodes with no settled state share one read-only empty mapping."""

    def test_settle_gives_only_its_node_a_bucket(self):
        store = StateStore(4)
        shared = store.masks_at(1)
        store.settle(0, 0b11, 2.0, ("seed", 0))
        assert dict(store.masks_at(0)) == {0b11: 2.0}
        for node in (1, 2, 3):
            assert len(store.masks_at(node)) == 0
            assert not store.contains(node, 0b11)
        assert len(shared) == 0

    def test_unsettled_bucket_is_read_only(self):
        # A caller writing through masks_at() must not be able to settle
        # a mask at every unsettled node at once.
        store = StateStore(3)
        with pytest.raises(TypeError):
            store.masks_at(2)[0b01] = 1.0
        assert len(store.masks_at(1)) == 0

    def test_reopen_of_never_settled_state_is_a_noop(self):
        store = StateStore(3)
        store.settle(0, 0b01, 1.0, ("seed", 0))
        store.reopen(1, 0b01)  # node never settled
        store.reopen(0, 0b10)  # node settled, mask not
        assert len(store) == 1
        assert store.contains(0, 0b01)
        assert len(store.masks_at(1)) == 0

    def test_items_follow_node_then_insertion_order(self):
        # Engine checkpoints serialize items() and rely on this order
        # for byte-stability.
        store = StateStore(5)
        store.settle(3, 0b10, 1.0, ("seed", 1))
        store.settle(1, 0b11, 2.0, ("merge", 0b01, 0b10))
        store.settle(3, 0b01, 0.5, ("seed", 0))
        store.settle(1, 0b01, 0.0, ("seed", 0))
        assert [(node, mask) for node, mask, _, _ in store.items()] == [
            (1, 0b11),
            (1, 0b01),
            (3, 0b10),
            (3, 0b01),
        ]


class TestTreeReconstruction:
    def test_seed_state_has_no_edges(self):
        store = StateStore(1)
        store.settle(0, 1, 0.0, ("seed", 0))
        assert store.tree_edges(0, 1) == []

    def test_grow_chain(self):
        # (2,{0}) grown from (1,{0}) grown from (0,{0}).
        store = StateStore(3)
        store.settle(0, 1, 0.0, ("seed", 0))
        store.settle(1, 1, 2.0, ("grow", 0, 2.0))
        store.settle(2, 1, 5.0, ("grow", 1, 3.0))
        edges = sorted(store.tree_edges(2, 1))
        assert edges == [(1, 0, 2.0), (2, 1, 3.0)]

    def test_merge(self):
        store = StateStore(3)
        store.settle(0, 0b01, 0.0, ("seed", 0))
        store.settle(1, 0b01, 1.0, ("grow", 0, 1.0))
        store.settle(2, 0b10, 0.0, ("seed", 1))
        store.settle(1, 0b10, 4.0, ("grow", 2, 4.0))
        store.settle(1, 0b11, 5.0, ("merge", 0b01, 0b10))
        edges = sorted(store.tree_edges(1, 0b11))
        assert edges == [(1, 0, 1.0), (1, 2, 4.0)]

    def test_override_for_pending_state(self):
        store = StateStore(2)
        store.settle(0, 1, 0.0, ("seed", 0))
        # Pending state (1, 1) derived by growing — not settled yet.
        edges = store.tree_edges(1, 1, override=(1, 1, ("grow", 0, 7.0)))
        assert edges == [(1, 0, 7.0)]

    def test_unknown_backpointer_kind(self):
        store = StateStore(1)
        store.settle(0, 1, 0.0, ("banana",))
        with pytest.raises(ValueError):
            store.tree_edges(0, 1)


class TestReopenSettleInteraction:
    """Reopening a settled state must fully retire its derivation.

    The engine reopens a settled ``(node, mask)`` when a strictly
    cheaper derivation appears (the exactness safety net); the state is
    later re-settled with a *new* backpointer.  Tree reconstruction
    through that state must follow the new chain — resurrecting the
    stale one would rebuild a tree that no longer matches the cost.
    """

    def test_resettle_replaces_backpointer_chain(self):
        store = StateStore(3)
        # Stale derivation: (0,{0}) grown from (1,{0}) grown from seed (2,{0}).
        store.settle(2, 1, 0.0, ("seed", 0))
        store.settle(1, 1, 5.0, ("grow", 2, 5.0))
        store.settle(0, 1, 9.0, ("grow", 1, 4.0))
        assert sorted(store.tree_edges(0, 1)) == [(0, 1, 4.0), (1, 2, 5.0)]
        # A cheaper derivation reaches (1,{0}): reopen, then re-settle
        # as a seed.  The old grow-from-2 chain must be gone.
        store.reopen(1, 1)
        assert not store.contains(1, 1)
        with pytest.raises(KeyError):
            store.backpointer(1, 1)
        store.settle(1, 1, 0.0, ("seed", 0))
        assert store.cost(1, 1) == 0.0
        assert store.tree_edges(1, 1) == []
        assert store.tree_edges(0, 1) == [(0, 1, 4.0)]

    def test_resettle_at_higher_cost_uses_new_chain(self):
        # Re-settling at a *higher* cost (possible while the safety net
        # churns) must likewise not resurrect the stale chain.
        store = StateStore(4)
        store.settle(3, 1, 0.0, ("seed", 0))
        store.settle(2, 1, 1.0, ("grow", 3, 1.0))
        store.reopen(2, 1)
        store.settle(0, 1, 0.0, ("seed", 0))
        store.settle(2, 1, 7.0, ("grow", 0, 7.0))
        assert store.cost(2, 1) == 7.0
        assert store.tree_edges(2, 1) == [(2, 0, 7.0)]

    def test_reopened_parent_breaks_descendant_reconstruction(self):
        # A descendant pointing at a reopened-and-never-resettled parent
        # must fail loudly (KeyError), not silently rebuild a stale tree.
        store = StateStore(2)
        store.settle(1, 1, 0.0, ("seed", 0))
        store.settle(0, 1, 2.0, ("grow", 1, 2.0))
        store.reopen(1, 1)
        with pytest.raises(KeyError):
            store.tree_edges(0, 1)

    def test_merge_reconstruction_after_part_resettle(self):
        store = StateStore(2)
        store.settle(0, 0b01, 3.0, ("grow", 1, 3.0))
        store.settle(1, 0b01, 0.0, ("seed", 0))
        store.settle(0, 0b10, 0.0, ("seed", 1))
        store.settle(0, 0b11, 3.0, ("merge", 0b01, 0b10))
        assert sorted(store.tree_edges(0, 0b11)) == [(0, 1, 3.0)]
        # The merge part (0,{0}) is reopened and re-settled as a seed;
        # the merged state's tree must now be edge-free.
        store.reopen(0, 0b01)
        store.settle(0, 0b01, 0.0, ("seed", 0))
        assert store.tree_edges(0, 0b11) == []

    def test_size_accounting_over_reopen_cycles(self):
        store = StateStore(2)
        for _ in range(3):
            store.settle(0, 1, 1.0, ("seed", 0))
            assert len(store) == 1
            store.reopen(0, 1)
            assert len(store) == 0
        assert store.peak_size == 1
