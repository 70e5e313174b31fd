"""Units for the shared-memory CSR layer (`repro.graph.shm`).

The fleet's foundation: a frozen snapshot exported once into a
POSIX shared-memory segment, attached zero-copy by worker processes,
fingerprint-verified on load, and unlinked by whoever detaches last.
These tests pin the segment lifecycle (refcounts, deferred unlink,
idempotent close), the typed error surface (attach vs layout vs
fingerprint), and the reconstruction contract — a graph rebuilt from
the mapped buffers must answer queries bit-for-bit like the donor.
"""

from __future__ import annotations

import pytest

from repro import solve_gst
from repro.errors import ShmAttachError, ShmLayoutError, StoreFingerprintError
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.shm import SHM_MAGIC, SharedCSR


@pytest.fixture
def graph():
    return generators.random_graph(
        120, 360, num_query_labels=4, label_frequency=6, seed=11
    )


@pytest.fixture
def csr(graph):
    return graph.freeze()


class TestRoundTrip:
    def test_loaded_graph_matches_donor(self, csr):
        with csr.to_shared() as shared:
            loaded, handle = CSRGraph.from_shared(shared.name)
            try:
                assert loaded.num_nodes == csr.num_nodes
                assert loaded.num_edges == csr.num_edges
                assert list(loaded.indptr) == list(csr.indptr)
                assert list(loaded.indices) == list(csr.indices)
                assert list(loaded.weights) == list(csr.weights)
                assert loaded.adjacency == csr.adjacency
                assert loaded.bucket_width == csr.bucket_width
                assert loaded.fingerprint == csr.fingerprint
                assert {
                    label: sorted(loaded.members(label))
                    for label in loaded.all_labels()
                } == {
                    label: sorted(csr.members(label))
                    for label in csr.all_labels()
                }
            finally:
                handle.close()

    def test_graph_from_csr_solves_identically(self, graph, csr):
        reference = solve_gst(graph, ["q0", "q1"], algorithm="pruneddp++")
        with csr.to_shared() as shared:
            loaded, handle = CSRGraph.from_shared(shared.name)
            try:
                rebuilt = Graph.from_csr(loaded)
                rebuilt.validate()
                # The rebuilt graph adopts the mapped snapshot: freezing
                # is a no-op, so solvers run the same CSR kernels.
                assert rebuilt.freeze() is loaded
                result = solve_gst(
                    rebuilt, ["q0", "q1"], algorithm="pruneddp++"
                )
                assert result.weight == reference.weight
                assert sorted(result.tree.edges) == sorted(
                    reference.tree.edges
                )
            finally:
                handle.close()

    def test_expected_fingerprint_accepts_the_right_graph(self, csr):
        with csr.to_shared() as shared:
            loaded, handle = CSRGraph.from_shared(
                shared.name, expect_fingerprint=csr.fingerprint
            )
            handle.close()
            assert loaded.fingerprint == csr.fingerprint


class TestErrorSurface:
    def test_attach_unknown_name_is_typed(self):
        with pytest.raises(ShmAttachError):
            SharedCSR.attach("gst-csr-no-such-segment")

    def test_fingerprint_pinning_rejects_the_wrong_graph(self, csr):
        other = generators.random_graph(
            60, 150, num_query_labels=3, label_frequency=4, seed=99
        ).freeze()
        with csr.to_shared() as shared:
            with pytest.raises(StoreFingerprintError):
                CSRGraph.from_shared(
                    shared.name, expect_fingerprint=other.fingerprint
                )
            # The failed load released its refcount: the owner is still
            # the only holder and a clean attach still works.
            assert shared.refcount() == 1
            loaded, handle = CSRGraph.from_shared(shared.name)
            handle.close()
            assert loaded.fingerprint == csr.fingerprint

    def test_corrupt_magic_is_a_layout_error(self, csr):
        shared = csr.to_shared()
        try:
            shared._shm.buf[: len(SHM_MAGIC)] = b"X" * len(SHM_MAGIC)
            with pytest.raises(ShmLayoutError):
                SharedCSR.attach(shared.name)
        finally:
            shared.close()

    def test_attach_after_unlink_is_typed_not_buffererror(self, csr):
        shared = csr.to_shared()
        name = shared.name
        shared.close()
        with pytest.raises(ShmAttachError):
            SharedCSR.attach(name)


class TestLifecycle:
    def test_refcount_create_attach_close(self, csr):
        shared = csr.to_shared()
        assert shared.refcount() == 1
        attached = SharedCSR.attach(shared.name)
        assert shared.refcount() == 2
        attached.close()
        assert shared.refcount() == 1
        shared.close()

    def test_owner_close_first_defers_unlink(self, csr):
        shared = csr.to_shared()
        name = shared.name
        attached = SharedCSR.attach(name)
        shared.close()
        # The owner is gone but the attacher's mapping stays valid:
        # loading still works and the fingerprint still verifies.
        loaded = attached.load()
        assert loaded.fingerprint == csr.fingerprint
        assert attached.owner_closed()
        attached.close()
        # Last one out removed the name.
        with pytest.raises(ShmAttachError):
            SharedCSR.attach(name)

    def test_close_is_idempotent(self, csr):
        shared = csr.to_shared()
        shared.load()  # materialize zero-copy views over the buffer
        shared.close()
        shared.close()

    def test_info_is_json_safe(self, csr):
        import json

        with csr.to_shared() as shared:
            info = shared.info()
            json.dumps(info)
            assert info["num_nodes"] == csr.num_nodes
            assert info["num_edges"] == csr.num_edges
            assert info["fingerprint"] == csr.fingerprint
            assert info["owner"] is True
            assert info["size_bytes"] > 0
