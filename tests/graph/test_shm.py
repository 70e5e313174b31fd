"""Units for the shared-memory CSR layer (`repro.graph.shm`).

The fleet's foundation: a frozen snapshot exported once into a
POSIX shared-memory segment, attached zero-copy by worker processes,
fingerprint-verified on load, and unlinked by its owner's close.
These tests pin the segment lifecycle (owner-side unlink, attachers
that outlive it, idempotent close), the typed error surface (attach vs
layout vs fingerprint, under any mutation of the header and metadata),
and the reconstruction contract — a graph rebuilt from the mapped
buffers must answer queries bit-for-bit like the donor.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import json
from multiprocessing import shared_memory
from typing import Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import solve_gst
from repro.errors import (
    ReproError,
    ShmAttachError,
    ShmLayoutError,
    StoreFingerprintError,
)
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
            # The failed load detached cleanly: a clean attach still works.
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

    def test_old_layout_is_a_layout_error(self, csr):
        shared = csr.to_shared()
        try:
            shared._shm.buf[: len(SHM_MAGIC)] = b"GSTSHM01"
            with pytest.raises(ShmLayoutError, match="GSTSHM01"):
                SharedCSR.attach(shared.name)
        finally:
            shared.close()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.pop("num_nodes"),
            lambda meta: meta["buffers"]["indices"].__setitem__(0, "8"),
            lambda meta: meta["buffers"]["weights"].__setitem__(1, 12),
            lambda meta: meta["labels"].__setitem__(0, 7),
            lambda meta: meta["labels"][0][2].append(10 ** 6),
        ],
        ids=["no-num_nodes", "offset-not-int", "length-not-8n",
             "label-not-a-record", "member-out-of-range"],
    )
    def test_malformed_metadata_is_a_layout_error(self, edit):
        meta = _donor_meta()
        edit(meta)
        with _segment(_image(meta)) as name:
            with pytest.raises(ShmLayoutError):
                handle = SharedCSR.attach(name)
                try:
                    handle.load()
                finally:
                    handle.close()

    def test_attach_after_unlink_is_typed_not_buffererror(self, csr):
        shared = csr.to_shared()
        name = shared.name
        shared.close()
        with pytest.raises(ShmAttachError):
            SharedCSR.attach(name)


class TestLifecycle:
    def test_owner_close_first_defers_unlink(self, csr):
        """The owner's close unlinks the name at once; what waits is
        the attacher's mapping, which still loads and verifies."""
        shared = csr.to_shared()
        name = shared.name
        attached = SharedCSR.attach(name)
        shared.close()
        with pytest.raises(ShmAttachError):
            SharedCSR.attach(name)
        loaded = attached.load()
        assert loaded.fingerprint == csr.fingerprint
        assert loaded.adjacency == csr.adjacency
        attached.close()

    def test_attacher_close_leaves_the_segment(self, csr):
        with csr.to_shared() as shared:
            SharedCSR.attach(shared.name).close()
            loaded, handle = CSRGraph.from_shared(shared.name)
            handle.close()
            assert loaded.fingerprint == csr.fingerprint

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


# ----------------------------------------------------------------------
# Fuzz: any mutation of the header and metadata bytes either loads the
# donor's snapshot or raises a typed ReproError.
# ----------------------------------------------------------------------
# Extra room between the metadata and the buffers, so an edited
# metadata record longer than the donor's still fits.
_SLACK = 4096


@functools.lru_cache(maxsize=1)
def _donor_export():
    """(fingerprint, metadata, segment bytes) of one exported snapshot."""
    csr = generators.random_graph(
        40, 90, num_query_labels=3, label_frequency=4, seed=5
    ).freeze()
    with csr.to_shared() as shared:
        image = bytes(shared._shm.buf)
        meta = copy.deepcopy(shared._meta)
    return csr.fingerprint, meta, image


def _donor_meta() -> dict:
    """The donor's metadata with every buffer moved ``_SLACK`` later."""
    meta = copy.deepcopy(_donor_export()[1])
    for entry in meta["buffers"].values():
        entry[0] += _SLACK
    return meta


def _image(meta: dict) -> Optional[bytearray]:
    """A segment image: the header, ``meta``, and the donor's buffers
    ``_SLACK`` bytes after where the donor put them (``None`` when
    ``meta`` does not fit in front of them)."""
    _fingerprint, donor_meta, donor = _donor_export()
    first = min(offset for offset, _ in donor_meta["buffers"].values())
    blob = json.dumps(meta, separators=(",", ":")).encode()
    if 16 + len(blob) > first + _SLACK:
        return None
    image = bytearray(len(donor) + _SLACK)
    image[:8] = SHM_MAGIC
    image[8:16] = len(blob).to_bytes(8, "little")
    image[16:16 + len(blob)] = blob
    image[first + _SLACK:] = donor[first:]
    return image


@contextlib.contextmanager
def _segment(image: bytearray):
    """A raw segment holding ``image``; yields its name, unlinks on exit."""
    shm = shared_memory.SharedMemory(create=True, size=len(image))
    try:
        shm.buf[: len(image)] = image
        yield shm.name
    finally:
        shm.close()
        shm.unlink()


def test_unedited_image_loads_the_donor():
    with _segment(_image(_donor_meta())) as name:
        loaded, handle = CSRGraph.from_shared(name)
        handle.close()
    assert loaded.fingerprint == _donor_export()[0]


_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2 ** 66), 2 ** 66),
    st.integers(-2, 64),
    st.floats(),  # NaN and the infinities too: json writes them
    st.text(max_size=8),
    st.lists(st.integers(-2, 60), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _slots(meta: dict) -> list:
    """Every (container, key) of ``meta`` an edit may drop or replace."""
    slots = [(meta, key) for key in meta]
    for key, entry in meta["buffers"].items():
        slots += [(meta["buffers"], key), (entry, 0), (entry, 1)]
    for record in meta["labels"]:
        slots += [(record, 0), (record, 1), (record, 2)]
    return slots


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_header_and_metadata_load_the_donor_or_raise_typed(data):
    """Edit the metadata's JSON (drop or retype any key, buffer entry or
    label record), then overwrite bytes of the header and metadata:
    attach plus load returns the donor's snapshot or raises a
    ``ReproError`` (``ShmAttachError``, ``ShmLayoutError``,
    ``StoreFingerprintError``), nothing else."""
    meta = _donor_meta()
    slots = _slots(meta)
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        container, key = slots[
            data.draw(st.integers(0, len(slots) - 1), label="slot")
        ]
        if isinstance(container, dict) and data.draw(st.booleans(), label="drop"):
            container.pop(key, None)
        else:
            container[key] = data.draw(_VALUES, label=f"{key!r} value")
    image = _image(meta)
    assume(image is not None)
    end = 16 + int.from_bytes(image[8:16], "little")
    for _ in range(data.draw(st.integers(0, 4), label="byte writes")):
        at = data.draw(st.integers(0, end - 1), label="at")
        image[at] = data.draw(st.integers(0, 255), label="byte")
    with _segment(image) as name:
        try:
            loaded, handle = CSRGraph.from_shared(name)
        except ReproError:
            return
        handle.close()
    assert loaded.fingerprint == _donor_export()[0]
