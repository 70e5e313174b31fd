"""On-disk container format: framing, corruption, version skew.

The acceptance contract under test: every way a store file can be bad
(truncated header, truncated frame, truncated payload, flipped bytes,
wrong magic, future version, trailing garbage inside a payload) raises
a typed :class:`~repro.errors.StoreError` subclass — never a bare
``EOFError``/``struct.error``/``KeyError``.
"""

from __future__ import annotations

import io
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreCorruptError, StoreError, StoreVersionError
from repro.store import format as store_format
from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    iter_records,
    pack_json,
    pack_label_table,
    read_header,
    unpack_json,
    unpack_label_table,
    write_header,
    write_record,
)

INF = float("inf")


def framed(*payloads: bytes, version: int = FORMAT_VERSION) -> io.BytesIO:
    buf = io.BytesIO()
    write_header(buf, version)
    for payload in payloads:
        write_record(buf, payload)
    buf.seek(0)
    return buf


class TestHeader:
    def test_round_trip(self):
        buf = framed()
        assert read_header(buf) == FORMAT_VERSION

    def test_truncated_header(self):
        buf = io.BytesIO(MAGIC[:4])
        with pytest.raises(StoreCorruptError, match="truncated header"):
            read_header(buf)

    def test_empty_file(self):
        with pytest.raises(StoreCorruptError):
            read_header(io.BytesIO(b""))

    def test_bad_magic(self):
        buf = io.BytesIO(b"NOTASTOR" + struct.pack("<I", FORMAT_VERSION))
        with pytest.raises(StoreCorruptError, match="bad magic"):
            read_header(buf)

    def test_version_skew(self):
        buf = io.BytesIO(MAGIC + struct.pack("<I", FORMAT_VERSION + 1))
        with pytest.raises(StoreVersionError, match="version"):
            read_header(buf)

    def test_version_error_is_store_error(self):
        buf = io.BytesIO(MAGIC + struct.pack("<I", 99))
        with pytest.raises(StoreError):
            read_header(buf)


class TestRecords:
    def test_round_trip_multiple(self):
        payloads = [b"alpha", b"", b"\x00" * 1000]
        buf = framed(*payloads)
        read_header(buf)
        assert list(iter_records(buf)) == payloads

    def test_truncated_frame(self):
        buf = framed(b"hello")
        data = buf.getvalue()[:-7]  # cut into the payload's frame
        truncated = io.BytesIO(data[: len(MAGIC) + 4 + 3])
        read_header(truncated)
        with pytest.raises(StoreCorruptError, match="truncated record frame"):
            list(iter_records(truncated))

    def test_truncated_payload(self):
        buf = framed(b"hello world")
        truncated = io.BytesIO(buf.getvalue()[:-4])
        read_header(truncated)
        with pytest.raises(StoreCorruptError, match="truncated record payload"):
            list(iter_records(truncated))

    def test_flipped_byte_fails_crc(self):
        buf = framed(b"sensitive payload bytes")
        data = bytearray(buf.getvalue())
        data[-3] ^= 0xFF  # corrupt the payload, keep the frame intact
        corrupt = io.BytesIO(bytes(data))
        read_header(corrupt)
        with pytest.raises(StoreCorruptError, match="checksum mismatch"):
            list(iter_records(corrupt))

    def test_eof_is_clean_stop(self):
        buf = framed(b"only")
        read_header(buf)
        assert list(iter_records(buf)) == [b"only"]
        assert list(iter_records(buf)) == []  # already at EOF


class TestLabelTablePayload:
    def test_round_trip(self):
        dist = [0.0, 1.5, INF, 2.25]
        parent = [-1, 0, -1, 1]
        label, got_dist, got_parent = unpack_label_table(
            pack_label_table("q0", dist, parent)
        )
        assert label == "q0"
        assert list(got_dist) == dist  # inf survives float64 framing
        assert list(got_parent) == parent

    def test_round_trip_to_kernel_arrays(self):
        dist = array("d", [0.0, 1.5, INF, 2.25, 1e-300])
        parent = array("i", [-1, 0, -1, 1, 2**31 - 1])
        label, got_dist, got_parent = unpack_label_table(
            pack_label_table("q0", dist, parent)
        )
        assert label == "q0"
        assert got_dist.typecode == "d" and got_dist == dist
        assert got_parent.typecode == "i" and got_parent == parent

    def test_bytes_are_the_little_endian_struct_layout(self):
        """Arrays and lists encode to the same bytes as per-element
        little-endian packing, so stores stay readable both ways."""
        dist = [0.0, 1.5, INF, 2.25]
        parent = [-1, 0, -1, 1]
        expected = (
            struct.pack("<HI", 2, 4)
            + b"q0"
            + struct.pack("<4d", *dist)
            + struct.pack("<4i", *parent)
        )
        assert pack_label_table("q0", dist, parent) == expected
        assert (
            pack_label_table("q0", array("d", dist), array("i", parent))
            == expected
        )

    def test_big_endian_host_swaps_a_copy(self, monkeypatch):
        monkeypatch.setattr(store_format, "_SWAP", True)
        dist = array("d", [0.0, 1.5, INF])
        parent = array("i", [-1, 0, 1])
        payload = pack_label_table("q0", dist, parent)
        assert payload.endswith(
            struct.pack(">3d", *dist) + struct.pack(">3i", *parent)
        )
        assert list(dist) == [0.0, 1.5, INF]  # the caller's array is untouched
        _, got_dist, got_parent = unpack_label_table(payload)
        assert got_dist == dist and got_parent == parent

    def test_every_truncation_fails_closed(self):
        payload = pack_label_table("q0", array("d", [0.0, 2.0]), array("i", [-1, 0]))
        for cut in range(len(payload)):
            with pytest.raises(StoreCorruptError):
                unpack_label_table(payload[:cut])

    def test_unicode_label(self):
        payload = pack_label_table("ε-läbel", [0.0], [-1])
        assert unpack_label_table(payload)[0] == "ε-läbel"

    def test_length_mismatch_rejected_at_pack(self):
        with pytest.raises(ValueError):
            pack_label_table("q0", [0.0, 1.0], [-1])

    def test_short_payload(self):
        payload = pack_label_table("q0", [0.0, 1.0], [-1, 0])
        with pytest.raises(StoreCorruptError, match="malformed label table"):
            unpack_label_table(payload[:-2])

    def test_trailing_bytes(self):
        payload = pack_label_table("q0", [0.0], [-1])
        with pytest.raises(StoreCorruptError, match="trailing bytes"):
            unpack_label_table(payload + b"xx")

    def test_garbage(self):
        with pytest.raises(StoreCorruptError):
            unpack_label_table(b"\x01")


class TestJsonPayload:
    def test_round_trip(self):
        record = {"labels": ["a", "b"], "epsilon": 0.1, "nested": [1, 2]}
        assert unpack_json(pack_json(record)) == record

    def test_malformed_json(self):
        with pytest.raises(StoreCorruptError, match="malformed JSON"):
            unpack_json(b"{not json")

    def test_nesting_past_the_recursion_limit(self):
        with pytest.raises(StoreCorruptError, match="malformed JSON"):
            unpack_json(b"[" * 100000)

    def test_invalid_utf8(self):
        with pytest.raises(StoreCorruptError):
            unpack_json(b"\xff\xfe{}")


# ----------------------------------------------------------------------
# Fuzz: mutated containers read or raise a StoreError, nothing else.
# ----------------------------------------------------------------------
def _mutate(data, blob: bytearray, name: str) -> None:
    """Overwrite, insert or delete a few bytes of ``blob`` in place."""
    for _ in range(data.draw(st.integers(0, 4), label=f"{name} edits")):
        edit = data.draw(st.sampled_from(["write", "insert", "delete"]))
        at = data.draw(st.integers(0, len(blob)), label=f"{name} offset")
        byte = data.draw(st.integers(0, 255), label=f"{name} byte")
        if edit == "insert":
            blob[at:at] = bytes([byte])
        elif at < len(blob):
            if edit == "write":
                blob[at] = byte
            else:
                del blob[at]


@settings(max_examples=200, deadline=None)
@given(
    payloads=st.lists(st.binary(max_size=24), max_size=4),
    data=st.data(),
)
def test_mutated_container_reads_or_raises_a_store_error(payloads, data):
    """A valid CRC container with bytes overwritten, inserted or deleted:
    ``read_header`` and ``iter_records`` yield payloads or raise a
    ``StoreError`` (never ``struct.error``, ``EOFError`` or
    ``KeyError``), and the read ends."""
    blob = bytearray(framed(*payloads).getvalue())
    _mutate(data, blob, "container")
    buf = io.BytesIO(bytes(blob))
    try:
        read_header(buf)
        records = list(iter_records(buf))
    except StoreError:
        return
    assert all(isinstance(record, bytes) for record in records)
    assert len(records) <= len(blob) // 8
