"""The on-disk container format of the precompute store.

One store file is a sequence of CRC-framed records behind a fixed
header::

    header : MAGIC (8 bytes) | format_version (u32, little-endian)
    record : payload_len (u32) | crc32 (u32) | payload bytes

Readers fail *closed*: a wrong magic, an unknown version, a short read,
or a checksum mismatch raises a typed
:class:`~repro.errors.StoreError` subclass — never a bare
``EOFError``/``struct.error`` — so callers can always fall back to a
cold solve.  The framing is deliberately dumb (no seeking, no index):
stores are written once by the offline builder and streamed fully at
warm-load time, which keeps the reader ~30 lines and the corruption
surface testable.

Two payload encodings ride the same frames:

* **label distance tables** (:func:`pack_label_table`): the label as
  UTF-8, then ``n`` little-endian float64 distances and ``n`` int32
  parent pointers — the bytes of the exact ``array('d')``/``array('i')``
  pair :class:`~repro.core.cache.LabelDistanceCache` holds in memory,
  so encoding is ``tobytes()`` and decoding ``frombytes()`` (byteswapped
  on a big-endian host), with no per-element parse;
* **JSON records** (:func:`pack_json`): result-cache entries and any
  future sidecar metadata.
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from typing import Any, BinaryIO, Iterator, Sequence, Tuple

from ..errors import StoreCorruptError, StoreVersionError

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "write_header",
    "read_header",
    "write_record",
    "iter_records",
    "pack_label_table",
    "unpack_label_table",
    "pack_json",
    "unpack_json",
]

MAGIC = b"GSTSTORE"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sI")
_FRAME = struct.Struct("<II")
_TABLE_HEAD = struct.Struct("<HI")
# Distances can be +inf (unreachable nodes); float64 round-trips them.
_F64 = struct.Struct("<d")
_I32 = struct.Struct("<i")
# Tables are little-endian on disk whatever the host's byte order.
_SWAP = sys.byteorder == "big"


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def write_header(fh: BinaryIO, version: int = FORMAT_VERSION) -> None:
    fh.write(_HEADER.pack(MAGIC, version))


def read_header(fh: BinaryIO, *, what: str = "store file") -> int:
    """Validate magic + version; returns the file's format version."""
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise StoreCorruptError(f"{what}: truncated header ({len(raw)} bytes)")
    magic, version = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StoreCorruptError(f"{what}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise StoreVersionError(
            f"{what}: format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return version


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def write_record(fh: BinaryIO, payload: bytes) -> int:
    """Append one CRC-framed record; returns bytes written."""
    fh.write(_FRAME.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
    fh.write(payload)
    return _FRAME.size + len(payload)


def iter_records(fh: BinaryIO, *, what: str = "store file") -> Iterator[bytes]:
    """Yield record payloads until EOF, checking length and CRC."""
    while True:
        frame = fh.read(_FRAME.size)
        if not frame:
            return
        if len(frame) < _FRAME.size:
            raise StoreCorruptError(f"{what}: truncated record frame")
        length, crc = _FRAME.unpack(frame)
        payload = fh.read(length)
        if len(payload) < length:
            raise StoreCorruptError(
                f"{what}: truncated record payload "
                f"({len(payload)} of {length} bytes)"
            )
        if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
            raise StoreCorruptError(f"{what}: record checksum mismatch")
        yield payload


# ----------------------------------------------------------------------
# Label distance-table payloads
# ----------------------------------------------------------------------
def pack_label_table(
    label: str, dist: Sequence[float], parent: Sequence[int]
) -> bytes:
    """Encode one per-label ``(dist, parent)`` pair.

    ``dist`` and ``parent`` are the kernel's ``array('d')`` and
    ``array('i')``; any other sequence is converted first.
    """
    if len(dist) != len(parent):
        raise ValueError("dist and parent arrays must have equal length")
    encoded = str(label).encode("utf-8")
    # Copies, so a byteswap never touches the caller's arrays.
    dist, parent = array("d", dist), array("i", parent)
    if _SWAP:
        dist.byteswap()
        parent.byteswap()
    return b"".join(
        (
            _TABLE_HEAD.pack(len(encoded), len(dist)),
            encoded,
            dist.tobytes(),
            parent.tobytes(),
        )
    )


def unpack_label_table(
    payload: bytes, *, what: str = "store file"
) -> Tuple[str, array, array]:
    """Decode a :func:`pack_label_table` payload (fail-closed).

    Returns the label and the table as ``array('d')``/``array('i')``.
    """
    try:
        label_len, n = _TABLE_HEAD.unpack_from(payload, 0)
        offset = _TABLE_HEAD.size
        label = payload[offset:offset + label_len].decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise StoreCorruptError(f"{what}: malformed label table: {exc}") from None
    offset += label_len
    split = offset + n * _F64.size
    end = split + n * _I32.size
    if end > len(payload):
        raise StoreCorruptError(
            f"{what}: malformed label table: {n} nodes need {end} bytes, "
            f"payload has {len(payload)}"
        )
    if end != len(payload):
        raise StoreCorruptError(
            f"{what}: label table has {len(payload) - end} trailing bytes"
        )
    dist = array("d", payload[offset:split])
    parent = array("i", payload[split:end])
    if _SWAP:
        dist.byteswap()
        parent.byteswap()
    return label, dist, parent


# ----------------------------------------------------------------------
# JSON payloads (result-cache entries, sidecar metadata)
# ----------------------------------------------------------------------
def pack_json(record: Any) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8")


def unpack_json(payload: bytes, *, what: str = "store file") -> Any:
    try:
        return json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays nested deeper than the parser recurses.
        raise StoreCorruptError(f"{what}: malformed JSON record: {exc}") from None
