"""Wire-protocol edge cases: the codec must never trust the peer.

Partial reads, oversized frames, garbage bytes, non-JSON payloads —
every violation must surface as a typed ProtocolError at the codec
boundary, never as a hang, an OOM, or a stray ``struct.error``.
"""

from __future__ import annotations

import json
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import GSTResult, ProgressPoint, SearchStats
from repro.core.tree import SteinerTree
from repro.errors import ProtocolError
from repro.server.protocol import (
    FRAME_TYPES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    cancel_frame,
    dump_number,
    encode_frame,
    error_frame,
    hello_frame,
    load_number,
    progress_frame,
    query_frame,
    result_frame,
    stats_frame,
)

INF = float("inf")


def _decode_all(wire: bytes, **kwargs) -> list:
    return FrameDecoder(**kwargs).feed(wire)


class TestRoundTrip:
    def test_every_constructor_round_trips(self):
        tree = SteinerTree([(0, 1, 1.5), (1, 2, 2.5)])
        result = GSTResult(
            algorithm="PrunedDP++",
            labels=("a", "b"),
            tree=tree,
            weight=4.0,
            lower_bound=4.0,
            optimal=True,
            stats=SearchStats(states_popped=7, total_seconds=0.25),
        )
        frames = [
            hello_frame(
                graph={"nodes": 3, "edges": 2, "labels": 2},
                algorithm="pruneddp++",
                max_inflight=4,
            ),
            query_frame(1, ["a", "b"], epsilon=0.1, time_limit=2.0),
            progress_frame(1, ProgressPoint(0.1, 5.0, 2.5)),
            result_frame(1, result),
            error_frame(1, "rejected", "too big", estimated_states=10**9),
            cancel_frame(1),
        ]
        wire = b"".join(encode_frame(f) for f in frames)
        decoded = _decode_all(wire)
        assert decoded == frames

    def test_encoding_matches_json_dumps_byte_for_byte(self):
        """The shared encoder writes what ``json.dumps(frame,
        sort_keys=True)`` framing wrote, for every constructor."""
        tree = SteinerTree([(2, 0, 0.1), (0, 1, 1e-300)], nodes=[5])
        solved = GSTResult(
            algorithm="PrunedDP++",
            labels=("a", "b"),
            tree=tree,
            weight=0.1 + 1e-300,
            lower_bound=0.05,
            optimal=False,
            stats=SearchStats(states_popped=7, total_seconds=0.25),
        )
        unsolved = GSTResult(
            algorithm="Basic",
            labels=("a",),
            tree=None,
            weight=INF,
            lower_bound=3.0,
            optimal=False,
            stats=SearchStats(cancelled=True),
        )
        frames = [
            hello_frame(
                graph={"nodes": 3, "edges": 2, "labels": 2},
                algorithm="pruneddp++",
                max_inflight=4,
            ),
            query_frame("q-1", ["b", "a", "é"], algorithm="basic",
                        epsilon=0.1, time_limit=2.0, max_states=10),
            query_frame(None, [3]),
            progress_frame(1, ProgressPoint(0.1, 5.0, 2.5)),
            progress_frame(1, ProgressPoint(0.05, INF, 3.0)),
            result_frame(1, solved),
            result_frame([1, 2], unsolved, status="cancelled"),
            error_frame(1, "rejected", "too big", estimated_states=10**9,
                        estimated_seconds=INF),
            error_frame(None, "protocol", "bad framing"),
            cancel_frame(1),
            stats_frame(7),
            stats_frame(7, server={"results_sent": 2}, inflight=0,
                        metrics={"gst_x": {"samples": [{"value": 1.5}]}}),
        ]
        for frame in frames:
            payload = json.dumps(frame, sort_keys=True).encode("utf-8") + b"\n"
            assert encode_frame(frame) == struct.pack(">I", len(payload)) + payload

    def test_result_frame_carries_tree_and_bounds(self):
        tree = SteinerTree([(0, 1, 1.0)])
        result = GSTResult(
            algorithm="Basic",
            labels=("x",),
            tree=tree,
            weight=1.0,
            lower_bound=1.0,
            optimal=True,
            stats=SearchStats(),
        )
        frame = result_frame(3, result, status="ok")
        assert frame["tree"] == {"nodes": [0, 1], "edges": [[0, 1, 1.0]]}
        assert frame["weight"] == 1.0
        assert frame["optimal"] is True
        assert frame["status"] == "ok"

    def test_progress_frame_infinite_incumbent(self):
        """Pre-feasible progress (UB=inf) must survive JSON."""
        frame = progress_frame(1, ProgressPoint(0.05, INF, 3.0))
        (decoded,) = _decode_all(encode_frame(frame))
        assert decoded["best_weight"] == "inf"
        assert load_number(decoded["best_weight"]) == INF
        assert load_number(decoded["ratio"]) == INF

    def test_dump_load_number_conventions(self):
        assert dump_number(INF) == "inf"
        assert dump_number(2.5) == 2.5
        assert dump_number(None) is None
        assert load_number("inf") == INF
        assert load_number(None) is None
        assert load_number(2) == 2.0

    def test_query_frame_stringifies_labels(self):
        assert query_frame(1, [0, 1])["labels"] == ["0", "1"]


class TestPartialReads:
    def test_byte_at_a_time_delivery(self):
        """A TCP peer may deliver one byte per read; frames must still
        assemble exactly once each."""
        frames = [cancel_frame(i) for i in range(3)]
        wire = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        seen = []
        for i in range(len(wire)):
            seen.extend(decoder.feed(wire[i:i + 1]))
        assert seen == frames
        assert len(decoder) == 0

    def test_many_frames_in_one_chunk(self):
        frames = [cancel_frame(i) for i in range(10)]
        wire = b"".join(encode_frame(f) for f in frames)
        assert _decode_all(wire) == frames

    def test_split_inside_header(self):
        wire = encode_frame(cancel_frame(7))
        decoder = FrameDecoder()
        assert decoder.feed(wire[:2]) == []
        assert len(decoder) == 2
        assert decoder.feed(wire[2:]) == [cancel_frame(7)]

    def test_incomplete_frame_stays_buffered(self):
        wire = encode_frame(cancel_frame(7))
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-1]) == []
        assert len(decoder) == len(wire) - 1


class TestRejection:
    def test_oversized_frame_rejected_on_encode(self):
        frame = error_frame(1, "internal", "x" * 256)
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(frame, max_frame_bytes=64)

    def test_oversized_frame_rejected_from_prefix_alone(self):
        """The guard fires on the 4-byte header before any payload is
        buffered — a hostile prefix cannot make the decoder allocate."""
        decoder = FrameDecoder(max_frame_bytes=1024)
        header = struct.pack(">I", 10 * 1024 * 1024)
        with pytest.raises(ProtocolError, match="frame length"):
            decoder.feed(header)  # not one payload byte provided

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError, match="frame length"):
            _decode_all(struct.pack(">I", 0))

    def test_garbage_bytes_mid_stream(self):
        """Random bytes after a valid frame decode to an absurd length
        or malformed JSON — either way a ProtocolError, never a hang."""
        decoder = FrameDecoder()
        good = encode_frame(cancel_frame(1))
        assert decoder.feed(good) == [cancel_frame(1)]
        with pytest.raises(ProtocolError):
            decoder.feed(b"\xff\xfe\xfd\xfc garbage after the frame")

    def test_non_json_payload(self):
        """Past the recursion limit or Python's int-string limit too."""
        for payload in (
            b"this is not json\n",
            b"[" * 200_000,
            b'{"type": "query", "id": ' + b"9" * 5000 + b"}",
        ):
            wire = struct.pack(">I", len(payload)) + payload
            with pytest.raises(ProtocolError, match="malformed"):
                _decode_all(wire)

    def test_non_object_json_payload(self):
        payload = json.dumps([1, 2, 3]).encode() + b"\n"
        wire = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError, match="JSON object"):
            _decode_all(wire)

    def test_missing_or_unknown_type(self):
        """A ``type`` that is not a string is refused too, and the
        message stays short enough for the ERROR frame carrying it."""
        for obj in (
            {},
            {"type": "launch_missiles"},
            {"type": ["query"]},
            {"type": {"query": 1}},
            {"type": "x" * 100_000},
        ):
            payload = json.dumps(obj).encode() + b"\n"
            wire = struct.pack(">I", len(payload)) + payload
            with pytest.raises(ProtocolError, match="type") as excinfo:
                _decode_all(wire)
            assert len(str(excinfo.value)) < 200

    def test_encode_refuses_unknown_type(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_frame({"type": "nope"})

    def test_encode_refuses_unserializable_payload(self):
        with pytest.raises(ProtocolError, match="not JSON-serializable"):
            encode_frame({"type": "error", "blob": object()})

    def test_invalid_decoder_limit(self):
        with pytest.raises(ValueError):
            FrameDecoder(max_frame_bytes=0)


class TestHello:
    def test_hello_announces_version_and_limits(self):
        frame = hello_frame(
            graph={"nodes": 1, "edges": 0, "labels": 0},
            algorithm="basic",
            max_inflight=2,
            max_frame_bytes=4096,
        )
        assert frame["version"] == PROTOCOL_VERSION
        assert frame["max_inflight"] == 2
        assert frame["max_frame_bytes"] == 4096
        assert MAX_FRAME_BYTES >= 4096


# ----------------------------------------------------------------------
# Fuzz: a mutated stream decodes to frames or raises a ProtocolError.
# ----------------------------------------------------------------------
_IDS = st.one_of(st.integers(), st.text(max_size=6))
_FRAMES = st.one_of(
    st.builds(query_frame, _IDS, st.lists(st.text(max_size=6), max_size=3)),
    st.builds(cancel_frame, _IDS),
    st.builds(stats_frame, _IDS),
    st.builds(
        lambda query_id, ub: progress_frame(
            query_id, ProgressPoint(0.25, ub, ub / 2)
        ),
        _IDS,
        st.floats(1.0, 1e6),
    ),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# A fuzzing dictionary: what a "run" edit splices in, up to thousands
# of times over.  At the start of a value, a run of "[" nests past the
# recursion limit and a run of "9" makes an integer past the int-string
# limit.
_TOKENS = [b"[", b"9", b"{", b'"', b"\\u"]
_VALUE_START = re.compile(rb": |\[")


def _chunks(data, wire: bytes, name: str) -> list:
    """``wire`` cut at a few drawn offsets."""
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(wire)), max_size=6), label=name)
    )
    return [wire[a:b] for a, b in zip([0, *cuts], [*cuts, len(wire)])]


def _feed(chunks) -> list:
    decoder = FrameDecoder()
    frames = []
    for chunk in chunks:
        frames.extend(decoder.feed(chunk))
    return frames


def _mutate(data, blob: bytearray, name: str) -> None:
    """Overwrite, delete, insert, or splice a run of one token, in place.

    A run goes where a JSON value starts, so it nests or lengthens the
    value instead of only breaking the syntax.
    """
    for _ in range(data.draw(st.integers(0, 3), label=f"{name} edits")):
        edit = data.draw(st.sampled_from(["run", "write", "delete", "insert"]))
        if edit == "run":
            starts = [0, *(match.end() for match in _VALUE_START.finditer(blob))]
            at = data.draw(st.sampled_from(starts), label=f"{name} offset")
            token = data.draw(st.sampled_from(_TOKENS))
            count = st.one_of(st.integers(1, 8), st.integers(5000, 8000))
            blob[at:at] = token * data.draw(count, label=f"{name} run")
            continue
        at = data.draw(st.integers(0, len(blob)), label=f"{name} offset")
        if edit == "insert":
            blob[at:at] = bytes([data.draw(st.integers(0, 255))])
        elif at < len(blob):
            if edit == "write":
                blob[at] = data.draw(st.integers(0, 255))
            else:
                del blob[at]


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(_FRAMES, min_size=1, max_size=4), data=st.data())
def test_mutated_stream_decodes_or_raises_a_protocol_error(frames, data):
    """Frames on the wire, split anywhere: the clean stream decodes to
    the same frames whatever the split.  Mutated — a frame's ``type``
    swapped for any JSON value, its payload edited and re-framed (so
    the damage reaches the JSON parser), then bytes of the whole stream
    edited (so the framing breaks too) — and fed in random chunks,
    ``feed`` returns frames or raises ``ProtocolError``, never any other
    exception."""
    wire = b"".join(encode_frame(frame) for frame in frames)
    assert _feed(_chunks(data, wire, "clean cuts")) == frames

    blob = bytearray()
    for frame in frames:
        if data.draw(st.booleans(), label="retype"):
            frame = dict(frame, type=data.draw(_JSON, label="type"))
        payload = bytearray(json.dumps(frame).encode() + b"\n")
        _mutate(data, payload, "payload")
        blob += struct.pack(">I", len(payload)) + payload
    _mutate(data, blob, "stream")
    try:
        decoded = _feed(_chunks(data, bytes(blob), "cuts"))
    except ProtocolError:
        return
    assert all(
        isinstance(frame, dict) and frame["type"] in FRAME_TYPES
        for frame in decoded
    )
