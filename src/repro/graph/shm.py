"""Shared-memory transport for frozen CSR snapshots.

The fleet serving mode (:mod:`repro.service.fleet`) runs N persistent
worker processes against one graph.  Re-pickling (or COW-unsharing)
the graph per worker is exactly the cost the frozen
:class:`~repro.graph.csr.CSRGraph` was built to avoid: its canonical
representation is already three flat ``array`` buffers plus a label
table, so this module maps those bytes into one
:mod:`multiprocessing.shared_memory` segment that every worker attaches
read-only.

* :meth:`CSRGraph.to_shared <repro.graph.csr.CSRGraph.to_shared>`
  exports a snapshot into a named segment and returns the owner-side
  :class:`SharedCSR` handle.
* :meth:`CSRGraph.from_shared <repro.graph.csr.CSRGraph.from_shared>` /
  :func:`SharedCSR.attach` attach by name.  The attach is
  **fingerprint-verified**: the stored snapshot fingerprint is
  recomputed over the mapped bytes and label table, so a torn write, a
  recycled segment name, or a hostile neighbour can never smuggle a
  different graph into a worker.  Mismatches raise the same typed
  :class:`~repro.errors.StoreFingerprintError` the store layer uses.
* Lifetime is **refcounted**: the segment header carries an attach
  count and an ``owner-closed`` flag.  :meth:`SharedCSR.close` on the
  owner unlinks immediately when no worker is attached, and otherwise
  defers the unlink to the last detaching worker — so a graceful fleet
  shutdown never yanks the mapping out from under an in-flight
  checkpoint, and the segment still disappears once everyone is done.

Failure modes are typed (:class:`~repro.errors.ShmAttachError` /
:class:`~repro.errors.ShmLayoutError` /
:class:`~repro.errors.StoreFingerprintError`), never a
``BufferError`` or a bare ``FileNotFoundError``: a worker that loses
its segment surfaces a crashed *query*, not a crashed *process*.

Segment layout (little-endian)::

    0   8   magic  b"GSTSHM01"
    8   8   u64    refcount (owner + live attachers; advisory, see below)
    16  8   u64    flags (bit 0: owner closed)
    24  8   u64    metadata length in bytes
    32  ..  utf-8 JSON metadata (sizes, offsets, labels, fingerprint)
    ..  ..  indptr bytes | indices bytes | weights bytes (8-aligned)

The refcount is maintained with plain read-modify-write on the mapped
header.  That is race-free under the fleet's actual contract — the
owner forks every attacher and serializes attach/detach around its own
lifecycle — and merely advisory for out-of-band attachers (a debugging
``repro`` shell attaching a live fleet's graph).
"""

from __future__ import annotations

import hashlib
import json
import secrets
import struct
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Hashable, Optional, Tuple

from ..errors import ShmAttachError, ShmLayoutError, StoreFingerprintError

__all__ = ["SharedCSR", "SHM_MAGIC", "SHM_VERSION"]

SHM_MAGIC = b"GSTSHM01"
SHM_VERSION = 1  # encoded in the magic's trailing digits

_HEADER = struct.Struct("<8sQQQ")  # magic, refcount, flags, meta_len
_REFCOUNT_OFFSET = 8
_FLAGS_OFFSET = 16
_FLAG_OWNER_CLOSED = 1
_ALIGN = 8

# Label keys are persisted as (kind, value) pairs so the common
# hashable types round-trip exactly instead of being coerced to str by
# JSON object keys.
_LABEL_KINDS = {"str": str, "int": int, "float": float}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _encode_label(label: Hashable):
    for kind, typ in _LABEL_KINDS.items():
        if type(label) is typ:
            return [kind, label]
    raise ShmLayoutError(
        f"label {label!r} of type {type(label).__name__} cannot be shared; "
        f"shared snapshots support {sorted(_LABEL_KINDS)} labels"
    )


def _decode_label(pair) -> Hashable:
    try:
        kind, value = pair
        return _LABEL_KINDS[kind](value)
    except (KeyError, TypeError, ValueError):
        raise ShmLayoutError(f"malformed label record {pair!r}") from None


_attach_lock = threading.Lock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment WITHOUT resource-tracker registration.

    An *attacher* must never register the name: tracker entries are
    deduplicated daemon-side, so an attacher's registration aliases the
    owner's — unregistering (or the tracker's exit cleanup) would then
    unlink the graph out from under every other process.  Only the
    owner registers, so an owner crash still reclaims the segment and
    a worker crash never destroys it.  Python 3.13 exposes this as
    ``track=False``; older interpreters get the same effect by
    suppressing ``register`` for the duration of the constructor.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    with _attach_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


class SharedCSR:
    """One shared-memory CSR segment: owner- or attacher-side handle.

    Owners come from :meth:`create` (or ``csr.to_shared()``);
    attachers from :meth:`attach`.  Both sides call :meth:`close` when
    done; the last handle out (with the owner already closed) unlinks
    the segment.  :meth:`load` materializes the
    :class:`~repro.graph.csr.CSRGraph`, verifying the fingerprint.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        meta: dict,
        *,
        owner: bool,
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self._meta = meta
        self.owner = owner
        self.name = shm.name
        self.size = shm.buf.nbytes
        self._views = []  # memoryviews exported into a loaded CSRGraph
        self._unlinked = False

    # ------------------------------------------------------------------
    # Creation / attach
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, csr) -> "SharedCSR":
        """Export ``csr`` into a fresh segment (the owner-side handle)."""
        indptr_bytes = csr.indptr.tobytes()
        indices_bytes = csr.indices.tobytes()
        weights_bytes = csr.weights.tobytes()
        meta = {
            "num_nodes": csr.num_nodes,
            "num_edges": csr.num_edges,
            "fingerprint": csr.fingerprint,
            "labels": [
                _encode_label(label) + [list(csr.members(label))]
                for label in csr.all_labels()
            ],
            "buffers": {},  # name -> [offset, nbytes]
        }
        # Two-pass: offsets depend on the meta length, which depends on
        # the offsets' textual width.  Lay out with placeholder offsets,
        # then re-encode; widths are padded stable by the alignment.
        payloads = (
            ("indptr", indptr_bytes),
            ("indices", indices_bytes),
            ("weights", weights_bytes),
        )
        for attempt in range(3):
            blob = json.dumps(meta, separators=(",", ":")).encode("utf-8")
            offset = _align(_HEADER.size + len(blob))
            buffers: Dict[str, Tuple[int, int]] = {}
            for key, payload in payloads:
                buffers[key] = [offset, len(payload)]
                offset = _align(offset + len(payload))
            if meta["buffers"] == buffers:
                break
            meta["buffers"] = buffers
        total = offset
        name = f"gst-csr-{secrets.token_hex(6)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        buf = shm.buf
        _HEADER.pack_into(buf, 0, SHM_MAGIC, 1, 0, len(blob))
        buf[_HEADER.size:_HEADER.size + len(blob)] = blob
        for key, payload in payloads:
            start = meta["buffers"][key][0]
            buf[start:start + len(payload)] = payload
        return cls(shm, meta, owner=True)

    @classmethod
    def attach(cls, name: str) -> "SharedCSR":
        """Attach an existing segment by name (never the raw OS error)."""
        try:
            shm = _attach_untracked(name)
        except FileNotFoundError:
            raise ShmAttachError(
                f"shared snapshot segment {name!r} does not exist (never "
                "created, or already unlinked by its owner)"
            ) from None
        except OSError as exc:
            raise ShmAttachError(
                f"shared snapshot segment {name!r} cannot be attached: {exc}"
            ) from None
        try:
            meta = cls._read_meta(shm, name)
        except Exception:
            shm.close()
            raise
        handle = cls(shm, meta, owner=False)
        handle._bump_refcount(+1)
        return handle

    @staticmethod
    def _read_meta(shm: shared_memory.SharedMemory, name: str) -> dict:
        buf = shm.buf
        if buf.nbytes < _HEADER.size:
            raise ShmLayoutError(
                f"segment {name!r} is {buf.nbytes} bytes — too small to be "
                "a CSR export"
            )
        magic, _refs, _flags, meta_len = _HEADER.unpack_from(buf, 0)
        if magic != SHM_MAGIC:
            raise ShmLayoutError(
                f"segment {name!r} has magic {magic!r}, expected "
                f"{SHM_MAGIC!r} — not a shared CSR snapshot"
            )
        if _HEADER.size + meta_len > buf.nbytes:
            raise ShmLayoutError(
                f"segment {name!r}: metadata length {meta_len} overruns the "
                f"{buf.nbytes}-byte segment"
            )
        try:
            meta = json.loads(bytes(buf[_HEADER.size:_HEADER.size + meta_len]))
        except ValueError:
            raise ShmLayoutError(
                f"segment {name!r}: metadata is not valid JSON"
            ) from None
        if not isinstance(meta, dict) or "buffers" not in meta:
            raise ShmLayoutError(f"segment {name!r}: malformed metadata")
        for key in ("indptr", "indices", "weights"):
            entry = meta["buffers"].get(key)
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or entry[0] + entry[1] > buf.nbytes
            ):
                raise ShmLayoutError(
                    f"segment {name!r}: buffer {key!r} lies outside the "
                    "segment"
                )
        return meta

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, *, expect_fingerprint: Optional[str] = None):
        """Materialize the :class:`~repro.graph.csr.CSRGraph`.

        The flat buffers are **zero-copy** views into the mapped
        segment; the interpreter-shaped tuple mirrors (what the kernels
        iterate) are rebuilt process-locally — one O(n + m) pass per
        attach, amortized over every query the worker will ever serve.

        The snapshot fingerprint is always re-derived from the mapped
        bytes and compared to the stored one (and to
        ``expect_fingerprint`` when given); any mismatch raises
        :class:`~repro.errors.StoreFingerprintError` before a single
        adjacency tuple is built.
        """
        from .csr import CSRGraph

        self._require_open()
        meta = self._meta
        n = meta["num_nodes"]
        indptr = self._buffer_view("indptr", "q")
        indices = self._buffer_view("indices", "q")
        weights = self._buffer_view("weights", "d")
        if len(indptr) != n + 1:
            raise ShmLayoutError(
                f"segment {self.name!r}: indptr has {len(indptr)} entries "
                f"for {n} nodes"
            )
        label_members = {
            _decode_label(entry[:2]): tuple(entry[2])
            for entry in meta.get("labels", ())
        }
        stored = meta.get("fingerprint")
        digest = hashlib.sha256()
        digest.update(
            f"csr;n={n};m={meta['num_edges']};".encode()
        )
        digest.update(indptr)
        digest.update(indices)
        digest.update(weights)
        for label in sorted(label_members, key=str):
            members = label_members[label]
            digest.update(
                f"l={label!s}:{','.join(map(str, members))};".encode()
            )
        derived = digest.hexdigest()
        if derived != stored:
            raise StoreFingerprintError(
                f"segment {self.name!r}: mapped bytes hash to "
                f"{derived[:12]}… but the segment claims {str(stored)[:12]}… "
                "— torn write or foreign segment; refusing to load"
            )
        if expect_fingerprint is not None and derived != expect_fingerprint:
            raise StoreFingerprintError(
                f"segment {self.name!r} holds snapshot {derived[:12]}…, "
                f"expected {expect_fingerprint[:12]}… — this is a different "
                "graph; refusing to load"
            )

        adjacency = tuple(
            tuple(
                (indices[i], weights[i])
                for i in range(indptr[u], indptr[u + 1])
            )
            for u in range(n)
        )
        csr = CSRGraph(
            num_nodes=n,
            num_edges=meta["num_edges"],
            indptr=indptr,
            indices=indices,
            weights=weights,
            adjacency=adjacency,
            label_members=label_members,
            build_seconds=0.0,
        )
        csr._fingerprint = derived
        return csr

    def _buffer_view(self, key: str, typecode: str):
        shm = self._require_open()
        offset, nbytes = self._meta["buffers"][key]
        view = memoryview(shm.buf)[offset:offset + nbytes].cast(typecode)
        self._views.append(view)
        return view

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._shm is None

    def refcount(self) -> int:
        """Live handles on the segment (owner included until closed)."""
        shm = self._require_open()
        return struct.unpack_from("<Q", shm.buf, _REFCOUNT_OFFSET)[0]

    def owner_closed(self) -> bool:
        shm = self._require_open()
        flags = struct.unpack_from("<Q", shm.buf, _FLAGS_OFFSET)[0]
        return bool(flags & _FLAG_OWNER_CLOSED)

    def _bump_refcount(self, delta: int) -> int:
        shm = self._require_open()
        value = struct.unpack_from("<Q", shm.buf, _REFCOUNT_OFFSET)[0]
        value = max(0, value + delta)
        struct.pack_into("<Q", shm.buf, _REFCOUNT_OFFSET, value)
        return value

    def _require_open(self) -> shared_memory.SharedMemory:
        if self._shm is None:
            raise ShmAttachError(
                f"shared snapshot handle {self.name!r} is already closed"
            )
        return self._shm

    def close(self) -> None:
        """Detach; unlink iff this was the last handle out.

        Owner close sets the owner-closed flag first, so the unlink is
        deferred to the last live attacher when workers are still
        mapped — every exported memoryview is released before the
        mapping goes, so this can never raise ``BufferError``.
        Idempotent.
        """
        shm = self._shm
        if shm is None:
            return
        if self.owner:
            flags = struct.unpack_from("<Q", shm.buf, _FLAGS_OFFSET)[0]
            struct.pack_into(
                "<Q", shm.buf, _FLAGS_OFFSET, flags | _FLAG_OWNER_CLOSED
            )
            remaining = self._bump_refcount(-1)
            last_out = remaining == 0
        else:
            remaining = self._bump_refcount(-1)
            last_out = remaining == 0 and self.owner_closed()
        for view in self._views:
            view.release()
        self._views.clear()
        self._shm = None
        if last_out:
            self._unlink(shm)
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views are all released
            pass

    def unlink(self) -> None:
        """Force-remove the segment name now (destructive; owner only).

        Live mappings stay valid on POSIX; *new* attaches fail with
        :class:`~repro.errors.ShmAttachError`.  Used by abandon-ship
        paths (``shutdown(wait=False)``); graceful shutdown goes
        through :meth:`close`.
        """
        shm = self._shm
        if shm is not None:
            self._unlink(shm)

    def _unlink(self, shm: shared_memory.SharedMemory) -> None:
        # Guarded: a second unlink of the same name would make the
        # resource tracker print a KeyError traceback at exit.
        if self._unlinked:
            return
        self._unlinked = True
        try:
            shm.unlink()
        except FileNotFoundError:
            pass

    # ------------------------------------------------------------------
    def info(self) -> dict:
        """JSON-safe summary (surfaced by fleet metrics and tests)."""
        return {
            "name": self.name,
            "size_bytes": self.size,
            "num_nodes": self._meta["num_nodes"],
            "num_edges": self._meta["num_edges"],
            "fingerprint": self._meta["fingerprint"],
            "owner": self.owner,
        }

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("owner" if self.owner else "attached")
        return f"SharedCSR({self.name!r}, {self.size} bytes, {state})"
