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
  **fingerprint-verified**: :func:`~repro.graph.csr.snapshot_digest`,
  the function behind :attr:`CSRGraph.fingerprint
  <repro.graph.csr.CSRGraph.fingerprint>`, is recomputed over the
  mapped bytes and label table, so a torn write, a recycled segment
  name, or a hostile neighbour can never smuggle a different graph
  into a worker.  Mismatches raise the same typed
  :class:`~repro.errors.StoreFingerprintError` the store layer uses.
* Lifetime has one owner, the creating process: its
  :meth:`SharedCSR.close` unlinks the name, an attacher's only
  detaches.  POSIX keeps a live mapping valid after the unlink, so an
  owner that closes first never pulls the graph out from under an
  attached worker; only new attaches fail.

Failure modes are typed (:class:`~repro.errors.ShmAttachError` /
:class:`~repro.errors.ShmLayoutError` /
:class:`~repro.errors.StoreFingerprintError`), never a
``BufferError``, ``KeyError`` or a bare ``FileNotFoundError``: every
count, buffer offset and length, and label record of the metadata is
checked before it is used, so a worker that loses or misreads its
segment surfaces a crashed *query*, not a crashed *process*.

Segment layout (little-endian)::

    0   8   magic  b"GSTSHM02"
    8   8   u64    metadata length in bytes
    16  ..  utf-8 JSON metadata (counts, buffer offsets, labels, fingerprint)
    ..  ..  indptr bytes | indices bytes | weights bytes (8-aligned)
"""

from __future__ import annotations

import json
import secrets
import struct
import threading
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Hashable, Optional, Tuple

from ..errors import ShmAttachError, ShmLayoutError, StoreFingerprintError

__all__ = ["SharedCSR", "SHM_MAGIC", "SHM_VERSION"]

SHM_MAGIC = b"GSTSHM02"
SHM_VERSION = 2  # encoded in the magic's trailing digits

_HEADER = struct.Struct("<8sQ")  # magic, meta_len
_ALIGN = 8  # also the item size of all three buffers ('q', 'q', 'd')
_BUFFERS = (("indptr", "q"), ("indices", "q"), ("weights", "d"))

# Label keys are persisted as (kind, value) pairs so the common
# hashable types round-trip exactly instead of being coerced to str by
# JSON object keys.
_LABEL_KINDS = {"str": str, "int": int, "float": float}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _encode_label(label: Hashable):
    for kind, typ in _LABEL_KINDS.items():
        if type(label) is typ:
            return [kind, label]
    raise ShmLayoutError(
        f"label {label!r} of type {type(label).__name__} cannot be shared; "
        f"shared snapshots support {sorted(_LABEL_KINDS)} labels"
    )


def _decode_labels(
    records, num_nodes: int, name: str
) -> Dict[Hashable, Tuple[int, ...]]:
    """The metadata's label records → ``{label: member ids}``.

    A record is ``[kind, value, [member, ...]]``; JSON round-trips each
    kind exactly, so ``value`` must already have the kind's type, and
    every member must be a node id below ``num_nodes``.
    """
    if not isinstance(records, list):
        raise ShmLayoutError(f"segment {name!r}: labels is not a list")
    label_members: Dict[Hashable, Tuple[int, ...]] = {}
    for position, record in enumerate(records):
        if not (
            isinstance(record, list)
            and len(record) == 3
            and isinstance(record[0], str)
            and type(record[1]) is _LABEL_KINDS.get(record[0])
            and isinstance(record[2], list)
            and all(_is_count(m) and m < num_nodes for m in record[2])
        ):
            raise ShmLayoutError(
                f"segment {name!r}: label record {position} is malformed"
            )
        label_members[record[1]] = tuple(record[2])
    return label_members


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
    done; the owner's close also unlinks the segment.  :meth:`load`
    materializes the :class:`~repro.graph.csr.CSRGraph`, verifying the
    fingerprint.
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
        payloads = [
            (key, getattr(csr, key).tobytes()) for key, _typecode in _BUFFERS
        ]
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
        _HEADER.pack_into(buf, 0, SHM_MAGIC, len(blob))
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
        return cls(shm, meta, owner=False)

    @staticmethod
    def _read_meta(shm: shared_memory.SharedMemory, name: str) -> dict:
        """The header's metadata, its counts and buffer table checked."""
        buf = shm.buf
        if buf.nbytes < _HEADER.size:
            raise ShmLayoutError(
                f"segment {name!r} is {buf.nbytes} bytes — too small to be "
                "a CSR export"
            )
        magic, meta_len = _HEADER.unpack_from(buf, 0)
        if magic != SHM_MAGIC:
            raise ShmLayoutError(
                f"segment {name!r} has magic {magic!r}, expected "
                f"{SHM_MAGIC!r} — not a shared CSR snapshot of this layout"
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
        if not isinstance(meta, dict):
            raise ShmLayoutError(f"segment {name!r}: malformed metadata")
        for key in ("num_nodes", "num_edges"):
            if not _is_count(meta.get(key)):
                raise ShmLayoutError(
                    f"segment {name!r}: {key} is not a non-negative integer"
                )
        if not isinstance(meta.get("fingerprint"), str):
            raise ShmLayoutError(f"segment {name!r}: fingerprint is not a string")
        buffers = meta.get("buffers")
        for key, _typecode in _BUFFERS:
            entry = buffers.get(key) if isinstance(buffers, dict) else None
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and _is_count(entry[0])
                and _is_count(entry[1])
                and entry[1] % _ALIGN == 0
                and entry[0] + entry[1] <= buf.nbytes
            ):
                raise ShmLayoutError(
                    f"segment {name!r}: buffer {key!r} is not a run of "
                    f"{_ALIGN}-byte items inside the segment"
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
        bytes with :func:`~repro.graph.csr.snapshot_digest` and compared
        to the stored one (and to ``expect_fingerprint`` when given);
        any mismatch raises :class:`~repro.errors.StoreFingerprintError`
        before a single adjacency tuple is built.
        """
        from .csr import CSRGraph, snapshot_digest

        self._require_open()
        meta = self._meta
        n = meta["num_nodes"]
        label_members = _decode_labels(meta.get("labels"), n, self.name)
        indptr, indices, weights = (
            self._buffer_view(key, typecode) for key, typecode in _BUFFERS
        )
        if len(indptr) != n + 1:
            raise ShmLayoutError(
                f"segment {self.name!r}: indptr has {len(indptr)} entries "
                f"for {n} nodes"
            )
        stored = meta["fingerprint"]
        derived = snapshot_digest(
            n, meta["num_edges"], indptr, indices, weights, label_members
        )
        if derived != stored:
            raise StoreFingerprintError(
                f"segment {self.name!r}: mapped bytes hash to "
                f"{derived[:12]}… but the segment claims {stored[:12]}… "
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

    def _require_open(self) -> shared_memory.SharedMemory:
        if self._shm is None:
            raise ShmAttachError(
                f"shared snapshot handle {self.name!r} is already closed"
            )
        return self._shm

    def close(self) -> None:
        """Detach; the owner's close also unlinks the name.  Idempotent.

        Every memoryview exported into a loaded graph is released
        before the mapping goes, so this never raises ``BufferError``.
        An attacher's mapping stays valid after the owner's unlink;
        only new attaches fail.
        """
        shm = self._shm
        if shm is None:
            return
        for view in self._views:
            view.release()
        self._views.clear()
        self._shm = None
        if self.owner:
            self._unlink(shm)
        try:
            shm.close()
        except BufferError:  # pragma: no cover - views are all released
            pass

    def unlink(self) -> None:
        """Remove the segment name now, keeping this mapping (owner only).

        Live mappings stay valid on POSIX; *new* attaches fail with
        :class:`~repro.errors.ShmAttachError`.  The owner's
        :meth:`close` unlinks too, so calling both is harmless.
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
