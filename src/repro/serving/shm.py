"""Zero-copy shared-memory replica fleet: multi-core serving from one pack.

:class:`~repro.serving.engine.ReplicatedServingEngine` scales reads by
deep-copying the model per replica inside one GIL-bound process -- ``N``
replicas cost ``N``x memory and zero extra cores. This module replaces the
copies with **one** :class:`~repro.core.packed.PackedEnsemble` living in
named ``multiprocessing.shared_memory`` segments, served by ``N`` reader
*processes* that attach read-only and run the exact same traversal kernel
(:mod:`repro.core.packed` module functions) over the mapped arrays --
bit-identical predictions, true multi-core parallelism, one copy of the
model.

Shared-memory layout
--------------------

Two kinds of POSIX segments per deployment, all named under one base:

``{name}-hdr``
    A fixed 16-slot ``int64`` header: magic/layout version, the seqlock
    version counter, the current data-segment *generation*, the published
    WAL offset, and the array extents (slots, route length, leaves, trees,
    route width). The header segment never moves; it is the
    rendezvous point readers attach first.

``{name}-g{generation}``
    One data segment per structural generation holding the seven flat
    ensemble arrays back to back: ``feature``, ``payload``, ``right``,
    ``tree_roots``, ``leaf_n``, ``leaf_n_plus`` as ``int64`` and
    ``route_flat`` as ``bool`` (last, so every int64 block stays 8-byte
    aligned). Within a generation the array *geometry* is immutable; leaf
    values are rewritten in place on every publish, and a maintenance
    variant switch rewrites only the switched node's reserved span
    (slot + route ranges) in place under the seqlock -- a **span-delta
    publish**. A new generation is cut only for genuinely
    geometry-changing events (snapshot restore, rebuild).

Seqlock publish protocol
------------------------

The writer publishes under an even/odd version counter:

1. bump the counter to an odd value (readers treat odd as "write in
   progress"),
2. write the payload -- leaf values + WAL offset for a leaf publish;
   sizes + generation + WAL offset for a structural publish,
3. bump the counter back to even.

Readers run every request optimistically against their mapped views, then
re-check the counter: if it moved, the result may be torn and the read
retries (bounded, counted in :class:`ReaderStats`; exceeding the bound
raises :class:`TornReadError`, the signature of a writer that died
mid-publish). Readers therefore **never block the writer** -- there is no
lock to hold, only a version to re-check.

Two properties make optimistic reads crash-safe rather than merely
eventually-consistent:

* *Geometry immutability per generation plus safe span contents.* The
  reserved-span pack (:mod:`repro.core.packed`) fixes the array sizes for
  the model's lifetime, so a variant switch rewrites only the switched
  node's reserved span in place. Both the old and the new span contents
  keep every index in range (padding slots are safe leaves) and every
  child pointer strictly above its parent, so a reader that races the
  memcpy walks only in-range slots; in the worst torn interleaving the
  walk trips the native kernel's slot-budget bound or one of its index
  range checks (:class:`~repro.core.packed.TornTraversalError` /
  ``IndexError``), both of which the reader treats exactly like a seqlock
  conflict and retries. The checks make the kernel unable to read outside
  the mapped arrays whatever a torn read shows it.
  Genuinely geometry-changing events (snapshot restore, rebuild) still cut
  a **new** generation segment and unlink the old one; a reader
  mid-traversal keeps a valid private mapping (POSIX keeps unlinked
  segments alive until the last detach), finishes, fails the version
  check, re-attaches, and retries.
* *Aligned 8-byte stores.* Header words and leaf counters are aligned
  ``int64`` slots; on the platforms this targets (x86-64, aarch64) an
  aligned 8-byte store is a single atomic store at the hardware level.
  The protocol does not rely on cross-word ordering beyond the version
  re-check.

Segment lifecycle and failure modes
-----------------------------------

* Segments are created by the writer and unlinked by
  :meth:`SharedPackedEnsemble.close` (normal shutdown) or by the next
  writer that claims the same base name (crash recovery): creation retries
  after unlinking an **orphaned segment** left by a SIGKILLed writer.
* Every attach/create is unregistered from the stdlib resource tracker:
  with the default tracking, each *attaching* process would also register
  the segment and the tracker would unlink it when that process exits --
  killing a reader would tear the fleet down. Lifetime is owned explicitly
  by the writer instead.
* A writer killed **mid-publish** leaves the counter odd forever; readers
  exhaust their retry bound and surface :class:`TornReadError`. Recovery
  (:meth:`ShmReplicatedServingEngine.recover`) rebuilds the model from
  snapshot + WAL tail, re-materialises fresh segments under the same name
  and restarts the fleet -- the WAL made the deletions durable *before*
  they were applied, so the recovered state is bit-identical.
* A reader killed mid-read loses only its private mapping. The engine
  detects the dead process on the next dispatch, respawns a fresh reader
  (attach is stateless), and re-sends the request.
* *Reader lag* is bounded by the consistency mode: ``strong`` publishes
  before a deletion is acknowledged, ``read_your_deletes`` publishes
  lazily before the next read is dispatched, ``eventual`` publishes on
  :meth:`ShmReplicatedServingEngine.sync`/snapshot; requests carry the
  minimum WAL offset the reader must observe in the header before
  answering.
"""

from __future__ import annotations

import itertools
import os
import secrets
import time
from collections import deque
from dataclasses import asdict, dataclass
from contextlib import contextmanager
from multiprocessing import get_context, resource_tracker
from multiprocessing.shared_memory import SharedMemory
from typing import Callable, Sequence

import numpy as np

from repro.core import packed as packed_kernel
from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import HedgeCutError
from repro.core.packed import PackedArrays, PackedEnsemble
from repro.dataprep.dataset import Dataset, Record
from repro.persistence.store import ModelStore
from repro.serving.audit import AuditedUnlearner, AuditEntry
from repro.serving.engine import CONSISTENCY_MODES

#: Header magic ("HECG") and layout version; attach fails fast on mismatch.
#: Version 2 dropped the traversal chunk size (word 10 is now unused).
MAGIC = 0x48454347
LAYOUT_VERSION = 2

#: Header word indices (int64 slots in the ``{name}-hdr`` segment).
HDR_MAGIC = 0
HDR_LAYOUT = 1
HDR_SEQLOCK = 2
HDR_GENERATION = 3
HDR_WAL_SEQ = 4
HDR_N_SLOTS = 5
HDR_ROUTE_LEN = 6
HDR_N_LEAVES = 7
HDR_N_TREES = 8
HDR_WIDTH = 9
HDR_WRITER_PID = 11
HDR_N_PUBLISHES = 12
HDR_SIZE = 16

_HDR_BYTES = HDR_SIZE * 8


class TornReadError(HedgeCutError):
    """A reader exhausted its seqlock retry bound (writer died mid-publish,
    or the publish rate is pathologically higher than the read rate)."""


class ReaderCrashedError(HedgeCutError):
    """A reader process died and could not be replaced within the retry
    budget of the dispatching call."""


@contextmanager
def _tracker_silenced():
    """Opt shared-memory segments out of the stdlib resource tracker.

    The stdlib registers every ``SharedMemory`` -- including pure attaches
    -- with a per-process-tree resource tracker, which unlinks "leaked"
    segments when the tree exits: killing one reader would tear down the
    segments the rest of the fleet still serves from. A serving fleet owns
    segment lifetime explicitly (the writer unlinks on close / reclaim),
    so every create/attach/unlink in this module runs with the tracker's
    shared-memory hooks no-opped (Python 3.13 gained ``track=False`` for
    exactly this; earlier versions require the patch).
    """
    original_register = resource_tracker.register
    original_unregister = resource_tracker.unregister

    def register(name, rtype):  # pragma: no cover - trivial shims
        if rtype != "shared_memory":
            original_register(name, rtype)

    def unregister(name, rtype):  # pragma: no cover
        if rtype != "shared_memory":
            original_unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister
    try:
        yield
    finally:
        resource_tracker.register = original_register
        resource_tracker.unregister = original_unregister


def _create_segment(name: str, size: int) -> SharedMemory:
    """Create a named segment, reclaiming an orphan left by a dead writer."""
    with _tracker_silenced():
        try:
            return SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            stale = SharedMemory(name=name)
            stale.close()
            stale.unlink()
            return SharedMemory(name=name, create=True, size=size)


def _attach_segment(name: str) -> SharedMemory:
    with _tracker_silenced():
        return SharedMemory(name=name)


def _unlink_segment(segment: SharedMemory) -> None:
    with _tracker_silenced():
        try:
            segment.unlink()
        except FileNotFoundError:  # already reclaimed by a successor
            pass


@dataclass(frozen=True)
class _DataLayout:
    """Byte offsets of the seven arrays inside one data segment."""

    n_slots: int
    route_len: int
    n_leaves: int
    n_trees: int

    @property
    def offsets(self) -> dict[str, tuple[int, int, np.dtype]]:
        """``array name -> (byte offset, length, dtype)``, int64s first."""
        cursor = 0
        table: dict[str, tuple[int, int, np.dtype]] = {}
        for name, length in (
            ("feature", self.n_slots),
            ("payload", self.n_slots),
            ("right", self.n_slots),
            ("tree_roots", self.n_trees),
            ("leaf_n", self.n_leaves),
            ("leaf_n_plus", self.n_leaves),
        ):
            table[name] = (cursor, length, np.dtype(np.int64))
            cursor += length * 8
        table["route_flat"] = (cursor, self.route_len, np.dtype(bool))
        return table

    @property
    def total_bytes(self) -> int:
        # Zero-size shared segments are rejected by the OS; a degenerate
        # all-leaf ensemble still gets one byte of (unused) route table.
        return max(1, (3 * self.n_slots + self.n_trees + 2 * self.n_leaves) * 8
                   + self.route_len)


def _map_views(segment: SharedMemory, layout: _DataLayout, width: int) -> PackedArrays:
    """Build the :class:`PackedArrays` view over one mapped data segment.

    The result holds kernel handles on the mapping: drop it before
    closing ``segment``.
    """
    arrays = {}
    for name, (offset, length, dtype) in layout.offsets.items():
        arrays[name] = np.ndarray(
            (length,), dtype=dtype, buffer=segment.buf, offset=offset
        )
    return PackedArrays(width=width, **arrays)


#: Test-only fault hook: when set, invoked by the writer *between* the odd
#: seqlock bump and the closing even bump -- the window a crash leaves a
#: torn publish behind. Crash-recovery tests point it at SIGKILL-self.
_PUBLISH_FAULT_HOOK: Callable[[], None] | None = None


class SharedPackedEnsemble:
    """Writer side: one packed ensemble mirrored into shared memory.

    Args:
        name: base name of the segment family (``{name}-hdr``,
            ``{name}-g{generation}``); must be unique per deployment on
            the machine. Stale segments under the same name (a crashed
            predecessor) are reclaimed.
        packed: the in-process pack to mirror. The writer keeps applying
            deletions to it (the write kernel updates its leaf rows, a
            variant switch splices a span) and calls
            :meth:`publish` to make the result visible to the fleet.
        wal_seq: WAL offset already reflected in ``packed``.
    """

    def __init__(self, name: str, packed: PackedEnsemble, wal_seq: int = 0) -> None:
        self.name = name
        self._header_shm = _create_segment(f"{name}-hdr", _HDR_BYTES)
        self._header = np.ndarray(
            (HDR_SIZE,), dtype=np.int64, buffer=self._header_shm.buf
        )
        self._header[:] = 0
        self._header[HDR_MAGIC] = MAGIC
        self._header[HDR_LAYOUT] = LAYOUT_VERSION
        self._header[HDR_WRITER_PID] = os.getpid()
        self._generation = -1
        self._data_shm: SharedMemory | None = None
        self.views: PackedArrays | None = None
        self._epoch = None
        self._closed = False
        #: Span-delta accounting: cumulative bytes memcpy'd by span
        #: publishes, the last span publish's bytes, how many ran, and the
        #: structural bytes a full generation copy would have rewritten
        #: (the denominator of the >= 10x reduction bar in bench_serving).
        self.structural_bytes_published = 0
        self.last_structural_bytes = 0
        self.span_publishes = 0
        self.generation_structural_bytes = 0
        self._publish_structure(packed, wal_seq)

    # ------------------------------------------------------------------ #
    # seqlock primitives
    # ------------------------------------------------------------------ #

    def _begin(self) -> None:
        self._header[HDR_SEQLOCK] += 1  # odd: write in progress

    def _commit(self) -> None:
        if _PUBLISH_FAULT_HOOK is not None:
            _PUBLISH_FAULT_HOOK()
        self._header[HDR_SEQLOCK] += 1  # even: stable
        self._header[HDR_N_PUBLISHES] += 1

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #

    @property
    def wal_seq(self) -> int:
        return int(self._header[HDR_WAL_SEQ])

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def n_publishes(self) -> int:
        return int(self._header[HDR_N_PUBLISHES])

    def publish(self, packed: PackedEnsemble, wal_seq: int) -> str:
        """Make the pack's current state visible to the reader fleet.

        Chooses the cheapest sufficient publish:

        * ``"leaves"`` -- epoch unchanged, no splices pending: only the two
          leaf arrays are rewritten in place under the seqlock (the common
          case, leaf decrements only).
        * ``"spans"`` -- epoch unchanged but variant switches spliced
          reserved spans since the last publish: the touched slot and
          route ranges are memcpy'd in place under the seqlock (plus the
          leaf arrays), **no** new generation segment -- geometry is fixed,
          so readers keep their mappings and at most retry a torn read.
        * ``"structure"`` -- the pack's structural epoch changed (rebuild,
          snapshot restore): full copy into a fresh generation segment.
        """
        if packed.epoch != self._epoch:
            self._publish_structure(packed, wal_seq)
            return "structure"
        assert self.views is not None
        if packed.has_dirty_spans:
            slot_ranges, route_ranges = packed.drain_dirty_spans()
            views = self.views
            span_bytes = 0
            self._begin()
            for lo, hi in slot_ranges:
                views.feature[lo:hi] = packed.feature[lo:hi]
                views.payload[lo:hi] = packed.payload[lo:hi]
                views.right[lo:hi] = packed.right[lo:hi]
                span_bytes += (hi - lo) * 8 * 3
            for lo, hi in route_ranges:
                views.route_flat[lo:hi] = packed.route_flat[lo:hi]
                span_bytes += hi - lo
            views.leaf_n[:] = packed.leaf_n
            views.leaf_n_plus[:] = packed.leaf_n_plus
            self._header[HDR_WAL_SEQ] = wal_seq
            self._commit()
            self.structural_bytes_published += span_bytes
            self.last_structural_bytes = span_bytes
            self.span_publishes += 1
            return "spans"
        self._begin()
        self.views.leaf_n[:] = packed.leaf_n
        self.views.leaf_n_plus[:] = packed.leaf_n_plus
        self._header[HDR_WAL_SEQ] = wal_seq
        self._commit()
        return "leaves"

    def _publish_structure(self, packed: PackedEnsemble, wal_seq: int) -> None:
        # Any pending span deltas are superseded by the full copy.
        packed.drain_dirty_spans()
        source = packed.arrays()
        layout = _DataLayout(
            n_slots=int(source.feature.shape[0]),
            route_len=int(source.route_flat.shape[0]),
            n_leaves=int(source.leaf_n.shape[0]),
            n_trees=int(source.tree_roots.shape[0]),
        )
        generation = self._generation + 1
        segment = _create_segment(
            f"{self.name}-g{generation}", layout.total_bytes
        )
        views = _map_views(segment, layout, packed.width)
        views.feature[:] = source.feature
        views.payload[:] = source.payload
        views.right[:] = source.right
        views.tree_roots[:] = source.tree_roots
        views.leaf_n[:] = source.leaf_n
        views.leaf_n_plus[:] = source.leaf_n_plus
        views.route_flat[:] = source.route_flat

        self._begin()
        self._header[HDR_N_SLOTS] = layout.n_slots
        self._header[HDR_ROUTE_LEN] = layout.route_len
        self._header[HDR_N_LEAVES] = layout.n_leaves
        self._header[HDR_N_TREES] = layout.n_trees
        self._header[HDR_WIDTH] = packed.width
        self._header[HDR_GENERATION] = generation
        self._header[HDR_WAL_SEQ] = wal_seq
        self._commit()

        old = self._data_shm
        self._data_shm = segment
        self.views = views
        self._generation = generation
        self._epoch = packed.epoch
        # What a generation copy rewrites structurally (leaf arrays
        # excluded: span publishes copy those too, so they cancel out of
        # the span-vs-generation comparison).
        self.generation_structural_bytes = (
            3 * layout.n_slots + layout.n_trees
        ) * 8 + layout.route_len
        if old is not None:
            # Readers still traversing the previous generation keep their
            # private mappings alive; unlinking only removes the name.
            old.close()
            _unlink_segment(old)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self, unlink: bool = True) -> None:
        """Detach (and by default unlink) every owned segment."""
        if self._closed:
            return
        self._closed = True
        # Drop every numpy view before closing: views export the mapped
        # buffer, and mmap refuses to close while exports exist.
        self.views = None
        self._header = None
        for segment in (self._data_shm, self._header_shm):
            if segment is None:
                continue
            segment.close()
            if unlink:
                _unlink_segment(segment)
        self._data_shm = None

    def __enter__(self) -> "SharedPackedEnsemble":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class ReaderStats:
    """Accounting of one attached reader (seqlock behaviour included)."""

    n_reads: int = 0
    seqlock_retries: int = 0
    generation_switches: int = 0
    wal_waits: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class SharedEnsembleReader:
    """Reader side: attach by name, serve predictions from the mapped pack.

    The reader is synchronous and lock-free: every request runs against
    the current generation's views and is validated by re-reading the
    seqlock. It can live in any process -- the fleet spawns one per
    reader process, tests attach one in-process.

    Args:
        name: the writer's base segment name.
        max_retries: seqlock retry bound per request; exceeding it raises
            :class:`TornReadError`.
        retry_wait_s: sleep between retries (keeps a spinning reader off
            the writer's core).
        wal_timeout_s: bound on waiting for a required WAL offset to be
            published (strong / read-your-deletes barriers).
    """

    def __init__(
        self,
        name: str,
        max_retries: int = 400,
        retry_wait_s: float = 2.5e-4,
        wal_timeout_s: float = 10.0,
    ) -> None:
        self.name = name
        self.max_retries = max_retries
        self.retry_wait_s = retry_wait_s
        self.wal_timeout_s = wal_timeout_s
        self._header_shm = _attach_segment(f"{name}-hdr")
        self._header = np.ndarray(
            (HDR_SIZE,), dtype=np.int64, buffer=self._header_shm.buf
        )
        if int(self._header[HDR_MAGIC]) != MAGIC:
            raise HedgeCutError(
                f"segment {name!r} does not carry a packed-ensemble header"
            )
        if int(self._header[HDR_LAYOUT]) != LAYOUT_VERSION:
            raise HedgeCutError(
                f"segment {name!r} uses layout "
                f"{int(self._header[HDR_LAYOUT])}, reader expects {LAYOUT_VERSION}"
            )
        self._generation = -1
        self._data_shm: SharedMemory | None = None
        self._views: PackedArrays | None = None
        self.stats = ReaderStats()

    # ------------------------------------------------------------------ #
    # attachment
    # ------------------------------------------------------------------ #

    @property
    def wal_seq(self) -> int:
        """The published WAL offset (how fresh the shared state is)."""
        return int(self._header[HDR_WAL_SEQ])

    @property
    def generation(self) -> int:
        return self._generation

    def _attach_generation(self, generation: int) -> None:
        layout = _DataLayout(
            n_slots=int(self._header[HDR_N_SLOTS]),
            route_len=int(self._header[HDR_ROUTE_LEN]),
            n_leaves=int(self._header[HDR_N_LEAVES]),
            n_trees=int(self._header[HDR_N_TREES]),
        )
        segment = _attach_segment(f"{self.name}-g{generation}")
        views = _map_views(segment, layout, int(self._header[HDR_WIDTH]))
        if self._data_shm is not None:
            # Release the old views first: they export the old mapping's
            # buffer, and mmap refuses to close while exports exist.
            self._views = None
            self._data_shm.close()
        self._data_shm = segment
        self._views = views
        self._generation = generation
        self.stats.generation_switches += 1

    # ------------------------------------------------------------------ #
    # consistent reads
    # ------------------------------------------------------------------ #

    def _consistent(self, operation: Callable[[PackedArrays], np.ndarray]):
        """Run one optimistic read under the seqlock, retrying torn reads."""
        header = self._header
        retries = 0
        while True:
            version = int(header[HDR_SEQLOCK])
            if version % 2 == 0:
                generation = int(header[HDR_GENERATION])
                try:
                    if generation != self._generation:
                        self._attach_generation(generation)
                    assert self._views is not None
                    result = operation(self._views)
                    if (
                        int(header[HDR_SEQLOCK]) == version
                        and int(header[HDR_GENERATION]) == generation
                    ):
                        self.stats.n_reads += 1
                        self.stats.seqlock_retries += retries
                        return result
                except (FileNotFoundError, ValueError, TypeError):
                    # Torn structural view: the generation advanced (or its
                    # sizes changed) between our header reads and the
                    # attach. Retry re-reads a consistent pair.
                    self._generation = -1
                except (IndexError, packed_kernel.TornTraversalError):
                    # Torn *span* view: a concurrent in-place splice mixed
                    # old and new span contents under our feet, and the
                    # kernel tripped its slot budget or an index check.
                    # A torn read always moves the seqlock, so retry. If
                    # it did not move, the arrays were consistent and the
                    # request itself is out of range (a negative code, too
                    # few columns): surface that instead of retrying.
                    if (
                        int(header[HDR_SEQLOCK]) == version
                        and int(header[HDR_GENERATION]) == generation
                    ):
                        raise
            retries += 1
            if retries > self.max_retries:
                raise TornReadError(
                    f"read of {self.name!r} torn {retries} times "
                    f"(seqlock={int(header[HDR_SEQLOCK])}); writer dead "
                    f"mid-publish?"
                )
            time.sleep(self.retry_wait_s)

    def wait_for_wal(self, min_seq: int) -> None:
        """Block until the published WAL offset reaches ``min_seq``.

        This is the consistency barrier: the engine stamps requests with
        the offset the reader must observe. Under ``strong`` /
        ``read_your_deletes`` the writer publishes before the request is
        dispatched, so the fast path is a single header load.
        """
        if int(self._header[HDR_WAL_SEQ]) >= min_seq:
            return
        self.stats.wal_waits += 1
        deadline = time.monotonic() + self.wal_timeout_s
        while int(self._header[HDR_WAL_SEQ]) < min_seq:
            if time.monotonic() > deadline:
                raise TornReadError(
                    f"reader of {self.name!r} waited {self.wal_timeout_s}s "
                    f"for WAL offset {min_seq}, header is at "
                    f"{int(self._header[HDR_WAL_SEQ])} (writer stalled?)"
                )
            time.sleep(self.retry_wait_s)

    # ------------------------------------------------------------------ #
    # prediction API (bit-identical to the in-process pack)
    # ------------------------------------------------------------------ #

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        return self._consistent(
            lambda arrays: packed_kernel.predict_rows(arrays, values)
        )

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        return self._consistent(
            lambda arrays: packed_kernel.predict_votes_rows(arrays, values)
        )

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        return self._consistent(
            lambda arrays: packed_kernel.predict_proba_rows(arrays, values)
        )

    def close(self) -> None:
        self._views = None
        self._header = None
        if self._data_shm is not None:
            self._data_shm.close()
            self._data_shm = None
        self._header_shm.close()

    def __enter__(self) -> "SharedEnsembleReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# reader worker process
# ---------------------------------------------------------------------- #

_OPS = {
    "rows": SharedEnsembleReader.predict_rows,
    "votes": SharedEnsembleReader.predict_votes_rows,
    "proba": SharedEnsembleReader.predict_proba_rows,
}


def _reader_main(name: str, conn, inherited=()) -> None:
    """Entry point of one reader process: attach, answer until told to stop.

    Wire protocol (tuples over the duplex pipe)::

        ("rows"|"votes"|"proba", matrix, min_seq)  -> ("ok", ndarray)
        ("eval_" + kind, start, stop, min_seq)     -> ("ok", ndarray)
        ("load_eval", matrix)                      -> ("ok", n_rows)
        ("stats",)                                 -> ("ok", dict)
        ("stop",)                                  -> exits

    ``load_eval`` ships a static evaluation matrix once; subsequent
    ``eval_*`` requests reference row ranges of it, so steady-state
    request payloads are three integers -- the serving analogue of
    replaying a recorded traffic log without re-shipping the rows.

    ``inherited`` holds the engine-side pipe ends a forked reader got
    copies of, its own and its siblings'. They are closed first: while any
    process holds a copy of this reader's engine end, ``conn.recv()``
    never sees EOF, and a reader whose writer was killed would live on.
    """
    for engine_end in inherited:
        engine_end.close()
    reader = SharedEnsembleReader(name)
    eval_matrix: np.ndarray | None = None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):  # engine died; nothing left to serve
                break
            op = message[0]
            if op == "stop":
                conn.send(("ok", None))
                break
            try:
                if op == "load_eval":
                    eval_matrix = np.asarray(message[1], dtype=np.int64)
                    reply = int(eval_matrix.shape[0])
                elif op == "stats":
                    payload = reader.stats.as_dict()
                    payload["pid"] = os.getpid()
                    payload["generation"] = reader.generation
                    payload["wal_seq"] = reader.wal_seq
                    reply = payload
                elif op in _OPS:
                    _, matrix, min_seq = message
                    reader.wait_for_wal(min_seq)
                    reply = _OPS[op](reader, matrix)
                elif op.startswith("eval_") and op[5:] in _OPS:
                    _, start, stop, min_seq = message
                    if eval_matrix is None:
                        raise HedgeCutError("no eval matrix loaded")
                    reader.wait_for_wal(min_seq)
                    reply = _OPS[op[5:]](reader, eval_matrix[start:stop])
                else:
                    raise HedgeCutError(f"unknown reader op {op!r}")
            except Exception as error:  # surfaced to the engine, not fatal
                conn.send(("error", f"{type(error).__name__}: {error}"))
            else:
                conn.send(("ok", reply))
    finally:
        reader.close()
        conn.close()


class PendingFleetResult:
    """Handle for one pipelined fleet request (see ``submit_eval``)."""

    __slots__ = ("_engine", "_reader_index", "_value", "_done")

    def __init__(self, engine: "ShmReplicatedServingEngine", reader_index: int):
        self._engine = engine
        self._reader_index = reader_index
        self._value = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    def result(self):
        """The reader's answer; drains its pipe in FIFO order if pending.

        Raises the reader-side error (or :class:`ReaderCrashedError`)
        instead of returning it."""
        while not self._done:
            self._engine._drain_one(self._reader_index)
        if isinstance(self._value, Exception):
            raise self._value
        return self._value


class _FleetReader:
    """One reader process plus its pipe and FIFO of pipelined requests."""

    __slots__ = ("process", "conn", "pending")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.pending: deque[PendingFleetResult] = deque()


class ShmReplicatedServingEngine:
    """Durable serving from one shared-memory pack and ``N`` reader processes.

    The drop-in multi-process successor of
    :class:`~repro.serving.engine.ReplicatedServingEngine`: the same
    serving surface (``predict*`` / ``unlearn*`` / audit / snapshot /
    recover), the same WAL-before-apply durability protocol, the same
    three consistency modes -- but reads execute in separate OS processes
    against **one** copy of the model, so prediction throughput scales
    with cores instead of fighting the writer for one GIL.

    Consistency modes map onto *when the writer publishes* to the header:

    * ``"strong"`` -- publish before the deletion is acknowledged; every
      subsequent read everywhere observes it.
    * ``"read_your_deletes"`` -- publish lazily, immediately before the
      next read is dispatched; per-deletion work is O(1) and a burst of
      deletions coalesces into one publish.
    * ``"eventual"`` -- publish on :meth:`sync` / :meth:`snapshot` only;
      reads may observe stale leaf counts until then (lag visible via
      :meth:`staleness`).

    Args:
        model: fitted primary model; deletions mutate it in-process
            (writer role) and are then published.
        store: durable store providing WAL + snapshots.
        n_readers: reader processes to spawn (>= 1).
        consistency: one of :data:`~repro.serving.engine.CONSISTENCY_MODES`.
        applied_seq: WAL offset already reflected in ``model``.
        shard_id: owning shard in a sharded deployment (audit tagging).
        segment_name: base shared-memory name; defaults to a unique name.
        start_method: multiprocessing start method for the readers
            (``"fork"`` default: cheapest, and proves readers need no
            inherited state beyond the segment name -- attach is by name).
    """

    def __init__(
        self,
        model: HedgeCutClassifier,
        store: ModelStore,
        n_readers: int = 2,
        consistency: str = "strong",
        applied_seq: int | None = None,
        shard_id: int | None = None,
        segment_name: str | None = None,
        start_method: str = "fork",
    ) -> None:
        if n_readers < 1:
            raise ValueError("n_readers must be >= 1")
        if consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_MODES}, got {consistency!r}"
            )
        if applied_seq is None:
            applied_seq = store.wal.last_seq
        self.store = store
        self.consistency = consistency
        self.shard_id = shard_id
        # Warm both packs before the first publish: every write then
        # takes the native write kernel, and the pack we mirror is final.
        model.packed.unlearn_pack()
        self._model = model
        self.segment_name = segment_name or (
            f"hc-{os.getpid():x}-{secrets.token_hex(4)}"
        )
        self._shared = SharedPackedEnsemble(
            self.segment_name, model.packed, wal_seq=applied_seq
        )
        self._applied_seq = applied_seq
        self._published_seq = applied_seq
        self._needs_publish = False
        self._audited = AuditedUnlearner(model=model, wal=store.wal, shard_id=shard_id)
        self._ctx = get_context(start_method)
        self._readers: list[_FleetReader] = []
        for _ in range(n_readers):
            self._readers.append(self._spawn_reader())
        self._cursor = itertools.cycle(range(n_readers))
        self.reader_respawns = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def recover(
        cls,
        store: ModelStore,
        n_readers: int = 2,
        consistency: str = "strong",
        shard_id: int | None = None,
        segment_name: str | None = None,
    ) -> "ShmReplicatedServingEngine":
        """Restart after a crash: snapshot + WAL replay, then re-materialise
        the shared segments (reclaiming any orphans) and respawn the fleet."""
        recovered = store.recover()
        return cls(
            model=recovered.model,
            store=store,
            n_readers=n_readers,
            consistency=consistency,
            applied_seq=recovered.wal_seq,
            shard_id=shard_id,
            segment_name=segment_name,
        )

    # ------------------------------------------------------------------ #
    # fleet plumbing
    # ------------------------------------------------------------------ #

    def _spawn_reader(self) -> _FleetReader:
        parent_conn, child_conn = self._ctx.Pipe()
        inherited = []
        if self._ctx.get_start_method() == "fork":
            inherited = [parent_conn] + [
                reader.conn for reader in self._readers if not reader.conn.closed
            ]
        process = self._ctx.Process(
            target=_reader_main,
            args=(self.segment_name, child_conn, inherited),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _FleetReader(process, parent_conn)

    @property
    def n_readers(self) -> int:
        return len(self._readers)

    @property
    def primary(self) -> HedgeCutClassifier:
        return self._model

    @property
    def durable_seq(self) -> int:
        return self.store.wal.last_seq

    @property
    def published_seq(self) -> int:
        """WAL offset the reader fleet currently observes in the header."""
        return self._published_seq

    def staleness(self) -> list[int]:
        """Per-reader lag: durable deletions not yet published to the fleet.

        Readers share one published header, so every entry is the same
        number; the list shape matches ``ReplicatedServingEngine``.
        """
        lag = self.durable_seq - self._published_seq
        return [lag] * self.n_readers

    def reader_stats(self) -> list[dict]:
        """Live stats (reads, seqlock retries, pid) from every reader."""
        return [
            self._request(index, ("stats",)) for index in range(self.n_readers)
        ]

    def _respawn(self, index: int) -> None:
        dead = self._readers[index]
        try:
            dead.conn.close()
        except OSError:  # pragma: no cover
            pass
        if dead.process.is_alive():  # pragma: no cover - defensive
            dead.process.terminate()
        dead.process.join(timeout=5)
        for pending in dead.pending:  # pipelined requests died with it
            pending._done = True
            pending._value = ReaderCrashedError("reader died mid-pipeline")
        dead.pending.clear()
        self._readers[index] = self._spawn_reader()
        self.reader_respawns += 1

    def _request(self, index: int, message: tuple, timeout_s: float = 60.0):
        """One synchronous round-trip to a reader, respawning a dead one.

        Readers are stateless (attach by name), so crash recovery is
        simply: respawn, re-send. Requests already pipelined to the dead
        reader resolve to :class:`ReaderCrashedError`.
        """
        for attempt in range(3):
            reader = self._readers[index]
            try:
                reader.conn.send(message)
                deadline = time.monotonic() + timeout_s
                while not reader.conn.poll(0.02):
                    if not reader.process.is_alive():
                        raise EOFError("reader process died")
                    if time.monotonic() > deadline:
                        raise HedgeCutError(
                            f"reader {index} did not answer within {timeout_s}s"
                        )
                status, payload = reader.conn.recv()
            except (BrokenPipeError, EOFError, ConnectionResetError, OSError):
                self._respawn(index)
                continue
            if status == "error":
                raise HedgeCutError(payload)
            return payload
        raise ReaderCrashedError(
            f"reader {index} kept dying; gave up after 3 spawns"
        )

    # ------------------------------------------------------------------ #
    # publishing / consistency
    # ------------------------------------------------------------------ #

    def _publish_pending(self) -> None:
        if not self._needs_publish:
            return
        self._shared.publish(self._model.packed, self._applied_seq)
        self._published_seq = self._applied_seq
        self._needs_publish = False

    def sync(self) -> None:
        """Publish everything applied so far (eventual mode's flush)."""
        self._publish_pending()

    def _barrier_seq(self) -> int:
        """The WAL offset a read must observe, publishing lazily if due."""
        if self.consistency == "eventual":
            return 0
        self._publish_pending()
        return self._published_seq

    # ------------------------------------------------------------------ #
    # serving API (same surface as ReplicatedServingEngine)
    # ------------------------------------------------------------------ #

    @staticmethod
    def _as_row_matrix(record: Record | Sequence[int] | np.ndarray) -> np.ndarray:
        values = record.values if isinstance(record, Record) else record
        return np.asarray(values, dtype=np.int64).reshape(1, -1)

    def predict(self, record: Record | Sequence[int] | np.ndarray) -> int:
        """One prediction from the next reader (single-row fast path)."""
        return int(self.predict_rows(self._as_row_matrix(record))[0])

    def predict_proba(self, record: Record | Sequence[int] | np.ndarray) -> float:
        return float(self.predict_proba_rows(self._as_row_matrix(record))[0])

    def _dispatch_rows(self, kind: str, values: np.ndarray) -> np.ndarray:
        matrix = np.asarray(values, dtype=np.int64)
        min_seq = self._barrier_seq()
        return self._request(next(self._cursor), (kind, matrix, min_seq))

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """One micro-batch answered by the next reader process (round-robin)."""
        return self._dispatch_rows("rows", values)

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        return self._dispatch_rows("votes", values)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        return self._dispatch_rows("proba", values)

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        return self.predict_rows(dataset.feature_matrix())

    def predict_proba_batch(self, dataset: Dataset) -> np.ndarray:
        return self.predict_proba_rows(dataset.feature_matrix())

    # ------------------------------------------------------------------ #
    # pipelined serving (saturating the fleet)
    # ------------------------------------------------------------------ #

    def broadcast_eval_matrix(self, matrix: np.ndarray) -> None:
        """Ship a static evaluation matrix to every reader once.

        Subsequent :meth:`submit_eval` requests reference row ranges of
        it, so the steady-state request payload is three integers -- the
        shape the throughput benchmark drives the fleet with.
        """
        payload = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
        for index in range(self.n_readers):
            self._request(index, ("load_eval", payload))

    def submit_eval(
        self, kind: str, start: int, stop: int
    ) -> PendingFleetResult:
        """Queue one row-range request on the next reader without waiting.

        Returns a handle; resolving it drains that reader's pipe in FIFO
        order. Pipelining keeps every reader busy back-to-back, which is
        what lets ``N`` readers on ``N`` cores approach ``N``x aggregate
        throughput.
        """
        if kind not in _OPS:
            raise ValueError(f"kind must be one of {sorted(_OPS)}, got {kind!r}")
        min_seq = self._barrier_seq()
        index = next(self._cursor)
        reader = self._readers[index]
        handle = PendingFleetResult(self, index)
        reader.conn.send((f"eval_{kind}", start, stop, min_seq))
        reader.pending.append(handle)
        return handle

    def _drain_one(self, index: int) -> None:
        reader = self._readers[index]
        if not reader.pending:
            raise HedgeCutError("no pipelined request pending on this reader")
        try:
            status, payload = reader.conn.recv()
        except (EOFError, OSError):
            self._respawn(index)
            return  # pending handles were resolved to ReaderCrashedError
        handle = reader.pending.popleft()
        handle._done = True
        if status == "error":
            handle._value = HedgeCutError(payload)
        else:
            handle._value = payload

    # ------------------------------------------------------------------ #
    # unlearning (writer role)
    # ------------------------------------------------------------------ #

    def unlearn(
        self, request_id: str, record: Record, allow_budget_overrun: bool = False
    ) -> AuditEntry:
        """Serve one deletion durably: WAL append -> apply -> publish.

        The WAL append is the durability point (a crash afterwards cannot
        lose the request); the in-process apply is the same scalar fast
        path as today; the publish follows the consistency mode. Readers
        keep serving throughout -- the seqlock never blocks them.
        """
        entry = self._audited.unlearn(
            request_id, record, allow_budget_overrun=allow_budget_overrun
        )
        if entry.log_offset is not None:
            self._applied_seq = entry.log_offset
            self._needs_publish = True
        if self.consistency == "strong":
            self._publish_pending()
        return entry

    def unlearn_batch(
        self,
        request_id: str,
        records: list[Record],
        allow_budget_overrun: bool = False,
        record_request_ids: list[str] | None = None,
    ) -> AuditEntry:
        """Serve one group-committed deletion batch (one WAL frame, one
        kernel pass, at most one publish)."""
        entry = self._audited.unlearn_batch(
            request_id,
            records,
            allow_budget_overrun=allow_budget_overrun,
            record_request_ids=record_request_ids,
        )
        if entry.log_offset is not None:
            self._applied_seq = entry.log_offset + len(records) - 1
            self._needs_publish = True
        if self.consistency == "strong":
            self._publish_pending()
        return entry

    # ------------------------------------------------------------------ #
    # audit and durability
    # ------------------------------------------------------------------ #

    @property
    def audit_entries(self) -> list[AuditEntry]:
        return self._audited.entries

    def evidence_for(self, request_id: str) -> AuditEntry:
        return self._audited.evidence_for(request_id)

    def write_audit_log(self, path) -> None:
        self._audited.write_log(path)

    def snapshot(self):
        """Publish, persist the primary's state, compact the WAL."""
        self._publish_pending()
        return self.store.save_snapshot(self._model, wal_seq=self._applied_seq)

    def close(self) -> None:
        """Stop the fleet, unlink every segment, close the store."""
        if self._closed:
            return
        self._closed = True
        for reader in self._readers:
            try:
                reader.conn.send(("stop",))
                if reader.conn.poll(2.0):
                    reader.conn.recv()
            except (BrokenPipeError, OSError):
                pass
            reader.process.join(timeout=2)
            if reader.process.is_alive():  # pragma: no cover - defensive
                reader.process.terminate()
                reader.process.join(timeout=2)
            try:
                reader.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._shared.close(unlink=True)
        self.store.close()

    def __enter__(self) -> "ShmReplicatedServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
