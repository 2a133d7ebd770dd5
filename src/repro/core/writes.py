"""The native write path: one count store and one C routine for every write.

:class:`UnlearnPack` flattens every node of every tree -- robust and
random splits, leaves and *all* maintenance variants -- into the slot
layout the C write kernel walks (``src/repro/native/write.c``), and holds
the model's one store of mutable state:

* ``stats``  -- ``(n, n_plus, n_left, n_left_plus)`` of every tracked split;
* ``leaves`` -- ``(n, n_plus)`` of every leaf;
* ``gains``  -- the gain of every maintenance variant;
* ``active`` -- the active-variant index of every maintenance node.

Building the pack *binds* the node objects to the store: each
:class:`SplitStats`, :class:`Leaf`, :class:`SubtreeVariant` and
:class:`MaintenanceNode` is switched to a pack-specific subclass whose
counts, ``gain`` or ``active_index`` are properties over its store row.
The kernel's writes are therefore what the object graph reads -- the
object oracle, snapshots, ``inspect`` and fingerprints need no
write-back -- and a write through an object (the reference walk on a
packed model) lands in the store the kernel reads. Objects that no pack
binds (training, pack-less models) stay plain; a copy or pickle of a
bound object is a plain object holding the current values.

Each write is one call of ``hc_write`` for a record (or a batch) and a
sign: -1 unlearns, +1 inserts. The kernel validates and updates the
counts, re-scores the visited maintenance nodes, mirrors active leaves
into the read pack's leaf rows, and undoes everything when a record is
rejected. It returns the maintenance nodes whose active variant changed,
which :meth:`PackedEnsemble.splice_subtree` re-emits in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.core.exceptions import UnlearningError
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, SubtreeVariant, TreeNode
from repro.core.packed import LEAF_MARKER, TornTraversalError, route_table
from repro.core.splits import SplitStats
from repro.core.unlearning import UnlearningReport
from repro.native import ffi, lib

#: Feature id of a maintenance (fan-out) slot.
FAN_MARKER = -2

_REJECTIONS = {
    lib.HC_REJECT_LEAF: (
        "unlearning would drive a leaf count negative; the record "
        "was not part of the training data routed to this leaf "
        "(or was already unlearned)"
    ),
    lib.HC_REJECT_SPLIT: (
        "unlearning would drive a split statistic negative; the "
        "record is inconsistent with the trained split"
    ),
    lib.HC_REJECT_VARIANT: (
        "unlearning would drive a split statistic negative; "
        "the record is inconsistent with a subtree variant"
    ),
}


@dataclass(frozen=True)
class BatchUnlearnResult:
    """Outcome of one write call.

    Attributes:
        report: counters equal to running the object walk record by record.
        switched_nodes: the :class:`MaintenanceNode` objects whose *final*
            active variant differs from the one before the call, for
            ``PackedEnsemble.splice_subtree``.
    """

    report: UnlearningReport
    switched_nodes: tuple = ()


# ---------------------------------------------------------------------- #
# store binding
# ---------------------------------------------------------------------- #


def _field(view: memoryview, offset: int) -> property:
    if offset:
        def get(self):
            return view[self._at + offset]

        def put(self, value):
            view[self._at + offset] = value
    else:
        def get(self):
            return view[self._at]

        def put(self, value):
            view[self._at] = value
    return property(get, put)


def _value_eq(base: type):
    """``__eq__`` by the dataclass fields of ``base``, across bound and plain.

    A bound object then equals its plain copy (``deepcopy``, unpickle)
    whenever their values agree, as two plain objects would.
    """
    names = tuple(f.name for f in fields(base) if f.compare)

    def eq(self, other):
        if not isinstance(other, base):
            return NotImplemented
        return tuple(getattr(self, name) for name in names) == tuple(
            getattr(other, name) for name in names
        )

    return eq


def _bound_classes(stats, leaves, gains, active):
    """Subclasses whose mutable fields read and write the given store."""
    stats, leaves = memoryview(stats), memoryview(leaves)
    gains, active = memoryview(gains), memoryview(active)

    class BoundSplitStats(SplitStats):
        __slots__ = ()
        n, n_plus = _field(stats, 0), _field(stats, 1)
        n_left, n_left_plus = _field(stats, 2), _field(stats, 3)
        __eq__, __hash__ = _value_eq(SplitStats), None

        def __reduce__(self):
            return SplitStats, (self.n, self.n_plus, self.n_left, self.n_left_plus)

    class BoundLeaf(Leaf):
        __slots__ = ()
        n, n_plus = _field(leaves, 0), _field(leaves, 1)
        __eq__, __hash__ = _value_eq(Leaf), None

        def __reduce__(self):
            return Leaf, (self.n, self.n_plus)

    class BoundSubtreeVariant(SubtreeVariant):
        gain = _field(gains, 0)
        __eq__, __hash__ = _value_eq(SubtreeVariant), None

        def __reduce__(self):
            return SubtreeVariant, (
                self.split, self.stats, self.left, self.right, self.gain
            )

    class BoundMaintenanceNode(MaintenanceNode):
        active_index = _field(active, 0)
        __eq__, __hash__ = _value_eq(MaintenanceNode), None

        def __reduce__(self):
            return MaintenanceNode, (self.variants, self.active_index)

    return BoundSplitStats, BoundLeaf, BoundSubtreeVariant, BoundMaintenanceNode


def _bind(objects: list, cls: type, stride: int) -> None:
    for row, obj in enumerate(objects):
        obj.__class__ = cls
        obj._at = row * stride


def _int64(values: list) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


# ---------------------------------------------------------------------- #
# the write pack
# ---------------------------------------------------------------------- #


class UnlearnPack:
    """The write-side pack of one ensemble and its count store.

    Unlike the read pack, which resolves maintenance nodes to their
    active variant, this pack keeps every variant reachable: a maintenance
    node is a ``FAN_MARKER`` slot whose payload indexes the CSR fan list
    (``fan_ptr``/``fan_slots``) of its variants' split slots; ``gains``
    is indexed like ``fan_slots``. ``leaf_read_row`` maps a store leaf to
    its row in the read pack's leaf arrays (``read_leaf_n`` /
    ``read_leaf_n_plus``), or -1 while its variant is inactive; the read
    pack updates it on every splice.

    :meth:`build` emits the pack from a model's trees and binds their
    objects to it. The constructor takes the arrays as they are (the
    corrupt-input tests feed it arbitrary ones): the kernel checks every
    index against these lengths before it reads or writes.
    """

    def __init__(
        self, *, feature, payload, right, stats_row, route_flat, width,
        tree_roots, fan_ptr, fan_slots, stats, leaves, gains, active,
        leaf_read_row, read_leaf_n, read_leaf_n_plus, mnodes=(),
    ) -> None:
        self.feature, self.payload, self.right = feature, payload, right
        self.stats_row, self.route_flat, self.width = stats_row, route_flat, int(width)
        self.tree_roots, self.fan_ptr, self.fan_slots = tree_roots, fan_ptr, fan_slots
        self.stats, self.leaves, self.gains, self.active = stats, leaves, gains, active
        self.leaf_read_row = leaf_read_row
        self.mnodes = list(mnodes)

        n_slots = min(len(feature), len(payload), len(right), len(stats_row))
        n_mnodes = min(len(fan_ptr) - 1, len(active))
        if self.mnodes and len(self.mnodes) != n_mnodes:
            raise ValueError("expected one maintenance node object per active index")
        n_fan = min(len(fan_slots), len(gains))
        self._scratch = [
            np.zeros(n_slots + 1, dtype=np.int64),  # log
            np.zeros(n_slots + 1, dtype=np.int64),  # mlog
            np.zeros(n_slots + 1, dtype=np.int64),  # stack
            np.zeros(max(0, n_mnodes), dtype=np.int64),  # seen
            np.zeros(max(0, n_mnodes), dtype=np.int64),  # touched
            np.zeros(max(0, n_mnodes), dtype=np.int64),  # saved_active
            np.zeros(max(0, n_fan), dtype=np.float64),  # saved_gains
        ]
        self._buffers = []
        c = ffi.new("hc_store *")
        c.feature, c.payload, c.right, c.stats_row = (
            self._pointer(name, array)
            for name, array in (("feature", feature), ("payload", payload),
                                ("right", right), ("stats_row", stats_row))
        )
        c.n_slots = n_slots
        c.route = self._pointer("route_flat", route_flat, kind="uint8_t[]")
        c.route_len = len(route_flat)
        c.width = self.width
        c.roots = self._pointer("tree_roots", tree_roots)
        c.n_trees = len(tree_roots)
        c.fan_ptr = self._pointer("fan_ptr", fan_ptr)
        c.fan_slots = self._pointer("fan_slots", fan_slots)
        c.n_fan = n_fan
        c.n_mnodes = n_mnodes
        c.stats = self._pointer("stats", stats, writable=True)
        c.n_stats = len(stats) // 4
        c.leaves = self._pointer("leaves", leaves, writable=True)
        c.n_leaves = min(len(leaves) // 2, len(leaf_read_row))
        c.gains = self._pointer("gains", gains, kind="double[]", writable=True)
        c.active = self._pointer("active", active, writable=True)
        c.leaf_read_row = self._pointer("leaf_read_row", leaf_read_row)
        c.read_n = self._pointer("read_leaf_n", read_leaf_n, writable=True)
        c.read_n_plus = self._pointer("read_leaf_n_plus", read_leaf_n_plus, writable=True)
        c.n_read = min(len(read_leaf_n), len(read_leaf_n_plus))
        (c.log, c.mlog, c.stack, c.seen, c.touched, c.saved_active,
         c.saved_gains) = (
            self._pointer("scratch", array, kind=kind, writable=True)
            for array, kind in zip(self._scratch, ["int64_t[]"] * 6 + ["double[]"])
        )
        c.scratch_len = n_slots + 1
        self._store = c
        self._report = ffi.new("int64_t[7]")
        self._switched = ffi.new("int64_t[]", max(1, n_mnodes))

    _DTYPES = {"int64_t[]": np.int64, "double[]": np.float64, "uint8_t[]": np.bool_}

    def _pointer(self, name, array, kind="int64_t[]", writable=False):
        if (
            not isinstance(array, np.ndarray)
            or array.dtype != self._DTYPES[kind]
            or array.ndim != 1
            or not array.flags.c_contiguous
        ):
            raise TypeError(f"{name} must be a contiguous 1-D {self._DTYPES[kind].__name__} array")
        handle = ffi.from_buffer(kind, array, require_writable=writable)
        self._buffers.append(handle)
        return handle

    @classmethod
    def build(
        cls,
        roots: list[TreeNode],
        width: int,
        read_leaf_n: np.ndarray,
        read_leaf_n_plus: np.ndarray,
    ) -> "UnlearnPack":
        """Emit the write pack of a model's trees and bind their objects.

        Slots are emitted breadth first, one tree after another: a slot's
        index is its position in ``queue``, so a split's two children get
        adjacent slots (the kernel's left child is ``right - 1``) and every
        column only grows. A maintenance node's variants are queued as
        split slots of their own, listed in its fan.
        """
        feature: list[int] = []
        payload: list[int] = []
        right: list[int] = []
        stats_row: list[int] = []
        splits: list = []
        stats_objects: list[SplitStats] = []
        counts: list[int] = []
        leaf_objects: list[Leaf] = []
        leaf_counts: list[int] = []
        variants: list[SubtreeVariant] = []
        mnodes: list[MaintenanceNode] = []
        fan_ptr: list[int] = [0]
        fan_slots: list[int] = []
        tree_roots: list[int] = []
        queue: list = []
        for root in roots:
            tree_roots.append(len(queue))
            queue.append(root)
            slot = tree_roots[-1]
            while slot < len(queue):
                node = queue[slot]
                slot += 1
                if isinstance(node, Leaf):
                    feature.append(LEAF_MARKER)
                    payload.append(len(leaf_objects))
                    right.append(0)
                    stats_row.append(-1)
                    leaf_objects.append(node)
                    leaf_counts += (node.n, node.n_plus)
                    continue
                if isinstance(node, MaintenanceNode):
                    feature.append(FAN_MARKER)
                    payload.append(len(mnodes))
                    right.append(0)
                    stats_row.append(-1)
                    mnodes.append(node)
                    for variant in node.variants:
                        fan_slots.append(len(queue))
                        queue.append(variant)
                    variants += node.variants
                    fan_ptr.append(len(fan_slots))
                    continue
                # A robust or random split, or a variant's root split.
                split = node.split
                feature.append(split.feature)
                payload.append(len(splits) * width)
                splits.append(split)
                right.append(len(queue) + 1)
                queue.append(node.left)
                queue.append(node.right)
                if isinstance(node, SplitNode) and node.random:
                    stats_row.append(-1)
                else:
                    stats = node.stats
                    stats_row.append(len(stats_objects))
                    stats_objects.append(stats)
                    counts += (stats.n, stats.n_plus, stats.n_left, stats.n_left_plus)

        # The store is gathered from the objects before they are bound.
        pack = cls(
            feature=_int64(feature),
            payload=_int64(payload),
            right=_int64(right),
            stats_row=_int64(stats_row),
            route_flat=route_table(splits, width).reshape(-1),
            width=width,
            tree_roots=_int64(tree_roots),
            fan_ptr=_int64(fan_ptr),
            fan_slots=_int64(fan_slots),
            stats=_int64(counts),
            leaves=_int64(leaf_counts),
            gains=np.asarray([v.gain for v in variants], dtype=np.float64),
            active=_int64([node.active_index for node in mnodes]),
            leaf_read_row=np.full(len(leaf_objects), -1, dtype=np.int64),
            read_leaf_n=read_leaf_n,
            read_leaf_n_plus=read_leaf_n_plus,
            mnodes=mnodes,
        )
        bound = _bound_classes(pack.stats, pack.leaves, pack.gains, pack.active)
        _bind(stats_objects, bound[0], 4)
        _bind(leaf_objects, bound[1], 2)
        _bind(variants, bound[2], 1)
        _bind(mnodes, bound[3], 1)
        return pack

    def write(self, values, labels, n_records: int, n_features: int, sign: int):
        """One ``hc_write`` call; see :func:`unlearn_batch_packed`.

        ``values`` is a flat row-major code sequence and ``labels`` one
        label per record (tuples, lists or cffi int64 buffers).
        """
        if (
            n_records < 0
            or n_features < 0
            or len(values) != n_records * n_features
            or len(labels) != n_records
        ):
            raise ValueError("expected n_records * n_features codes and n_records labels")
        status = lib.hc_write(
            self._store, values, labels, n_records, n_features, sign,
            self._report, self._switched,
        )
        if status != lib.HC_OK:
            if status in _REJECTIONS:
                raise UnlearningError(_REJECTIONS[status])
            if status == lib.HC_TORN:
                raise TornTraversalError("write walk exceeded the slot budget")
            raise IndexError("write walk read an index outside its array")
        leaves, robust, visited, switches, random, n_switched, _ = ffi.unpack(
            self._report, 7
        )
        report = UnlearningReport(
            leaves_updated=leaves,
            robust_nodes_visited=robust,
            maintenance_nodes_visited=visited,
            variant_switches=switches,
            random_nodes_visited=random,
        )
        # A pack built from bare arrays has no node objects to splice.
        if not n_switched or not self.mnodes:
            return BatchUnlearnResult(report=report)
        return BatchUnlearnResult(
            report=report,
            switched_nodes=tuple(
                self.mnodes[m] for m in ffi.unpack(self._switched, n_switched)
            ),
        )


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #


def _matrix(values, labels) -> tuple[np.ndarray, np.ndarray]:
    values = np.ascontiguousarray(values, dtype=np.int64)
    labels = np.ascontiguousarray(labels, dtype=np.int64).reshape(-1)
    if values.ndim != 2 or values.shape[0] != labels.shape[0]:
        raise ValueError("expected a (n_records, n_features) matrix and one label per row")
    return values, labels


def unlearn_one_packed(pack: UnlearnPack, values, label: int) -> BatchUnlearnResult:
    """Remove one record (a sequence of feature codes and its 0/1 label).

    Raises:
        UnlearningError: the record is inconsistent with the trees; nothing
            is modified in that case.
    """
    values = tuple(values)
    return pack.write(values, (label,), 1, len(values), -1)


def unlearn_batch_packed(pack: UnlearnPack, values, labels) -> BatchUnlearnResult:
    """Remove a batch of records, in order, atomically.

    Args:
        values: ``(n_records, n_features)`` code matrix.
        labels: ``(n_records,)`` 0/1 labels.

    Returns:
        The report summed over the records (each re-scores as it lands,
        exactly like the record-by-record loop) and the switched nodes.

    Raises:
        UnlearningError: some record is inconsistent with the trees; no
            statistic, gain or active index is modified in that case.
    """
    values, labels = _matrix(values, labels)
    return pack.write(
        ffi.from_buffer("int64_t[]", values), ffi.from_buffer("int64_t[]", labels),
        values.shape[0], values.shape[1], -1,
    )


#: Nothing calls this name: every batch goes through
#: :func:`unlearn_batch_packed`, so small batches trace as
#: ``unlearn.batch``. It is kept only because the tracer
#: (``perfbench/trace.py``) and its trace-point test look it up.
unlearn_small_batch = unlearn_batch_packed


def learn_one_packed(pack: UnlearnPack, values, label: int) -> BatchUnlearnResult:
    """Insert one record: the unlearning walk with +1 updates."""
    values = tuple(values)
    return pack.write(values, (label,), 1, len(values), 1)
