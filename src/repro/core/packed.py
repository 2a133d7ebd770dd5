"""Packed ensemble inference (the Section 8 "denser data structure").

The whole fitted ensemble is packed into contiguous numpy
structure-of-arrays:

* ``feature[slot]`` -- feature id tested at the slot, or :data:`LEAF_MARKER`.
* ``payload[slot]`` -- for internal slots the slot's *pre-scaled* offset
  into the flat routing table (row index times table width); for leaf slots
  the index into the flat leaf arrays.
* ``right[slot]`` -- absolute slot id of the right child. Children are
  emitted **adjacently** (``left == right - 1``), so a step is the
  branch-free ``right[slot] - goes_left``.
* ``route_flat[payload + code]`` -- one precomputed goes-left membership
  row per internal slot, flattened into a single 1-D table. Categorical
  subset bitmasks are expanded exactly once at pack time; numeric
  ``code < cut`` tests are expanded into the same table.
* ``leaf_n`` / ``leaf_n_plus`` -- leaf statistics mirrored into flat int64
  arrays.

Every read walks these arrays in one compiled C kernel
(:mod:`repro.native`): a leaf-index matrix, and fused vote counts and
probabilities, for batches and single rows alike. The kernel checks every
index against its array length and bounds each walk by the slot count,
so no input can make it read outside its buffers. A code outside every
feature's domain (at or beyond the routing-table width) goes right at
every split, like an extreme value in the node graph. :func:`walk_one` is
the pure-Python statement of the same walk; the tests use it as the
reference the kernel must match bit for bit.

Crucially the pack stays valid **under unlearning**:

* the native write kernel (:mod:`repro.core.writes`) updates an active
  leaf's row in the flat leaf arrays whenever it updates the leaf's
  counts (the object walk does the same through :meth:`PackedEnsemble.
  sync_leaf`), and
* a maintenance-node variant switch is an **in-place subtree splice**
  (:meth:`PackedEnsemble.splice_subtree`): at pack time every maintenance
  node reserves contiguous slot/route/leaf spans sized to the *largest*
  footprint across its variants, so switching rewrites only that reserved
  region -- no array reallocation, no leaf-index remap outside the span,
  and the pack's geometry stays fixed for the model's lifetime.

Reserved-span layout
--------------------

A maintenance node's root slot is wherever its parent's child pair (or the
tree root) put it -- that slot never moves, so a splice needs no parent
pointer patch. Its *descendants* live in a reserved arena immediately
claimed from the enclosing region at pack time:

* a slot arena of ``max over variants (slots(left) + slots(right))`` slots,
* a route-row arena of ``1 + max over variants (routes(left) + routes(right))``
  rows (the extra row is the node's own split row, which changes with the
  active variant),
* a leaf-row arena of ``max over variants (leaves(left) + leaves(right))``
  rows.

Nested maintenance nodes carve their arenas out of the enclosing one, so a
splice anywhere touches one contiguous region per array (plus the one root
slot). Slots a variant does not use are padded as *safe leaves* (feature
``LEAF_MARKER``, payload a valid in-span leaf row) and unused leaf rows are
zeroed. Child pairs are always allocated at slots strictly above their
parent's, so any mix of old and new span content still walks strictly
forward and terminates; a torn concurrent read of a half-spliced span that
does stray is caught by the kernel's bounds checks and retried by the
shared-memory reader.

Because geometry is fixed, ``epoch`` now bumps only on genuinely
geometry-changing events (initial build, unpickle/snapshot restore);
splices instead record dirty slot/route ranges that the shared-memory
writer drains for span-delta publishes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, TreeNode, bulk_allocation
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import HedgeCutTree
from repro.dataprep.dataset import Dataset, FeatureSchema
from repro.native import ffi, lib

#: Sentinel feature id marking a leaf slot.
LEAF_MARKER = -1

#: Process-wide structural-epoch source: every :meth:`PackedEnsemble._build`
#: (construction, unpickle / snapshot restore) draws a fresh value, so two
#: distinct builds never share an epoch -- the shared-memory writer can tell
#: "same fixed geometry, maybe spliced" from "a different build entirely"
#: even when a caller swaps the pack object out from under it.
_EPOCH_COUNTER = itertools.count()


def route_table(splits: Sequence[NumericSplit | CategoricalSplit], width: int) -> np.ndarray:
    """Goes-left membership rows of many splits, ``(len(splits), width)`` bool.

    Numeric rows (``code < cut``) are one whole-table comparison; each
    categorical row is copied from the split's cached membership table and
    stays False beyond the feature's cardinality.
    """
    cuts = np.fromiter(
        (split.cut if type(split) is NumericSplit else 0 for split in splits),
        dtype=np.int64,
        count=len(splits),
    )
    table = np.arange(width, dtype=np.int64) < cuts[:, None]
    for row, split in enumerate(splits):
        if type(split) is not NumericSplit:
            member = split.membership_table()[:width]
            table[row, : member.shape[0]] = member
    return table


def _int64_buffer(name: str, array: np.ndarray):
    if array.dtype != np.int64 or array.ndim != 1 or not array.flags.c_contiguous:
        raise TypeError(f"{name} must be a contiguous 1-D int64 array")
    return ffi.from_buffer("int64_t[]", array)


class PackedArrays:
    """The seven flat arrays the traversal reads, plus the routing width.

    Decoupling the kernel from :class:`PackedEnsemble` lets any holder of
    the arrays -- the in-process pack, or a reader process attached to the
    shared-memory segments of :mod:`repro.serving.shm` -- run the exact
    same traversal code, which is what makes the multi-process serving
    fleet bit-identical to the in-process path by construction.

    The object also holds the kernel's view of the arrays: a C struct of
    pointers into them, plus the buffer handles that keep those pointers
    valid. The handles pin the arrays' buffers, so the owner (the pack
    build, or one shared-memory reader generation) must drop this object
    before it can release the memory underneath -- ``SharedMemory.close()``
    raises ``BufferError`` while a handle is alive.
    """

    FIELDS = (
        "feature", "payload", "right", "route_flat", "tree_roots",
        "leaf_n", "leaf_n_plus",
    )

    __slots__ = FIELDS + ("width", "_pack", "_buffers")

    def __init__(
        self,
        feature: np.ndarray,
        payload: np.ndarray,
        right: np.ndarray,
        route_flat: np.ndarray,
        tree_roots: np.ndarray,
        leaf_n: np.ndarray,
        leaf_n_plus: np.ndarray,
        width: int,
    ) -> None:
        self.feature = feature
        self.payload = payload
        self.right = right
        self.route_flat = route_flat
        self.tree_roots = tree_roots
        self.leaf_n = leaf_n
        self.leaf_n_plus = leaf_n_plus
        self.width = int(width)
        if (
            route_flat.itemsize != 1
            or route_flat.ndim != 1
            or not route_flat.flags.c_contiguous
        ):
            raise TypeError("route_flat must be a contiguous 1-D bool array")
        pack = ffi.new("hc_pack *")
        buffers = (
            _int64_buffer("feature", feature),
            _int64_buffer("payload", payload),
            _int64_buffer("right", right),
            ffi.from_buffer("uint8_t[]", route_flat),
            _int64_buffer("tree_roots", tree_roots),
            _int64_buffer("leaf_n", leaf_n),
            _int64_buffer("leaf_n_plus", leaf_n_plus),
        )
        (
            pack.feature, pack.payload, pack.right, pack.route,
            pack.roots, pack.leaf_n, pack.leaf_n_plus,
        ) = buffers
        pack.n_slots = min(len(feature), len(payload), len(right))
        pack.route_len = len(route_flat)
        pack.width = self.width
        pack.n_trees = len(tree_roots)
        pack.n_leaves = min(len(leaf_n), len(leaf_n_plus))
        self._pack = pack
        self._buffers = buffers


def as_code_matrix(values: np.ndarray) -> np.ndarray:
    """Validate/normalise a request payload to a C-contiguous int64 matrix."""
    matrix = np.asarray(values)
    if matrix.ndim != 2:
        raise ValueError(
            f"expected a (n_rows, n_features) code matrix, got shape "
            f"{matrix.shape}"
        )
    return np.ascontiguousarray(matrix, dtype=np.int64)


class TornTraversalError(RuntimeError):
    """A packed traversal exceeded its slot budget.

    Impossible on a consistent pack (every walk strictly descends); it can
    only fire on a torn optimistic read of shared memory mid-splice, where
    a reader may observe a mix of old and new span contents, or on corrupt
    arrays. The shm reader treats it (and the kernel's ``IndexError`` for
    an out-of-range index) like a seqlock conflict and retries when the
    seqlock moved during the read.
    """


def walk_one(arrays: PackedArrays, values: Sequence[int], tree: int) -> int:
    """Scalar root-to-leaf walk of one tree; returns the global leaf index.

    The pure-Python reference of the native kernel's walk, kept for the
    tests: the kernel must return the same leaf for every consistent pack.
    A code at or beyond the table width lies outside every feature's
    domain and goes right, like an extreme value in the node graph.
    The walk is bounded by the slot count: a consistent pack strictly
    descends (children always sit at higher slots), so the bound can only
    trip on a torn shared-memory read, which surfaces as
    :class:`TornTraversalError` for the reader to retry.
    """
    feature, payload, right = arrays.feature, arrays.payload, arrays.right
    route_flat = arrays.route_flat
    slot = int(arrays.tree_roots[tree])
    for _ in range(feature.shape[0] + 1):
        feature_id = feature[slot]
        if feature_id == LEAF_MARKER:
            return int(payload[slot])
        code = values[feature_id]
        if code < 0:
            raise IndexError(f"negative code {code}")
        goes_left = code < arrays.width and route_flat[payload[slot] + code]
        slot = int(right[slot]) - int(goes_left)
    raise TornTraversalError("scalar walk exceeded the slot budget")


def _check(status: int) -> None:
    if status == lib.HC_TORN:
        raise TornTraversalError("packed walk exceeded the slot budget")
    if status == lib.HC_RANGE:
        raise IndexError("packed walk read an index outside its array")


def leaf_matrix(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Route every (row, tree) pair to its leaf index.

    Args:
        arrays: the flat ensemble arrays (in-process or shared-memory).
        values: ``(n_rows, n_features)`` integer code matrix.

    Returns:
        ``(n_rows, n_trees)`` int64 matrix of global leaf indices.

    Raises:
        TornTraversalError: a walk exceeded the slot budget.
        IndexError: an index or code fell outside its array.
    """
    matrix = as_code_matrix(values)
    n_rows, n_features = matrix.shape
    out = np.empty((n_rows, arrays.tree_roots.shape[0]), dtype=np.int64)
    _check(lib.hc_leaves(
        arrays._pack, ffi.from_buffer("int64_t[]", matrix), n_rows, n_features,
        ffi.from_buffer("int64_t[]", out, require_writable=True),
    ))
    return out


def predict_votes_rows(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Per-row positive hard-vote counts (``int64``) for a code matrix."""
    matrix = as_code_matrix(values)
    n_rows, n_features = matrix.shape
    out = np.empty(n_rows, dtype=np.int64)
    _check(lib.hc_votes(
        arrays._pack, ffi.from_buffer("int64_t[]", matrix), n_rows, n_features,
        ffi.from_buffer("int64_t[]", out, require_writable=True),
    ))
    return out


def predict_rows(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Majority-vote labels (``uint8``) for a code matrix."""
    n_trees = arrays.tree_roots.shape[0]
    votes = predict_votes_rows(arrays, values)
    return (2 * votes > n_trees).astype(np.uint8)


def predict_proba_rows(arrays: PackedArrays, values: np.ndarray) -> np.ndarray:
    """Soft-vote positive-class probabilities for a code matrix.

    Each tree contributes ``n_plus / n`` of its leaf (0.5 for an empty
    leaf), summed in tree order with sequential float64 adds and divided
    by the tree count -- the same operations, in the same order, as the
    per-record definition, so results are bit-for-bit identical to it.
    """
    matrix = as_code_matrix(values)
    n_rows, n_features = matrix.shape
    out = np.empty(n_rows, dtype=np.float64)
    _check(lib.hc_proba(
        arrays._pack, ffi.from_buffer("int64_t[]", matrix), n_rows, n_features,
        ffi.from_buffer("double[]", out, require_writable=True),
    ))
    return out


def _compute_footprints(
    roots: Sequence[TreeNode],
) -> tuple[list[tuple[int, int, int]], dict[int, tuple[int, int, int]]]:
    """Reserved ``(slots, route_rows, leaf_rows)`` footprints.

    Returns the footprint of every tree and, by object identity, of every
    maintenance node. For leaves and plain splits the footprint is the
    exact emitted size. For a maintenance node it is the *reservation*:
    one root slot plus the per-dimension maximum over its variants'
    children, so that any variant (and any future switch) fits inside the
    same region. The maxima are taken independently per dimension -- the
    variant with the most slots need not be the one with the most route
    rows. The reservations stay valid for the model's lifetime because
    the variant graph is static after fit.

    One iterative post-order pass per tree (fully grown trees exceed the
    recursion limit): a ``(node,)`` frame follows a node's children on the
    stack and combines their footprints from the value stack.
    """
    leaf = (1, 0, 1)
    spans: dict[int, tuple[int, int, int]] = {}
    totals: list[tuple[int, int, int]] = []
    for root in roots:
        stack: list = [root]
        values: list[tuple[int, int, int]] = []
        while stack:
            item = stack.pop()
            if type(item) is tuple:
                node = item[0]
                if isinstance(node, SplitNode):
                    s_r, r_r, l_r = values.pop()
                    s_l, r_l, l_l = values.pop()
                    values.append((1 + s_l + s_r, 1 + r_l + r_r, l_l + l_r))
                    continue
                children = values[-2 * len(node.variants):]
                del values[-2 * len(node.variants):]
                slots = routes = leaves = 0
                for index in range(0, len(children), 2):
                    s_l, r_l, l_l = children[index]
                    s_r, r_r, l_r = children[index + 1]
                    slots = max(slots, s_l + s_r)
                    routes = max(routes, r_l + r_r)
                    leaves = max(leaves, l_l + l_r)
                spans[id(node)] = (1 + slots, 1 + routes, leaves)
                values.append(spans[id(node)])
            elif isinstance(item, Leaf):
                values.append(leaf)
            elif isinstance(item, SplitNode):
                stack.append((item,))
                stack.append(item.right)
                stack.append(item.left)
            else:
                stack.append((item,))
                for variant in item.variants:
                    stack.append(variant.right)
                    stack.append(variant.left)
        totals.append(values[0])
    return totals, spans


class _Arena:
    """Mutable allocation cursors over one reserved region.

    ``*_cur`` advance as slots / route rows / leaf rows are handed out;
    ``*_hi`` are the exclusive reservation bounds. Route cursors count
    *rows* (the flat table index is ``row * width``). ``owner`` is the
    :class:`_SpanInfo` whose reservation this is (``None`` for a tree's
    top-level arena), used to nest child spans for recursive
    unregistration on re-splice.
    """

    __slots__ = (
        "slot_cur", "slot_hi", "route_cur", "route_hi",
        "leaf_cur", "leaf_hi", "owner",
    )

    def __init__(
        self,
        slot_cur: int, slot_hi: int,
        route_cur: int, route_hi: int,
        leaf_cur: int, leaf_hi: int,
        owner: "_SpanInfo | None",
    ) -> None:
        self.slot_cur = slot_cur
        self.slot_hi = slot_hi
        self.route_cur = route_cur
        self.route_hi = route_hi
        self.leaf_cur = leaf_cur
        self.leaf_hi = leaf_hi
        self.owner = owner


class _SpanInfo:
    """One maintenance node's reserved span and what is emitted into it.

    ``root_slot`` is the node's fixed slot (its parent's child pair, or
    the tree base); ``slot_lo:slot_hi`` / ``route_lo:route_hi`` /
    ``leaf_lo:leaf_hi`` bound the reserved descendant arenas.
    ``emitted_index`` is the variant currently written into the span;
    comparing it against the live ``node.active_index`` decides whether a
    splice is needed. ``children`` lists the spans of maintenance nodes
    nested inside the currently emitted variant (they die with the next
    splice).
    """

    __slots__ = (
        "node", "tree", "root_slot", "slot_lo", "slot_hi",
        "route_lo", "route_hi", "leaf_lo", "leaf_hi",
        "emitted_index", "children",
    )

    def __init__(
        self,
        node: MaintenanceNode,
        tree: int,
        root_slot: int,
        slot_lo: int, slot_hi: int,
        route_lo: int, route_hi: int,
        leaf_lo: int, leaf_hi: int,
    ) -> None:
        self.node = node
        self.tree = tree
        self.root_slot = root_slot
        self.slot_lo = slot_lo
        self.slot_hi = slot_hi
        self.route_lo = route_lo
        self.route_hi = route_hi
        self.leaf_lo = leaf_lo
        self.leaf_hi = leaf_hi
        self.emitted_index = node.active_index
        self.children: list[_SpanInfo] = []


#: Dirty-range bookkeeping cap: beyond this many pending ranges the list is
#: merged, and if still larger, collapsed to a single covering range so an
#: unattached long-running writer cannot grow it without bound.
_MAX_DIRTY_RANGES = 64


def _merge_ranges(ranges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort and coalesce overlapping/adjacent half-open ranges."""
    if len(ranges) <= 1:
        return list(ranges)
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class PackedEnsemble:
    """Contiguous structure-of-arrays form of a whole fitted ensemble.

    Args:
        trees: the fitted trees (active variants are resolved at pack time).
        schema: the model's feature schema; its maximum code cardinality
            fixes the routing-table width.

    The pack holds references to the live :class:`Leaf` objects so that
    :meth:`sync_leaf` can mirror in-place decrements, and rewrites a
    maintenance node's reserved span in place via :meth:`splice_subtree`
    when a variant switch changes routing.
    """

    def __init__(
        self,
        trees: Sequence[HedgeCutTree],
        schema: Sequence[FeatureSchema],
    ) -> None:
        if not trees:
            raise ValueError("cannot pack an empty ensemble")
        self._roots = [tree.root for tree in trees]
        self._width = max(feature.n_values for feature in schema)
        self._unlearn_pack = None
        with bulk_allocation():
            self._build()

    # ------------------------------------------------------------------ #
    # reserved-span build and in-place maintenance
    # ------------------------------------------------------------------ #

    def _build(self) -> None:
        """Allocate the reserved-span arrays and emit every tree.

        Runs once per geometry-changing event (construction, unpickle /
        snapshot restore). Afterwards the arrays never move or change
        size: variant switches rewrite reserved spans in place via
        :meth:`splice_subtree`.
        """
        totals, self._foot = _compute_footprints(self._roots)
        n_slots = sum(t[0] for t in totals)
        n_routes = sum(t[1] for t in totals)
        n_leaves = sum(t[2] for t in totals)
        self._leaf_objects: list[Leaf | None] = [None] * n_leaves
        self._leaf_index: dict[int, int] = {}
        self._leaf_read_row: np.ndarray | None = None
        self._spans: dict[int, _SpanInfo] = {}
        self._dirty_slot_ranges: list[tuple[int, int]] = []
        self._dirty_route_ranges: list[tuple[int, int]] = []

        # Emission writes Python lists (cheaper per element than numpy
        # scalar stores); the arrays are made once, then padded.
        columns = (
            [LEAF_MARKER] * n_slots, [0] * n_slots, [0] * n_slots,
            [0] * n_leaves, [0] * n_leaves,
        )
        routes: list[tuple[int, object]] = []
        arenas: list[_Arena] = []
        roots: list[int] = []
        slot_base = route_base = leaf_base = 0
        for tree, (root, (slots, routes_n, leaves)) in enumerate(
            zip(self._roots, totals)
        ):
            arena = _Arena(
                slot_base + 1, slot_base + slots,
                route_base, route_base + routes_n,
                leaf_base, leaf_base + leaves,
                owner=None,
            )
            arenas.append(arena)
            self._emit_into([(root, slot_base, arena)], tree, arenas, columns, routes)
            roots.append(slot_base)
            slot_base += slots
            route_base += routes_n
            leaf_base += leaves
        self.feature, self.payload, self.right, self.leaf_n, self.leaf_n_plus = (
            np.asarray(column, dtype=np.int64) for column in columns
        )
        self.route_flat = np.zeros(n_routes * self._width, dtype=bool)
        self._write_routes(routes)
        for arena in arenas:
            self._pad_arena(arena)
        self.tree_roots = np.asarray(roots, dtype=np.int64)
        # Structural epoch: changes only when geometry actually changes
        # (this method runs). The shared-memory writer compares epochs to
        # decide between a span-delta publish and a full generation copy.
        self.epoch = next(_EPOCH_COUNTER)
        self._arrays = PackedArrays(
            feature=self.feature,
            payload=self.payload,
            right=self.right,
            route_flat=self.route_flat,
            tree_roots=self.tree_roots,
            leaf_n=self.leaf_n,
            leaf_n_plus=self.leaf_n_plus,
            width=self._width,
        )
        self._dirty_slot_ranges.clear()
        self._dirty_route_ranges.clear()

    def _emit_into(
        self,
        stack: list[tuple[TreeNode, int, _Arena]],
        tree: int,
        arenas_out: list[_Arena],
        columns,
        routes: list[tuple[int, object]],
    ) -> None:
        """Emit subtrees iteratively, carving reserved sub-arenas.

        ``stack`` holds ``(node, slot, arena)`` work items: write ``node``
        at ``slot``, allocating descendants from ``arena``. A maintenance
        node carves its reserved sub-arena from the enclosing one (the
        enclosing cursors jump over the whole reservation), registers its
        span, and continues emission of the *active* variant inside the
        sub-arena. Every arena this creates is appended to ``arenas_out``
        so the caller can pad the unused tails afterwards.

        ``columns`` are the ``feature, payload, right, leaf_n, leaf_n_plus``
        targets (lists during a build, the live arrays during a splice);
        ``(route row, split)`` pairs go to ``routes`` for
        :meth:`_write_routes`.
        """
        width = self._width
        feature, payload, right, leaf_n, leaf_n_plus = columns
        leaf_objects, leaf_index = self._leaf_objects, self._leaf_index
        read_rows = self._leaf_read_row
        while stack:
            node, slot, arena = stack.pop()
            if isinstance(node, Leaf):
                row = arena.leaf_cur
                arena.leaf_cur += 1
                feature[slot] = LEAF_MARKER
                payload[slot] = row
                # Self-pointing right keeps the array deterministic (a
                # spliced span equals a fresh build byte-for-byte); the
                # kernel never reads it at a leaf.
                right[slot] = slot
                leaf_n[row] = node.n
                leaf_n_plus[row] = node.n_plus
                leaf_objects[row] = node
                leaf_index[id(node)] = row
                if read_rows is not None:
                    read_rows[node._at >> 1] = row
                continue
            if isinstance(node, MaintenanceNode):
                n_slots, n_routes, n_leaves = self._foot[id(node)]
                sub = _Arena(
                    arena.slot_cur, arena.slot_cur + n_slots - 1,
                    arena.route_cur, arena.route_cur + n_routes,
                    arena.leaf_cur, arena.leaf_cur + n_leaves,
                    owner=None,
                )
                arena.slot_cur = sub.slot_hi
                arena.route_cur = sub.route_hi
                arena.leaf_cur = sub.leaf_hi
                info = _SpanInfo(
                    node, tree, slot,
                    sub.slot_cur, sub.slot_hi,
                    sub.route_cur, sub.route_hi,
                    sub.leaf_cur, sub.leaf_hi,
                )
                sub.owner = info
                self._spans[id(node)] = info
                if arena.owner is not None:
                    arena.owner.children.append(info)
                arenas_out.append(sub)
                active = node.active
                split, child_left, child_right = (
                    active.split, active.left, active.right,
                )
                arena = sub
            else:
                split, child_left, child_right = node.split, node.left, node.right
            route_row = arena.route_cur
            arena.route_cur += 1
            feature[slot] = split.feature
            payload[slot] = route_row * width
            routes.append((route_row, split))
            pair = arena.slot_cur
            arena.slot_cur += 2
            right[slot] = pair + 1
            stack.append((child_right, pair + 1, arena))
            stack.append((child_left, pair, arena))

    def _write_routes(self, routes: list[tuple[int, object]]) -> None:
        """Write the goes-left rows of emitted splits into the route table."""
        if routes:
            rows, splits = zip(*routes)
            self.route_flat.reshape(-1, self._width)[list(rows)] = route_table(
                splits, self._width
            )

    def _pad_arena(self, arena: _Arena) -> None:
        """Fill an arena's unused tail with safe, in-range content.

        Unused slots become *safe leaves* (``LEAF_MARKER`` with a payload
        pointing at an in-span leaf row) and unused leaf rows are zeroed:
        a torn optimistic shared-memory read that strays into padding
        still sees only in-range indices. Unreachable from any consistent
        root by construction.
        """
        lo, hi = arena.slot_cur, arena.slot_hi
        if lo < hi:
            safe_row = max(arena.leaf_hi - 1, 0)
            self.feature[lo:hi] = LEAF_MARKER
            self.payload[lo:hi] = safe_row
            self.right[lo:hi] = np.arange(lo, hi, dtype=np.int64)
        if arena.route_cur < arena.route_hi:
            width = self._width
            self.route_flat[arena.route_cur * width:arena.route_hi * width] = False
        if arena.leaf_cur < arena.leaf_hi:
            self.leaf_n[arena.leaf_cur:arena.leaf_hi] = 0
            self.leaf_n_plus[arena.leaf_cur:arena.leaf_hi] = 0
            for row in range(arena.leaf_cur, arena.leaf_hi):
                self._leaf_objects[row] = None

    def splice_subtree(self, node: MaintenanceNode) -> int | None:
        """Rewrite one maintenance node's reserved span for its live variant.

        Returns the tree index the span belongs to when a rewrite
        happened, or ``None`` when the call is a no-op: the node is not
        currently materialised (it sits inside an inactive variant of an
        enclosing node -- its switch will be emitted whenever that
        enclosing variant is spliced in), or its emitted variant already
        matches ``node.active_index``.
        """
        info = self._spans.get(id(node))
        if info is None or info.emitted_index == info.node.active_index:
            return None
        self._splice(info)
        return info.tree

    def _splice(self, info: _SpanInfo) -> None:
        """Re-emit the live active variant into an existing reserved span."""
        self._unregister_children(info)
        read_rows = self._leaf_read_row
        for row in range(info.leaf_lo, info.leaf_hi):
            leaf = self._leaf_objects[row]
            if leaf is not None:
                self._leaf_index.pop(id(leaf), None)
                self._leaf_objects[row] = None
                if read_rows is not None:
                    read_rows[leaf._at >> 1] = -1
        node = info.node
        width = self._width
        arena = _Arena(
            info.slot_lo, info.slot_hi,
            info.route_lo, info.route_hi,
            info.leaf_lo, info.leaf_hi,
            owner=info,
        )
        info.children = []
        arenas: list[_Arena] = [arena]
        active = node.active
        split = active.split
        route_row = arena.route_cur
        arena.route_cur += 1
        self.feature[info.root_slot] = split.feature
        self.payload[info.root_slot] = route_row * width
        routes: list[tuple[int, object]] = [(route_row, split)]
        pair = arena.slot_cur
        arena.slot_cur += 2
        self.right[info.root_slot] = pair + 1
        self._emit_into(
            [(active.right, pair + 1, arena), (active.left, pair, arena)],
            info.tree,
            arenas,
            (self.feature, self.payload, self.right, self.leaf_n, self.leaf_n_plus),
            routes,
        )
        self._write_routes(routes)
        for sub in arenas:
            self._pad_arena(sub)
        info.emitted_index = node.active_index
        self._note_dirty(info)

    def _unregister_children(self, info: _SpanInfo) -> None:
        """Drop the span registrations nested inside ``info``'s old variant."""
        stack = list(info.children)
        while stack:
            child = stack.pop()
            stack.extend(child.children)
            if self._spans.get(id(child.node)) is child:
                del self._spans[id(child.node)]

    def _note_dirty(self, info: _SpanInfo) -> None:
        """Record a spliced span for the shared-memory span-delta publish.

        Slot ranges are in slots; route ranges are pre-scaled to flat
        table indices. Leaf rows are not tracked: a span publish copies
        the (comparatively small) leaf arrays wholesale, exactly like a
        leaf-only publish.
        """
        self._dirty_slot_ranges.append((info.root_slot, info.root_slot + 1))
        self._dirty_slot_ranges.append((info.slot_lo, info.slot_hi))
        self._dirty_route_ranges.append(
            (info.route_lo * self._width, info.route_hi * self._width)
        )
        if len(self._dirty_slot_ranges) > _MAX_DIRTY_RANGES:
            self._dirty_slot_ranges = _merge_ranges(self._dirty_slot_ranges)
            if len(self._dirty_slot_ranges) > _MAX_DIRTY_RANGES:
                self._dirty_slot_ranges = [
                    (
                        self._dirty_slot_ranges[0][0],
                        self._dirty_slot_ranges[-1][1],
                    )
                ]
        if len(self._dirty_route_ranges) > _MAX_DIRTY_RANGES:
            self._dirty_route_ranges = _merge_ranges(self._dirty_route_ranges)
            if len(self._dirty_route_ranges) > _MAX_DIRTY_RANGES:
                self._dirty_route_ranges = [
                    (
                        self._dirty_route_ranges[0][0],
                        self._dirty_route_ranges[-1][1],
                    )
                ]

    @property
    def has_dirty_spans(self) -> bool:
        """Whether splices happened since the last :meth:`drain_dirty_spans`."""
        return bool(self._dirty_slot_ranges) or bool(self._dirty_route_ranges)

    def drain_dirty_spans(
        self,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Merged ``(slot_ranges, flat_route_ranges)`` since the last drain.

        Clears the pending sets; the shared-memory writer calls this under
        its seqlock to copy exactly the spliced regions.
        """
        slot_ranges = _merge_ranges(self._dirty_slot_ranges)
        route_ranges = _merge_ranges(self._dirty_route_ranges)
        self._dirty_slot_ranges = []
        self._dirty_route_ranges = []
        return slot_ranges, route_ranges

    def arrays(self) -> PackedArrays:
        """The flat arrays and their kernel handle, built once per build.

        The view aliases the live arrays (no copy). Geometry is fixed for
        the pack's lifetime, so the view stays valid across splices; it
        only goes stale if the pack itself is rebuilt (unpickle).
        """
        return self._arrays

    @property
    def width(self) -> int:
        """Routing-table width: the largest code cardinality in the schema."""
        return self._width

    @property
    def leaf_index(self) -> dict[int, int]:
        """``id(leaf) -> leaf row`` for the currently packed (active) leaves.

        Maintained incrementally across splices (only the affected span's
        entries change); :meth:`sync_leaf` looks leaves up in it.
        """
        return self._leaf_index

    @property
    def n_trees(self) -> int:
        return len(self._roots)

    @property
    def n_slots(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_n.shape[0])

    def sync_leaf(self, leaf: Leaf) -> None:
        """O(1) write-through of one mutated leaf's statistics.

        Leaves of inactive maintenance variants are not part of the pack;
        their updates are no-ops here and get picked up by
        :meth:`splice_subtree` if their variant ever becomes active.
        """
        index = self._leaf_index.get(id(leaf))
        if index is not None:
            self.leaf_n[index] = leaf.n
            self.leaf_n_plus[index] = leaf.n_plus

    # ------------------------------------------------------------------ #
    # the write pack
    # ------------------------------------------------------------------ #

    def unlearn_pack(self):
        """The write pack (:mod:`repro.core.writes`), built on first use.

        Building it binds the trees' objects to its count store and
        connects it to this pack's leaf rows: from then on the native
        write kernel updates both, and every splice keeps the kernel's
        store-leaf-to-read-row map current.
        """
        if self._unlearn_pack is None:
            from repro.core.writes import UnlearnPack

            with bulk_allocation():
                pack = UnlearnPack.build(
                    self._roots, self._width, self.leaf_n, self.leaf_n_plus
                )
            rows = pack.leaf_read_row
            for row, leaf in enumerate(self._leaf_objects):
                if leaf is not None:
                    rows[leaf._at >> 1] = row
            self._leaf_read_row = rows
            self._unlearn_pack = pack
        return self._unlearn_pack

    # ------------------------------------------------------------------ #
    # deep copy / pickling: the id()-keyed leaf index and span registry
    # must be rebuilt against the copied node objects, so only the tree
    # roots travel and the copy re-runs the (deterministic) build.
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        return {"roots": self._roots, "width": self._width}

    def __setstate__(self, state: dict) -> None:
        self._roots = state["roots"]
        self._width = state["width"]
        self._unlearn_pack = None
        with bulk_allocation():
            self._build()

    # ------------------------------------------------------------------ #
    # prediction over raw code matrices
    # ------------------------------------------------------------------ #

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Majority-vote labels for an ``(n_rows, n_features)`` code matrix."""
        return predict_rows(self._arrays, values)

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Per-row positive hard-vote counts for a code matrix.

        Returns the number of trees voting for the positive class per row
        (``int64``), without applying the majority threshold. This is the
        aggregation primitive of the sharded ensemble: vote counts from
        independent sub-ensembles add, so ``2 * sum(votes) > total_trees``
        reproduces the single-model majority rule exactly.
        """
        return predict_votes_rows(self._arrays, values)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote positive-class probabilities for a code matrix.

        The per-tree probabilities are accumulated in tree order with
        sequential float adds, exactly like the scalar
        ``HedgeCutClassifier.predict_proba`` loop, so the results are
        bit-for-bit identical to the per-record path.
        """
        return predict_proba_rows(self._arrays, values)

    # ------------------------------------------------------------------ #
    # prediction over datasets
    # ------------------------------------------------------------------ #

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        """Majority-vote labels for a whole dataset."""
        return self.predict_rows(dataset.feature_matrix())

    def predict_proba_batch(self, dataset: Dataset) -> np.ndarray:
        """Soft-vote probabilities for a whole dataset."""
        return self.predict_proba_rows(dataset.feature_matrix())

    # ------------------------------------------------------------------ #
    # single-record serving
    # ------------------------------------------------------------------ #

    # The same kernel entry points as the batch path, called with one row.
    # cffi converts a tuple or list of ints to a C array directly, which
    # skips the numpy matrix round trip a single record does not need.

    def predict_one(self, values: Sequence[int]) -> int:
        """Majority-vote label for one record."""
        votes = ffi.new("int64_t[1]")
        row = values if isinstance(values, (tuple, list)) else tuple(values)
        _check(lib.hc_votes(self._arrays._pack, row, 1, len(row), votes))
        return 1 if 2 * votes[0] > self.n_trees else 0

    def predict_proba_one(self, values: Sequence[int]) -> float:
        """Soft-vote positive-class probability for one record."""
        proba = ffi.new("double[1]")
        row = values if isinstance(values, (tuple, list)) else tuple(values)
        _check(lib.hc_proba(self._arrays._pack, row, 1, len(row), proba))
        return proba[0]

    def _walk_one(self, values: Sequence[int], tree: int) -> int:
        """Leaf index of one record in one tree."""
        return int(leaf_matrix(self._arrays, [values])[0, tree])
