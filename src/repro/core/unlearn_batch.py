"""Vectorised batch-unlearning kernel over the packed ensemble.

The scalar delete path (:mod:`repro.core.unlearning`) walks Python object
trees once per record. This module makes the *write* path array-resident,
like the read path (:class:`~repro.core.packed.PackedEnsemble`) and the
training path (the frontier trainer) already are:

* :class:`UnlearnPack` flattens **every** node of every tree -- robust
  splits, leaves, and *all* maintenance variants, not just the active ones
  -- into the same slot/payload/right SoA layout the inference pack uses,
  plus a ``stats_row`` index mapping internal slots to rows of four flat
  ``SplitStats`` count arrays. Maintenance nodes become fan slots: a
  visiting record continues into every variant's subtree, exactly like
  Algorithm 4's traversal.
* :func:`unlearn_batch_packed` routes a whole batch of deletion records
  down the pack level-synchronously, accumulates leaf ``n``/``n_plus``
  decrements and per-quadrant split-statistic deltas with one
  ``np.bincount`` scatter per quadrant, validates the aggregate deltas
  against the pre-batch counts (whole-batch atomic: an inconsistent record
  raises before anything is touched), replays the maintenance-node
  re-scoring with prefix cumulative sums through the bit-identical
  :func:`~repro.core.splits.gini_gain_arrays`, and finally applies
  everything to the object trees in one write-back pass.

Verdict identity with the scalar loop is by construction:

* Traversal is independent of interleaved variant switches -- Algorithm 4
  fans into *every* variant regardless of which is active, so the record
  paths of a batch are fixed up front and can be walked together.
* A single record visits any leaf or split statistic at most once (variant
  subtrees are disjoint object graphs), and all decrements are monotone,
  so the batch is applicable record-by-record *iff* the aggregated deltas
  fit the pre-batch counts (quadrant by quadrant, leaf by leaf).
* ``variant_switches`` depends on the record order: the scalar loop
  re-scores after every record. The kernel reconstructs the per-record
  count trajectory of every visited maintenance node from prefix sums and
  scores all steps at once with :func:`gini_gain_arrays` (documented
  bit-for-bit equal to ``SplitStats.gini_gain``); ``np.argmax`` returns
  the first maximum, matching the scalar tie-break towards the lowest
  variant index.

The pack's flat count arrays are a cache of the object-tree statistics.
The kernel and the scalar fast path (:mod:`repro.core.unlearn_fast`)
both write through on both sides, so pack mirrors stay perpetually
fresh along the packed delete paths; only object-path mutations
(``learn_one``, forced object-path deletes) mark the pack stale, and
the next packed call refreshes it with one gather pass. Structure --
slots, routing, fan lists -- never goes stale: a variant switch only
changes ``active_index``, which the kernel reads live from the node
objects.

Random top-``d`` splits (``SplitNode.random``, the DaRE-style ``topd``
knob) are emitted as routing-only slots: they carry a route row like any
split but ``stats_row == -1`` and ``is_robust == False``, so both the
batch kernel and the scalar fast path route through them without
validating or decrementing anything, counting them separately as
``random_nodes_visited``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import UnlearningError
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, TreeNode
from repro.core.packed import LEAF_MARKER, _route_row
from repro.core.splits import SplitStats, gini_gain_arrays
from repro.core.unlearning import LeafSink, UnlearningReport

#: Sentinel feature id marking a maintenance (fan-out) slot. Distinct from
#: the inference pack's LEAF_MARKER so one feature gather classifies slots.
FAN_MARKER = -2


@dataclass(frozen=True)
class BatchUnlearnResult:
    """Outcome of one batched unlearning call.

    Attributes:
        report: aggregated counters, merge-identical to running the scalar
            loop over the same records in the same order.
        switched_trees: sorted tree indices whose *final* active variant
            differs from the pre-batch one (transient mid-batch switches
            that settle back do not route differently afterwards).
        switched_nodes: the :class:`MaintenanceNode` objects behind those
            switches; the caller hands each to
            ``PackedEnsemble.splice_subtree`` for an in-place span rewrite
            instead of a whole-tree repack.
    """

    report: UnlearningReport
    switched_trees: tuple[int, ...]
    switched_nodes: tuple = ()


class UnlearnPack:
    """Flat structure-of-arrays form of an ensemble's *write* path.

    Unlike the inference pack, which resolves maintenance nodes to their
    active variant, this pack keeps every variant reachable: maintenance
    nodes are emitted as ``FAN_MARKER`` slots whose payload indexes a CSR
    fan list (``fan_indptr``/``fan_slots``) of the variants' split slots.
    Internal slots carry ``stats_row`` pointing into four flat int64 count
    arrays mirroring the live :class:`SplitStats` objects.
    """

    def __init__(self, roots: list[TreeNode], width: int) -> None:
        self._width = width
        self._emit(roots)
        self._stale = False
        self.refresh()
        # Deferred-maintenance state (DynFrs-style tag-and-defer): write
        # paths running with ``maintenance="deferred"`` log the record and
        # its maintenance-node visits here instead of re-scoring; counts
        # and mirrors still update per write, so the flush kernel
        # (:mod:`repro.core.deferred`) replays the per-node visit
        # trajectories later against current mirrors without a regather.
        # ``_pending_count`` is the per-node tag column: pending visits
        # per maintenance node, driving the per-node flush budget.
        self.pending_values: list[list[int]] = []
        self.pending_positive: list[bool] = []
        self.pending_sign: list[int] = []
        self.pending_mnode: list[int] = []
        self.pending_rec: list[int] = []
        self._pending_count: list[int] = [0] * len(self.mnodes)

    # ------------------------------------------------------------------ #
    # emission
    # ------------------------------------------------------------------ #

    def _emit(self, roots: list[TreeNode]) -> None:
        width = self._width
        feature: list[int] = []
        payload: list[int] = []
        right: list[int] = []
        stats_row: list[int] = []
        robust: list[bool] = []
        route_rows: list[np.ndarray] = []
        leaf_objects: list[Leaf] = []
        stats_objects: list[SplitStats] = []
        mnodes: list[MaintenanceNode] = []
        mnode_tree: list[int] = []
        fan_lists: list[list[int]] = []
        roots_out: list[int] = []

        def alloc() -> int:
            feature.append(0)
            payload.append(0)
            right.append(0)
            stats_row.append(-1)
            robust.append(False)
            return len(feature) - 1

        def fill_split(slot: int, split, stats: SplitStats, is_robust: bool) -> None:
            feature[slot] = split.feature
            payload[slot] = len(route_rows) * width
            route_rows.append(_route_row(split, width))
            stats_row[slot] = len(stats_objects)
            stats_objects.append(stats)
            robust[slot] = is_robust

        def fill_random(slot: int, split) -> None:
            # Routing-only slot: stats_row stays -1 (nothing to validate or
            # decrement), is_robust stays False (counted as a random visit).
            feature[slot] = split.feature
            payload[slot] = len(route_rows) * width
            route_rows.append(_route_row(split, width))

        for tree_index, root in enumerate(roots):
            root_slot = alloc()
            roots_out.append(root_slot)
            stack: list[tuple[TreeNode, int]] = [(root, root_slot)]
            while stack:
                node, slot = stack.pop()
                if isinstance(node, Leaf):
                    feature[slot] = LEAF_MARKER
                    payload[slot] = len(leaf_objects)
                    leaf_objects.append(node)
                elif isinstance(node, SplitNode):
                    if node.random:
                        fill_random(slot, node.split)
                    else:
                        fill_split(slot, node.split, node.stats, True)
                    left_slot = alloc()
                    right_slot = alloc()
                    right[slot] = right_slot
                    stack.append((node.right, right_slot))
                    stack.append((node.left, left_slot))
                else:
                    feature[slot] = FAN_MARKER
                    payload[slot] = len(mnodes)
                    mnodes.append(node)
                    mnode_tree.append(tree_index)
                    variant_slots: list[int] = []
                    for variant in node.variants:
                        vslot = alloc()
                        fill_split(vslot, variant.split, variant.stats, False)
                        vleft = alloc()
                        vright = alloc()
                        right[vslot] = vright
                        stack.append((variant.right, vright))
                        stack.append((variant.left, vleft))
                        variant_slots.append(vslot)
                    fan_lists.append(variant_slots)

        self.feature = np.asarray(feature, dtype=np.intp)
        self.payload = np.asarray(payload, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.stats_row = np.asarray(stats_row, dtype=np.intp)
        self.is_robust = np.asarray(robust, dtype=bool)
        self.route_flat = (
            np.ascontiguousarray(np.stack(route_rows)).reshape(-1)
            if route_rows
            else np.zeros(0, dtype=bool)
        )
        self.tree_roots = np.asarray(roots_out, dtype=np.intp)
        self.fan_indptr = np.concatenate(
            ([0], np.cumsum([len(slots) for slots in fan_lists], dtype=np.intp))
        ).astype(np.intp)
        self.fan_slots = (
            np.concatenate([np.asarray(s, dtype=np.intp) for s in fan_lists])
            if fan_lists
            else np.zeros(0, dtype=np.intp)
        )
        self.leaf_objects = leaf_objects
        self.stats_objects = stats_objects
        self.mnodes = mnodes
        self.mnode_tree = np.asarray(mnode_tree, dtype=np.intp)

        # Variant counts per fan, for the scalar fast path's closed-form
        # robust tally: every tracked stats row belongs to either a robust
        # split or the root split of a maintenance variant, so
        # ``robust_visits == len(visited_rows) - sum(fan sizes visited)``.
        self.scalar_fan_lens: list[int] = [len(slots) for slots in fan_lists]

        # Scalar mirrors for the single-record fast path
        # (:mod:`repro.core.unlearn_fast`): plain Python containers beat
        # numpy scalar indexing by ~10x per access under CPython. Each
        # slot tuple carries its live object directly (SplitStats for
        # tracked splits, Leaf for leaves, the variant slot list for
        # fans, None for random routing-only splits), saving one list
        # indirection per visited node. Like the arrays above, these
        # describe *structure* only, which never goes stale -- a variant
        # switch merely moves ``active_index``.
        slot_objects: list[object] = []
        for slot_feature, slot_payload, slot_srow in zip(feature, payload, stats_row):
            if slot_srow >= 0:
                slot_objects.append(stats_objects[slot_srow])
            elif slot_feature == LEAF_MARKER:
                slot_objects.append(leaf_objects[slot_payload])
            elif slot_feature == FAN_MARKER:
                slot_objects.append(fan_lists[slot_payload])
            else:  # random top-d split: routing only
                slot_objects.append(None)
        self.scalar_slots: list[tuple[int, int, int, int, bool, object]] = list(
            zip(feature, payload, right, stats_row, robust, slot_objects)
        )
        self.scalar_route: list[bool] = self.route_flat.tolist()
        self.scalar_roots: list[int] = roots_out
        self.scalar_fans: list[list[int]] = fan_lists

    # ------------------------------------------------------------------ #
    # count mirrors (staleness: scalar mutations bypass the flat arrays)
    # ------------------------------------------------------------------ #

    def refresh(self) -> None:
        """Re-gather every mirrored count from the live objects."""
        stats = self.stats_objects
        count = len(stats)
        self.stats_n = np.fromiter((s.n for s in stats), dtype=np.int64, count=count)
        self.stats_n_plus = np.fromiter(
            (s.n_plus for s in stats), dtype=np.int64, count=count
        )
        self.stats_n_left = np.fromiter(
            (s.n_left for s in stats), dtype=np.int64, count=count
        )
        self.stats_n_left_plus = np.fromiter(
            (s.n_left_plus for s in stats), dtype=np.int64, count=count
        )
        leaves = self.leaf_objects
        n_leaves = len(leaves)
        self.leaf_n = np.fromiter(
            (leaf.n for leaf in leaves), dtype=np.int64, count=n_leaves
        )
        self.leaf_n_plus = np.fromiter(
            (leaf.n_plus for leaf in leaves), dtype=np.int64, count=n_leaves
        )
        self._stale = False

    def mark_stale(self) -> None:
        """Flag the count mirrors as out of date (structure stays valid)."""
        self._stale = True

    @property
    def stale(self) -> bool:
        return self._stale

    def ensure_fresh(self) -> None:
        """Refresh the count mirrors if object-path mutations staled them.

        Readers of the flat count arrays (the batch kernel's validation,
        the flush kernel's trajectory replay, the scalar write paths) call
        this; every scalar packed write path keeps the mirrors current
        inline, deferred or not, so it is a no-op on the hot paths.
        """
        if self._stale:
            self.refresh()

    # ------------------------------------------------------------------ #
    # deferred-maintenance pending log
    # ------------------------------------------------------------------ #

    @property
    def has_pending(self) -> bool:
        return bool(self.pending_mnode)

    @property
    def n_pending_nodes(self) -> int:
        """Number of currently tagged (pending) maintenance nodes."""
        return sum(1 for count in self._pending_count if count)

    @property
    def n_pending_visits(self) -> int:
        return len(self.pending_mnode)

    def note_deferred(
        self, values: list[int], positive: bool, sign: int, mnode_ids: list[int]
    ) -> None:
        """Append one deferred operation's visits to the pending log.

        ``sign`` is ``-1`` for a deletion and ``+1`` for an insertion; the
        flush kernel replays the signed deltas in arrival order, which is
        exactly the order the eager path would have re-scored in.
        """
        rec = len(self.pending_values)
        self.pending_values.append(values)
        self.pending_positive.append(positive)
        self.pending_sign.append(sign)
        self.pending_mnode.extend(mnode_ids)
        self.pending_rec.extend([rec] * len(mnode_ids))
        counts = self._pending_count
        for mnode_id in mnode_ids:
            counts[mnode_id] += 1

    def truncate_pending(self, n_records: int, n_visits: int) -> None:
        """Roll the pending log back to a recorded watermark.

        Used by the small-batch deferred path to discard the visits of
        records undone by a mid-batch failure.
        """
        for mnode_id in self.pending_mnode[n_visits:]:
            self._pending_count[mnode_id] -= 1
        del self.pending_mnode[n_visits:]
        del self.pending_rec[n_visits:]
        del self.pending_values[n_records:]
        del self.pending_positive[n_records:]
        del self.pending_sign[n_records:]

    def clear_pending(self) -> None:
        self.pending_values = []
        self.pending_positive = []
        self.pending_sign = []
        self.pending_mnode = []
        self.pending_rec = []
        self._pending_count = [0] * len(self.mnodes)

    @property
    def n_stats(self) -> int:
        return len(self.stats_objects)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_objects)


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    if not chunks:
        return np.zeros(0, dtype=dtype)
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks)


def unlearn_batch_packed(
    pack: UnlearnPack,
    values: np.ndarray,
    labels: np.ndarray,
    leaf_sink: LeafSink | None = None,
    deferred: bool = False,
    maintenance_budget: int | None = None,
) -> BatchUnlearnResult:
    """Remove a whole batch of records from the packed ensemble at once.

    Args:
        pack: the ensemble's :class:`UnlearnPack`.
        values: ``(n_records, n_features)`` int64 code matrix.
        labels: ``(n_records,)`` 0/1 labels.
        leaf_sink: invoked once per *distinct* mutated leaf after its
            decrement (the inference pack's O(1) write-through).
        deferred: tag-and-defer mode -- counts and leaves update exactly
            as in eager mode, but maintenance re-scoring (phase 4) is
            skipped and the visits are appended to the pack's pending log
            for a later :func:`~repro.core.deferred.flush_deferred`.
        maintenance_budget: in deferred mode, nodes whose pending-visit
            count reaches this bound are flushed immediately (their
            switches fold into the returned report).

    Returns:
        The aggregated report and the tree indices needing a repack.

    Raises:
        UnlearningError: when any record of the batch is inconsistent with
            the trees; no statistic is modified in that case (whole-batch
            atomic, strictly stronger than the scalar loop's per-record
            atomicity).
    """
    pack.ensure_fresh()
    values = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    if values.ndim != 2:
        raise ValueError(
            f"expected a (n_records, n_features) code matrix, got shape "
            f"{values.shape}"
        )
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    n_records, n_features = values.shape
    if labels.shape[0] != n_records:
        raise ValueError("labels length does not match the record matrix")
    positive = labels != 0
    flat_values = values.reshape(-1)

    feature = pack.feature
    payload = pack.payload
    right = pack.right
    stats_row = pack.stats_row
    is_robust = pack.is_robust
    route_flat = pack.route_flat
    fan_indptr = pack.fan_indptr
    fan_slots = pack.fan_slots

    # ---------------------------------------------------------------- #
    # phase 1: level-synchronous traversal of every (record, tree) pair,
    # fanning into every maintenance variant; visits are logged per level
    # and concatenated once.
    # ---------------------------------------------------------------- #
    n_trees = pack.tree_roots.shape[0]
    cur = np.tile(pack.tree_roots, n_records)
    rec = np.repeat(np.arange(n_records, dtype=np.intp), n_trees)

    leaf_row_chunks: list[np.ndarray] = []
    leaf_rec_chunks: list[np.ndarray] = []
    stat_row_chunks: list[np.ndarray] = []
    stat_left_chunks: list[np.ndarray] = []
    stat_rec_chunks: list[np.ndarray] = []
    visit_mnode_chunks: list[np.ndarray] = []
    visit_rec_chunks: list[np.ndarray] = []
    robust_visits = 0
    random_visits = 0

    while cur.size:
        fid = feature[cur]
        at_leaf = fid == LEAF_MARKER
        at_fan = fid == FAN_MARKER
        at_split = ~(at_leaf | at_fan)

        next_parts_cur: list[np.ndarray] = []
        next_parts_rec: list[np.ndarray] = []

        if at_leaf.any():
            leaf_row_chunks.append(payload[cur[at_leaf]])
            leaf_rec_chunks.append(rec[at_leaf])

        if at_fan.any():
            mnode_ids = payload[cur[at_fan]]
            fan_recs = rec[at_fan]
            visit_mnode_chunks.append(mnode_ids)
            visit_rec_chunks.append(fan_recs)
            counts = fan_indptr[mnode_ids + 1] - fan_indptr[mnode_ids]
            total = int(counts.sum())
            if total:
                starts = np.cumsum(counts) - counts
                offsets = np.arange(total, dtype=np.intp) - np.repeat(starts, counts)
                next_parts_cur.append(
                    fan_slots[np.repeat(fan_indptr[mnode_ids], counts) + offsets]
                )
                next_parts_rec.append(np.repeat(fan_recs, counts))

        if at_split.any():
            split_cur = cur[at_split]
            split_rec = rec[at_split]
            split_fid = fid[at_split]
            codes = flat_values[split_rec * n_features + split_fid]
            goes_left = route_flat[payload[split_cur] + codes]
            split_srow = stats_row[split_cur]
            tracked = split_srow >= 0
            n_tracked = int(np.count_nonzero(tracked))
            random_visits += split_srow.shape[0] - n_tracked
            if n_tracked == split_srow.shape[0]:
                # topd == 0: every split carries statistics, skip the mask.
                stat_row_chunks.append(split_srow)
                stat_left_chunks.append(goes_left)
                stat_rec_chunks.append(split_rec)
            elif n_tracked:
                stat_row_chunks.append(split_srow[tracked])
                stat_left_chunks.append(goes_left[tracked])
                stat_rec_chunks.append(split_rec[tracked])
            robust_visits += int(np.count_nonzero(is_robust[split_cur]))
            next_parts_cur.append(right[split_cur] - goes_left)
            next_parts_rec.append(split_rec)

        if next_parts_cur:
            cur = np.concatenate(next_parts_cur)
            rec = np.concatenate(next_parts_rec)
        else:
            cur = np.zeros(0, dtype=np.intp)
            rec = np.zeros(0, dtype=np.intp)

    # ---------------------------------------------------------------- #
    # phase 2: aggregate deltas via bincount scatters.
    # ---------------------------------------------------------------- #
    n_stats = pack.n_stats
    n_leaves = pack.n_leaves

    leaf_rows = _concat(leaf_row_chunks, np.intp)
    leaf_recs = _concat(leaf_rec_chunks, np.intp)
    leaf_pos = positive[leaf_recs]
    leaf_dn = np.bincount(leaf_rows, minlength=n_leaves).astype(np.int64)
    leaf_dnp = np.bincount(leaf_rows[leaf_pos], minlength=n_leaves).astype(np.int64)

    srows = _concat(stat_row_chunks, np.intp)
    sleft = _concat(stat_left_chunks, bool)
    spos = positive[_concat(stat_rec_chunks, np.intp)]
    d_left_plus = np.bincount(srows[sleft & spos], minlength=n_stats).astype(np.int64)
    d_left_minus = np.bincount(srows[sleft & ~spos], minlength=n_stats).astype(np.int64)
    d_right_plus = np.bincount(srows[~sleft & spos], minlength=n_stats).astype(np.int64)
    d_right_minus = np.bincount(srows[~sleft & ~spos], minlength=n_stats).astype(
        np.int64
    )

    # ---------------------------------------------------------------- #
    # phase 3: whole-batch validation against the pre-batch counts.
    # Every decrement is monotone and hits each count at most once per
    # record, so the batch is record-by-record applicable iff the
    # aggregate deltas fit -- the exact condition the scalar planner
    # checks one record at a time.
    # ---------------------------------------------------------------- #
    if np.any(leaf_dn > pack.leaf_n) or np.any(leaf_dnp > pack.leaf_n_plus):
        raise UnlearningError(
            "batch unlearning would drive a leaf count negative; at least "
            "one record was not part of the training data routed to its "
            "leaf (or was already unlearned) -- no update was applied"
        )
    left_plus0 = pack.stats_n_left_plus
    left_minus0 = pack.stats_n_left - left_plus0
    right_plus0 = pack.stats_n_plus - left_plus0
    right_minus0 = pack.stats_n - pack.stats_n_left - right_plus0
    if (
        np.any(d_left_plus > left_plus0)
        or np.any(d_left_minus > left_minus0)
        or np.any(d_right_plus > right_plus0)
        or np.any(d_right_minus > right_minus0)
    ):
        raise UnlearningError(
            "batch unlearning would drive a split statistic negative; at "
            "least one record is inconsistent with the trained splits -- "
            "no update was applied"
        )

    # ---------------------------------------------------------------- #
    # phase 4: maintenance re-scoring replay. For every visited node the
    # scalar loop re-scores after each visiting record; the prefix count
    # trajectories of *all* visited nodes' variants are reconstructed at
    # once with segmented cumulative sums (variants padded to the widest
    # fan) and scored in a single gini_gain_arrays call.
    # ---------------------------------------------------------------- #
    variant_switches = 0
    switched_trees: set[int] = set()
    switched_nodes: list = []
    final_scores: list[tuple[int, int, np.ndarray]] = []
    visit_mnodes = _concat(visit_mnode_chunks, np.intp)
    visit_recs = _concat(visit_rec_chunks, np.intp)
    maintenance_visits = int(visit_mnodes.shape[0])
    if maintenance_visits and deferred:
        # Tag-and-defer: log the visits (in record order, which is the
        # order the eager path re-scores in) instead of replaying the
        # trajectories now. The count write-back below still runs, so the
        # mirrors stay fresh along this path.
        order = np.argsort(visit_recs, kind="stable")
        rec_base = len(pack.pending_values)
        pack.pending_values.extend(values.tolist())
        pack.pending_positive.extend(positive.tolist())
        pack.pending_sign.extend([-1] * n_records)
        deferred_mnodes = visit_mnodes[order].tolist()
        pack.pending_mnode.extend(deferred_mnodes)
        pack.pending_rec.extend(
            (visit_recs[order] + rec_base).tolist()
        )
        counts = pack._pending_count
        for mnode_id in deferred_mnodes:
            counts[mnode_id] += 1
    if maintenance_visits and not deferred:
        # Sort by (node, record): the secondary key restores batch order,
        # which is the order the scalar loop re-scores in.
        order = np.lexsort((visit_recs, visit_mnodes))
        visit_mnodes = visit_mnodes[order]
        visit_recs = visit_recs[order]
        unique_mnodes, group_starts = np.unique(visit_mnodes, return_index=True)
        group_ends = np.append(group_starts[1:], maintenance_visits)
        n_unique = unique_mnodes.shape[0]
        group_sizes = group_ends - group_starts

        # Padded (node, variant) slot matrix: ragged fans are padded with
        # the node's own first variant slot so every padded cell computes
        # on real counts (masked to -inf before the argmax).
        fan_sizes = fan_indptr[unique_mnodes + 1] - fan_indptr[unique_mnodes]
        width = int(fan_sizes.max())
        total_fan = int(fan_sizes.sum())
        pad_rows = np.repeat(np.arange(n_unique, dtype=np.intp), fan_sizes)
        pad_cols = np.arange(total_fan, dtype=np.intp) - np.repeat(
            np.cumsum(fan_sizes) - fan_sizes, fan_sizes
        )
        slot_pad = np.repeat(
            fan_slots[fan_indptr[unique_mnodes]], width
        ).reshape(n_unique, width)
        slot_pad[pad_rows, pad_cols] = fan_slots[
            np.repeat(fan_indptr[unique_mnodes], fan_sizes) + pad_cols
        ]
        variant_valid = np.arange(width, dtype=np.intp)[None, :] < fan_sizes[:, None]

        # Expand to one row per visit (visits of a node are contiguous and
        # in batch order) and gather the per-variant routing decisions.
        group_of_visit = np.repeat(np.arange(n_unique, dtype=np.intp), group_sizes)
        visit_slots = slot_pad[group_of_visit]
        codes = values[visit_recs[:, None], feature[visit_slots]]
        goes_left = route_flat[payload[visit_slots] + codes]
        pos_col = positive[visit_recs].astype(np.int64)[:, None]
        rows_mat = stats_row[visit_slots]

        def _segmented_cumsum(x: np.ndarray) -> np.ndarray:
            """Per-group prefix sums along axis 0 (groups = visited nodes)."""
            totals = np.cumsum(x, axis=0)
            base = np.zeros((n_unique, x.shape[1]), dtype=np.int64)
            base[1:] = totals[group_starts[1:] - 1]
            return totals - base[group_of_visit]

        steps = _segmented_cumsum(np.ones((maintenance_visits, 1), dtype=np.int64))
        cum_pos = _segmented_cumsum(pos_col)
        cum_left = _segmented_cumsum(goes_left.astype(np.int64))
        cum_left_plus = _segmented_cumsum(
            (goes_left & (pos_col != 0)).astype(np.int64)
        )
        gains = gini_gain_arrays(
            pack.stats_n[rows_mat] - steps,
            pack.stats_n_plus[rows_mat] - cum_pos,
            pack.stats_n_left[rows_mat] - cum_left,
            pack.stats_n_left_plus[rows_mat] - cum_left_plus,
        )
        gains = np.where(variant_valid[group_of_visit], gains, -np.inf)
        # First maximum, matching the scalar tie-break towards the lowest
        # variant index; padded -inf cells never win.
        best = np.argmax(gains, axis=1)

        # The scalar loop counts a switch whenever a re-score changes the
        # active variant: compare each step's winner with its predecessor
        # (the node's pre-batch active variant for each group's first step).
        active0 = np.fromiter(
            (pack.mnodes[m].active_index for m in unique_mnodes.tolist()),
            dtype=np.int64,
            count=n_unique,
        )
        previous = np.empty_like(best)
        previous[1:] = best[:-1]
        previous[group_starts] = active0
        variant_switches = int(np.count_nonzero(best != previous))
        final_best = best[group_ends - 1]
        final_gains = gains[group_ends - 1]
        switched_ids = unique_mnodes[final_best != active0]
        switched_trees = set(pack.mnode_tree[switched_ids].tolist())
        switched_nodes = [pack.mnodes[int(m)] for m in switched_ids.tolist()]
        final_scores = [
            (int(mnode_id), int(final_best[index]), final_gains[index])
            for index, mnode_id in enumerate(unique_mnodes.tolist())
        ]

    # ---------------------------------------------------------------- #
    # phase 5: write-back. Everything below is infallible -- validation
    # already passed, so the object trees and the flat mirrors move
    # together.
    # ---------------------------------------------------------------- #
    dn = d_left_plus + d_left_minus + d_right_plus + d_right_minus
    dnp = d_left_plus + d_right_plus
    dn_left = d_left_plus + d_left_minus
    dn_left_plus = d_left_plus
    # Dirty rows and their deltas are pre-extracted to Python lists once;
    # zipping over them avoids per-row numpy scalar indexing, and the
    # count-keyed SplitStats caches self-invalidate on field assignment.
    stats_objects = pack.stats_objects
    dirty = np.flatnonzero(dn)
    for row, delta_n, delta_np, delta_l, delta_lp in zip(
        dirty.tolist(),
        dn[dirty].tolist(),
        dnp[dirty].tolist(),
        dn_left[dirty].tolist(),
        dn_left_plus[dirty].tolist(),
    ):
        stats = stats_objects[row]
        stats.n -= delta_n
        stats.n_plus -= delta_np
        stats.n_left -= delta_l
        stats.n_left_plus -= delta_lp
    pack.stats_n -= dn
    pack.stats_n_plus -= dnp
    pack.stats_n_left -= dn_left
    pack.stats_n_left_plus -= dn_left_plus

    leaf_objects = pack.leaf_objects
    dirty_leaves = np.flatnonzero(leaf_dn)
    for row, delta_n, delta_np in zip(
        dirty_leaves.tolist(),
        leaf_dn[dirty_leaves].tolist(),
        leaf_dnp[dirty_leaves].tolist(),
    ):
        leaf = leaf_objects[row]
        leaf.n -= delta_n
        leaf.n_plus -= delta_np
        if leaf_sink is not None:
            leaf_sink(leaf)
    pack.leaf_n -= leaf_dn
    pack.leaf_n_plus -= leaf_dnp

    for mnode_id, final, gains in final_scores:
        node = pack.mnodes[mnode_id]
        for index, variant in enumerate(node.variants):
            variant.gain = float(gains[index])
        node.active_index = final

    if deferred and maintenance_budget is not None:
        tripped = [
            mnode_id
            for mnode_id in set(pack.pending_mnode)
            if pack._pending_count[mnode_id] >= maintenance_budget
        ]
        if tripped:
            from repro.core.deferred import flush_deferred

            flushed = flush_deferred(pack, node_ids=tripped)
            variant_switches += flushed.variant_switches
            switched_trees.update(flushed.switched_trees)
            switched_nodes.extend(
                node for node in flushed.switched_nodes
                if not any(node is seen for seen in switched_nodes)
            )

    report = UnlearningReport(
        leaves_updated=int(leaf_rows.shape[0]),
        robust_nodes_visited=robust_visits,
        maintenance_nodes_visited=maintenance_visits,
        variant_switches=variant_switches,
        random_nodes_visited=random_visits,
    )
    return BatchUnlearnResult(
        report=report,
        switched_trees=tuple(sorted(switched_trees)),
        switched_nodes=tuple(switched_nodes),
    )
