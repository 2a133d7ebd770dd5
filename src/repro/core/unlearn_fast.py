"""Scalar single-record unlearning over the packed write-side arrays.

The batch kernel (:mod:`repro.core.unlearn_batch`) amortises numpy call
overhead across records, which makes it 4x+ faster at batch 256 but ~5x
*slower* than the object walk at batch size 1 -- the latency-critical
GDPR single-delete regime. This module is the third write path: a scalar
traversal over the :class:`~repro.core.unlearn_batch.UnlearnPack`'s
Python-list mirrors (``scalar_slots``/``scalar_route``/``scalar_fans``),
tuned for CPython:

* one tuple unpack per node (``feature, route_base, right_slot,
  stats_row, is_robust, live_object``) instead of isinstance dispatch
  over node objects;
* flat-table routing (``route[base + value]``) instead of per-split
  ``goes_left_value`` calls;
* inline quadrant validation and direct count decrements on the live
  ``SplitStats``/``Leaf`` objects (visited at most once per record, so
  in-order validate-and-decrement with undo-on-failure is equivalent to
  the object path's plan-then-apply); both classes are ``__slots__``-ed,
  which shaves a dict probe off every one of the ~1000 attribute
  accesses a deep-ensemble deletion performs;
* per-record tallies (robust visits) and the read-pack leaf sync are
  derived *after* the walk with a handful of fancy-indexed numpy ops
  instead of per-node bookkeeping inside the loop;
* numpy work only in the final write-through that keeps the pack's flat
  count mirrors fresh (a handful of fancy-indexed decrements).

Equivalence with :func:`repro.core.unlearning.unlearn_from_tree` looped
over the trees is by construction and asserted by the test suite and
in-run by ``benchmarks/bench_unlearning.py``: same validation
predicates, same decrements, same post-record re-scoring (re-scoring
order across maintenance nodes is irrelevant -- each node is re-scored
once from its own variants' statistics).

Because the write-through happens on every call, the pack's count
mirrors never go stale along this path -- no full gather pass before
the next batched call (the pre-fast-path behaviour marked the whole
pack stale on every scalar delete).

:func:`unlearn_small_batch` loops the same core over a small batch with
whole-batch atomicity (undo of all prior records on a mid-batch
failure), which is what the adaptive dispatch in
``HedgeCutClassifier.unlearn_batch`` routes to below the measured
batch-size crossover of the vectorised kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.exceptions import UnlearningError
from repro.core.unlearn_batch import BatchUnlearnResult, UnlearnPack
from repro.core.unlearning import LeafSink, UnlearningReport

_LEAF_MSG = (
    "unlearning would drive a leaf count negative; the record "
    "was not part of the training data routed to this leaf "
    "(or was already unlearned)"
)
_ROBUST_MSG = (
    "unlearning would drive a split statistic negative; the "
    "record is inconsistent with the trained split"
)
_VARIANT_MSG = (
    "unlearning would drive a split statistic negative; "
    "the record is inconsistent with a subtree variant"
)


def _apply_one(
    pack: UnlearnPack,
    values: list,
    positive: bool,
) -> tuple[list[int], list[int], list[int], list[int], int]:
    """Walk every tree for one record, validating and decrementing inline.

    Returns ``(stat_rows, stat_rows_left, leaf_ids, mnode_ids,
    random_visits)`` on success. On an inconsistent record every
    decrement made so far is undone (the flat mirrors and the read pack
    are only written after success, so they need no undo) and
    :class:`UnlearningError` raises with the object path's message.

    A single record visits any leaf or split statistic at most once
    (variant subtrees are disjoint object graphs), so validating against
    the current counts as we go is exactly the object planner's
    validation against the pre-removal counts.

    The walk is specialised per label (two near-identical loops): the
    label never changes mid-record, and hoisting the branch plus fusing
    the quadrant check with its decrements saves several opcodes on every
    one of the ~100+ visited nodes. Per-node tallies are deliberately
    absent -- robust-visit counts fall out of a post-walk fancy-indexed
    sum over ``stat_rows``.
    """
    slots = pack.scalar_slots
    route = pack.scalar_route

    stat_rows: list[int] = []
    stat_rows_left: list[int] = []
    leaf_ids: list[int] = []
    mnode_ids: list[int] = []
    rows_append = stat_rows.append
    left_append = stat_rows_left.append
    leaf_append = leaf_ids.append
    mnode_append = mnode_ids.append
    random_visits = 0
    failure: str | None = None

    stack: list[int] = []
    stack_pop = stack.pop
    stack_extend = stack.extend
    for slot in pack.scalar_roots:
        if failure is not None:
            break
        if positive:
            while True:
                f, base, right_slot, srow, is_robust, obj = slots[slot]
                if f >= 0:
                    if obj is None:  # random top-d split: routing only
                        random_visits += 1
                        slot = right_slot - route[base + values[f]]
                    elif route[base + values[f]]:
                        n_left_plus = obj.n_left_plus
                        if n_left_plus <= 0:
                            failure = _ROBUST_MSG if is_robust else _VARIANT_MSG
                            break
                        obj.n -= 1
                        obj.n_plus -= 1
                        obj.n_left -= 1
                        obj.n_left_plus = n_left_plus - 1
                        left_append(srow)
                        rows_append(srow)
                        slot = right_slot - 1
                    else:
                        if obj.n_plus - obj.n_left_plus <= 0:
                            failure = _ROBUST_MSG if is_robust else _VARIANT_MSG
                            break
                        obj.n -= 1
                        obj.n_plus -= 1
                        rows_append(srow)
                        slot = right_slot
                elif f == -1:  # leaf
                    if obj.n <= 0 or obj.n_plus <= 0:
                        failure = _LEAF_MSG
                        break
                    obj.n -= 1
                    obj.n_plus -= 1
                    leaf_append(base)
                    if stack:
                        slot = stack_pop()
                    else:
                        break
                else:  # fan (maintenance node): continue into every variant
                    mnode_append(base)
                    stack_extend(obj[1:])
                    slot = obj[0]
        else:
            while True:
                f, base, right_slot, srow, is_robust, obj = slots[slot]
                if f >= 0:
                    if obj is None:  # random top-d split: routing only
                        random_visits += 1
                        slot = right_slot - route[base + values[f]]
                    elif route[base + values[f]]:
                        if obj.n_left - obj.n_left_plus <= 0:
                            failure = _ROBUST_MSG if is_robust else _VARIANT_MSG
                            break
                        obj.n -= 1
                        obj.n_left -= 1
                        left_append(srow)
                        rows_append(srow)
                        slot = right_slot - 1
                    else:
                        if obj.n - obj.n_left - (obj.n_plus - obj.n_left_plus) <= 0:
                            failure = _ROBUST_MSG if is_robust else _VARIANT_MSG
                            break
                        obj.n -= 1
                        rows_append(srow)
                        slot = right_slot
                elif f == -1:  # leaf
                    if obj.n <= 0:
                        failure = _LEAF_MSG
                        break
                    obj.n -= 1
                    leaf_append(base)
                    if stack:
                        slot = stack_pop()
                    else:
                        break
                else:  # fan (maintenance node): continue into every variant
                    mnode_append(base)
                    stack_extend(obj[1:])
                    slot = obj[0]

    if failure is not None:
        stats_objects = pack.stats_objects
        leaf_objects = pack.leaf_objects
        for srow in stat_rows:
            s = stats_objects[srow]
            s.n += 1
            if positive:
                s.n_plus += 1
        for srow in stat_rows_left:
            s = stats_objects[srow]
            s.n_left += 1
            if positive:
                s.n_left_plus += 1
        for leaf_id in leaf_ids:
            leaf = leaf_objects[leaf_id]
            leaf.n += 1
            if positive:
                leaf.n_plus += 1
        raise UnlearningError(failure)

    return stat_rows, stat_rows_left, leaf_ids, mnode_ids, random_visits


def _rescore_fast(node) -> bool:
    """Bit-identical inline of :meth:`MaintenanceNode.rescore`.

    Same arithmetic in the same order as ``SplitStats.gini_gain`` /
    ``gini_impurity`` (so the stored gains are the exact floats the
    object path computes), and a strictly-greater scan that reproduces
    ``max(..., key=(gain, -index))``'s lowest-index tie-break.

    The count-keyed gain cache is deliberately *not* consulted or
    updated here: a deletion that reaches a maintenance node descends
    into every one of its variants, so each variant's counts have just
    changed and the cache could only ever miss. (Skipping the cache
    *write* is safe too -- the gain is a pure function of the four
    counts, so any previously stored key either no longer matches or
    still maps to the correct value.)
    """
    best_index = -1
    best_gain = 0.0
    for index, variant in enumerate(node.variants):
        s = variant.stats
        n = s.n
        if n <= 0:
            gain = 0.0
        else:
            n_left = s.n_left
            n_left_plus = s.n_left_plus
            n_plus = s.n_plus
            p = n_plus / n
            before = 2.0 * p * (1.0 - p)
            w_left = n_left / n
            n_right = n - n_left
            w_right = n_right / n
            if n_left <= 0:
                gini_left = 0.0
            else:
                p = n_left_plus / n_left
                gini_left = 2.0 * p * (1.0 - p)
            if n_right <= 0:
                gini_right = 0.0
            else:
                p = (n_plus - n_left_plus) / n_right
                gini_right = 2.0 * p * (1.0 - p)
            gain = before - (w_left * gini_left + (w_right * gini_right))
        variant.gain = gain
        if best_index < 0 or gain > best_gain:
            best_index = index
            best_gain = gain
    switched = best_index != node.active_index
    node.active_index = best_index
    return switched


def _write_through(
    pack: UnlearnPack,
    positive: bool,
    stat_rows,
    stat_rows_left,
    leaf_ids,
    sign: int = -1,
) -> None:
    """Mirror one record's decrements into the pack's flat count arrays.

    Rows are unique per record, so plain fancy-indexed adds are exact.
    ``sign=+1`` undoes a record during small-batch rollback.
    """
    if len(stat_rows):
        rows = np.asarray(stat_rows, dtype=np.intp)
        pack.stats_n[rows] += sign
        if positive:
            pack.stats_n_plus[rows] += sign
    if len(stat_rows_left):
        rows = np.asarray(stat_rows_left, dtype=np.intp)
        pack.stats_n_left[rows] += sign
        if positive:
            pack.stats_n_left_plus[rows] += sign
    if len(leaf_ids):
        rows = np.asarray(leaf_ids, dtype=np.intp)
        pack.leaf_n[rows] += sign
        if positive:
            pack.leaf_n_plus[rows] += sign


def _sync_leaves(pack: UnlearnPack, leaf_ids, read_pack) -> None:
    """Set-sync a record's mutated leaves into the inference pack's arrays.

    Same semantics as looping the read pack's per-leaf ``sync_leaf``
    (leaves of inactive variants are absent from its index and skipped),
    hoisted out of the traversal so the hot loop carries no callback, and
    correct for undo too: it copies the objects' *current* counts.
    """
    index = read_pack.leaf_index
    leaf_objects = pack.leaf_objects
    leaf_n = read_pack.leaf_n
    leaf_n_plus = read_pack.leaf_n_plus
    index_get = index.get
    for leaf_id in leaf_ids:
        leaf = leaf_objects[leaf_id]
        row = index_get(id(leaf))
        if row is not None:
            leaf_n[row] = leaf.n
            leaf_n_plus[row] = leaf.n_plus


def unlearn_one_packed(
    pack: UnlearnPack,
    values,
    label: int,
    leaf_sink: LeafSink | None = None,
    read_pack=None,
) -> BatchUnlearnResult:
    """Remove one record through the pack's scalar mirrors.

    Args:
        pack: the ensemble's :class:`UnlearnPack`.
        values: the record's feature codes (sequence of ints).
        label: the record's 0/1 label.
        leaf_sink: invoked with every mutated leaf after success (the
            inference pack's O(1) write-through). Ignored when
            ``read_pack`` is given.
        read_pack: the ensemble's inference pack; when given, mutated
            leaves are set-synced into its arrays in one post-walk loop
            (:func:`_sync_leaves`) instead of per-leaf ``leaf_sink``
            callbacks inside the traversal.

    Returns:
        A :class:`BatchUnlearnResult` whose report is bit-identical to
        looping :func:`~repro.core.unlearning.unlearn_from_tree` over the
        trees, and whose ``switched_trees`` lists the trees whose active
        variant changed (the caller repacks them).

    Raises:
        UnlearningError: when the record is inconsistent with the trees;
            nothing is modified in that case.
    """
    pack.ensure_fresh()
    if isinstance(values, np.ndarray):
        values = values.tolist()
    positive = label == 1
    stat_rows, stat_rows_left, leaf_ids, mnode_ids, random_ = _apply_one(
        pack, values, positive
    )

    variant_switches = 0
    switched: list[int] = []
    switched_nodes: list = []
    variant_rows = 0
    fan_lens = pack.scalar_fan_lens
    mnodes = pack.mnodes
    mnode_tree = pack.mnode_tree
    for mnode_id in mnode_ids:
        variant_rows += fan_lens[mnode_id]
        if _rescore_fast(mnodes[mnode_id]):
            variant_switches += 1
            switched.append(int(mnode_tree[mnode_id]))
            switched_nodes.append(mnodes[mnode_id])
    _write_through(pack, positive, stat_rows, stat_rows_left, leaf_ids)
    if read_pack is not None:
        _sync_leaves(pack, leaf_ids, read_pack)
    elif leaf_sink is not None:
        leaf_objects = pack.leaf_objects
        for leaf_id in leaf_ids:
            leaf_sink(leaf_objects[leaf_id])

    report = UnlearningReport(
        leaves_updated=len(leaf_ids),
        robust_nodes_visited=len(stat_rows) - variant_rows,
        maintenance_nodes_visited=len(mnode_ids),
        variant_switches=variant_switches,
        random_nodes_visited=random_,
    )
    return BatchUnlearnResult(
        report=report,
        switched_trees=tuple(sorted(set(switched))) if switched else (),
        switched_nodes=tuple(switched_nodes),
    )


def unlearn_small_batch(
    pack: UnlearnPack,
    values: np.ndarray,
    labels: np.ndarray,
    leaf_sink: LeafSink | None = None,
    read_pack=None,
) -> BatchUnlearnResult:
    """Loop the scalar core over a small batch, whole-batch atomically.

    Semantically identical to :func:`unlearn_batch_packed` (same reports,
    same final state, same whole-batch atomicity) but with the scalar
    core's constant factors, which win below the kernel's measured
    batch-size crossover. Records apply in order with a re-score after
    each, exactly like the sequential scalar loop, so
    ``variant_switches`` matches both other paths.

    On a mid-batch inconsistency every prior record is rolled back:
    counts are re-incremented on the object and mirror sides (including
    the read pack, via ``read_pack`` or ``leaf_sink``), and first-touch
    snapshots restore every re-scored maintenance node's gains and
    active variant.
    """
    pack.ensure_fresh()
    values = np.asarray(values, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if values.ndim != 2 or values.shape[0] != labels.shape[0]:
        raise ValueError("expected matching (n_records, n_features) and labels")

    applied: list[tuple[bool, list[int], list[int], list[int]]] = []
    mnode_snapshots: dict[int, tuple[tuple[float, ...], int]] = {}
    pre_batch_active: dict[int, int] = {}
    report = UnlearningReport()
    rows_list = values.tolist()
    labels_list = labels.tolist()

    try:
        for row_values, label in zip(rows_list, labels_list):
            positive = label == 1
            stat_rows, stat_rows_left, leaf_ids, mnode_ids, random_ = _apply_one(
                pack, row_values, positive
            )
            applied.append((positive, stat_rows, stat_rows_left, leaf_ids))
            switches = 0
            variant_rows = 0
            fan_lens = pack.scalar_fan_lens
            for mnode_id in mnode_ids:
                node = pack.mnodes[mnode_id]
                variant_rows += fan_lens[mnode_id]
                if mnode_id not in mnode_snapshots:
                    mnode_snapshots[mnode_id] = (
                        tuple(variant.gain for variant in node.variants),
                        node.active_index,
                    )
                    pre_batch_active[mnode_id] = node.active_index
                if _rescore_fast(node):
                    switches += 1
            _write_through(pack, positive, stat_rows, stat_rows_left, leaf_ids)
            if read_pack is not None:
                _sync_leaves(pack, leaf_ids, read_pack)
            elif leaf_sink is not None:
                for leaf_id in leaf_ids:
                    leaf_sink(pack.leaf_objects[leaf_id])
            report.merge(
                UnlearningReport(
                    leaves_updated=len(leaf_ids),
                    robust_nodes_visited=len(stat_rows) - variant_rows,
                    maintenance_nodes_visited=len(mnode_ids),
                    variant_switches=switches,
                    random_nodes_visited=random_,
                )
            )
    except UnlearningError:
        # Roll back every fully applied prior record (the failing record
        # already undid itself inside _apply_one).
        for positive, stat_rows, stat_rows_left, leaf_ids in reversed(applied):
            for srow in stat_rows:
                s = pack.stats_objects[srow]
                s.n += 1
                if positive:
                    s.n_plus += 1
            for srow in stat_rows_left:
                s = pack.stats_objects[srow]
                s.n_left += 1
                if positive:
                    s.n_left_plus += 1
            for leaf_id in leaf_ids:
                leaf = pack.leaf_objects[leaf_id]
                leaf.n += 1
                if positive:
                    leaf.n_plus += 1
                if read_pack is None and leaf_sink is not None:
                    leaf_sink(leaf)
            if read_pack is not None:
                _sync_leaves(pack, leaf_ids, read_pack)
            _write_through(
                pack, positive, stat_rows, stat_rows_left, leaf_ids, sign=1
            )
        for mnode_id, (gains, active_index) in mnode_snapshots.items():
            node = pack.mnodes[mnode_id]
            for variant, gain in zip(node.variants, gains):
                variant.gain = gain
            node.active_index = active_index
        raise

    switched_trees = {
        int(pack.mnode_tree[mnode_id])
        for mnode_id, active0 in pre_batch_active.items()
        if pack.mnodes[mnode_id].active_index != active0
    }
    switched_nodes = [
        pack.mnodes[mnode_id]
        for mnode_id, active0 in pre_batch_active.items()
        if pack.mnodes[mnode_id].active_index != active0
    ]
    return BatchUnlearnResult(
        report=report,
        switched_trees=tuple(sorted(switched_trees)),
        switched_nodes=tuple(switched_nodes),
    )


def _insert_one(
    pack: UnlearnPack,
    values: list,
    positive: bool,
) -> tuple[list[int], list[int], list[int], list[int], int]:
    """Walk every tree for one inserted record, incrementing inline.

    The mirror image of :func:`_apply_one` with ``+1`` deltas and no
    validation: an insertion can never drive a count negative, so there
    is no failure path and no undo. Returns the same
    ``(stat_rows, stat_rows_left, leaf_ids, mnode_ids, random_visits)``
    tuple so the callers share their post-walk bookkeeping.
    """
    slots = pack.scalar_slots
    route = pack.scalar_route

    stat_rows: list[int] = []
    stat_rows_left: list[int] = []
    leaf_ids: list[int] = []
    mnode_ids: list[int] = []
    rows_append = stat_rows.append
    left_append = stat_rows_left.append
    leaf_append = leaf_ids.append
    mnode_append = mnode_ids.append
    random_visits = 0

    stack: list[int] = []
    stack_pop = stack.pop
    stack_extend = stack.extend
    for slot in pack.scalar_roots:
        if positive:
            while True:
                f, base, right_slot, srow, is_robust, obj = slots[slot]
                if f >= 0:
                    if obj is None:  # random top-d split: routing only
                        random_visits += 1
                        slot = right_slot - route[base + values[f]]
                    elif route[base + values[f]]:
                        obj.n += 1
                        obj.n_plus += 1
                        obj.n_left += 1
                        obj.n_left_plus += 1
                        left_append(srow)
                        rows_append(srow)
                        slot = right_slot - 1
                    else:
                        obj.n += 1
                        obj.n_plus += 1
                        rows_append(srow)
                        slot = right_slot
                elif f == -1:  # leaf
                    obj.n += 1
                    obj.n_plus += 1
                    leaf_append(base)
                    if stack:
                        slot = stack_pop()
                    else:
                        break
                else:  # fan (maintenance node): continue into every variant
                    mnode_append(base)
                    stack_extend(obj[1:])
                    slot = obj[0]
        else:
            while True:
                f, base, right_slot, srow, is_robust, obj = slots[slot]
                if f >= 0:
                    if obj is None:  # random top-d split: routing only
                        random_visits += 1
                        slot = right_slot - route[base + values[f]]
                    elif route[base + values[f]]:
                        obj.n += 1
                        obj.n_left += 1
                        left_append(srow)
                        rows_append(srow)
                        slot = right_slot - 1
                    else:
                        obj.n += 1
                        rows_append(srow)
                        slot = right_slot
                elif f == -1:  # leaf
                    obj.n += 1
                    leaf_append(base)
                    if stack:
                        slot = stack_pop()
                    else:
                        break
                else:  # fan (maintenance node): continue into every variant
                    mnode_append(base)
                    stack_extend(obj[1:])
                    slot = obj[0]

    return stat_rows, stat_rows_left, leaf_ids, mnode_ids, random_visits


def learn_one_packed(
    pack: UnlearnPack,
    values,
    label: int,
    leaf_sink: LeafSink | None = None,
    read_pack=None,
) -> BatchUnlearnResult:
    """Insert one record through the pack's scalar mirrors.

    The write-through counterpart of :func:`unlearn_one_packed` for
    insertions: O(leaf-path) count increments on the live objects, the
    same re-score over the visited maintenance nodes, and the same
    leaf sync into the inference pack -- no structural change, so no
    repack unless a variant switches. This replaces the old ``learn_one`` behaviour of marking
    the whole packed ensemble stale and repacking on the next predict.

    Parameters and return semantics match :func:`unlearn_one_packed`
    (``switched_trees`` lists trees to repack). Insertions cannot fail
    validation, so no exception path.
    """
    pack.ensure_fresh()
    if isinstance(values, np.ndarray):
        values = values.tolist()
    positive = label == 1
    stat_rows, stat_rows_left, leaf_ids, mnode_ids, random_ = _insert_one(
        pack, values, positive
    )

    variant_switches = 0
    switched: list[int] = []
    switched_nodes: list = []
    variant_rows = 0
    fan_lens = pack.scalar_fan_lens
    mnodes = pack.mnodes
    mnode_tree = pack.mnode_tree
    for mnode_id in mnode_ids:
        variant_rows += fan_lens[mnode_id]
        if _rescore_fast(mnodes[mnode_id]):
            variant_switches += 1
            switched.append(int(mnode_tree[mnode_id]))
            switched_nodes.append(mnodes[mnode_id])
    _write_through(pack, positive, stat_rows, stat_rows_left, leaf_ids, sign=1)
    if read_pack is not None:
        _sync_leaves(pack, leaf_ids, read_pack)
    elif leaf_sink is not None:
        leaf_objects = pack.leaf_objects
        for leaf_id in leaf_ids:
            leaf_sink(leaf_objects[leaf_id])

    report = UnlearningReport(
        leaves_updated=len(leaf_ids),
        robust_nodes_visited=len(stat_rows) - variant_rows,
        maintenance_nodes_visited=len(mnode_ids),
        variant_switches=variant_switches,
        random_nodes_visited=random_,
    )
    return BatchUnlearnResult(
        report=report,
        switched_trees=tuple(sorted(set(switched))) if switched else (),
        switched_nodes=tuple(switched_nodes),
    )
