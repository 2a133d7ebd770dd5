"""Lazy maintenance flush kernel for tag-and-defer unlearning.

Eager HedgeCut re-scores every maintenance node a deletion (or insertion)
touches, per operation. DynFrs-style deferred maintenance decouples the
two halves of the write path: statistic deltas and leaf updates apply
immediately (predictions against the *current* structure stay exact), but
variant re-scoring is postponed -- affected maintenance nodes are merely
*tagged* with their pending visits in the :class:`~repro.core.
unlearn_batch.UnlearnPack`'s pending log. This module drains those tags.

:func:`flush_deferred` reconstructs, for every tagged node, the exact
count trajectory its variants went through while operations accumulated,
and replays the eager path's per-operation re-scoring over all nodes and
all steps in a handful of vectorised calls. The machinery is the batch
kernel's phase-4 replay generalised to *signed* deltas (deletions carry
``-1``, insertions ``+1``):

* visits sort by ``(node, arrival index)`` -- arrival order is the order
  the eager loop would have re-scored in;
* per-(visit, variant) signed deltas for the four counts come from one
  routing gather over the pending records;
* segmented (per-node) prefix sums turn the *post-applied* live counts
  into the count at any intermediate step:
  ``count_at_step_k = current - group_total + prefix_k`` (exact in
  int64, no cancellation);
* :func:`~repro.core.splits.gini_gain_arrays` scores every step of every
  variant bit-for-bit like ``SplitStats.gini_gain``, padded variants are
  masked to ``-inf``, and ``np.argmax``'s first-maximum matches the
  scalar tie-break towards the lowest variant index;
* a previous-winner chain seeded with each node's tagged
  ``active_index`` counts exactly the switches the eager sequence would
  have counted, and the last step's winner and gains are written back.

The resulting invariant -- property-tested in
``tests/core/test_deferred.py`` -- is ``deferred + flush == eager``: same
final gains and active variants (bit-identical floats), same cumulative
switch counts, same probabilities.

A *partial* flush (``node_ids``) drains only the named nodes, leaving
other tags and their arrival order intact; this serves the per-node
pending budget, which bounds both flush latency and prediction staleness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.splits import gini_gain_arrays


@dataclass(frozen=True)
class MaintenanceFlushReport:
    """Outcome of one deferred-maintenance flush.

    Attributes:
        nodes_flushed: tagged maintenance nodes drained by this flush.
        visits_replayed: pending (node, operation) visits replayed.
        variant_switches: re-scores that changed an active variant,
            summed over the replayed trajectories -- the exact number the
            eager path would have counted for the same operations.
        switched_trees: sorted tree indices whose *final* active variant
            differs from the tagged one.
        switched_nodes: the :class:`~repro.core.nodes.MaintenanceNode`
            objects behind those switches, for in-place span splicing via
            ``PackedEnsemble.splice_subtree``.
    """

    nodes_flushed: int = 0
    visits_replayed: int = 0
    variant_switches: int = 0
    switched_trees: tuple[int, ...] = ()
    switched_nodes: tuple = ()


def flush_deferred(pack, node_ids=None) -> MaintenanceFlushReport:
    """Replay the pending maintenance visits of a pack and untag the nodes.

    Args:
        pack: an :class:`~repro.core.unlearn_batch.UnlearnPack` carrying
            pending deferred visits.
        node_ids: maintenance-node ids to drain (``None`` = all). Nodes
            outside the selection keep their tags and arrival order.

    Returns:
        A :class:`MaintenanceFlushReport`; empty when nothing is pending.
    """
    n_total = len(pack.pending_mnode)
    if n_total == 0:
        return MaintenanceFlushReport()
    pack.ensure_fresh()

    all_mnodes = np.asarray(pack.pending_mnode, dtype=np.intp)
    all_recs = np.asarray(pack.pending_rec, dtype=np.intp)
    arrival = np.arange(n_total, dtype=np.intp)
    if node_ids is None:
        selected = np.ones(n_total, dtype=bool)
    else:
        selected = np.isin(all_mnodes, np.asarray(list(node_ids), dtype=np.intp))
        if not selected.any():
            return MaintenanceFlushReport()
    visit_mnodes = all_mnodes[selected]
    visit_recs = all_recs[selected]
    visit_arrival = arrival[selected]
    n_visits = int(visit_mnodes.shape[0])

    values = np.asarray(pack.pending_values, dtype=np.int64)
    positive = np.asarray(pack.pending_positive, dtype=bool)
    sign = np.asarray(pack.pending_sign, dtype=np.int64)

    # Sort by (node, arrival): per-node trajectories in eager re-score
    # order, one contiguous group per node.
    order = np.lexsort((visit_arrival, visit_mnodes))
    visit_mnodes = visit_mnodes[order]
    visit_recs = visit_recs[order]
    unique_mnodes, group_starts = np.unique(visit_mnodes, return_index=True)
    group_ends = np.append(group_starts[1:], n_visits)
    n_unique = int(unique_mnodes.shape[0])
    group_sizes = group_ends - group_starts

    fan_indptr = pack.fan_indptr
    fan_slots = pack.fan_slots
    feature = pack.feature
    payload = pack.payload
    route_flat = pack.route_flat
    stats_row = pack.stats_row

    # Padded (node, variant) slot matrix, exactly as in the batch
    # kernel's phase 4: ragged fans pad with the node's first variant
    # slot so padded cells compute on real counts (masked before argmax).
    fan_sizes = fan_indptr[unique_mnodes + 1] - fan_indptr[unique_mnodes]
    width = int(fan_sizes.max())
    total_fan = int(fan_sizes.sum())
    pad_rows = np.repeat(np.arange(n_unique, dtype=np.intp), fan_sizes)
    pad_cols = np.arange(total_fan, dtype=np.intp) - np.repeat(
        np.cumsum(fan_sizes) - fan_sizes, fan_sizes
    )
    slot_pad = np.repeat(fan_slots[fan_indptr[unique_mnodes]], width).reshape(
        n_unique, width
    )
    slot_pad[pad_rows, pad_cols] = fan_slots[
        np.repeat(fan_indptr[unique_mnodes], fan_sizes) + pad_cols
    ]
    variant_valid = np.arange(width, dtype=np.intp)[None, :] < fan_sizes[:, None]

    group_of_visit = np.repeat(np.arange(n_unique, dtype=np.intp), group_sizes)
    visit_slots = slot_pad[group_of_visit]
    codes = values[visit_recs[:, None], feature[visit_slots]]
    goes_left = route_flat[payload[visit_slots] + codes]
    rows_mat = stats_row[visit_slots]
    sign_col = sign[visit_recs][:, None]
    pos_col = positive[visit_recs][:, None]

    # Signed per-(visit, variant) deltas of the four counts.
    d_n = np.broadcast_to(sign_col, (n_visits, width))
    d_np = np.where(pos_col, sign_col, 0)
    d_np = np.broadcast_to(d_np, (n_visits, width))
    d_nl = np.where(goes_left, sign_col, 0)
    d_nlp = np.where(goes_left & pos_col, sign_col, 0)

    def _segmented_cumsum(x: np.ndarray) -> np.ndarray:
        """Per-group prefix sums along axis 0 (groups = tagged nodes)."""
        totals = np.cumsum(x, axis=0)
        base = np.zeros((n_unique, x.shape[1]), dtype=np.int64)
        base[1:] = totals[group_starts[1:] - 1]
        return totals - base[group_of_visit]

    pre_n = _segmented_cumsum(d_n)
    pre_np = _segmented_cumsum(d_np)
    pre_nl = _segmented_cumsum(d_nl)
    pre_nlp = _segmented_cumsum(d_nlp)

    # Live counts are *post-applied* (deferred writes mutate the objects
    # immediately); the count after step k of a node's trajectory is
    # current - total + prefix_k, all exact int64.
    last = group_ends - 1
    tot_n = pre_n[last][group_of_visit]
    tot_np = pre_np[last][group_of_visit]
    tot_nl = pre_nl[last][group_of_visit]
    tot_nlp = pre_nlp[last][group_of_visit]

    gains = gini_gain_arrays(
        pack.stats_n[rows_mat] - tot_n + pre_n,
        pack.stats_n_plus[rows_mat] - tot_np + pre_np,
        pack.stats_n_left[rows_mat] - tot_nl + pre_nl,
        pack.stats_n_left_plus[rows_mat] - tot_nlp + pre_nlp,
    )
    gains = np.where(variant_valid[group_of_visit], gains, -np.inf)
    best = np.argmax(gains, axis=1)

    # Switch chain: each step's winner against its predecessor, seeded
    # with the node's tagged active variant (unchanged since the first
    # pending visit -- any eager operation or budget trip flushes first).
    active0 = np.fromiter(
        (pack.mnodes[m].active_index for m in unique_mnodes.tolist()),
        dtype=np.int64,
        count=n_unique,
    )
    previous = np.empty_like(best)
    previous[1:] = best[:-1]
    previous[group_starts] = active0
    variant_switches = int(np.count_nonzero(best != previous))
    final_best = best[last]
    final_gains = gains[last]
    switched_ids = unique_mnodes[final_best != active0]
    switched_trees = sorted(set(pack.mnode_tree[switched_ids].tolist()))
    switched_nodes = tuple(pack.mnodes[int(m)] for m in switched_ids.tolist())

    for index, mnode_id in enumerate(unique_mnodes.tolist()):
        node = pack.mnodes[mnode_id]
        row = final_gains[index]
        for variant_index, variant in enumerate(node.variants):
            variant.gain = float(row[variant_index])
        node.active_index = int(final_best[index])

    # Untag: drained visits leave the log; a partial flush keeps the
    # remaining visits (and their arrival order) and compacts the record
    # store down to the records still referenced.
    if node_ids is None or bool(selected.all()):
        pack.clear_pending()
    else:
        keep = ~selected
        kept_mnodes = all_mnodes[keep]
        kept_recs = all_recs[keep]
        used = np.unique(kept_recs)
        remap = np.full(len(pack.pending_values), -1, dtype=np.intp)
        remap[used] = np.arange(used.shape[0], dtype=np.intp)
        pack.pending_values = [pack.pending_values[i] for i in used.tolist()]
        pack.pending_positive = [pack.pending_positive[i] for i in used.tolist()]
        pack.pending_sign = [pack.pending_sign[i] for i in used.tolist()]
        pack.pending_mnode = kept_mnodes.tolist()
        pack.pending_rec = remap[kept_recs].tolist()
        for mnode_id in unique_mnodes.tolist():
            pack._pending_count[mnode_id] = 0

    return MaintenanceFlushReport(
        nodes_flushed=n_unique,
        visits_replayed=n_visits,
        variant_switches=variant_switches,
        switched_trees=tuple(switched_trees),
        switched_nodes=switched_nodes,
    )
