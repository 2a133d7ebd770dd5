"""numpy formulations of the level kernels, kept as their test oracle.

Same signatures and output contract as :func:`repro.training.level_kernel.
count_level` and :func:`~repro.training.level_kernel.route_level`, without
the input checks: the histogram is one composite-key ``bincount`` per
feature, the route a rank-and-scatter over the level's positions. The
tests compare the kernels against them byte for byte, and monkeypatch
them into fits to show that the grown trees are the same.
"""

from __future__ import annotations

import numpy as np


def _slots_of_positions(starts: np.ndarray) -> np.ndarray:
    n_slots = starts.size - 1
    return np.repeat(np.arange(n_slots, dtype=np.int64), np.diff(starts))


def count_level(codes, labels, starts, n_values, counts, node_counts) -> None:
    starts = np.asarray(starts, dtype=np.int64)
    n_slots = starts.size - 1
    lo, hi = int(starts[0]), int(starts[-1])
    #: ``slot * 2 + label`` per position: the feature-independent part of
    #: every composite key.
    label_slots = _slots_of_positions(starts) * 2 + labels[lo:hi].astype(np.int64)
    node_counts[...] = np.bincount(label_slots, minlength=n_slots * 2).reshape(
        n_slots, 2
    )
    for column, domain, out in zip(codes, n_values, counts):
        key = label_slots * domain + column[lo:hi].astype(np.int64)
        out[...] = np.bincount(key, minlength=n_slots * 2 * domain).reshape(
            n_slots, 2, domain
        )


def route_level(
    codes, labels, starts, n_values, numeric, feature, param, tables,
    left_start, right_start, out_codes, out_labels,
) -> None:
    starts = np.asarray(starts, dtype=np.int64)
    feature = np.asarray(feature, dtype=np.int64)
    param = np.asarray(param, dtype=np.int64)
    lo, hi = int(starts[0]), int(starts[-1])
    slot_of_pos = _slots_of_positions(starts)
    seg_start = starts[slot_of_pos] - lo

    # goes_left, grouped by split feature.
    left = np.zeros(hi - lo, dtype=bool)
    feature_of_pos = feature[slot_of_pos]
    for split_feature in np.unique(feature[feature >= 0]):
        sel = feature_of_pos == split_feature
        codes_here = codes[split_feature][lo:hi][sel].astype(np.int64)
        params_here = param[slot_of_pos[sel]]
        if numeric[split_feature]:
            left[sel] = codes_here < params_here
        elif n_values[split_feature] <= 62:
            left[sel] = (params_here >> codes_here) & 1
        else:
            left[sel] = tables[params_here + codes_here]

    # Rank inside the segment, per side, from one exclusive prefix sum.
    exclusive = np.cumsum(left) - left
    rank_left = exclusive - exclusive[seg_start]
    rank_right = np.arange(hi - lo) - seg_start - rank_left
    base = np.where(
        left,
        np.asarray(left_start)[slot_of_pos],
        np.asarray(right_start)[slot_of_pos],
    )
    kept = (feature_of_pos >= 0) & (base >= 0)
    dest = (base + np.where(left, rank_left, rank_right))[kept]
    for column, out in zip(codes, out_codes):
        out[dest] = column[lo:hi][kept]
    out_labels[dest] = labels[lo:hi][kept]
