"""Per-level histogram store for the frontier trainers.

The frontier trainers grow all nodes of one tree depth at a time. For a
level holding ``n_slots`` growth points, :class:`LevelHistograms` fills,
per feature, the full ``(node, label, code)`` count tensor in one call of
the native level kernel (``native/train.c``, wrapped by
:func:`repro.training.level_kernel.count_level`). Everything
any split candidate could ask about the level is then a lookup into those
tensors:

* local constancy of a feature at a node (one non-empty code bin),
* numeric cut statistics (prefix sums over the code axis),
* categorical subset statistics (masked sums over the code axis),
* per-node label totals (``n``, ``n_plus``).

The constructor takes *level-ordered* code and label arrays -- the
HedgeCut frontier trainer carries physically partitioned per-level copies
down the tree, so no global gather happens per level; builders that keep
global row indices instead (the baseline frontier cores) use
:meth:`LevelHistograms.from_rows`, which gathers once and delegates. This
is the LightGBM-style "bin once, scan histograms" training layout,
adapted to pre-binned integer codes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.training.level_kernel import count_level


class LevelHistograms:
    """Count tensors of one frontier level.

    Args:
        codes: one level-ordered 1-D code array per feature (position
            ``i`` of every array describes the same record).
        labels: level-ordered 0/1 label array.
        starts: ``n_slots + 1`` offsets delimiting each growth point's
            segment inside the level arrays. Record positions may repeat
            across growth points upstream (maintenance-node subtree
            variants see the same records); the histograms only care
            about the per-segment contents.
        n_values: global code-domain size per feature.
        rows: optional level-ordered global row indices, carried for
            callers that route by row identity (baseline cores, tests).
    """

    def __init__(
        self,
        codes: Sequence[np.ndarray],
        labels: np.ndarray,
        starts: np.ndarray,
        n_values: Sequence[int],
        rows: np.ndarray | None = None,
    ) -> None:
        self.n_slots = len(starts) - 1
        self.n_features = len(codes)
        self.n_values = tuple(int(v) for v in n_values)
        self.codes = list(codes)
        self.rows = rows
        self.starts = starts

        hists = [np.empty((self.n_slots, 2, v), dtype=np.int64) for v in self.n_values]
        node_hist = np.empty((self.n_slots, 2), dtype=np.int64)
        count_level(
            self.codes, np.ascontiguousarray(labels, dtype=np.uint8), starts,
            self.n_values, hists, node_hist,
        )
        self.node_n = node_hist.sum(axis=1)
        self.node_plus = node_hist[:, 1]
        #: Per-feature ``(n_slots, n_values)`` total counts.
        self.totals = [hist.sum(axis=1) for hist in hists]
        #: Per-feature ``(n_slots, n_values)`` positive counts.
        self.positives = [hist[:, 1, :] for hist in hists]

        self._cum_totals: list[np.ndarray | None] = [None] * self.n_features
        self._cum_positives: list[np.ndarray | None] = [None] * self.n_features

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[np.ndarray],
        labels: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        n_values: Sequence[int],
    ) -> "LevelHistograms":
        """Build from global columns plus concatenated row indices."""
        gathered = [column[rows] for column in columns]
        return cls(gathered, labels[rows], starts, n_values, rows=rows)

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    def non_constant_matrix(self) -> np.ndarray:
        """``(n_slots, n_features)`` bool: locally more than one code."""
        out = np.empty((self.n_slots, self.n_features), dtype=bool)
        for feature in range(self.n_features):
            out[:, feature] = (self.totals[feature] > 0).sum(axis=1) > 1
        return out

    def _cumulative(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """Prefix sums over the code axis (cached per feature per level)."""
        cum_t = self._cum_totals[feature]
        if cum_t is None:
            cum_t = np.cumsum(self.totals[feature], axis=1)
            self._cum_totals[feature] = cum_t
            self._cum_positives[feature] = np.cumsum(self.positives[feature], axis=1)
        cum_p = self._cum_positives[feature]
        assert cum_p is not None
        return cum_t, cum_p

    def numeric_counts(self, feature: int, slot: int, cut: int) -> tuple[int, int]:
        """``(n_left, n_left_plus)`` of ``code < cut`` at one growth point."""
        cum_t, cum_p = self._cumulative(feature)
        return int(cum_t[slot, cut - 1]), int(cum_p[slot, cut - 1])

    def threshold_counts(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """``(n_left, n_left_plus)`` for every ordinal threshold, all slots.

        Threshold semantics are the baselines' ``code <= t`` (the last
        threshold, which sends everything left, is excluded). Shapes are
        ``(n_slots, n_values - 1)``.
        """
        cum_t, cum_p = self._cumulative(feature)
        return cum_t[:, :-1], cum_p[:, :-1]

    def subset_counts(
        self, feature: int, slot: int, member: np.ndarray
    ) -> tuple[int, int]:
        """``(n_left, n_left_plus)`` of ``code in subset`` at a growth point.

        ``member`` is the boolean membership table of the subset bitmask
        over the feature's code domain.
        """
        totals_row = self.totals[feature][slot]
        positives_row = self.positives[feature][slot]
        return int(totals_row[member].sum()), int(positives_row[member].sum())

    def local_ranges(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-slot ``(min_code, max_code)`` of a feature (empty slots: 0, -1)."""
        present = self.totals[feature] > 0
        any_present = present.any(axis=1)
        first = np.argmax(present, axis=1)
        last = self.n_values[feature] - 1 - np.argmax(present[:, ::-1], axis=1)
        first = np.where(any_present, first, 0)
        last = np.where(any_present, last, -1)
        return first, last

    def segment(self, slot: int) -> slice:
        """Positions of one growth point inside the level arrays."""
        return slice(int(self.starts[slot]), int(self.starts[slot + 1]))
