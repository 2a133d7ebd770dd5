"""Level-synchronous HedgeCut tree growth: the builder behind every fit.

The reference :class:`~repro.core.tree.TreeBuilder` grows one node at a
time: every candidate split of every node costs a kernel scan over the
node's rows, every accepted split physically re-partitions the per-tree
column copies, and deep levels degenerate into tens of thousands of tiny
numpy calls. This module grows *all growth points of one depth level at
once*:

1. **Histograms.** One call of the native level kernel
   (``native/train.c``) fills every feature's ``(node, label, code)``
   count tensor for the level in one pass
   (:class:`~repro.training.histogram.LevelHistograms`). Candidate
   statistics -- numeric prefix sums, categorical subset sums -- become
   lookups; the up-to-``B`` candidate re-draws of Algorithm 3 re-read the
   same tensors for free.
2. **Speculative vectorised trials.** Candidate features of every trial
   of every node are drawn in one random-key pass, split parameters in
   one grouped draw per feature, and every Gini gain of the level in one
   :func:`~repro.core.splits.gini_gain_arrays` call. The robustness
   pre-screen (the prune bound of
   :func:`~repro.core.robustness.is_robust`) runs vectorised over every
   ``(best, competitor)`` pair of the level
   (:func:`~repro.core.robustness.prescreen_robust_pairs`), and the
   near-ties the bound cannot decide run the full Algorithm 2 weakening
   loop batched (:func:`~repro.core.robustness.greedy_weaken_batch`).
   Retry trials (Algorithm 3's up-to-``B`` re-draws) are evaluated
   *speculatively*: nodes whose first trial was not accepted evaluate all
   remaining trials in one second batch, and the per-node outcome --
   first accepted trial wins, otherwise the last non-robust trial seeds a
   maintenance node -- is composed afterwards, reproducing the lazy
   sequential semantics exactly (later trials are independent draws, so
   evaluating them eagerly changes nothing but the wall-clock).
3. **Partition routing.** The level state carries physically partitioned
   per-level code/label arrays (the recursive builder's workspace trick,
   applied level-wise): one call of the native route kernel
   (``native/train.c``) stable-partitions every plain split's segment and
   scatters all columns and the labels, so the histograms of the next
   level need no global gathers. Maintenance-node subtree variants append
   one numpy partition per variant over the same row multiset, which is
   exactly the semantics of the recursive builder's repeated
   re-partitioning.

The grown trees obey the same algorithm with the same hyperparameters and
the same per-node verdict logic; they differ from the recursive builder's
trees for a given seed only because random draws are consumed in
breadth-first instead of depth-first order (the draw *distribution* is
identical -- see ``tests/training/test_frontier.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, SubtreeVariant, TreeNode
from repro.core.params import HedgeCutParams
from repro.core.robustness import greedy_weaken_batch, prescreen_robust_pairs
from repro.core.splits import (
    CategoricalSplit,
    NumericSplit,
    Split,
    SplitStats,
    gini_gain_arrays,
)
from repro.core.tree import (
    BuildCounters,
    CandidateSplit,
    HedgeCutTree,
    judge_best,
)
from repro.dataprep.dataset import Dataset
from repro.training.histogram import LevelHistograms
from repro.training.level_kernel import route_level
from repro.vectorized.masks import bitmask_membership_vector

#: ``maintenance_left`` sentinel for "unlimited" (``max_maintenance_depth
#: is None``); decremented never, compares ``> 0`` always.
_UNLIMITED = 1 << 30

#: Trial verdict codes (per (node, trial) unit).
_EMPTY = 0  # no candidate survived the splits-data filter
_ACCEPT = 1  # winner accepted (robust, or robustness not checked)
_SINGLETON = 2  # single candidate, accepted without a robustness test
_NON_ROBUST = 3  # winner has threats; trial rejected, candidates recorded
_REJECTED = 4  # "verified" mode re-draw request (untrusted, unaffordable)

_ACCEPTING = (_ACCEPT, _SINGLETON)


@dataclass
class _Level:
    """One frontier level: partitioned per-level arrays plus slot metadata.

    ``codes``/``labels`` are *level-ordered*: position ``i`` of every
    array describes the same record, and ``starts`` delimits each growth
    point's contiguous segment. Records may repeat across segments
    (maintenance variants see the same records); no global row identity
    is carried -- the trees only ever need counts and codes.
    """

    codes: list[np.ndarray]
    labels: np.ndarray
    starts: np.ndarray
    depth: int
    maintenance_left: list[int]
    attach: list[tuple[object, str] | None]

    @property
    def n_slots(self) -> int:
        return len(self.starts) - 1


@dataclass
class _LevelDecisions:
    """Per-slot outcomes of one level, kept as arrays.

    The overwhelmingly common outcomes (leaf, plain split) live in flat
    arrays so composing and materialising a level costs one python pass;
    only maintenance decisions (rare) carry python objects.
    """

    kind: np.ndarray  # (S,) int8: 0 leaf, 1 plain split, 2 maintenance
    feature: np.ndarray  # (S,) int64, split slots only
    param: np.ndarray  # (S,) int64 cut / subset mask (<= 62 bits)
    n_left: np.ndarray  # (S,) int64
    n_left_plus: np.ndarray  # (S,) int64
    capped: np.ndarray  # (S,) bool: split accepted under an exhausted cap
    wide_masks: dict[int, int]  # slot -> mask for wide categorical splits
    maintenance: dict[int, tuple[CandidateSplit, list[CandidateSplit]]]


_KIND_LEAF = 0
_KIND_SPLIT = 1
_KIND_MAINTENANCE = 2


@dataclass
class _TrialBatch:
    """Vectorised evaluation of one trial for a batch of (node, trial) units."""

    unit_slot: np.ndarray  # level slot per unit
    feat: np.ndarray  # (U, K) drawn feature per candidate, -1 undrawn
    param: np.ndarray  # (U, K) numeric cut or categorical mask (<= 62 bits)
    wide: dict[tuple[int, int], int]  # (unit, col) -> mask for wide domains
    n_left: np.ndarray  # (U, K)
    n_left_plus: np.ndarray  # (U, K)
    valid: np.ndarray  # (U, K) drawn and splits data
    gains: np.ndarray  # (U, K), -inf where invalid
    winner: np.ndarray  # (U,) column of the per-unit winner
    n_valid: np.ndarray  # (U,)
    robust: np.ndarray  # (U, K) per-competitor robust verdicts (greedy)
    verdict: np.ndarray  # (U,) trial verdict codes
    threats: dict[int, list[CandidateSplit]] = field(default_factory=dict)


class FrontierTreeBuilder:
    """Grows a single HedgeCut tree level-synchronously.

    Grows every tree of :meth:`HedgeCutClassifier.fit
    <repro.core.ensemble.HedgeCutClassifier.fit>`. It keeps the constructor
    signature and :meth:`build` contract of the node-at-a-time
    :class:`~repro.core.tree.TreeBuilder`, which the equivalence tests use
    as the reference.
    """

    def __init__(
        self, dataset: Dataset, params: HedgeCutParams, rng: np.random.Generator
    ) -> None:
        self.dataset = dataset
        self.params = params
        self.rng = rng
        self.budget = params.deletion_budget(dataset.n_rows)
        self.n_candidates = params.candidates_for(dataset.n_features)
        self.counters = BuildCounters()
        self.columns = [dataset.column(f) for f in range(dataset.n_features)]
        self.labels = dataset.labels
        self.n_values = [schema.n_values for schema in dataset.schema]
        self.numeric = [schema.is_numeric for schema in dataset.schema]

    def build(self) -> HedgeCutTree:
        root_ref: list[TreeNode | None] = [None]
        n_rows = self.dataset.n_rows
        root_maintenance = (
            _UNLIMITED
            if self.params.max_maintenance_depth is None
            else self.params.max_maintenance_depth
        )
        level: _Level | None = _Level(
            codes=list(self.columns),
            labels=self.labels,
            starts=np.asarray([0, n_rows], dtype=np.int64),
            depth=0,
            maintenance_left=[root_maintenance],
            attach=[None],
        )
        while level is not None:
            level = self._grow_level(level, root_ref)
        root = root_ref[0]
        assert root is not None
        return HedgeCutTree(root=root, counters=self.counters)

    # ------------------------------------------------------------------ #
    # level processing
    # ------------------------------------------------------------------ #

    def _grow_level(
        self, level: _Level, root_ref: list[TreeNode | None]
    ) -> _Level | None:
        hist = LevelHistograms(
            level.codes, level.labels, level.starts, self.n_values
        )
        decisions = self._decide_level(level, hist)
        return self._materialise_level(level, hist, decisions, root_ref)

    def _decide_level(
        self, level: _Level, hist: LevelHistograms
    ) -> _LevelDecisions:
        self.counters.max_depth = max(self.counters.max_depth, level.depth)
        n_slots = hist.n_slots
        node_n = hist.node_n
        node_plus = hist.node_plus
        # Per-slot label totals, kept for lazy candidate materialisation
        # (decisions reference them after the histograms go out of scope).
        self._hist_node_n = node_n
        self._hist_node_plus = node_plus
        ncm = hist.non_constant_matrix()
        nc_count = ncm.sum(axis=1)
        min_leaf = self.params.min_leaf_size

        leaf_mask = (
            (node_n <= min_leaf)
            | (node_plus == 0)
            | (node_plus == node_n)
            | (nc_count == 0)
        )
        decisions = _LevelDecisions(
            kind=np.full(n_slots, _KIND_LEAF, dtype=np.int8),
            feature=np.full(n_slots, -1, dtype=np.int64),
            param=np.zeros(n_slots, dtype=np.int64),
            n_left=np.zeros(n_slots, dtype=np.int64),
            n_left_plus=np.zeros(n_slots, dtype=np.int64),
            capped=np.zeros(n_slots, dtype=bool),
            wide_masks={},
            maintenance={},
        )
        pending = np.flatnonzero(~leaf_mask)
        if pending.size == 0:
            return decisions

        maintenance_left = np.asarray(level.maintenance_left, dtype=np.int64)
        check = np.zeros(pending.size, dtype=bool)
        if self.params.robustness_mode != "off":
            check = maintenance_left[pending] > 0
        budgets = np.minimum(self.budget, node_n - min_leaf)
        max_tries = self.params.max_tries_per_split

        # Phase A: one trial for every pending node (trial 0 of up to B for
        # robustness-checked nodes, the only trial for the rest).
        batch_a = self._eval_trials(pending, hist, ncm, nc_count, check, budgets)

        # Unchecked nodes run exactly one trial: accepted when any
        # candidate survived, a leaf otherwise. This is the overwhelming
        # bulk of a deep tree, so it composes vectorised.
        unchecked = np.flatnonzero(~check)
        if unchecked.size:
            self.counters.trials += int(unchecked.size)
            accepted = unchecked[batch_a.verdict[unchecked] == _ACCEPT]
            self.counters.empty_trials += int(unchecked.size - accepted.size)
            slots = pending[accepted]
            winners = batch_a.winner[accepted]
            decisions.kind[slots] = _KIND_SPLIT
            decisions.feature[slots] = batch_a.feat[accepted, winners]
            decisions.param[slots] = batch_a.param[accepted, winners]
            decisions.n_left[slots] = batch_a.n_left[accepted, winners]
            decisions.n_left_plus[slots] = batch_a.n_left_plus[accepted, winners]
            decisions.capped[slots] = maintenance_left[slots] <= 0
            if batch_a.wide:
                for (unit, col), mask in batch_a.wide.items():
                    if (
                        not check[unit]
                        and batch_a.verdict[unit] == _ACCEPT
                        and int(batch_a.winner[unit]) == col
                    ):
                        decisions.wide_masks[int(pending[unit])] = mask

        # Phase B: checked nodes whose first trial was not accepted draw
        # their remaining B-1 trials speculatively, all in one batch. Each
        # trial is an independent draw, so eager evaluation composes to the
        # same outcome as Algorithm 3's lazy retry loop.
        checked_units = np.flatnonzero(check)
        retry = checked_units[
            ~np.isin(batch_a.verdict[checked_units], _ACCEPTING)
        ]
        batch_b: _TrialBatch | None = None
        if retry.size and max_tries > 1:
            slots_b = np.repeat(pending[retry], max_tries - 1)
            batch_b = self._eval_trials(
                slots_b,
                hist,
                ncm,
                nc_count,
                np.ones(slots_b.size, dtype=bool),
                budgets,
            )
        retry_pos = {int(unit): index for index, unit in enumerate(retry)}

        for unit in checked_units:
            trials: list[tuple[_TrialBatch, int]] = [(batch_a, int(unit))]
            if int(unit) in retry_pos and batch_b is not None:
                base = retry_pos[int(unit)] * (max_tries - 1)
                trials.extend(
                    (batch_b, base + t) for t in range(max_tries - 1)
                )
            self._compose_checked(decisions, int(pending[unit]), trials)
        return decisions

    def _compose_checked(
        self,
        decisions: _LevelDecisions,
        slot: int,
        trials: list[tuple[_TrialBatch, int]],
    ) -> None:
        """Fold a checked node's speculative trial verdicts into its decision.

        Reproduces the sequential retry loop: trials count as executed up
        to and including the first accepted one; with no acceptance the
        last non-robust trial seeds a maintenance node, and a node whose
        executed trials were all empty or rejected stays a leaf.
        """
        last_non_robust: tuple[_TrialBatch, int] | None = None
        for batch, unit in trials:
            verdict = int(batch.verdict[unit])
            self.counters.trials += 1
            if verdict == _EMPTY:
                self.counters.empty_trials += 1
            elif verdict == _REJECTED:
                self.counters.precondition_rejections += 1
            elif verdict == _NON_ROBUST:
                self.counters.robustness_rejections += 1
                last_non_robust = (batch, unit)
            else:
                if verdict == _SINGLETON:
                    self.counters.singleton_splits += 1
                winner = int(batch.winner[unit])
                decisions.kind[slot] = _KIND_SPLIT
                decisions.feature[slot] = int(batch.feat[unit, winner])
                decisions.param[slot] = int(batch.param[unit, winner])
                decisions.n_left[slot] = int(batch.n_left[unit, winner])
                decisions.n_left_plus[slot] = int(batch.n_left_plus[unit, winner])
                wide = batch.wide.get((unit, winner))
                if wide is not None:
                    decisions.wide_masks[slot] = wide
                return
        if last_non_robust is None:
            return  # leaf (every executed trial was empty or rejected)
        batch, unit = last_non_robust
        threats = self._threats(batch, unit)
        if threats:
            decisions.kind[slot] = _KIND_MAINTENANCE
            decisions.maintenance[slot] = (
                self._candidate(batch, unit, int(batch.winner[unit])),
                threats,
            )
            return
        # A maintenance decision with no surviving threats degrades to a
        # plain split of its winner (the recursive builder's fallback).
        winner = int(batch.winner[unit])
        decisions.kind[slot] = _KIND_SPLIT
        decisions.feature[slot] = int(batch.feat[unit, winner])
        decisions.param[slot] = int(batch.param[unit, winner])
        decisions.n_left[slot] = int(batch.n_left[unit, winner])
        decisions.n_left_plus[slot] = int(batch.n_left_plus[unit, winner])
        wide = batch.wide.get((unit, winner))
        if wide is not None:
            decisions.wide_masks[slot] = wide

    # ------------------------------------------------------------------ #
    # speculative trial evaluation
    # ------------------------------------------------------------------ #

    def _eval_trials(
        self,
        unit_slot: np.ndarray,
        hist: LevelHistograms,
        ncm: np.ndarray,
        nc_count: np.ndarray,
        check: np.ndarray,
        budgets: np.ndarray,
    ) -> _TrialBatch:
        """Evaluate one candidate-generation trial per unit, vectorised.

        Units are (node, trial) instances; ``unit_slot`` maps each to its
        level slot (slots repeat across retry trials). Every random draw
        matches the scalar :func:`~repro.core.tree._random_split`
        distribution -- features via random-key sampling without
        replacement, numeric cuts and categorical masks via grouped
        uniform draws -- only the generator consumption order differs.
        """
        n_units = unit_slot.size
        n_features = self.dataset.n_features
        width = min(self.n_candidates, n_features)
        rng = self.rng

        # Candidate features: random keys give each unit an independent
        # uniform permutation of its non-constant features; the first
        # min(k, #non-constant) entries are the drawn, ordered sample.
        keys = rng.random((n_units, n_features))
        keys[~ncm[unit_slot]] = np.inf
        order = np.argsort(keys, axis=1)
        k_unit = np.minimum(nc_count[unit_slot], width)
        feat = order[:, :width].astype(np.int64)
        drawn = np.arange(width)[None, :] < k_unit[:, None]
        feat[~drawn] = -1

        # Split parameters and candidate statistics, grouped per feature.
        param = np.zeros((n_units, width), dtype=np.int64)
        wide: dict[tuple[int, int], int] = {}
        n_left = np.zeros((n_units, width), dtype=np.int64)
        n_left_plus = np.zeros((n_units, width), dtype=np.int64)
        slot_matrix = np.broadcast_to(unit_slot[:, None], (n_units, width))
        for feature in range(n_features):
            sel = feat == feature
            count = int(np.count_nonzero(sel))
            if count == 0:
                continue
            n_values = self.n_values[feature]
            slots_here = slot_matrix[sel]
            if self.numeric[feature]:
                cuts = rng.integers(1, n_values, size=count)
                param[sel] = cuts
                cum_t, cum_p = hist._cumulative(feature)
                n_left[sel] = cum_t[slots_here, cuts - 1]
                n_left_plus[sel] = cum_p[slots_here, cuts - 1]
            elif n_values <= 62:
                masks = rng.integers(1, (1 << n_values) - 1, size=count)
                param[sel] = masks
                member = ((masks[:, None] >> np.arange(n_values)) & 1).astype(bool)
                n_left[sel] = np.sum(hist.totals[feature][slots_here] * member, axis=1)
                n_left_plus[sel] = np.sum(
                    hist.positives[feature][slots_here] * member, axis=1
                )
            else:
                # Wide categorical domains: scalar bit-draw loop, matching
                # the recursive builder's redraw-until-proper semantics.
                full = (1 << n_values) - 1
                units_here, cols_here = np.nonzero(sel)
                for unit, col in zip(units_here, cols_here):
                    mask = 0
                    while mask <= 0 or mask >= full:
                        bits = rng.random(n_values) < 0.5
                        mask = sum(1 << code for code in np.flatnonzero(bits))
                    wide[(int(unit), int(col))] = mask
                    member = ((mask >> np.arange(n_values)) & 1).astype(bool)
                    slot = int(unit_slot[unit])
                    n_left[unit, col] = hist.totals[feature][slot][member].sum()
                    n_left_plus[unit, col] = hist.positives[feature][slot][
                        member
                    ].sum()

        unit_n = hist.node_n[unit_slot][:, None]
        unit_plus = hist.node_plus[unit_slot][:, None]
        valid = drawn & (n_left > 0) & (n_left < unit_n)
        gains = gini_gain_arrays(
            np.broadcast_to(unit_n, valid.shape),
            np.broadcast_to(unit_plus, valid.shape),
            n_left,
            n_left_plus,
        )
        gains = np.where(valid, gains, -np.inf)
        # First-occurrence argmax over columns matches the scalar winner
        # rule max(key=(gain, -index)): invalid columns are -inf and the
        # compressed candidate order is the column order.
        winner = np.argmax(gains, axis=1)
        n_valid = valid.sum(axis=1)

        robust = np.ones((n_units, width), dtype=bool)
        verdict = np.full(n_units, _EMPTY, dtype=np.int8)
        verdict[(n_valid > 0) & ~check] = _ACCEPT
        verdict[(n_valid == 1) & check] = _SINGLETON

        batch = _TrialBatch(
            unit_slot=unit_slot,
            feat=feat,
            param=param,
            wide=wide,
            n_left=n_left,
            n_left_plus=n_left_plus,
            valid=valid,
            gains=gains,
            winner=winner,
            n_valid=n_valid,
            robust=robust,
            verdict=verdict,
        )
        judged = np.flatnonzero(check & (n_valid >= 2))
        if judged.size:
            self._judge_units(batch, judged, budgets)
        return batch

    def _judge_units(
        self, batch: _TrialBatch, judged: np.ndarray, budgets: np.ndarray
    ) -> None:
        """Robustness verdicts for every multi-candidate checked unit."""
        pair_unit, pair_col = np.nonzero(batch.valid[judged])
        pair_unit = judged[pair_unit]
        keep = pair_col != batch.winner[pair_unit]
        pair_unit, pair_col = pair_unit[keep], pair_col[keep]

        slot = batch.unit_slot[pair_unit]
        node_n = self._hist_node_n[slot]
        node_plus = self._hist_node_plus[slot]
        best_left = batch.n_left[pair_unit, batch.winner[pair_unit]]
        best_left_plus = batch.n_left_plus[pair_unit, batch.winner[pair_unit]]
        cand_left = batch.n_left[pair_unit, pair_col]
        cand_left_plus = batch.n_left_plus[pair_unit, pair_col]
        pair_budget = budgets[slot]

        screened = prescreen_robust_pairs(
            (node_n, node_plus, best_left, best_left_plus),
            (node_n, node_plus, cand_left, cand_left_plus),
            pair_budget,
        )
        if self.params.robustness_mode == "greedy":
            undecided = np.flatnonzero(~screened)
            if undecided.size:
                screened[undecided] = greedy_weaken_batch(
                    node_n[undecided],
                    node_plus[undecided],
                    best_left[undecided],
                    best_left_plus[undecided],
                    cand_left[undecided],
                    cand_left_plus[undecided],
                    pair_budget[undecided],
                )
            batch.robust[pair_unit, pair_col] = screened
            threatened = (batch.valid & ~batch.robust)[judged].any(axis=1)
            batch.verdict[judged] = np.where(threatened, _NON_ROBUST, _ACCEPT)
            return

        # Beam/verified modes keep the scalar judging path per unit; the
        # pre-screen still skips the provably robust pairs.
        batch.robust[pair_unit, pair_col] = screened
        for unit in judged:
            candidates, columns = self._candidate_list(batch, int(unit))
            best_col = int(batch.winner[unit])
            best_index = columns.index(best_col)
            prescreened = [bool(batch.robust[unit, col]) for col in columns]
            verdict, threats = judge_best(
                candidates[best_index],
                candidates,
                best_index,
                int(budgets[batch.unit_slot[unit]]),
                self.params.robustness_mode,
                prescreened_robust=prescreened,
            )
            if verdict == "robust":
                batch.verdict[unit] = _ACCEPT
            elif verdict == "rejected":
                batch.verdict[unit] = _REJECTED
            else:
                batch.verdict[unit] = _NON_ROBUST
                batch.threats[int(unit)] = threats

    # ------------------------------------------------------------------ #
    # candidate materialisation
    # ------------------------------------------------------------------ #

    def _make_split(self, batch: _TrialBatch, unit: int, col: int) -> Split:
        feature = int(batch.feat[unit, col])
        if self.numeric[feature]:
            return NumericSplit(feature=feature, cut=int(batch.param[unit, col]))
        mask = batch.wide.get((unit, col), None)
        if mask is None:
            mask = int(batch.param[unit, col])
        return CategoricalSplit(
            feature=feature, subset_mask=mask, cardinality=self.n_values[feature]
        )

    def _candidate(self, batch: _TrialBatch, unit: int, col: int) -> CandidateSplit:
        slot = int(batch.unit_slot[unit])
        return CandidateSplit(
            split=self._make_split(batch, unit, col),
            stats=SplitStats(
                int(self._hist_node_n[slot]),
                int(self._hist_node_plus[slot]),
                int(batch.n_left[unit, col]),
                int(batch.n_left_plus[unit, col]),
            ),
            gain=float(batch.gains[unit, col]),
        )

    def _candidate_list(
        self, batch: _TrialBatch, unit: int
    ) -> tuple[list[CandidateSplit], list[int]]:
        """The unit's surviving candidates in draw order, plus their columns."""
        columns = [int(col) for col in np.flatnonzero(batch.valid[unit])]
        return [self._candidate(batch, unit, col) for col in columns], columns

    def _threats(self, batch: _TrialBatch, unit: int) -> list[CandidateSplit]:
        """Competitors able to overtake the winner, in candidate order."""
        recorded = batch.threats.get(unit)
        if recorded is not None:
            return recorded
        winner = int(batch.winner[unit])
        return [
            self._candidate(batch, unit, int(col))
            for col in np.flatnonzero(batch.valid[unit] & ~batch.robust[unit])
            if int(col) != winner
        ]

    # ------------------------------------------------------------------ #
    # node materialisation and partition routing
    # ------------------------------------------------------------------ #

    def _materialise_level(
        self,
        level: _Level,
        hist: LevelHistograms,
        decisions: _LevelDecisions,
        root_ref: list[TreeNode | None],
    ) -> _Level | None:
        n_slots = level.n_slots
        starts = level.starts
        kind = decisions.kind

        # Pass 1: create and attach nodes; collect routing plans. Children
        # of plain splits are routed with one vectorised stable partition,
        # maintenance variants (rare) append per-variant partitions behind
        # them.
        leaf_slots = np.flatnonzero(kind == _KIND_LEAF)
        self.counters.leaves += int(leaf_slots.size)
        for slot in leaf_slots:
            self._attach(
                Leaf(n=int(hist.node_n[slot]), n_plus=int(hist.node_plus[slot])),
                level.attach[slot],
                root_ref,
            )

        split_slots = np.flatnonzero(kind == _KIND_SPLIT)
        maintenance_slots = np.flatnonzero(kind == _KIND_MAINTENANCE)
        if split_slots.size == 0 and maintenance_slots.size == 0:
            return None

        self.counters.robust_splits += int(split_slots.size)
        self.counters.capped_maintenance += int(decisions.capped[split_slots].sum())
        split_nodes: list[SplitNode] = []
        for index in split_slots:
            slot = int(index)
            feature = int(decisions.feature[slot])
            if self.numeric[feature]:
                split: Split = NumericSplit(
                    feature=feature, cut=int(decisions.param[slot])
                )
            else:
                mask = decisions.wide_masks.get(slot, int(decisions.param[slot]))
                split = CategoricalSplit(
                    feature=feature,
                    subset_mask=mask,
                    cardinality=self.n_values[feature],
                )
            split_node = SplitNode(
                split=split,
                stats=SplitStats(
                    int(hist.node_n[slot]),
                    int(hist.node_plus[slot]),
                    int(decisions.n_left[slot]),
                    int(decisions.n_left_plus[slot]),
                ),
                left=None,
                right=None,
            )
            self._attach(split_node, level.attach[slot], root_ref)
            split_nodes.append(split_node)

        maintenance: list[tuple[int, list[SubtreeVariant], int]] = []
        for index in maintenance_slots:
            slot = int(index)
            best, threats = decisions.maintenance[slot]
            self.counters.maintenance_nodes += 1
            variants = []
            for candidate in [best, *threats]:
                self.counters.variants_grown += 1
                variants.append(
                    SubtreeVariant(
                        split=candidate.split,
                        stats=candidate.stats,
                        left=None,
                        right=None,
                        gain=candidate.gain,
                    )
                )
            maintenance_node = MaintenanceNode(variants=variants)
            maintenance_node.rescore()
            self._attach(maintenance_node, level.attach[slot], root_ref)
            child_left = level.maintenance_left[slot]
            if child_left < _UNLIMITED:
                child_left -= 1
            maintenance.append((slot, variants, child_left))

        # Children whose leaf-ness is already decided by their split
        # statistics (too small, or label-pure) become leaves right here
        # and never enter the next level -- their rows are dropped from
        # the routing scatter and from every later histogram pass. Only
        # the leaf case the statistics cannot see (all features locally
        # constant) still travels. This matches the recursive builder's
        # entry test in ``_build_node`` exactly.
        min_leaf = self.params.min_leaf_size
        child_depth = level.depth + 1

        def keep_child(
            parent: object, side: str, child_n: int, child_plus: int
        ) -> bool:
            if child_n <= min_leaf or child_plus in (0, child_n):
                self.counters.max_depth = max(self.counters.max_depth, child_depth)
                self.counters.leaves += 1
                setattr(parent, side, Leaf(n=child_n, n_plus=child_plus))
                return False
            return True

        # Sizes and metadata of every *surviving* child segment of the
        # next level, in output order: plain-split children (left, right
        # per slot, slot order) first, then variant children. The keep
        # test over all split children runs vectorised (same predicate as
        # ``keep_child``); only the surviving segments and the pruned
        # leaves are visited in python.
        s_n = hist.node_n[split_slots]
        s_plus = hist.node_plus[split_slots]
        l_n = decisions.n_left[split_slots]
        l_plus = decisions.n_left_plus[split_slots]
        size_flat = np.empty(2 * split_slots.size, dtype=np.int64)
        size_flat[0::2] = l_n
        size_flat[1::2] = s_n - l_n
        plus_flat = np.empty_like(size_flat)
        plus_flat[0::2] = l_plus
        plus_flat[1::2] = s_plus - l_plus
        keep_flat = ~(
            (size_flat <= min_leaf) | (plus_flat == 0) | (plus_flat == size_flat)
        )
        order = np.cumsum(keep_flat) - keep_flat
        # Per split slot: index of the kept left/right child segment in
        # ``child_sizes`` order, -1 when the child became a leaf.
        left_index = np.full(n_slots, -1, dtype=np.int64)
        right_index = np.full(n_slots, -1, dtype=np.int64)
        left_index[split_slots] = np.where(keep_flat[0::2], order[0::2], -1)
        right_index[split_slots] = np.where(keep_flat[1::2], order[1::2], -1)

        pruned = np.flatnonzero(~keep_flat)
        if pruned.size:
            self.counters.max_depth = max(self.counters.max_depth, child_depth)
            self.counters.leaves += int(pruned.size)
            for flat in pruned:
                flat = int(flat)
                setattr(
                    split_nodes[flat >> 1],
                    "left" if flat % 2 == 0 else "right",
                    Leaf(n=int(size_flat[flat]), n_plus=int(plus_flat[flat])),
                )
        kept_children = np.flatnonzero(keep_flat)
        child_sizes = size_flat[kept_children].tolist()
        ml_flat = np.repeat(
            np.asarray(level.maintenance_left, dtype=np.int64)[split_slots], 2
        )
        next_maintenance = ml_flat[kept_children].tolist()
        next_attach: list[tuple[object, str] | None] = [
            (split_nodes[int(flat) >> 1], "left" if flat % 2 == 0 else "right")
            for flat in kept_children
        ]
        n_split_children = len(child_sizes)

        variant_plans: list[tuple[int, SubtreeVariant, bool, bool]] = []
        for slot, variants, child_left in maintenance:
            for variant in variants:
                stats = variant.stats
                plan = []
                sides = (
                    ("left", stats.n_left, stats.n_left_plus),
                    ("right", stats.n - stats.n_left,
                     stats.n_plus - stats.n_left_plus),
                )
                for side, child_n, child_plus in sides:
                    kept = keep_child(variant, side, child_n, child_plus)
                    plan.append(kept)
                    if kept:
                        child_sizes.append(child_n)
                        next_maintenance.append(child_left)
                        next_attach.append((variant, side))
                variant_plans.append((slot, variant, plan[0], plan[1]))

        next_starts = np.zeros(len(child_sizes) + 1, dtype=np.int64)
        np.cumsum(np.asarray(child_sizes, dtype=np.int64), out=next_starts[1:])
        total = int(next_starts[-1])
        if total == 0:
            return None

        next_codes = [np.empty(total, dtype=codes.dtype) for codes in level.codes]
        next_labels = np.empty(total, dtype=level.labels.dtype)
        if split_slots.size:
            self._route_plain_splits(
                level, decisions, next_starts,
                left_index, right_index,
                next_codes, next_labels,
            )

        cursor = int(next_starts[n_split_children])
        for slot, variant, keep_left, keep_right in variant_plans:
            if not keep_left and not keep_right:
                continue
            segment = slice(int(starts[slot]), int(starts[slot + 1]))
            seg_codes = [codes[segment] for codes in level.codes]
            seg_labels = level.labels[segment]
            goes_left = variant.split.goes_left_column(
                seg_codes[variant.split.feature]
            )
            for side_mask, kept in ((goes_left, keep_left), (~goes_left, keep_right)):
                if not kept:
                    continue
                size = int(np.count_nonzero(side_mask))
                out = slice(cursor, cursor + size)
                for feature, codes in enumerate(seg_codes):
                    next_codes[feature][out] = codes[side_mask]
                next_labels[out] = seg_labels[side_mask]
                cursor += size
        assert cursor == total

        return _Level(
            codes=next_codes,
            labels=next_labels,
            starts=next_starts,
            depth=child_depth,
            maintenance_left=next_maintenance,
            attach=next_attach,
        )

    def _route_plain_splits(
        self,
        level: _Level,
        decisions: _LevelDecisions,
        next_starts: np.ndarray,
        left_index: np.ndarray,
        right_index: np.ndarray,
        route_codes: list[np.ndarray],
        route_labels: np.ndarray,
    ) -> None:
        """Stable-partition every plain split's segment in one kernel call.

        Children that already became leaves (their ``left_index`` or
        ``right_index`` entry is -1) and non-split slots are not routed;
        see :func:`~repro.training.level_kernel.route_level`. Wide
        categorical masks travel as membership tables.
        """
        feature = np.where(decisions.kind == _KIND_SPLIT, decisions.feature, -1)
        param = decisions.param.copy()
        tables = [np.zeros(0, dtype=bool)]
        for slot, mask in decisions.wide_masks.items():
            split_feature = int(feature[slot])
            if split_feature < 0 or self.n_values[split_feature] <= 62:
                continue  # not a plain split, or a narrow mask in ``param``
            param[slot] = sum(table.size for table in tables)
            tables.append(bitmask_membership_vector(mask, self.n_values[split_feature]))
        route_level(
            level.codes, level.labels, level.starts, self.n_values,
            np.asarray(self.numeric), feature, param, np.concatenate(tables),
            np.where(left_index >= 0, next_starts[left_index], -1),
            np.where(right_index >= 0, next_starts[right_index], -1),
            route_codes, route_labels,
        )

    @staticmethod
    def _attach(
        node: TreeNode,
        attach: tuple[object, str] | None,
        root_ref: list[TreeNode | None],
    ) -> None:
        if attach is None:
            root_ref[0] = node
        else:
            parent, side = attach
            setattr(parent, side, node)
