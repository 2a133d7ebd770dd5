"""HedgeCut tree learning (Section 4.3, Algorithm 3).

Each node draws ``k`` random split candidates over non-constant features,
scores them by Gini gain, and keeps the winner only when it is *robust*
against every competitor for the node's deletion budget. Candidate
generation is retried up to ``B`` times; when no robust winner emerges, the
node becomes a :class:`~repro.core.nodes.MaintenanceNode` carrying a fully
grown subtree variant for the winner and for every candidate that could
still overtake it.

Documented deviations from a naive reading of the paper (the paper leaves
these corners implicit; see also DESIGN.md):

* **Effective node budget.** The deletion budget ``r = ε·|D|`` is global,
  but a node holding ``n`` records can lose at most ``n - n_min`` of them
  before the retrained tree would have stopped splitting it altogether (a
  boundary case Algorithm 4 does not revise either). Robustness at a node is
  therefore tested against ``r_node = min(r, n - n_min)``.
* **Threat-only variants.** Subtree variants are grown for the best split
  and for exactly the candidates the robustness test flagged as able to
  overtake it -- candidates that are provably dominated can never become the
  active variant and would only waste memory.
* **Single-candidate trials are robust.** When only one candidate splits
  the local data there is no competitor whose gain could overtake it, so the
  decision cannot be reversed by removals.
* **Maintenance depth cap.** See
  :class:`~repro.core.params.HedgeCutParams.max_maintenance_depth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, SubtreeVariant, TreeNode
from repro.core.params import HedgeCutParams
from repro.core.robustness import (
    enumerate_is_robust,
    greedy_precondition_holds,
    is_robust,
    is_robust_beam,
)
from repro.core.splits import CategoricalSplit, NumericSplit, Split, SplitStats
from repro.core.workspace import TreeWorkspace
from repro.dataprep.dataset import Dataset

#: Largest node budget for which the "verified" mode confirms an untrusted
#: greedy verdict by exhaustive enumeration (``C(r+8, 8)`` states).
MAX_ENUMERATION_BUDGET = 4


@dataclass(frozen=True)
class CandidateSplit:
    """A scored candidate: the split plus its statistics on the local data.

    The gain is computed once at construction; candidate statistics are
    immutable during split selection (only unlearning mutates statistics,
    and it re-scores explicitly).
    """

    split: Split
    stats: SplitStats
    gain: float = field(default=0.0)

    @classmethod
    def scored(cls, split: Split, stats: SplitStats) -> "CandidateSplit":
        return cls(split=split, stats=stats, gain=stats.gini_gain())


@dataclass
class BuildCounters:
    """Diagnostics accumulated while growing one tree."""

    trials: int = 0
    empty_trials: int = 0
    precondition_rejections: int = 0
    robustness_rejections: int = 0
    robust_splits: int = 0
    singleton_splits: int = 0
    maintenance_nodes: int = 0
    capped_maintenance: int = 0
    leaves: int = 0
    max_depth: int = 0
    variants_grown: int = 0


@dataclass
class HedgeCutTree:
    """One trained tree: the root node plus build diagnostics."""

    root: TreeNode
    counters: BuildCounters = field(default_factory=BuildCounters)

    def predict_value(self, values: tuple[int, ...]) -> int:
        """Predict the label for one encoded record (Section 4.4)."""
        node = self.root
        while not isinstance(node, Leaf):
            if isinstance(node, MaintenanceNode):
                node = node.active.child_for_value(values[node.active.split.feature])
            else:
                node = node.child_for_value(values[node.split.feature])
        return node.predict()


def _random_split(feature: int, dataset, rng: np.random.Generator) -> Split | None:
    """Draw a random split for a feature from the *global* proposals.

    Numeric features draw a cut point uniformly over the global quantile
    boundaries; categorical features draw a uniformly random proper,
    non-empty subset of the domain. Features whose global domain has fewer
    than two values cannot be split.
    """
    schema = dataset.schema[feature]
    n_values = schema.n_values
    if n_values < 2:
        return None
    if schema.is_numeric:
        cut = int(rng.integers(1, n_values))
        return NumericSplit(feature=feature, cut=cut)
    if n_values <= 62:
        mask = int(rng.integers(1, (1 << n_values) - 1))
    else:
        # Wide domains: draw bits independently and redraw degenerate masks.
        mask = 0
        while mask <= 0 or mask >= (1 << n_values) - 1:
            bits = rng.random(n_values) < 0.5
            mask = sum(1 << code for code in np.flatnonzero(bits))
    return CategoricalSplit(feature=feature, subset_mask=mask, cardinality=n_values)


def judge_best(
    best: CandidateSplit,
    candidates: list[CandidateSplit],
    best_index: int,
    node_budget: int,
    robustness_mode: str,
    prescreened_robust: Sequence[bool] | None = None,
) -> tuple[str, list[CandidateSplit]]:
    """Robustness verdict for a trial winner, plus its threats.

    Returns ``("robust", [])``, ``("non_robust", threats)`` where
    ``threats`` are the candidates able to overtake the winner within
    the budget, or ``("rejected", [])`` -- the "verified" mode's re-draw
    request for untrusted greedy verdicts it cannot afford to confirm by
    enumeration.

    ``prescreened_robust`` optionally carries, per candidate index, a
    *sound* robust verdict computed elsewhere (the frontier trainer's
    vectorised gap-vs-bound screen); ``True`` entries skip the scalar
    greedy test, which would have returned robust via the same bound.
    The verdict logic is shared between the recursive and the frontier
    trainer so the two can never drift apart.
    """
    verified = robustness_mode == "verified"
    trusted = greedy_precondition_holds(best.stats, node_budget)
    test = is_robust_beam if robustness_mode == "beam" else is_robust
    threats: list[CandidateSplit] = []
    for index, competitor in enumerate(candidates):
        if index == best_index:
            continue
        if prescreened_robust is not None and prescreened_robust[index]:
            greedy_says_robust = True
        else:
            greedy_says_robust = test(best.stats, competitor.stats, node_budget).robust
        if not greedy_says_robust:
            # A greedy non-robust verdict is constructive (the removal
            # sequence it found is a real counterexample), so it is
            # trustworthy regardless of the precondition.
            threats.append(competitor)
            continue
        if verified and not trusted:
            if node_budget <= MAX_ENUMERATION_BUDGET:
                if not enumerate_is_robust(best.stats, competitor.stats, node_budget):
                    threats.append(competitor)
            else:
                return "rejected", []
    if threats:
        return "non_robust", threats
    return "robust", []


class TreeBuilder:
    """Grows a single HedgeCut tree over a dataset, one node at a time.

    The depth-first reference that the tests compare
    :class:`~repro.training.frontier.FrontierTreeBuilder` against; every
    fit grows its trees with the frontier builder.
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
        # Per-tree mutable copy of the columns, partitioned in place as the
        # tree grows (Section 5: "recursively invoke the split finding
        # procedure with pointers" instead of index gathers).
        self.workspace = TreeWorkspace(dataset)

    def build(self) -> HedgeCutTree:
        maintenance_left = self.params.max_maintenance_depth
        root = self._build_node(
            0,
            self.dataset.n_rows,
            known_constant=frozenset(),
            depth=0,
            maintenance_left=maintenance_left,
        )
        return HedgeCutTree(root=root, counters=self.counters)

    # ------------------------------------------------------------------ #
    # node construction
    # ------------------------------------------------------------------ #

    def _build_node(
        self,
        lo: int,
        hi: int,
        known_constant: frozenset[int],
        depth: int,
        maintenance_left: int | None,
    ) -> TreeNode:
        self.counters.max_depth = max(self.counters.max_depth, depth)
        labels = self.workspace.labels(lo, hi)
        n = hi - lo
        n_plus = int(labels.sum())

        label_constant = n_plus in (0, n)
        if n <= self.params.min_leaf_size or label_constant:
            return self._leaf(n, n_plus)

        non_constant, known_constant = self._non_constant_features(lo, hi, known_constant)
        if not non_constant:
            return self._leaf(n, n_plus)

        node_budget = min(self.budget, n - self.params.min_leaf_size)
        check_robustness = (
            self.params.robustness_mode != "off"
            and (maintenance_left is None or maintenance_left > 0)
        )
        last_candidates: list[CandidateSplit] = []
        last_best_index = -1
        last_threats: list[CandidateSplit] = []

        max_tries = self.params.max_tries_per_split if check_robustness else 1
        for _ in range(max_tries):
            self.counters.trials += 1
            candidates = self._draw_candidates(lo, hi, labels, non_constant)
            if not candidates:
                self.counters.empty_trials += 1
                continue
            best_index = max(
                range(len(candidates)), key=lambda index: (candidates[index].gain, -index)
            )
            best = candidates[best_index]

            if not check_robustness:
                # Robustness disabled (mode "off" or maintenance cap hit):
                # accept the winner as a plain split.
                if maintenance_left is not None and maintenance_left <= 0:
                    self.counters.capped_maintenance += 1
                return self._split_node(best, lo, hi, known_constant, depth, maintenance_left)

            if len(candidates) == 1:
                self.counters.singleton_splits += 1
                return self._split_node(best, lo, hi, known_constant, depth, maintenance_left)

            verdict, threats = self._judge_best(best, candidates, best_index, node_budget)
            if verdict == "robust":
                return self._split_node(best, lo, hi, known_constant, depth, maintenance_left)
            if verdict == "rejected":
                self.counters.precondition_rejections += 1
                continue
            # Non-robust: remember the trial for the maintenance fallback.
            self.counters.robustness_rejections += 1
            last_candidates = candidates
            last_best_index = best_index
            last_threats = threats

        if not last_candidates:
            return self._leaf(n, n_plus)
        return self._maintenance_node(
            last_candidates[last_best_index],
            last_threats,
            lo,
            hi,
            known_constant,
            depth,
            maintenance_left,
        )

    def _judge_best(
        self,
        best: CandidateSplit,
        candidates: list[CandidateSplit],
        best_index: int,
        node_budget: int,
    ) -> tuple[str, list[CandidateSplit]]:
        return judge_best(
            best, candidates, best_index, node_budget, self.params.robustness_mode
        )

    def _leaf(self, n: int, n_plus: int) -> Leaf:
        self.counters.leaves += 1
        return Leaf(n=n, n_plus=n_plus)

    def _split_node(
        self,
        candidate: CandidateSplit,
        lo: int,
        hi: int,
        known_constant: frozenset[int],
        depth: int,
        maintenance_left: int | None,
    ) -> SplitNode:
        self.counters.robust_splits += 1
        mid = self._partition(lo, hi, candidate.split)
        return SplitNode(
            split=candidate.split,
            stats=candidate.stats,
            left=self._build_node(lo, mid, known_constant, depth + 1, maintenance_left),
            right=self._build_node(mid, hi, known_constant, depth + 1, maintenance_left),
        )

    def _maintenance_node(
        self,
        best: CandidateSplit,
        threats: list[CandidateSplit],
        lo: int,
        hi: int,
        known_constant: frozenset[int],
        depth: int,
        maintenance_left: int | None,
    ) -> TreeNode:
        """Grow a subtree variant per viable candidate (Alg. 3, lines 18-24).

        The node's range is re-partitioned once per variant; the range holds
        the same record multiset each time, so every variant sees the data
        it would have received as the chosen split.
        """
        if not threats:
            # The final trial's winner was robust against everything that
            # survived -- can happen when an earlier trial was non-robust but
            # the stored threats came from candidates that later re-draws
            # dominated. Fall back to a plain split.
            return self._split_node(best, lo, hi, known_constant, depth, maintenance_left)
        self.counters.maintenance_nodes += 1
        child_maintenance = None if maintenance_left is None else maintenance_left - 1
        variants = []
        for candidate in [best, *threats]:
            self.counters.variants_grown += 1
            mid = self._partition(lo, hi, candidate.split)
            variants.append(
                SubtreeVariant(
                    split=candidate.split,
                    stats=candidate.stats,
                    left=self._build_node(
                        lo, mid, known_constant, depth + 1, child_maintenance
                    ),
                    right=self._build_node(
                        mid, hi, known_constant, depth + 1, child_maintenance
                    ),
                    gain=candidate.gain,
                )
            )
        node = MaintenanceNode(variants=variants)
        node.rescore()
        return node

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _non_constant_features(
        self, lo: int, hi: int, known_constant: frozenset[int]
    ) -> tuple[list[int], frozenset[int]]:
        """Locally non-constant features, extending the constant set.

        The constant set only ever grows along a path (the copy-on-write
        propagation of Section 5), so features detected constant once are
        never re-examined below.
        """
        non_constant: list[int] = []
        newly_constant: set[int] = set()
        for feature in range(self.dataset.n_features):
            if feature in known_constant:
                continue
            codes = self.workspace.codes(feature, lo, hi)
            if codes.size == 0 or int(codes.min()) == int(codes.max()):
                newly_constant.add(feature)
            else:
                non_constant.append(feature)
        if newly_constant:
            known_constant = known_constant | newly_constant
        return non_constant, known_constant

    def _draw_candidates(
        self, lo: int, hi: int, labels: np.ndarray, non_constant: list[int]
    ) -> list[CandidateSplit]:
        """One trial of candidate generation: features, splits, statistics."""
        k = min(self.n_candidates, len(non_constant))
        features = self.rng.choice(
            np.asarray(non_constant, dtype=np.int64), size=k, replace=False
        )
        candidates: list[CandidateSplit] = []
        for feature in features:
            split = _random_split(int(feature), self.dataset, self.rng)
            if split is None:
                continue
            codes = self.workspace.codes(int(feature), lo, hi)
            stats = split.count(codes, labels)
            if not stats.splits_data:
                # Global proposals may miss the local value range entirely.
                continue
            candidates.append(CandidateSplit.scored(split, stats))
        return candidates

    def _partition(self, lo: int, hi: int, split: Split) -> int:
        codes = self.workspace.codes(split.feature, lo, hi)
        goes_left = split.goes_left_column(codes)
        return self.workspace.partition(lo, hi, goes_left)
