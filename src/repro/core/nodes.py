"""Tree node types: leaves, robust splits and maintenance nodes.

HedgeCut trees consist of three node kinds (Section 4.1):

* :class:`Leaf` -- label statistics ``(n, n_plus)`` from which the
  prediction is derived and which unlearning decrements in place.
* :class:`SplitNode` -- a split certified *robust*: no removal within the
  deletion budget can change the decision, so only its subtrees need
  maintenance.
* :class:`MaintenanceNode` -- a non-robust split position. It keeps one
  :class:`SubtreeVariant` per split candidate, each with its own statistics
  and fully grown subtrees; predictions are delegated to the variant with
  the currently highest Gini gain, and unlearning may *switch* the active
  variant.
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro.core.splits import Split, SplitStats


@dataclass
class Leaf:
    """Label statistics of a terminal region.

    Predicts the majority class: positive when strictly more than half of
    the remaining records are positive.

    ``__slots__`` keeps the two counts out of a per-instance dict: deep
    ensembles hold hundreds of thousands of these. Like
    :class:`~repro.core.splits.SplitStats`, a leaf is bound to the write
    pack's count store once the pack exists (``_at`` is its store offset,
    see :mod:`repro.core.writes`).
    """

    __slots__ = ("n", "n_plus", "_at")

    n: int
    n_plus: int

    def __setstate__(self, state) -> None:
        # Accept both slotted (dict_state, slots_state) pickles and plain
        # __dict__ state from pre-__slots__ pickles.
        parts = state if isinstance(state, tuple) else (state,)
        for part in parts:
            if part:
                for name, value in part.items():
                    setattr(self, name, value)

    def predict(self) -> int:
        return 1 if 2 * self.n_plus > self.n else 0

    def predict_proba(self) -> float:
        """Empirical probability of the positive class in the leaf."""
        if self.n <= 0:
            return 0.5
        return self.n_plus / self.n


@dataclass
class SplitNode:
    """A split whose decision is fixed for the lifetime of the deployment.

    The robustness analysis certified that no removal within the deletion
    budget can change the decision (or the split was accepted unchecked:
    ``robustness_mode="off"``, or the maintenance-depth cap was spent).
    Unlearning and insertion validate and update its statistics and route
    through it; they never re-score it.
    """

    split: Split
    stats: SplitStats
    left: "TreeNode"
    right: "TreeNode"

    def child_for_value(self, value: int) -> "TreeNode":
        return self.left if self.split.goes_left_value(value) else self.right


@dataclass
class SubtreeVariant:
    """One fully grown alternative below a maintenance node."""

    split: Split
    stats: SplitStats
    left: "TreeNode"
    right: "TreeNode"
    gain: float = field(default=0.0)

    def refresh_gain(self) -> None:
        self.gain = self.stats.gini_gain()

    def child_for_value(self, value: int) -> "TreeNode":
        return self.left if self.split.goes_left_value(value) else self.right


@dataclass
class MaintenanceNode:
    """Container for the subtree variants of a non-robust split position.

    The *active* variant is the one with the highest current Gini gain; ties
    are broken towards the lowest variant index so that re-scoring is
    deterministic. Once the model's write pack exists, ``active_index``
    (like each variant's ``gain``) lives in the pack's store
    (:mod:`repro.core.writes`).
    """

    variants: list[SubtreeVariant]
    active_index: int = 0

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("a maintenance node needs at least one variant")
        if not 0 <= self.active_index < len(self.variants):
            raise ValueError(
                f"active_index {self.active_index} out of range for "
                f"{len(self.variants)} variants"
            )

    @property
    def active(self) -> SubtreeVariant:
        return self.variants[self.active_index]

    def rescore(self) -> bool:
        """Recompute all variant gains and re-select the active variant.

        Returns ``True`` when the active variant changed (a *split switch*,
        counted by the Figure 6(b) experiment).
        """
        for variant in self.variants:
            variant.refresh_gain()
        best_index = max(
            range(len(self.variants)), key=lambda index: (self.variants[index].gain, -index)
        )
        switched = best_index != self.active_index
        self.active_index = best_index
        return switched


TreeNode = Union[Leaf, SplitNode, MaintenanceNode]


@contextlib.contextmanager
def bulk_allocation() -> Iterator[None]:
    """Pause the cyclic garbage collector while a node graph is built.

    Decoding a snapshot or packing an ensemble allocates hundreds of
    thousands of objects. Left on, the collector runs over and over during
    the burst, with a full collection (a scan of every live object of the
    process) each time the heap grows by a quarter, and finds nothing to
    free: the node graphs are acyclic. Reference counting still frees
    everything.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def iter_nodes(root: TreeNode) -> Iterator[TreeNode]:
    """Depth-first iteration over every node reachable from ``root``.

    Maintenance nodes yield themselves once and then descend into the
    subtrees of *all* variants (inactive variants are part of the deployed
    model -- they are what makes unlearning possible).
    """
    stack: list[TreeNode] = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SplitNode):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, MaintenanceNode):
            for variant in node.variants:
                stack.append(variant.left)
                stack.append(variant.right)


@dataclass(frozen=True)
class NodeCensus:
    """Structural statistics of one tree (Figure 6(a) reporting)."""

    n_leaves: int
    n_robust_splits: int
    n_maintenance_nodes: int

    @property
    def n_nodes(self) -> int:
        return self.n_leaves + self.n_robust_splits + self.n_maintenance_nodes

    @property
    def n_internal(self) -> int:
        return self.n_robust_splits + self.n_maintenance_nodes

    @property
    def non_robust_fraction(self) -> float:
        """Fraction of non-robust (maintenance) nodes among all nodes."""
        if self.n_nodes == 0:
            return 0.0
        return self.n_maintenance_nodes / self.n_nodes


def census(root: TreeNode) -> NodeCensus:
    """Count node kinds in a tree (variant subtrees included)."""
    n_leaves = 0
    n_robust = 0
    n_maintenance = 0
    for node in iter_nodes(root):
        if isinstance(node, Leaf):
            n_leaves += 1
        elif isinstance(node, SplitNode):
            n_robust += 1
        else:
            n_maintenance += 1
    return NodeCensus(n_leaves, n_robust, n_maintenance)
