"""Unlearning a training record from a tree (Section 4.5, Algorithm 4).

The traversal mirrors prediction: the record walks down each tree. Leaves
decrement their label counts; robust split nodes decrement their split
statistics and route the record onward (their decision is certified not to
change); maintenance nodes propagate the
removal into *every* subtree variant, update every variant's split
statistics, and re-score -- possibly switching the active variant, which is
exactly the case where a retrained model would have chosen a different
split.

The operation is split into two phases so it is **atomic per tree**:
:func:`plan_unlearn` walks the tree, validates every decrement against the
current statistics and collects the mutations without applying any of them;
:func:`apply_unlearn` then performs the collected decrements and re-scores.
A record that is inconsistent with the tree (already unlearned, never
trained on) therefore raises from the planning phase and leaves the tree
bit-for-bit unchanged, instead of aborting mid-traversal with earlier
decrements already applied. Validation against the *pre-removal* counts is
exact because a single record visits any leaf or split statistic at most
once (subtree variants are disjoint object graphs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.exceptions import UnlearningError
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, TreeNode
from repro.core.splits import SplitStats
from repro.dataprep.dataset import Record

#: Callback invoked with every leaf whose statistics were just mutated.
#: The packed inference kernel registers one to mirror the decrement into
#: its flat leaf arrays in O(1) (dirty-leaf write-through).
LeafSink = Callable[[Leaf], None]


@dataclass
class UnlearningReport:
    """Observability counters for one unlearning operation.

    Attributes:
        leaves_updated: leaf statistic updates applied.
        robust_nodes_visited: robust split nodes traversed.
        maintenance_nodes_visited: maintenance nodes whose variants were
            updated.
        variant_switches: maintenance nodes whose active variant changed
            (the *split switches* of Figure 6(b)).
    """

    leaves_updated: int = 0
    robust_nodes_visited: int = 0
    maintenance_nodes_visited: int = 0
    variant_switches: int = 0

    def merge(self, other: "UnlearningReport") -> None:
        self.leaves_updated += other.leaves_updated
        self.robust_nodes_visited += other.robust_nodes_visited
        self.maintenance_nodes_visited += other.maintenance_nodes_visited
        self.variant_switches += other.variant_switches


@dataclass
class UnlearnPlan:
    """The validated mutations of one record's removal from one tree.

    Produced by :func:`plan_unlearn` without touching the tree; consumed by
    :func:`apply_unlearn`. ``positive`` is the record's label bit; ``stats``
    holds ``(stats, goes_left)`` pairs for every split statistic on the
    record's paths (robust splits and every maintenance variant);
    ``rescores`` lists the visited maintenance nodes.
    """

    positive: bool
    leaves: list[Leaf] = field(default_factory=list)
    stats: list[tuple[SplitStats, bool]] = field(default_factory=list)
    rescores: list[MaintenanceNode] = field(default_factory=list)
    robust_nodes_visited: int = 0


def plan_unlearn(root: TreeNode, record: Record) -> UnlearnPlan:
    """Validate Algorithm 4 for one tree and collect its mutations.

    Raises:
        UnlearningError: when any decrement would drive a count negative;
            the tree is guaranteed untouched in that case.
    """
    plan = UnlearnPlan(positive=record.label == 1)
    stack: list[TreeNode] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            if node.n <= 0 or (plan.positive and node.n_plus <= 0):
                raise UnlearningError(
                    "unlearning would drive a leaf count negative; the record "
                    "was not part of the training data routed to this leaf "
                    "(or was already unlearned)"
                )
            plan.leaves.append(node)
        elif isinstance(node, SplitNode):
            goes_left = node.split.goes_left_value(record.values[node.split.feature])
            plan.robust_nodes_visited += 1
            if not node.stats.can_remove(plan.positive, goes_left):
                raise UnlearningError(
                    "unlearning would drive a split statistic negative; the "
                    "record is inconsistent with the trained split"
                )
            plan.stats.append((node.stats, goes_left))
            stack.append(node.left if goes_left else node.right)
        else:
            for variant in node.variants:
                goes_left = variant.split.goes_left_value(
                    record.values[variant.split.feature]
                )
                if not variant.stats.can_remove(plan.positive, goes_left):
                    raise UnlearningError(
                        "unlearning would drive a split statistic negative; "
                        "the record is inconsistent with a subtree variant"
                    )
                plan.stats.append((variant.stats, goes_left))
                stack.append(variant.left if goes_left else variant.right)
            plan.rescores.append(node)
    return plan


def apply_unlearn(plan: UnlearnPlan, leaf_sink: LeafSink | None = None) -> UnlearningReport:
    """Apply a validated plan; returns the per-tree report.

    Maintenance nodes are re-scored after all of the plan's statistic
    decrements; each re-score only reads its own variants' statistics, all
    of which carry exactly this record's decrements by then, so the
    switches are identical to re-scoring at visit time (as the one-pass
    traversal used to).
    """
    report = UnlearningReport(
        leaves_updated=len(plan.leaves),
        robust_nodes_visited=plan.robust_nodes_visited,
        maintenance_nodes_visited=len(plan.rescores),
    )
    positive = plan.positive
    for leaf in plan.leaves:
        leaf.n -= 1
        if positive:
            leaf.n_plus -= 1
        if leaf_sink is not None:
            leaf_sink(leaf)
    for stats, goes_left in plan.stats:
        stats.n -= 1
        if positive:
            stats.n_plus -= 1
        if goes_left:
            stats.n_left -= 1
            if positive:
                stats.n_left_plus -= 1
    for node in plan.rescores:
        if node.rescore():
            report.variant_switches += 1
    return report


def unlearn_from_tree(
    root: TreeNode, record: Record, leaf_sink: LeafSink | None = None
) -> UnlearningReport:
    """Apply Algorithm 4 to one tree; returns the per-tree report.

    Validate-then-apply: a record inconsistent with the tree raises before
    any statistic is touched. When ``leaf_sink`` is given it is called with
    every decremented leaf, letting derived read-path structures (the
    packed ensemble) stay in sync without a recompile.
    """
    return apply_unlearn(plan_unlearn(root, record), leaf_sink=leaf_sink)
