"""The public HedgeCut classifier (Sections 4.3-4.5 of the paper).

``HedgeCutClassifier`` learns an ensemble of randomised trees with
robustness-checked splits, answers prediction requests from a packed
flat-array representation walked by a compiled C kernel, and serves
*unlearning requests* in place: a GDPR deletion request updates the
deployed model directly instead of going through a heavyweight
retrain-and-redeploy pipeline (Figure 1).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.core.exceptions import (
    DeletionBudgetExhausted,
    NotFittedError,
    UnlearningError,
)
from repro.core.nodes import (
    Leaf,
    MaintenanceNode,
    NodeCensus,
    SplitNode,
    census,
    iter_nodes,
)
from repro.core.packed import PackedEnsemble
from repro.core.params import HedgeCutParams
from repro.core.tree import HedgeCutTree
from repro.core.unlearning import (
    UnlearningReport,
    apply_unlearn,
    plan_unlearn,
)

# The native write kernel's entry points are looked up in this module's
# namespace on every call, so a tracer can wrap them here;
# ``unlearn_small_batch`` is kept for the tracer alone.
from repro.core.writes import (  # noqa: F401
    learn_one_packed,
    unlearn_batch_packed,
    unlearn_one_packed,
    unlearn_small_batch,
)
from repro.dataprep.dataset import Dataset, FeatureSchema, Record
from repro.training.frontier import FrontierTreeBuilder


@dataclass(frozen=True)
class EnsembleCensus:
    """Aggregated structural statistics of a trained ensemble."""

    per_tree: tuple[NodeCensus, ...]

    @property
    def n_nodes(self) -> int:
        return sum(tree.n_nodes for tree in self.per_tree)

    @property
    def n_maintenance_nodes(self) -> int:
        return sum(tree.n_maintenance_nodes for tree in self.per_tree)

    @property
    def n_leaves(self) -> int:
        return sum(tree.n_leaves for tree in self.per_tree)

    @property
    def n_robust_splits(self) -> int:
        return sum(tree.n_robust_splits for tree in self.per_tree)

    @property
    def non_robust_fraction(self) -> float:
        """Ensemble-wide fraction of non-robust nodes (Figure 6(a))."""
        if self.n_nodes == 0:
            return 0.0
        return self.n_maintenance_nodes / self.n_nodes


def _as_values(record: Record | Sequence[int] | np.ndarray) -> tuple[int, ...]:
    """Normalise the accepted record representations to a value tuple."""
    if isinstance(record, Record):
        return record.values
    return tuple(int(value) for value in record)


class HedgeCutClassifier:
    """Tree-ensemble classifier supporting low-latency machine unlearning.

    Args:
        n_trees: ensemble size ``M`` (paper default 100).
        epsilon: unlearnable fraction of the training data (paper sweet
            spot: 0.1%).
        max_tries_per_split: retries ``B`` before building a maintenance
            node (paper sweet spot: 5).
        min_leaf_size: ``n_min`` (paper default 2).
        n_candidates: split candidates per node; ``None`` means
            ``sqrt(n_features)``.
        robustness_mode: "greedy" / "verified" / "off", see
            :class:`HedgeCutParams`.
        max_maintenance_depth: cap on nested maintenance nodes per path,
            see :class:`HedgeCutParams`.
        topd: number of random, statistics-frozen top levels per tree
            (DaRE-style), see :class:`HedgeCutParams`. ``0`` (default)
            disables the knob.
        seed: ensemble random seed.

    Example::

        model = HedgeCutClassifier(n_trees=100, epsilon=0.001, seed=42)
        model.fit(train)
        label = model.predict(train.record(0))
        model.unlearn(train.record(0))        # GDPR deletion request
    """

    def __init__(
        self,
        n_trees: int = 100,
        epsilon: float = 0.001,
        max_tries_per_split: int = 5,
        min_leaf_size: int = 2,
        n_candidates: int | None = None,
        robustness_mode: str = "greedy",
        max_maintenance_depth: int | None = 1,
        topd: int = 0,
        n_jobs: int = 1,
        seed: int | None = None,
    ) -> None:
        self.params = HedgeCutParams(
            n_trees=n_trees,
            epsilon=epsilon,
            max_tries_per_split=max_tries_per_split,
            min_leaf_size=min_leaf_size,
            n_candidates=n_candidates,
            robustness_mode=robustness_mode,
            max_maintenance_depth=max_maintenance_depth,
            topd=topd,
            n_jobs=n_jobs,
            seed=seed,
        )
        self._trees: list[HedgeCutTree] = []
        self._packed: PackedEnsemble | None = None
        self._schema: tuple[FeatureSchema, ...] | None = None
        self._deletion_budget = 0
        self._n_unlearned = 0
        self._n_trained_on = 0

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def fit(self, dataset: Dataset) -> "HedgeCutClassifier":
        """Train the ensemble on an encoded dataset.

        Every tree sees the full training data (ERTs do not bootstrap) with
        an independent random stream for its attribute and cut-point
        choices. Training replaces any previously fitted state.
        """
        if dataset.n_rows == 0:
            raise ValueError("cannot train on an empty dataset")
        if dataset.n_features == 0:
            raise ValueError("cannot train on a dataset without features")

        rng = np.random.default_rng(self.params.seed)
        tree_rngs = rng.spawn(self.params.n_trees)

        # Effective parallelism: never more workers than trees, and never
        # a pool at all when only one worker (or one core) is available --
        # process spawn plus a per-worker dataset copy costs more than it
        # saves when the builds cannot actually overlap.
        n_jobs = min(self.params.n_jobs, len(tree_rngs), os.cpu_count() or 1)
        if n_jobs > 1:
            # Trees are fully independent (Section 5); build them in a
            # process pool. Each worker receives its own copy of the data
            # (the paper trains "in parallel on copies of the input data"),
            # shipped ONCE per worker through the pool initializer instead
            # of once per tree through the job pickles, and the per-tree
            # jobs shrink to the spawned generators. Chunking amortises the
            # remaining per-job IPC over several tree builds.
            from concurrent.futures import ProcessPoolExecutor

            chunksize = -(-len(tree_rngs) // (n_jobs * 2))
            with ProcessPoolExecutor(
                max_workers=n_jobs,
                initializer=_pool_initializer,
                initargs=(dataset, self.params),
            ) as pool:
                self._trees = list(
                    pool.map(_pool_build_tree, tree_rngs, chunksize=chunksize)
                )
        else:
            self._trees = [
                FrontierTreeBuilder(dataset, self.params, tree_rng).build()
                for tree_rng in tree_rngs
            ]
        self._packed = None
        self._schema = dataset.schema
        self._deletion_budget = self.params.deletion_budget(dataset.n_rows)
        self._n_unlearned = 0
        self._n_trained_on = dataset.n_rows
        return self

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError("the model has not been fitted yet")

    @property
    def trees(self) -> tuple[HedgeCutTree, ...]:
        """The trained trees (read-only view)."""
        return tuple(self._trees)

    @property
    def schema(self) -> tuple[FeatureSchema, ...]:
        self._require_fitted()
        assert self._schema is not None
        return self._schema

    # ------------------------------------------------------------------ #
    # prediction (Section 4.4)
    # ------------------------------------------------------------------ #

    @property
    def packed(self) -> PackedEnsemble:
        """The packed whole-ensemble form every read goes through (built
        lazily once).

        The pack is *maintained* under writes rather than rebuilt: the
        write kernel updates its leaf rows in place, and the rare
        maintenance-node variant switch splices only the switched node's
        reserved span.
        """
        self._require_fitted()
        if self._packed is None:
            self._packed = PackedEnsemble(self._trees, self.schema)
        return self._packed

    def predict(self, record: Record | Sequence[int] | np.ndarray) -> int:
        """Majority-vote label for one encoded record."""
        self._require_fitted()
        return self.packed.predict_one(_as_values(record))

    def predict_proba(self, record: Record | Sequence[int] | np.ndarray) -> float:
        """Mean positive-class probability across the trees (soft vote)."""
        self._require_fitted()
        return self.packed.predict_proba_one(_as_values(record))

    def predict_batch(self, dataset: Dataset) -> np.ndarray:
        """Majority-vote labels for a whole dataset (packed kernel)."""
        self._require_fitted()
        return self.packed.predict_batch(dataset)

    def predict_proba_batch(self, dataset: Dataset) -> np.ndarray:
        """Soft-vote positive-class probabilities for a whole dataset.

        Bit-for-bit identical to calling :meth:`predict_proba` per record
        (the packed kernel accumulates the per-tree probabilities in the
        same order), at batch speed.
        """
        self._require_fitted()
        return self.packed.predict_proba_batch(dataset)

    def predict_rows(self, values: np.ndarray) -> np.ndarray:
        """Majority-vote labels for an ``(n_rows, n_features)`` code matrix.

        This is the entry point of the micro-batched serving path, which
        collects raw encoded requests rather than :class:`Dataset` objects.
        """
        self._require_fitted()
        return self.packed.predict_rows(values)

    def predict_proba_rows(self, values: np.ndarray) -> np.ndarray:
        """Soft-vote probabilities for an ``(n_rows, n_features)`` code matrix."""
        self._require_fitted()
        return self.packed.predict_proba_rows(values)

    def predict_votes_rows(self, values: np.ndarray) -> np.ndarray:
        """Positive hard-vote counts per row (the sharded aggregation input).

        ``predict_rows`` equals ``2 * predict_votes_rows(values) > n_trees``;
        exposing the raw counts lets an ensemble-of-ensembles sum them
        across shards and apply the majority threshold once, globally.
        """
        self._require_fitted()
        return self.packed.predict_votes_rows(values)

    # ------------------------------------------------------------------ #
    # unlearning (Section 4.5)
    # ------------------------------------------------------------------ #

    @property
    def deletion_budget(self) -> int:
        """Total removals the model was trained to support (``r = ε·|D|``)."""
        self._require_fitted()
        return self._deletion_budget

    @property
    def n_unlearned(self) -> int:
        return self._n_unlearned

    @property
    def remaining_deletion_budget(self) -> int:
        self._require_fitted()
        return max(0, self._deletion_budget - self._n_unlearned)

    def _apply_switches(self, switched_nodes) -> None:
        """Propagate variant switches into the packed form.

        The packed ensemble is updated in place by splicing each switched
        maintenance node's reserved span (no whole-tree re-emit, no array
        reallocation -- see ``PackedEnsemble.splice_subtree``).
        """
        packed = self._packed
        if packed is None:
            return
        for node in switched_nodes:
            packed.splice_subtree(node)

    def unlearn(
        self,
        record: Record,
        allow_budget_overrun: bool = False,
        path: str = "auto",
    ) -> UnlearningReport:
        """Remove one training record from the deployed model, in place.

        The operation never touches the training data: the record itself
        carries everything the update needs. After the update the model
        behaves like one retrained without the record (for the same random
        choices), as long as the total number of removals stays within the
        deletion budget.

        Args:
            record: the encoded record to forget (label included).
            allow_budget_overrun: continue past the deletion budget,
                accepting an approximate model, instead of raising
                :class:`DeletionBudgetExhausted`.
            path: ``"auto"`` (default) takes the native write kernel of
                :mod:`repro.core.writes` whenever the packed kernel has
                been built (serving deployments; the engine warms it
                up-front) and the object walk otherwise; ``"fast"`` forces
                the native path, building the packs if needed; ``"object"``
                forces the reference object walk. All paths produce
                bit-identical models and reports.

        Returns:
            an :class:`UnlearningReport` aggregated over all trees.
        """
        if path not in ("auto", "fast", "object"):
            raise ValueError(f"path must be 'auto', 'fast' or 'object', got {path!r}")
        self._require_fitted()
        self._validate_unlearn_record(record)
        if self._n_unlearned >= self._deletion_budget and not allow_budget_overrun:
            raise DeletionBudgetExhausted(
                f"the deletion budget of {self._deletion_budget} records is "
                f"exhausted; retrain the model or pass allow_budget_overrun=True"
            )
        if path == "fast" or (path == "auto" and self._packed is not None):
            return self._unlearn_one_fast(record)

        # Object path. Plan (and validate) the removal against every tree
        # before applying it to any of them: a record inconsistent with the
        # model raises here and leaves the whole ensemble untouched.
        # On a packed model the objects are bound to the write pack's
        # store, so these writes land where the kernel reads; leaves sync
        # into the read pack, and switched nodes splice their spans.
        plans = [plan_unlearn(tree.root, record) for tree in self._trees]
        report = UnlearningReport()
        leaf_sink = self._packed.sync_leaf if self._packed is not None else None
        for plan in plans:
            report.merge(apply_unlearn(plan, leaf_sink=leaf_sink))
            self._apply_switches(plan.rescores)
        self._n_unlearned += 1
        return report

    def _unlearn_one_fast(self, record: Record) -> UnlearningReport:
        """One validated deletion through the native write kernel."""
        result = unlearn_one_packed(
            self.packed.unlearn_pack(), record.values, record.label
        )
        self._apply_switches(result.switched_nodes)
        self._n_unlearned += 1
        return result.report

    def _validate_unlearn_record(self, record: Record) -> None:
        """Reject a record no tree could route, before any write.

        Encoded codes are non-negative; the object walk would send a
        negative code left at every numeric split while the native kernel
        rejects it, so both paths refuse it here alike.
        """
        if not isinstance(record, Record):
            raise TypeError(
                "a write expects a Record (encoded values + label); use "
                "TabularPreprocessor.encode_record for raw serving requests"
            )
        if len(record.values) != len(self.schema):
            raise UnlearningError(
                f"record has {len(record.values)} values, model expects "
                f"{len(self.schema)}"
            )
        if min(record.values, default=0) < 0:
            raise UnlearningError("record has a negative code")

    def unlearn_batch(
        self,
        records: Iterable[Record],
        allow_budget_overrun: bool = False,
    ) -> UnlearningReport:
        """Unlearn a batch of records, aggregating the reports.

        The whole batch is validated against the record shapes and the
        remaining deletion budget *before* any tree is touched, so a batch
        that would exhaust the budget raises :class:`DeletionBudgetExhausted`
        up front instead of leaving the ensemble half-mutated.

        When the packed inference kernel has been built (``self.packed``),
        the batch is one call of the native write kernel
        (:mod:`repro.core.writes`) and is **atomic**: an inconsistent
        record anywhere in the batch raises with no mutation at all.
        Without a pack the records are applied by the scalar object loop
        (each record individually atomic, earlier records stay applied if
        a later one fails). Both paths produce identical end states and
        identically merged reports for batches that succeed.
        """
        self._require_fitted()
        records = records if isinstance(records, list) else list(records)
        if len(records) == 1:
            # Degenerate batch: identical semantics (validation, budget,
            # atomicity, report) to a single unlearn call, so delegate and
            # skip the batch scaffolding -- keeps unlearn_batch([r]) at
            # scalar-path latency.
            return self.unlearn(records[0], allow_budget_overrun=allow_budget_overrun)
        for record in records:
            self._validate_unlearn_record(record)
        remaining = self._deletion_budget - self._n_unlearned
        if len(records) > remaining and not allow_budget_overrun:
            raise DeletionBudgetExhausted(
                f"a batch of {len(records)} deletions exceeds the remaining "
                f"budget of {max(0, remaining)} records; retrain the model or "
                f"pass allow_budget_overrun=True"
            )
        if not records:
            return UnlearningReport()
        if self._packed is not None:
            return self._unlearn_batch_packed(records)
        total = UnlearningReport()
        for record in records:
            total.merge(self.unlearn(record, allow_budget_overrun=True))
        return total

    def _unlearn_batch_packed(self, records: list[Record]) -> UnlearningReport:
        """Apply one validated batch through the native write kernel."""
        result = unlearn_batch_packed(
            self.packed.unlearn_pack(),
            [record.values for record in records],
            [record.label for record in records],
        )
        self._apply_switches(result.switched_nodes)
        self._n_unlearned += len(records)
        return result.report

    # ------------------------------------------------------------------ #
    # online learning extension (Section 8 future work)
    # ------------------------------------------------------------------ #

    def learn_one(self, record: Record) -> UnlearningReport:
        """Incorporate one *new* record into the leaf and split statistics.

        This is the insertion counterpart of Algorithm 4 and implements the
        online-learning direction sketched in the paper's future work. It
        updates every statistic on the record's paths (and re-scores
        maintenance nodes, which may switch variants), but it does **not**
        revise robust split decisions or grow new splits -- insertions can
        invalidate robustness certificates, so models under sustained
        insertion load should still be retrained periodically.

        When the packed kernel has been built, an insertion is the native
        write kernel's walk with +1 updates, exactly like a deletion: leaf
        increments land in the read pack's arrays, and a span is spliced
        only when a variant actually switches.

        Returns:
            an :class:`UnlearningReport` aggregated over all trees, the
            same shape the deletion paths return (``leaves_updated``,
            visit tallies, ``variant_switches``).
        """
        self._require_fitted()
        self._validate_unlearn_record(record)
        if self._packed is not None:
            result = learn_one_packed(
                self._packed.unlearn_pack(), record.values, record.label
            )
            self._apply_switches(result.switched_nodes)
            return result.report
        report = UnlearningReport()
        for tree in self._trees:
            report.merge(_learn_one_in_tree(tree.root, record))
        return report

    # ------------------------------------------------------------------ #
    # introspection and persistence
    # ------------------------------------------------------------------ #

    def node_census(self) -> EnsembleCensus:
        """Structural statistics per tree (Figure 6(a) reporting)."""
        self._require_fitted()
        return EnsembleCensus(per_tree=tuple(census(tree.root) for tree in self._trees))

    @property
    def n_trained_on(self) -> int:
        """Number of training rows the model was fitted on."""
        self._require_fitted()
        return self._n_trained_on

    def invalidate_tree(self, index: int) -> None:
        """Refresh the packed form of one tree after an out-of-band
        structural edit (e.g. a manually forced variant switch).

        Splices every maintenance node of the tree whose packed variant
        differs from its live one, outer nodes before the nodes nested in
        them, if the pack has been built.
        """
        self._require_fitted()
        if not 0 <= index < len(self._trees):
            raise IndexError(f"tree index {index} out of range")
        self._apply_switches(
            node
            for node in iter_nodes(self._trees[index].root)
            if isinstance(node, MaintenanceNode)
        )

    @classmethod
    def from_state(
        cls,
        params: HedgeCutParams,
        trees: Sequence[HedgeCutTree],
        schema: Sequence[FeatureSchema],
        deletion_budget: int,
        n_unlearned: int,
        n_trained_on: int,
    ) -> "HedgeCutClassifier":
        """Reconstitute a fitted model from externally restored state.

        This is the hook the :mod:`repro.persistence` subsystem uses to turn
        a decoded snapshot back into a serving-ready classifier without
        retraining. The caller owns the invariants (trees consistent with the
        schema, counters consistent with the trees).
        """
        model = cls(
            n_trees=params.n_trees,
            epsilon=params.epsilon,
            max_tries_per_split=params.max_tries_per_split,
            min_leaf_size=params.min_leaf_size,
            n_candidates=params.n_candidates,
            robustness_mode=params.robustness_mode,
            max_maintenance_depth=params.max_maintenance_depth,
            topd=params.topd,
            n_jobs=params.n_jobs,
            seed=params.seed,
        )
        model._trees = list(trees)
        model._packed = None
        model._schema = tuple(schema)
        model._deletion_budget = deletion_budget
        model._n_unlearned = n_unlearned
        model._n_trained_on = n_trained_on
        return model

    def save(self, path: str | Path) -> None:
        """Serialise the fitted model (including its unlearning state)."""
        self._require_fitted()
        state = {
            "params": self.params,
            "trees": self._trees,
            "schema": self._schema,
            "deletion_budget": self._deletion_budget,
            "n_unlearned": self._n_unlearned,
            "n_trained_on": self._n_trained_on,
        }
        with open(path, "wb") as sink:
            pickle.dump(state, sink)

    @classmethod
    def load(cls, path: str | Path) -> "HedgeCutClassifier":
        """Restore a model saved with :meth:`save`."""
        with open(path, "rb") as source:
            state = pickle.load(source)
        return cls.from_state(
            params=state["params"],
            trees=state["trees"],
            schema=state["schema"],
            deletion_budget=state["deletion_budget"],
            n_unlearned=state["n_unlearned"],
            n_trained_on=state["n_trained_on"],
        )


def _learn_one_in_tree(root, record: Record) -> UnlearningReport:
    """Insertion traversal over one tree's object graph.

    Returns the tree's :class:`UnlearningReport` with the same visit
    accounting as the packed insertion path (variant-root statistic
    updates are not counted under ``robust_nodes_visited``); a non-zero
    ``variant_switches`` tells the caller the tree's structure changed.
    """
    report = UnlearningReport()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            node.n += 1
            if record.label == 1:
                node.n_plus += 1
            report.leaves_updated += 1
        elif isinstance(node, SplitNode):
            goes_left = node.split.goes_left_value(record.values[node.split.feature])
            if node.random:
                # Random top-d splits keep their training-time statistics
                # frozen, symmetric with unlearning's skip.
                report.random_nodes_visited += 1
            else:
                _insert_into_stats(node.stats, record, goes_left)
                report.robust_nodes_visited += 1
            stack.append(node.left if goes_left else node.right)
        elif isinstance(node, MaintenanceNode):
            for variant in node.variants:
                goes_left = variant.split.goes_left_value(
                    record.values[variant.split.feature]
                )
                _insert_into_stats(variant.stats, record, goes_left)
                stack.append(variant.left if goes_left else variant.right)
            report.maintenance_nodes_visited += 1
            if node.rescore():
                report.variant_switches += 1
    return report


def _insert_into_stats(stats, record: Record, goes_left: bool) -> None:
    stats.n += 1
    if record.label == 1:
        stats.n_plus += 1
    if goes_left:
        stats.n_left += 1
        if record.label == 1:
            stats.n_left_plus += 1


#: Per-worker training state installed by :func:`_pool_initializer`.
_POOL_STATE: dict = {}


def _pool_initializer(dataset: Dataset, params: HedgeCutParams) -> None:
    """Stash the shared training inputs in the worker process, once."""
    _POOL_STATE["dataset"] = dataset
    _POOL_STATE["params"] = params


def _pool_build_tree(rng: np.random.Generator) -> HedgeCutTree:
    """Process-pool entry point: build one tree from the shared state."""
    builder = FrontierTreeBuilder(_POOL_STATE["dataset"], _POOL_STATE["params"], rng)
    return builder.build()
