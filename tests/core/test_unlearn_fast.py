"""Property tests: the native write kernel vs the object reference path.

``unlearn_one_packed`` (:mod:`repro.core.writes`) must be
*verdict-identical* to the object-graph walk of
:mod:`repro.core.unlearning`: same :class:`UnlearningReport` field by
field, same variant switches in the same trees, bit-identical
``predict_proba`` afterwards, and the same error message on rejection --
through interleaved unlearn/predict campaigns, across snapshot
round-trips, and after a batch's whole-batch rollback.
Insertions (``learn_one``) write through to the pack the same way, and a
hypothesis suite drives random delete / batch-delete / insert / predict
interleavings against the object-walk oracle.

The second half covers the DaRE-style ``topd`` knob: ``topd=0`` trains
bit-identical models to the pre-knob code, deletions never touch the
frozen random layers, and both the snapshot codec and WAL recovery
preserve the random flags.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import UnlearningError
from repro.core.nodes import Leaf, MaintenanceNode, SplitNode, iter_nodes
from repro.core.packed import PackedEnsemble
from repro.core.tree import TreeBuilder
from repro.core.unlearning import UnlearningReport
from repro.dataprep.dataset import Record
from repro.datasets.registry import load_dataset
from repro.evaluation.splits import train_test_split


def _active_variants(model):
    """(tree index, active_index) of every maintenance node, in DFS order."""
    actives = []
    for index, tree in enumerate(model.trees):
        for node in iter_nodes(tree.root):
            if isinstance(node, MaintenanceNode):
                actives.append((index, node.active_index))
    return actives


def _variant_gains(model):
    gains = []
    for tree in model.trees:
        for node in iter_nodes(tree.root):
            if isinstance(node, MaintenanceNode):
                gains.extend(variant.gain for variant in node.variants)
    return gains


def _split_counts(model):
    """(n, n_plus, n_left, n_left_plus) of every split node, in DFS order."""
    counts = []
    for tree in model.trees:
        for node in iter_nodes(tree.root):
            if isinstance(node, SplitNode):
                stats = node.stats
                counts.append(
                    (node.random, stats.n, stats.n_plus, stats.n_left, stats.n_left_plus)
                )
    return counts


def _fingerprint(model):
    """Every count, gain and active choice, plus the deletion accounting."""
    leaves = [
        (leaf.n, leaf.n_plus)
        for tree in model.trees
        for leaf in iter_nodes(tree.root)
        if isinstance(leaf, Leaf)
    ]
    return (
        model.n_unlearned,
        _split_counts(model),
        _active_variants(model),
        _variant_gains(model),
        leaves,
    )


def _drive_to_rejection(model, record, max_iters=64):
    """Accepted deletions of ``record`` before the fast path rejects it.

    Deleting the same record repeatedly drains its leaf and split
    quadrants until ``can_remove`` fails, which makes rejection
    deterministic without hunting for a naturally rejectable record.
    Returns ``None`` if no rejection occurs within ``max_iters``.
    """
    probe = copy.deepcopy(model)
    _ = probe.packed.unlearn_pack()
    for accepted in range(max_iters):
        try:
            probe.unlearn(record, allow_budget_overrun=True, path="fast")
        except UnlearningError:
            return accepted
    return None


def assert_fast_equivalent_campaign(model, train, test, rows, overrun=True):
    """Delete the same rows via the fast path and the object path.

    Both sides must agree on every report, every rejection message,
    every maintenance-node state, and every interleaved prediction.
    Returns the merged report for campaign-level assertions.
    """
    fast = copy.deepcopy(model)
    obj = copy.deepcopy(model)
    _ = fast.packed.unlearn_pack()  # pack resident -> "auto" takes the fast path
    total = UnlearningReport()
    for row in rows:
        record = train.record(row)
        obj_error = fast_error = None
        try:
            obj_report = obj.unlearn(record, allow_budget_overrun=overrun, path="object")
        except UnlearningError as exc:
            obj_error = str(exc)
        try:
            fast_report = fast.unlearn(record, allow_budget_overrun=overrun, path="fast")
        except UnlearningError as exc:
            fast_error = str(exc)
        assert obj_error == fast_error
        if obj_error is None:
            assert fast_report == obj_report
            total.merge(fast_report)
        assert _active_variants(fast) == _active_variants(obj)
        assert _variant_gains(fast) == _variant_gains(obj)
        assert np.array_equal(
            fast.predict_proba_batch(test), obj.predict_proba_batch(test)
        )
    assert _split_counts(fast) == _split_counts(obj)
    assert fast.n_unlearned == obj.n_unlearned
    return total


class TestFastPathEquivalence:
    def test_income_campaign(self, fitted_model, income_split):
        train, test = income_split
        assert_fast_equivalent_campaign(fitted_model, train, test, range(40))

    def test_auto_dispatch_uses_fast_path(self, fitted_model, income_split):
        train, test = income_split
        auto = copy.deepcopy(fitted_model)
        obj = copy.deepcopy(fitted_model)
        _ = auto.packed.unlearn_pack()
        for row in range(6):
            record = train.record(row)
            assert auto.unlearn(record, allow_budget_overrun=True) == obj.unlearn(
                record, allow_budget_overrun=True, path="object"
            )
        assert np.array_equal(
            auto.predict_proba_batch(test), obj.predict_proba_batch(test)
        )

    def test_campaign_with_variant_switches(self):
        # Same forced-switch campaign as the batch-kernel suite: heart at
        # a loose epsilon produces several variant switches over 300
        # deletions, exercising re-scoring and repack, not only the
        # no-switch path.
        data = load_dataset("heart", n_rows=1200, seed=3)
        train, test = train_test_split(data, test_fraction=0.2, seed=3)
        model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(train)
        total = assert_fast_equivalent_campaign(model, train, test, range(300))
        assert total.variant_switches > 0, "campaign produced no variant switch"

    def test_rejection_is_atomic(self, fitted_model, income_split):
        # When a deletion is rejected, the fast path must leave the model
        # (object counts AND packed mirrors) exactly as before.
        train, test = income_split
        model = fitted_model
        _ = model.packed.unlearn_pack()
        record = train.record(0)
        accepted = _drive_to_rejection(model, record)
        assert accepted is not None, "repeated deletion never hit a rejection"
        for _ in range(accepted):
            model.unlearn(record, allow_budget_overrun=True, path="fast")
        before_counts = _split_counts(model)
        before_proba = model.predict_proba_batch(test)
        with pytest.raises(UnlearningError):
            model.unlearn(record, allow_budget_overrun=True, path="fast")
        assert _split_counts(model) == before_counts
        assert np.array_equal(model.predict_proba_batch(test), before_proba)
        # The pack was not left half-mutated either: the next accepted
        # deletion still matches the object path.
        assert_fast_equivalent_campaign(model, train, test, range(4))

    def test_fast_path_after_snapshot_restore(self, fitted_model, income_split, tmp_path):
        from repro.persistence.snapshot import load_snapshot, save_snapshot

        train, test = income_split
        save_snapshot(fitted_model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        assert_fast_equivalent_campaign(restored, train, test, range(20))

    def test_small_batch_dispatch_matches_object_loop(self, fitted_model, income_split):
        # A small batch through the native kernel must equal the
        # one-by-one object walk, report and predictions alike.
        train, test = income_split
        batched = copy.deepcopy(fitted_model)
        obj = copy.deepcopy(fitted_model)
        _ = batched.packed.unlearn_pack()
        records = [train.record(row) for row in range(8)]
        batch_report = batched.unlearn_batch(records, allow_budget_overrun=True)
        loop_report = UnlearningReport()
        for record in records:
            loop_report.merge(
                obj.unlearn(record, allow_budget_overrun=True, path="object")
            )
        assert batch_report == loop_report
        assert _active_variants(batched) == _active_variants(obj)
        assert np.array_equal(
            batched.predict_proba_batch(test), obj.predict_proba_batch(test)
        )

    def test_small_batch_rollback_is_whole_batch_atomic(self, fitted_model, income_split):
        # A batch containing one unremovable record must leave the model
        # untouched, even when earlier records in the batch were applied.
        train, test = income_split
        model = fitted_model
        _ = model.packed.unlearn_pack()
        record = train.record(0)
        accepted = _drive_to_rejection(model, record)
        assert accepted is not None, "repeated deletion never hit a rejection"
        # One batch whose final repetition must be rejected after the
        # earlier ones were already applied in this very batch.
        records = [record] * (accepted + 1)
        before_counts = _split_counts(model)
        before_actives = _active_variants(model)
        before_proba = model.predict_proba_batch(test)
        with pytest.raises(UnlearningError):
            model.unlearn_batch(records, allow_budget_overrun=True)
        assert _split_counts(model) == before_counts
        assert _active_variants(model) == before_actives
        assert np.array_equal(model.predict_proba_batch(test), before_proba)
        # The model remains fully usable on the fast path afterwards.
        assert_fast_equivalent_campaign(model, train, test, range(4))

    def test_invalid_path_rejected(self, fitted_model, income_split):
        train, _ = income_split
        with pytest.raises(ValueError, match="path"):
            fitted_model.unlearn(train.record(0), path="warp")

    def test_negative_code_rejected_alike_on_every_write(self, fitted_model, income_split):
        # A negative code would route left at every numeric split of the
        # object walk but is out of range for the kernel; every write
        # refuses it with the same typed error and touches nothing.
        train, test = income_split
        record = train.record(0)
        bad = Record((-1,) + tuple(record.values[1:]), record.label)
        obj = copy.deepcopy(fitted_model)
        fast = copy.deepcopy(fitted_model)
        _ = fast.packed.unlearn_pack()
        for model in (obj, fast):
            before = _fingerprint(model)
            before_proba = model.predict_proba_batch(test)
            for path in ("object", "fast"):
                with pytest.raises(UnlearningError, match="negative code"):
                    model.unlearn(bad, allow_budget_overrun=True, path=path)
            with pytest.raises(UnlearningError, match="negative code"):
                model.unlearn_batch([record, bad], allow_budget_overrun=True)
            with pytest.raises(UnlearningError, match="negative code"):
                model.learn_one(bad)
            assert _fingerprint(model) == before
            assert np.array_equal(model.predict_proba_batch(test), before_proba)


def _fit(train, builder, **kwargs):
    """Fit a classifier whose trees are grown by ``builder``.

    ``"frontier"`` is :meth:`HedgeCutClassifier.fit` itself; ``"recursive"``
    grows the same per-tree random streams with the depth-first reference
    :class:`TreeBuilder`, so the topd properties hold on both builders.
    """
    model = HedgeCutClassifier(**kwargs)
    if builder == "frontier":
        return model.fit(train)
    params = model.params
    tree_rngs = np.random.default_rng(params.seed).spawn(params.n_trees)
    return HedgeCutClassifier.from_state(
        params=params,
        trees=[TreeBuilder(train, params, rng).build() for rng in tree_rngs],
        schema=train.schema,
        deletion_budget=params.deletion_budget(train.n_rows),
        n_unlearned=0,
        n_trained_on=train.n_rows,
    )


class TestTopdKnob:
    def test_negative_topd_rejected(self):
        with pytest.raises(ValueError, match="topd"):
            HedgeCutClassifier(n_trees=2, topd=-1)

    @pytest.mark.parametrize("builder", ["recursive", "frontier"])
    def test_topd_zero_is_bit_identical(self, income_split, builder):
        # topd=0 must reproduce the pre-knob trees exactly: same rng
        # consumption, same splits, same predictions.
        train, test = income_split
        base = _fit(train, builder, n_trees=3, epsilon=0.01, seed=9)
        knob = _fit(train, builder, n_trees=3, epsilon=0.01, topd=0, seed=9)
        assert _split_counts(base) == _split_counts(knob)
        assert np.array_equal(
            base.predict_proba_batch(test), knob.predict_proba_batch(test)
        )
        assert sum(t.counters.random_splits for t in knob.trees) == 0

    @pytest.mark.parametrize("builder", ["recursive", "frontier"])
    def test_random_layers_confined_to_topd(self, income_split, builder):
        train, _ = income_split
        topd = 2
        model = _fit(train, builder, n_trees=3, epsilon=0.01, topd=topd, seed=9)
        n_random = 0
        for tree in model.trees:
            stack = [(tree.root, 0)]
            while stack:
                node, depth = stack.pop()
                if isinstance(node, MaintenanceNode):
                    node = node.active
                if isinstance(node, SplitNode):
                    if node.random:
                        assert depth < topd, "random split below the topd boundary"
                        n_random += 1
                    stack.append((node.left, depth + 1))
                    stack.append((node.right, depth + 1))
        assert n_random > 0, "topd=2 trained no random splits"
        assert n_random == sum(t.counters.random_splits for t in model.trees)

    @pytest.mark.parametrize("builder", ["recursive", "frontier"])
    def test_deletions_never_touch_random_layers(self, income_split, builder):
        # Random-node stats are frozen at training time: neither the fast
        # nor the object path may decrement them, and the report counts
        # the skipped traversals separately.
        train, test = income_split
        model = _fit(train, builder, n_trees=3, epsilon=0.01, topd=2, seed=9)
        frozen_before = [c for c in _split_counts(model) if c[0]]
        total = assert_fast_equivalent_campaign(model, train, test, range(30))
        assert total.random_nodes_visited > 0
        # Re-run the campaign on a fresh copy to inspect the final state.
        survivor = copy.deepcopy(model)
        _ = survivor.packed.unlearn_pack()
        for row in range(30):
            try:
                survivor.unlearn(train.record(row), allow_budget_overrun=True)
            except UnlearningError:
                pass
        frozen_after = [c for c in _split_counts(survivor) if c[0]]
        assert frozen_after == frozen_before

    def test_topd_shortens_the_validated_path(self, income_split):
        # The random top layers route deletions without validating them:
        # on the same records, topd=2 visits fewer robust splits than
        # topd=0 and skips its random ones instead.
        train, _ = income_split
        records = [train.record(row) for row in range(64)]
        reports = {}
        for topd in (0, 2):
            model = HedgeCutClassifier(n_trees=4, epsilon=0.05, topd=topd, seed=11)
            model.fit(train).packed.unlearn_pack()
            reports[topd] = model.unlearn_batch(records, allow_budget_overrun=True)
        assert reports[0].random_nodes_visited == 0
        assert reports[2].random_nodes_visited > 0
        assert reports[2].robust_nodes_visited < reports[0].robust_nodes_visited

    def test_learn_one_never_touches_random_layers(self, income_split):
        train, _ = income_split
        model = HedgeCutClassifier(n_trees=3, epsilon=0.01, topd=2, seed=9).fit(train)
        frozen_before = [c for c in _split_counts(model) if c[0]]
        for row in range(10):
            model.learn_one(train.record(row))
        frozen_after = [c for c in _split_counts(model) if c[0]]
        assert frozen_after == frozen_before

    def test_snapshot_round_trip_preserves_random_flags(self, income_split, tmp_path):
        from repro.persistence.snapshot import load_snapshot, save_snapshot

        train, test = income_split
        model = HedgeCutClassifier(n_trees=3, epsilon=0.01, topd=2, seed=9).fit(train)
        save_snapshot(model, tmp_path / "m.npz")
        restored, _ = load_snapshot(tmp_path / "m.npz")
        assert _split_counts(restored) == _split_counts(model)
        assert np.array_equal(
            restored.predict_proba_batch(test), model.predict_proba_batch(test)
        )
        # The restored model unlearns identically on both paths.
        assert_fast_equivalent_campaign(restored, train, test, range(10))

    def test_wal_recovery_replays_to_same_state(self, income_split, tmp_path):
        # Crash-recovery replays the WAL tail on a freshly loaded model;
        # with topd layers present it must still land on the exact state
        # the live packed path produced before the crash.
        from repro.persistence.store import ModelStore

        train, test = income_split
        model = HedgeCutClassifier(n_trees=3, epsilon=0.01, topd=2, seed=9).fit(train)
        with ModelStore(tmp_path / "store") as store:
            store.save_snapshot(model, wal_seq=0)
            _ = model.packed.unlearn_pack()
            for row in range(12):
                record = train.record(row)
                try:
                    model.unlearn(record, allow_budget_overrun=True)
                except UnlearningError:
                    continue
                store.wal.append(record, allow_budget_overrun=True)
        with ModelStore(tmp_path / "store") as store:
            recovered = store.recover()
        assert _split_counts(recovered.model) == _split_counts(model)
        assert _active_variants(recovered.model) == _active_variants(model)
        assert np.array_equal(
            recovered.model.predict_proba_batch(test), model.predict_proba_batch(test)
        )


class TestLearnOneWriteThrough:
    @pytest.fixture()
    def model(self, random_dataset):
        model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(random_dataset)
        assert model.node_census().n_maintenance_nodes > 0
        return model

    def test_insertion_is_o1_on_packed_model(self, model, random_dataset):
        """Regression: learn_one must not invalidate the unlearn pack."""
        pack_before = model.packed.unlearn_pack()
        model.learn_one(random_dataset.record(250))
        pack_after = model.packed._unlearn_pack
        assert pack_after is pack_before  # no rebuild scheduled

    def test_insertion_matches_object_walk(self, model, random_dataset):
        packed_model = model
        _ = packed_model.packed
        object_model = copy.deepcopy(packed_model)
        object_model._packed = None
        record = random_dataset.record(250)
        packed_report = packed_model.learn_one(record)
        object_report = object_model.learn_one(record)
        assert packed_report.leaves_updated == object_report.leaves_updated
        assert packed_report.variant_switches == object_report.variant_switches
        probe = random_dataset.take(np.arange(120))
        np.testing.assert_array_equal(
            packed_model.predict_proba_batch(probe),
            object_model.predict_proba_batch(probe),
        )

    def test_insert_then_delete_roundtrip_restores_stats(self, model, random_dataset):
        probe = random_dataset.take(np.arange(120))
        baseline = model.predict_proba_batch(probe)
        record = random_dataset.record(250)
        model.learn_one(record)
        model.unlearn(record, allow_budget_overrun=True)
        np.testing.assert_array_equal(model.predict_proba_batch(probe), baseline)


_BASE_MODELS: dict[str, tuple] = {}


def _base_model(name):
    """A fitted registry-dataset model with maintenance nodes (cached fit)."""
    if name not in _BASE_MODELS:
        data = load_dataset(name, n_rows=400, seed=3)
        model = HedgeCutClassifier(n_trees=3, epsilon=0.05, seed=7).fit(data)
        assert model.node_census().n_maintenance_nodes > 0
        _BASE_MODELS[name] = (data, model)
    return _BASE_MODELS[name]


def _oracle_proba(oracle, rows):
    """Predict from a throwaway pack so the oracle itself stays pack-less."""
    return PackedEnsemble(list(oracle.trees), oracle.schema).predict_proba_rows(rows)


class TestEquivalenceProperty:
    """Random write interleavings: the native write kernel == object-walk oracle.

    The packed model takes the native kernel for single deletions,
    insertions and batches of every size. The oracle never builds a pack:
    ``unlearn(path="object")``, the scalar object loop for batches and
    the object walk for ``learn_one``.
    """

    @given(
        name=st.sampled_from(["income", "heart"]),
        ops=st.lists(
            st.tuples(st.sampled_from("ddbip"), st.integers(0, 10_000)),
            min_size=5,
            max_size=40,
        ),
        batch_size=st.sampled_from([2, 5, 33]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_interleaving_is_equivalent(self, name, ops, batch_size):
        data, base = _base_model(name)
        packed = copy.deepcopy(base)
        _ = packed.packed.unlearn_pack()
        oracle = copy.deepcopy(base)
        matrix = data.feature_matrix()
        delete_rows = list(range(200))
        insert_rows = list(range(200, 400))
        for kind, pick in ops:
            if kind == "d":
                if not delete_rows:
                    continue
                record = data.record(delete_rows.pop(pick % len(delete_rows)))
                report = packed.unlearn(record, allow_budget_overrun=True)
                assert report == oracle.unlearn(
                    record, allow_budget_overrun=True, path="object"
                )
            elif kind == "b":
                if len(delete_rows) < batch_size:
                    continue
                start = pick % (len(delete_rows) - batch_size + 1)
                records = [
                    data.record(row) for row in delete_rows[start:start + batch_size]
                ]
                del delete_rows[start:start + batch_size]
                assert packed.unlearn_batch(
                    records, allow_budget_overrun=True
                ) == oracle.unlearn_batch(records, allow_budget_overrun=True)
            elif kind == "i":
                if not insert_rows:
                    continue
                record = data.record(insert_rows.pop(pick % len(insert_rows)))
                assert packed.learn_one(record) == oracle.learn_one(record)
            else:
                rows = matrix[pick % data.n_rows][None, :]
                np.testing.assert_array_equal(
                    packed.predict_proba_rows(rows), _oracle_proba(oracle, rows)
                )
            assert oracle._packed is None
        assert _fingerprint(packed) == _fingerprint(oracle)
        probe = matrix[:120]
        np.testing.assert_array_equal(
            packed.predict_proba_rows(probe), _oracle_proba(oracle, probe)
        )
