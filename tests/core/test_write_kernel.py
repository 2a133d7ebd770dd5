"""The native write kernel: atomic rejection, corrupt stores and its build.

* A record rejected mid-walk -- alone or in the middle of a batch -- leaves
  every count, gain and active index of the store byte-identical, and
  the read pack's leaf rows too, even after earlier records of the batch
  had re-scored maintenance nodes.
* Arbitrary corrupt store arrays (wild rows, fan cycles, negative
  counts) only ever give typed errors -- ``UnlearningError``,
  ``IndexError`` or ``TornTraversalError`` -- never a crash or a hang,
  and a failed call leaves the store as it found it.
* ``write.c`` is part of the build cache key.

The equivalence of the kernel with the object walk is asserted by
``tests/core/test_unlearn_fast.py`` and ``tests/core/test_unlearn_batch.py``.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import UnlearningError
from repro.core.nodes import Leaf, MaintenanceNode, SubtreeVariant, iter_nodes
from repro.core.packed import LEAF_MARKER, TornTraversalError
from repro.core.writes import FAN_MARKER, UnlearnPack
from repro.datasets.registry import load_dataset
from repro.native import build as native_build


def _state(model):
    """Bytes of the store and of the read pack's leaf rows."""
    pack = model.packed.unlearn_pack()
    return tuple(
        array.tobytes()
        for array in (
            pack.stats, pack.leaves, pack.gains, pack.active,
            model.packed.leaf_n, model.packed.leaf_n_plus,
        )
    )


@pytest.fixture(scope="module")
def switching_model():
    """A packed model with maintenance nodes, and a record it rejects."""
    data = load_dataset("heart", n_rows=600, seed=3)
    model = HedgeCutClassifier(n_trees=4, epsilon=0.05, seed=5).fit(data)
    assert model.node_census().n_maintenance_nodes > 0
    model.packed.unlearn_pack()
    # Deleting the same record again and again drains its path until the
    # kernel rejects it; the model is left one deletion short of that.
    record = data.record(0)
    probe = copy.deepcopy(model)
    for accepted in range(64):
        try:
            probe.unlearn(record, allow_budget_overrun=True)
        except UnlearningError:
            break
    else:
        pytest.fail("repeated deletion never hit a rejection")
    for _ in range(accepted):
        model.unlearn(record, allow_budget_overrun=True)
    return data, model, record


def _first_mnode(tree):
    return next(
        node for node in iter_nodes(tree.root) if isinstance(node, MaintenanceNode)
    )


def test_bound_trees_equal_their_plain_copies(switching_model):
    # Binding changes where the values live, not what they are: a packed
    # tree equals its deepcopy and its unpickled copy, whose objects are
    # plain, maintenance nodes and variants included -- and stops being
    # equal once a count differs.
    _, model, _ = switching_model
    bound = _first_mnode(model.trees[0])
    for copied in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        for tree, twin in zip(model.trees, copied.trees):
            assert tree.root == twin.root and twin.root == tree.root
        plain = _first_mnode(copied.trees[0])
        assert type(plain) is MaintenanceNode
        assert type(plain.variants[0]) is SubtreeVariant
        assert bound == plain and plain == bound
        leaf = next(
            node for node in iter_nodes(plain.variants[0].left)
            if isinstance(node, Leaf)
        )
        leaf.n += 1
        assert bound != plain and plain != bound


def test_rejected_record_leaves_the_store_byte_identical(switching_model):
    _, model, record = switching_model
    model = copy.deepcopy(model)
    before = _state(model)
    with pytest.raises(UnlearningError):
        model.unlearn(record, allow_budget_overrun=True)
    assert _state(model) == before


def test_rejection_mid_batch_undoes_the_whole_batch(switching_model):
    data, model, record = switching_model
    prefix = [data.record(row) for row in range(1, 9)]
    # Applied alone, the valid prefix re-scores maintenance nodes, so the
    # rollback below has gains and counts to restore.
    applied = copy.deepcopy(model)
    before = _state(applied)
    report = applied.unlearn_batch(prefix, allow_budget_overrun=True)
    assert report.maintenance_nodes_visited > 0
    assert _state(applied)[2] != before[2]

    model = copy.deepcopy(model)
    with pytest.raises(UnlearningError):
        model.unlearn_batch(
            prefix + [record] + prefix[:2], allow_budget_overrun=True
        )
    assert _state(model) == before
    # The rolled-back model still deletes exactly like its untouched twin.
    assert model.unlearn_batch(prefix, allow_budget_overrun=True) == report
    assert _state(model) == _state(applied)


# ---------------------------------------------------------------------- #
# corrupt stores
# ---------------------------------------------------------------------- #


_WILD = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _near(hi):
    return st.one_of(st.integers(-3, hi + 3), _WILD)


def _ints(draw, length, elements):
    return np.asarray(
        draw(st.lists(elements, min_size=length, max_size=length)), dtype=np.int64
    )


@st.composite
def corrupt_stores(draw):
    """Arbitrary write packs: indices near the valid ranges, or anywhere."""
    n_slots = draw(st.integers(1, 12))
    n_stats = draw(st.integers(0, 4))
    n_leaves = draw(st.integers(0, 4))
    n_mnodes = draw(st.integers(0, 3))
    n_fan = draw(st.integers(0, 6))
    n_read = draw(st.integers(0, 4))
    route_len = draw(st.integers(0, 24))
    n_features = draw(st.integers(1, 3))
    counts = st.one_of(st.integers(-2, 6), _WILD)
    pack = UnlearnPack(
        feature=_ints(draw, n_slots, st.one_of(
            st.sampled_from([LEAF_MARKER, FAN_MARKER]), _near(n_features))),
        payload=_ints(draw, n_slots, _near(max(route_len, n_leaves, n_mnodes))),
        right=_ints(draw, n_slots, _near(n_slots)),
        stats_row=_ints(draw, n_slots, _near(n_stats)),
        route_flat=np.asarray(
            draw(st.lists(st.booleans(), min_size=route_len, max_size=route_len)),
            dtype=bool,
        ),
        width=draw(st.integers(0, 8)),
        tree_roots=_ints(draw, draw(st.integers(0, 3)), _near(n_slots)),
        # Fan lists may point anywhere: back at their own fan (a cycle),
        # past the slot array, or out of order.
        fan_ptr=_ints(draw, n_mnodes + 1, _near(n_fan)),
        fan_slots=_ints(draw, n_fan, _near(n_slots)),
        stats=_ints(draw, 4 * n_stats, counts),
        leaves=_ints(draw, 2 * n_leaves, counts),
        gains=np.asarray(
            draw(st.lists(st.floats(allow_nan=True), min_size=n_fan, max_size=n_fan)),
            dtype=np.float64,
        ),
        active=_ints(draw, n_mnodes, _near(n_fan)),
        leaf_read_row=_ints(draw, n_leaves, _near(n_read)),
        read_leaf_n=_ints(draw, n_read, counts),
        read_leaf_n_plus=_ints(draw, n_read, counts),
    )
    rows = draw(st.integers(0, 3))
    values = _ints(draw, rows * n_features, st.one_of(st.integers(-2, 10), _WILD))
    labels = _ints(draw, rows, st.integers(-1, 2))
    sign = draw(st.sampled_from([-1, 1]))
    return pack, values, labels, rows, n_features, sign


@settings(max_examples=400, deadline=None)
@given(corrupt_stores())
def test_corrupt_stores_only_raise_typed_errors(case):
    pack, values, labels, rows, n_features, sign = case
    store = [array.tobytes() for array in (pack.stats, pack.leaves, pack.gains, pack.active)]
    try:
        pack.write(values.tolist(), labels.tolist(), rows, n_features, sign)
    except (UnlearningError, IndexError, TornTraversalError):
        after = [
            array.tobytes() for array in (pack.stats, pack.leaves, pack.gains, pack.active)
        ]
        assert after == store


def test_fan_cycle_is_torn_not_a_hang():
    # One fan whose only variant slot is a split whose children are the
    # fan itself: every step re-enters the fan.
    pack = UnlearnPack(
        feature=np.asarray([FAN_MARKER, 0, FAN_MARKER], dtype=np.int64),
        payload=np.asarray([0, 0, 0], dtype=np.int64),
        right=np.asarray([0, 1, 0], dtype=np.int64),
        stats_row=np.asarray([-1, 0, -1], dtype=np.int64),
        route_flat=np.asarray([True, False], dtype=bool),
        width=2,
        tree_roots=np.asarray([0], dtype=np.int64),
        fan_ptr=np.asarray([0, 1], dtype=np.int64),
        fan_slots=np.asarray([1], dtype=np.int64),
        stats=np.asarray([10**6, 0, 10**6, 0], dtype=np.int64),
        leaves=np.zeros(0, dtype=np.int64),
        gains=np.zeros(1, dtype=np.float64),
        active=np.zeros(1, dtype=np.int64),
        leaf_read_row=np.zeros(0, dtype=np.int64),
        read_leaf_n=np.zeros(0, dtype=np.int64),
        read_leaf_n_plus=np.zeros(0, dtype=np.int64),
    )
    before = pack.stats.tobytes()
    with pytest.raises(TornTraversalError):
        pack.write((0,), (0,), 1, 1, -1)
    assert pack.stats.tobytes() == before


def test_switch_in_a_pack_without_node_objects_is_a_plain_write():
    # An empty fan re-scores to no variant, so the write succeeds with a
    # switch; a pack built from bare arrays has no node to report for it.
    arrays = dict(
        feature=np.asarray([FAN_MARKER], dtype=np.int64),
        payload=np.asarray([0], dtype=np.int64),
        right=np.asarray([0], dtype=np.int64),
        stats_row=np.asarray([-1], dtype=np.int64),
        route_flat=np.zeros(0, dtype=bool),
        width=0,
        tree_roots=np.asarray([0], dtype=np.int64),
        fan_ptr=np.asarray([0, 0], dtype=np.int64),
        fan_slots=np.zeros(0, dtype=np.int64),
        stats=np.zeros(0, dtype=np.int64),
        leaves=np.zeros(0, dtype=np.int64),
        gains=np.zeros(0, dtype=np.float64),
        active=np.asarray([0], dtype=np.int64),
        leaf_read_row=np.zeros(0, dtype=np.int64),
        read_leaf_n=np.zeros(0, dtype=np.int64),
        read_leaf_n_plus=np.zeros(0, dtype=np.int64),
    )
    result = UnlearnPack(**arrays).write((0,), (0,), 1, 1, -1)
    assert result.report.variant_switches == 1
    assert result.switched_nodes == ()
    with pytest.raises(ValueError, match="maintenance node"):
        UnlearnPack(**arrays, mnodes=[object(), object()])


def test_store_arrays_must_be_contiguous_and_typed():
    with pytest.raises(TypeError, match="stats"):
        UnlearnPack(
            **{
                name: np.zeros(4, dtype=np.int64)
                for name in ("feature", "payload", "right", "stats_row",
                             "tree_roots", "fan_ptr", "fan_slots", "leaves",
                             "active", "leaf_read_row", "read_leaf_n",
                             "read_leaf_n_plus")
            },
            route_flat=np.zeros(4, dtype=bool),
            width=4,
            stats=np.zeros(8, dtype=np.int32),
            gains=np.zeros(4, dtype=np.float64),
        )


# ---------------------------------------------------------------------- #
# build cache
# ---------------------------------------------------------------------- #


def test_write_source_is_part_of_the_cache_key(monkeypatch, tmp_path):
    names = [source.name for source in native_build.SOURCES]
    assert names == ["kernel.c", "write.c"]
    key = native_build.module_name()
    copies = []
    for source in native_build.SOURCES:
        copy_ = tmp_path / source.name
        copy_.write_bytes(source.read_bytes())
        copies.append(copy_)
    monkeypatch.setattr(native_build, "SOURCES", tuple(copies))
    assert native_build.module_name() == key
    copies[1].write_text(copies[1].read_text() + "\n/* edited */\n")
    assert native_build.module_name() != key
