"""The native traversal kernel: reference equivalence, bounds and build cache.

* Votes, labels and probabilities must be bit-identical to the
  pure-Python :func:`~repro.core.packed.walk_one` reference -- for single
  rows and batches, on every registry dataset, after unlearning (scalar
  and vectorised), insertions and variant-switch splices, and on
  shared-memory reader views.
* Corrupt arrays -- wild feature ids, payloads and right pointers,
  cycles -- must only ever raise :class:`TornTraversalError` or
  ``IndexError``; the kernel checks every index before reading.
* A cache hit loads the kernel without setuptools, and concurrent builds
  cannot corrupt the cache.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ensemble import HedgeCutClassifier
from repro.core.packed import (
    LEAF_MARKER,
    PackedArrays,
    TornTraversalError,
    leaf_matrix,
    predict_proba_rows,
    predict_rows,
    predict_votes_rows,
    walk_one,
)
from repro.datasets.registry import available_datasets, load_dataset
from repro.evaluation.splits import train_test_split
import repro.native
from repro.native import build as native_build
from repro.serving.shm import SharedEnsembleReader, SharedPackedEnsemble

from tests.core.test_packed import _force_variant_switch, walk_reference

SRC = Path(__file__).resolve().parents[2] / "src"


def assert_kernel_matches_reference(arrays, matrix):
    """Every kernel entry point against ``walk_one``, batch and per row."""
    votes, probas = walk_reference(arrays, matrix)
    n_trees = arrays.tree_roots.shape[0]
    labels = (2 * votes > n_trees).astype(np.uint8)
    assert np.array_equal(predict_votes_rows(arrays, matrix), votes)
    assert np.array_equal(predict_rows(arrays, matrix), labels)
    assert np.array_equal(predict_proba_rows(arrays, matrix), probas)
    leaves = leaf_matrix(arrays, matrix)
    for row in range(0, matrix.shape[0], 5):
        single = matrix[row:row + 1]
        assert predict_votes_rows(arrays, single)[0] == votes[row]
        assert predict_rows(arrays, single)[0] == labels[row]
        assert predict_proba_rows(arrays, single)[0] == probas[row]
        assert leaves[row].tolist() == [
            walk_one(arrays, matrix[row].tolist(), tree) for tree in range(n_trees)
        ]


@pytest.mark.parametrize("name", sorted(available_datasets()))
def test_bit_identical_to_reference_through_the_lifecycle(name):
    data = load_dataset(name, n_rows=600, seed=3)
    train, test = train_test_split(data, test_fraction=0.25, seed=3)
    model = HedgeCutClassifier(n_trees=4, epsilon=0.1, seed=5).fit(train)
    matrix = test.feature_matrix()
    arrays = model.packed.arrays()
    assert_kernel_matches_reference(arrays, matrix)

    # Single deletions, then one 32-record batch: leaf write-through plus
    # any variant switches they cause.
    for row in range(8):
        model.unlearn(train.record(row))
    batch = [train.record(row) for row in range(8, 40)]
    model.unlearn_batch(batch)
    assert_kernel_matches_reference(arrays, matrix)

    for row in range(0, 16):
        model.learn_one(test.record(row))
    assert_kernel_matches_reference(arrays, matrix)

    if _force_variant_switch(model):
        assert_kernel_matches_reference(arrays, matrix)
    # Geometry is fixed: every change above was written in place.
    assert model.packed.arrays() is arrays


@pytest.mark.shm
def test_shm_reader_views_match_reference():
    data = load_dataset("income", n_rows=600, seed=3)
    train, test = train_test_split(data, test_fraction=0.25, seed=3)
    model = HedgeCutClassifier(n_trees=4, epsilon=0.1, seed=5).fit(train)
    matrix = test.feature_matrix()
    name = f"hc-kernel-{os.getpid():x}"
    with SharedPackedEnsemble(name, model.packed) as shared:
        with SharedEnsembleReader(name) as reader:
            for step in range(3):
                served_votes = reader.predict_votes_rows(matrix)
                votes, probas = walk_reference(reader._views, matrix)
                assert np.array_equal(served_votes, votes)
                assert np.array_equal(reader.predict_proba_rows(matrix), probas)
                assert np.array_equal(
                    reader.predict_rows(matrix[:1]),
                    (2 * votes[:1] > len(model.trees)).astype(np.uint8),
                )
                for row in range(step * 10, step * 10 + 10):
                    model.unlearn(train.record(row))
                if step == 1:
                    _force_variant_switch(model)
                shared.publish(model.packed, wal_seq=step + 1)
            assert np.array_equal(
                reader.predict_proba_rows(matrix), model.predict_proba_rows(matrix)
            )
            # A bad request on stable arrays is the caller's error, not a
            # torn read to retry.
            bad = np.full_like(matrix[:1], -1)
            retries = reader.stats.seqlock_retries
            with pytest.raises(IndexError):
                reader.predict_rows(bad)
            assert reader.stats.seqlock_retries == retries
        # Closing after reads proves the kernel handles released the
        # mapping (SharedMemory.close raises BufferError otherwise).


# ---------------------------------------------------------------------- #
# corrupt and torn inputs
# ---------------------------------------------------------------------- #


def _arrays(feature, payload, right, route, roots, leaf_n, leaf_n_plus, width):
    return PackedArrays(
        feature=np.asarray(feature, dtype=np.int64),
        payload=np.asarray(payload, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        route_flat=np.asarray(route, dtype=bool),
        tree_roots=np.asarray(roots, dtype=np.int64),
        leaf_n=np.asarray(leaf_n, dtype=np.int64),
        leaf_n_plus=np.asarray(leaf_n_plus, dtype=np.int64),
        width=width,
    )


#: One split on feature 0 (codes < 2 go left) over two leaves; the left
#: leaf votes positive, the right one negative.
_STUMP = dict(
    feature=[0, LEAF_MARKER, LEAF_MARKER],
    payload=[0, 0, 1],
    right=[2, 1, 2],
    route=[True, True, False, False],
    roots=[0],
    leaf_n=[4, 4],
    leaf_n_plus=[3, 1],
    width=4,
)


def _stump(**overrides):
    return _arrays(**{**_STUMP, **overrides})


def test_stump_routes_and_out_of_domain_codes_go_right():
    arrays = _stump()
    values = np.asarray([[0], [1], [2], [3], [4], [1000]])
    assert leaf_matrix(arrays, values)[:, 0].tolist() == [0, 0, 1, 1, 1, 1]
    assert predict_votes_rows(arrays, values).tolist() == [1, 1, 0, 0, 0, 0]
    for row in values.tolist():
        assert walk_one(arrays, row, 0) == leaf_matrix(arrays, [row])[0, 0]


@pytest.mark.parametrize(
    "overrides, values, error",
    [
        (dict(right=[0, 1, 2]), [[3]], TornTraversalError),  # self-loop
        (dict(feature=[0, 0, LEAF_MARKER], right=[2, 1, 2]), [[0]], TornTraversalError),
        (dict(right=[9, 1, 2]), [[0]], IndexError),  # child past the end
        (dict(right=[-5, 1, 2]), [[3]], IndexError),
        (dict(feature=[7, LEAF_MARKER, LEAF_MARKER]), [[0]], IndexError),
        (dict(feature=[-2, LEAF_MARKER, LEAF_MARKER]), [[0]], IndexError),
        (dict(payload=[3, 0, 1]), [[1]], IndexError),  # route row past the end
        (dict(payload=[0, 5, 1]), [[0]], IndexError),  # leaf row past the end
        (dict(roots=[3]), [[0]], IndexError),
        (dict(right=[2**63 - 1, 1, 2]), [[3]], IndexError),
        ({}, [[-1]], IndexError),  # negative code
    ],
)
def test_corrupt_arrays_raise_typed_errors(overrides, values, error):
    arrays = _stump(**overrides)
    for entry in (leaf_matrix, predict_votes_rows, predict_proba_rows, predict_rows):
        with pytest.raises(error):
            entry(arrays, np.asarray(values))


_WILD = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def corrupt_packs(draw):
    """Arbitrary arrays: indices near the valid ranges, or anywhere."""
    n_slots = draw(st.integers(1, 12))
    n_leaves = draw(st.integers(0, 4))
    route_len = draw(st.integers(0, 24))
    n_features = draw(st.integers(1, 3))

    def near(hi):
        return st.one_of(st.integers(-3, hi + 3), _WILD)

    arrays = _arrays(
        feature=draw(st.lists(st.one_of(st.just(LEAF_MARKER), near(n_features)),
                              min_size=n_slots, max_size=n_slots)),
        payload=draw(st.lists(near(max(route_len, n_leaves)),
                              min_size=n_slots, max_size=n_slots)),
        right=draw(st.lists(near(n_slots), min_size=n_slots, max_size=n_slots)),
        route=draw(st.lists(st.booleans(), min_size=route_len, max_size=route_len)),
        roots=draw(st.lists(near(n_slots), min_size=0, max_size=3)),
        leaf_n=draw(st.lists(_WILD, min_size=n_leaves, max_size=n_leaves)),
        leaf_n_plus=draw(st.lists(_WILD, min_size=n_leaves, max_size=n_leaves)),
        width=draw(st.integers(0, 8)),
    )
    rows = draw(st.integers(0, 3))
    values = draw(st.lists(
        st.lists(st.one_of(st.integers(-2, 10), _WILD),
                 min_size=n_features, max_size=n_features),
        min_size=rows, max_size=rows,
    ))
    return arrays, np.asarray(values, dtype=np.int64).reshape(rows, n_features)


@settings(max_examples=300, deadline=None)
@given(corrupt_packs())
def test_corrupt_packs_never_crash(pack_and_values):
    arrays, values = pack_and_values
    for entry in (leaf_matrix, predict_votes_rows, predict_proba_rows, predict_rows):
        try:
            entry(arrays, values)
        except (TornTraversalError, IndexError):
            pass


def test_arrays_must_be_contiguous_int64():
    arrays = _stump()
    fields = {name: getattr(arrays, name) for name in PackedArrays.FIELDS}
    for name, bad in (
        ("feature", arrays.feature.astype(np.int32)),
        ("payload", np.repeat(arrays.payload, 2)[::2]),
        ("route_flat", arrays.route_flat.astype(np.int64)),
    ):
        with pytest.raises(TypeError, match=name):
            PackedArrays(**{**fields, name: bad}, width=arrays.width)


# ---------------------------------------------------------------------- #
# build cache
# ---------------------------------------------------------------------- #


def _python(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return completed.stdout.strip()


def test_cache_hit_does_not_import_setuptools():
    assert native_build.cached_path(native_build.module_name()).exists()
    loaded = _python(
        "import sys, repro.core.packed; "
        "print(sorted(m for m in ('setuptools', 'cffi', 'distutils') if m in sys.modules))"
    )
    assert loaded == "[]"


def test_concurrent_builds_leave_a_loadable_module():
    script = native_build.__file__
    builds = [
        subprocess.Popen([sys.executable, script], stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [process.communicate(timeout=120)[0].strip() for process in builds]
    assert [process.returncode for process in builds] == [0, 0]
    target = native_build.cached_path(native_build.module_name())
    assert outputs == [str(target)] * 2
    assert not list(target.parent.glob("tmp-*"))
    assert _python("from repro.native import lib; print(lib.HC_TORN)") == "1"


def test_failed_build_raises_a_clear_import_error(monkeypatch, tmp_path):
    """No fallback: a cache miss that cannot compile fails the import."""
    monkeypatch.setenv("CC", "false")
    monkeypatch.setattr(native_build, "cached_path", lambda name: tmp_path / "x.so")
    with pytest.raises(ImportError, match="gcc"):
        repro.native._load()
