"""Versioned on-disk snapshots of fitted HedgeCut ensembles.

A snapshot is a single ``.npz`` file holding the whole node graph of an
ensemble in struct-of-arrays form (one row per node, maintenance-node
subtree variants in a parallel variants table) plus a JSON metadata block
with the hyperparameters, the feature schema, the unlearning counters and
the WAL sequence number the snapshot is consistent with.

Design points:

* **Compact and pickle-free.** Arrays are stored via
  :func:`numpy.savez_compressed` and loaded with ``allow_pickle=False``, so
  a snapshot can never execute code on load. Leaf and split statistics
  are plain int64 columns; gains are float64 and round-trip bit-for-bit.
* **Format versioning.** Every snapshot records ``(format, format_version)``;
  loading rejects unknown formats and future versions with
  :class:`SnapshotFormatError` instead of mis-decoding.
* **Integrity checksums.** A SHA-256 over every array's bytes and the
  canonical metadata is stored in the file; :func:`load_snapshot` verifies
  it and raises :class:`SnapshotIntegrityError` on any corruption.
* **Exact restore.** The decoder rebuilds the identical node graph --
  including inactive maintenance variants, their statistics and the active
  variant index -- so a restored model predicts bit-for-bit like the
  original and can continue unlearning where it left off.

Layout invariant: node rows are allocated parent-before-children, so child
indices are always strictly greater than their parent's. The decoder
exploits this by materialising nodes in reverse index order, which keeps
decoding iterative (no recursion limit on deep trees).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from repro.core.ensemble import HedgeCutClassifier
from repro.core.exceptions import HedgeCutError
from repro.core.nodes import (
    Leaf,
    MaintenanceNode,
    SplitNode,
    SubtreeVariant,
    TreeNode,
    bulk_allocation,
)
from repro.core.params import HedgeCutParams
from repro.core.splits import CategoricalSplit, NumericSplit, Split, SplitStats
from repro.core.tree import BuildCounters, HedgeCutTree
from repro.dataprep.dataset import FeatureKind, FeatureSchema
from repro.persistence.durable import fsync_directory

#: Identifier written into every snapshot's metadata block.
SNAPSHOT_FORMAT = "hedgecut-snapshot"

#: Current snapshot format version; bump on any incompatible layout change.
SNAPSHOT_VERSION = 1

#: Node-kind codes in the ``kind`` column.
_KIND_LEAF, _KIND_SPLIT, _KIND_MAINTENANCE = 0, 1, 2

#: Categorical subset masks are stored in an int64 column; masks that do not
#: fit (cardinality > 62) overflow into a hex side table in the metadata and
#: leave this sentinel in the column.
_PAYLOAD_OVERFLOW = -1
_INT63_LIMIT = 1 << 62

#: Params keys that older snapshots store but that no longer configure
#: anything, each with the one value this build can decode (``None``: any).
#: ``trainer`` recorded how the trees were grown, not what they are.
#: ``topd`` grew random, statistics-frozen top levels (DaRE-style); a
#: snapshot that has them, in its params, its ``node_random`` column or a
#: tree's ``random_splits`` counter, is refused rather than decoded as
#: plain splits. ``topd=0`` is exactly the trees this build grows.
_RETIRED_PARAMS = {"trainer": None, "topd": 0}


class SnapshotFormatError(HedgeCutError):
    """The file is not a snapshot, or its version is not supported."""


class SnapshotIntegrityError(HedgeCutError):
    """The snapshot's checksum does not match its contents."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Summary of one snapshot file (metadata block, no tree decoding)."""

    path: Path
    format_version: int
    wal_seq: int
    n_trees: int
    n_nodes: int
    n_variants: int
    deletion_budget: int
    n_unlearned: int
    n_trained_on: int
    created_at: float
    checksum: str
    size_bytes: int


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #


class _Encoder:
    """Flattens tree node graphs into parallel arrays."""

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.c: list[int] = []
        self.d: list[int] = []
        self.is_cat: list[bool] = []
        self.s_n: list[int] = []
        self.s_plus: list[int] = []
        self.s_left: list[int] = []
        self.s_left_plus: list[int] = []
        self.v_feature: list[int] = []
        self.v_payload: list[int] = []
        self.v_is_cat: list[bool] = []
        self.v_left: list[int] = []
        self.v_right: list[int] = []
        self.v_gain: list[float] = []
        self.v_n: list[int] = []
        self.v_plus: list[int] = []
        self.v_vleft: list[int] = []
        self.v_left_plus: list[int] = []
        self.node_overflow: dict[str, str] = {}
        self.variant_overflow: dict[str, str] = {}

    def _alloc_node(self) -> int:
        slot = len(self.kind)
        self.kind.append(0)
        self.a.append(0)
        self.b.append(0)
        self.c.append(0)
        self.d.append(0)
        self.is_cat.append(False)
        self.s_n.append(0)
        self.s_plus.append(0)
        self.s_left.append(0)
        self.s_left_plus.append(0)
        return slot

    def _alloc_variant(self) -> int:
        slot = len(self.v_feature)
        self.v_feature.append(0)
        self.v_payload.append(0)
        self.v_is_cat.append(False)
        self.v_left.append(0)
        self.v_right.append(0)
        self.v_gain.append(0.0)
        self.v_n.append(0)
        self.v_plus.append(0)
        self.v_vleft.append(0)
        self.v_left_plus.append(0)
        return slot

    @staticmethod
    def _split_payload(split: Split) -> tuple[int, bool, int | None]:
        """``(column value, is_categorical, overflow mask or None)``."""
        if isinstance(split, NumericSplit):
            return split.cut, False, None
        mask = split.subset_mask
        if mask < _INT63_LIMIT:
            return mask, True, None
        return _PAYLOAD_OVERFLOW, True, mask

    def encode_tree(self, root: TreeNode) -> int:
        """Emit one tree; returns the root's node index."""
        root_slot = self._alloc_node()
        work: list[tuple[TreeNode, int]] = [(root, root_slot)]
        while work:
            node, slot = work.pop()
            if isinstance(node, Leaf):
                self.kind[slot] = _KIND_LEAF
                self.a[slot] = node.n
                self.b[slot] = node.n_plus
            elif isinstance(node, SplitNode):
                self.kind[slot] = _KIND_SPLIT
                payload, is_cat, overflow = self._split_payload(node.split)
                if overflow is not None:
                    self.node_overflow[str(slot)] = hex(overflow)
                self.a[slot] = node.split.feature
                self.b[slot] = payload
                self.is_cat[slot] = is_cat
                self.s_n[slot] = node.stats.n
                self.s_plus[slot] = node.stats.n_plus
                self.s_left[slot] = node.stats.n_left
                self.s_left_plus[slot] = node.stats.n_left_plus
                left = self._alloc_node()
                right = self._alloc_node()
                self.c[slot] = left
                self.d[slot] = right
                work.append((node.left, left))
                work.append((node.right, right))
            else:
                self.kind[slot] = _KIND_MAINTENANCE
                self.a[slot] = len(self.v_feature)
                self.b[slot] = len(node.variants)
                self.c[slot] = node.active_index
                for variant in node.variants:
                    vslot = self._alloc_variant()
                    payload, is_cat, overflow = self._split_payload(variant.split)
                    if overflow is not None:
                        self.variant_overflow[str(vslot)] = hex(overflow)
                    self.v_feature[vslot] = variant.split.feature
                    self.v_payload[vslot] = payload
                    self.v_is_cat[vslot] = is_cat
                    self.v_gain[vslot] = variant.gain
                    self.v_n[vslot] = variant.stats.n
                    self.v_plus[vslot] = variant.stats.n_plus
                    self.v_vleft[vslot] = variant.stats.n_left
                    self.v_left_plus[vslot] = variant.stats.n_left_plus
                    left = self._alloc_node()
                    right = self._alloc_node()
                    self.v_left[vslot] = left
                    self.v_right[vslot] = right
                    work.append((variant.left, left))
                    work.append((variant.right, right))
        return root_slot

    def arrays(self, tree_roots: list[int]) -> dict[str, np.ndarray]:
        return {
            "tree_roots": np.asarray(tree_roots, dtype=np.int64),
            "node_kind": np.asarray(self.kind, dtype=np.int8),
            "node_a": np.asarray(self.a, dtype=np.int64),
            "node_b": np.asarray(self.b, dtype=np.int64),
            "node_c": np.asarray(self.c, dtype=np.int64),
            "node_d": np.asarray(self.d, dtype=np.int64),
            "node_is_cat": np.asarray(self.is_cat, dtype=np.bool_),
            "node_stat_n": np.asarray(self.s_n, dtype=np.int64),
            "node_stat_plus": np.asarray(self.s_plus, dtype=np.int64),
            "node_stat_left": np.asarray(self.s_left, dtype=np.int64),
            "node_stat_left_plus": np.asarray(self.s_left_plus, dtype=np.int64),
            "var_feature": np.asarray(self.v_feature, dtype=np.int64),
            "var_payload": np.asarray(self.v_payload, dtype=np.int64),
            "var_is_cat": np.asarray(self.v_is_cat, dtype=np.bool_),
            "var_left": np.asarray(self.v_left, dtype=np.int64),
            "var_right": np.asarray(self.v_right, dtype=np.int64),
            "var_gain": np.asarray(self.v_gain, dtype=np.float64),
            "var_stat_n": np.asarray(self.v_n, dtype=np.int64),
            "var_stat_plus": np.asarray(self.v_plus, dtype=np.int64),
            "var_stat_left": np.asarray(self.v_vleft, dtype=np.int64),
            "var_stat_left_plus": np.asarray(self.v_left_plus, dtype=np.int64),
        }


def _checksum(arrays: dict[str, np.ndarray], meta: dict) -> str:
    """SHA-256 over every array and the canonical checksum-less metadata."""
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(array.tobytes())
    canonical = {key: value for key, value in meta.items() if key != "checksum"}
    digest.update(
        json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )
    return digest.hexdigest()


def save_snapshot(
    model: HedgeCutClassifier,
    path: str | Path,
    wal_seq: int = 0,
    created_at: float | None = None,
    fsync: bool = False,
) -> SnapshotInfo:
    """Write a fitted model to ``path`` as a versioned, checksummed snapshot.

    The file is written under a temporary name and renamed into place, so
    ``path`` never holds a half-written snapshot.

    Args:
        model: the fitted classifier to serialise.
        path: target file (conventionally ``*.npz``).
        wal_seq: sequence number of the last write-ahead-log record already
            reflected in the model's state; recovery replays only records
            beyond it.
        created_at: unix timestamp override (defaults to now).
        fsync: make the snapshot durable before returning: fsync the file
            before the rename and the directory after it. A store that
            compacts its log behind the snapshot needs this in strict
            durability mode.
    """
    if not model.is_fitted:
        raise SnapshotFormatError("cannot snapshot an unfitted model")
    path = Path(path)
    encoder = _Encoder()
    tree_roots = [encoder.encode_tree(tree.root) for tree in model.trees]
    arrays = encoder.arrays(tree_roots)
    meta = {
        "format": SNAPSHOT_FORMAT,
        "format_version": SNAPSHOT_VERSION,
        "created_at": time.time() if created_at is None else created_at,
        "wal_seq": int(wal_seq),
        "params": asdict(model.params),
        "schema": [
            {"name": feature.name, "kind": feature.kind.value, "n_values": feature.n_values}
            for feature in model.schema
        ],
        "deletion_budget": model.deletion_budget,
        "n_unlearned": model.n_unlearned,
        "n_trained_on": model.n_trained_on,
        "tree_counters": [asdict(tree.counters) for tree in model.trees],
        "payload_overflow": {
            "nodes": encoder.node_overflow,
            "variants": encoder.variant_overflow,
        },
    }
    meta["checksum"] = _checksum(arrays, meta)
    meta_json = json.dumps(meta, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(path.name + ".tmp")
    with open(staging, "wb") as sink:
        np.savez_compressed(sink, __meta__=np.array(meta_json), **arrays)
        sink.flush()
        if fsync:
            os.fsync(sink.fileno())
    os.replace(staging, path)
    if fsync:
        fsync_directory(path.parent)
    return _info_from_meta(path, meta, arrays["node_kind"].shape[0],
                           arrays["var_feature"].shape[0])


# --------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------- #


def _load_meta(archive: np.lib.npyio.NpzFile) -> dict:
    if "__meta__" not in archive.files:
        raise SnapshotFormatError("file has no snapshot metadata block")
    meta = json.loads(str(archive["__meta__"]))
    if meta.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"not a {SNAPSHOT_FORMAT} file (format={meta.get('format')!r})"
        )
    if meta.get("format_version") != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {meta.get('format_version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return meta


def _read_archive(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Load the metadata block and every array from a snapshot file.

    Damage to the npz container itself (bad zip directory, failed inflate,
    truncated member) surfaces before any checksum can be computed, so it is
    mapped to :class:`SnapshotIntegrityError` -- corruption is corruption,
    whichever layer detects it first. A missing file stays a
    :class:`FileNotFoundError`. The file is opened here, not by ``np.load``,
    so a container that fails to parse still has its descriptor closed.
    """
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as archive:
            meta = _load_meta(archive)
            arrays = {key: archive[key] for key in archive.files if key != "__meta__"}
    except (FileNotFoundError, IsADirectoryError, HedgeCutError):
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, ValueError) as error:
        raise SnapshotIntegrityError(
            f"unreadable snapshot container {path}: {error}"
        ) from error
    return meta, arrays


def _split_decoder(schema: tuple[FeatureSchema, ...]):
    """``decode(feature, payload, is_cat, index, overflow) -> Split``.

    Splits are immutable, so each distinct one is built once and shared
    by every node and variant that tests it.
    """
    cache: dict[tuple[int, int, bool], Split] = {}

    def decode(
        feature: int, payload: int, is_cat: bool, index: int, overflow: dict[str, str]
    ) -> Split:
        if is_cat and payload == _PAYLOAD_OVERFLOW:
            payload = int(overflow[str(index)], 16)
        key = (feature, payload, is_cat)
        split = cache.get(key)
        if split is None:
            if is_cat:
                split = CategoricalSplit(
                    feature=feature, subset_mask=payload,
                    cardinality=schema[feature].n_values,
                )
            else:
                split = NumericSplit(feature=feature, cut=payload)
            cache[key] = split
        return split

    return decode


def _params_from_meta(stored: dict) -> HedgeCutParams:
    """Rebuild the hyperparameters, rejecting keys this build cannot honour."""
    for key, decodable in _RETIRED_PARAMS.items():
        if decodable is not None and stored.get(key, decodable) != decodable:
            raise SnapshotFormatError(
                f"snapshot params carry {key}={stored[key]!r}; this build "
                f"decodes only {key}={decodable!r}"
            )
    stored = {key: value for key, value in stored.items() if key not in _RETIRED_PARAMS}
    known = {field.name for field in fields(HedgeCutParams)}
    unknown = sorted(set(stored) - known)
    missing = sorted(known - set(stored))
    if unknown or missing:
        raise SnapshotFormatError(
            f"snapshot params do not match this build "
            f"(unknown keys {unknown}, missing keys {missing})"
        )
    try:
        return HedgeCutParams(**stored)
    except (TypeError, ValueError) as error:
        raise SnapshotFormatError(f"invalid snapshot params: {error}") from error


def load_snapshot(path: str | Path) -> tuple[HedgeCutClassifier, SnapshotInfo]:
    """Restore a model from a snapshot, verifying format and integrity."""
    with bulk_allocation():
        return _load_snapshot(Path(path))


def _load_snapshot(path: Path) -> tuple[HedgeCutClassifier, SnapshotInfo]:
    meta, arrays = _read_archive(path)

    expected = meta.get("checksum")
    actual = _checksum(arrays, meta)
    if expected != actual:
        raise SnapshotIntegrityError(
            f"snapshot checksum mismatch in {path} "
            f"(stored {expected!r}, computed {actual!r})"
        )

    schema = tuple(
        FeatureSchema(
            name=entry["name"],
            kind=FeatureKind(entry["kind"]),
            n_values=entry["n_values"],
        )
        for entry in meta["schema"]
    )
    params = _params_from_meta(meta["params"])
    counters = []
    for entry in meta["tree_counters"]:
        entry = dict(entry)
        if entry.pop("random_splits", 0):
            raise SnapshotFormatError(
                "snapshot trees were grown with random top-level splits "
                "(random_splits > 0); this build cannot decode them"
            )
        counters.append(BuildCounters(**entry))
    node_overflow = meta["payload_overflow"]["nodes"]
    variant_overflow = meta["payload_overflow"]["variants"]

    # Every column is decoded to Python scalars once (tolist), not read
    # element by element as numpy scalars.
    columns = {key: array.tolist() for key, array in arrays.items()}
    kind = columns["node_kind"]
    a, b, c, d = columns["node_a"], columns["node_b"], columns["node_c"], columns["node_d"]
    is_cat = columns["node_is_cat"]
    if any(columns.get("node_random", ())):
        raise SnapshotFormatError(
            "snapshot holds random top-level splits (node_random); this "
            "build decodes only statistics-maintained splits"
        )
    s_n, s_plus = columns["node_stat_n"], columns["node_stat_plus"]
    s_left, s_left_plus = columns["node_stat_left"], columns["node_stat_left_plus"]
    v_feature, v_payload = columns["var_feature"], columns["var_payload"]
    v_is_cat = columns["var_is_cat"]
    v_left, v_right, v_gain = columns["var_left"], columns["var_right"], columns["var_gain"]
    v_n, v_plus = columns["var_stat_n"], columns["var_stat_plus"]
    v_sleft, v_sleft_plus = columns["var_stat_left"], columns["var_stat_left_plus"]
    make_split = _split_decoder(schema)

    # Children always have larger indices than their parent (encoder
    # invariant), so a single reverse pass materialises every node after
    # its descendants -- no recursion, no depth limit.
    nodes: list[TreeNode | None] = [None] * len(kind)
    for index in range(len(kind) - 1, -1, -1):
        node_kind = kind[index]
        if node_kind == _KIND_LEAF:
            nodes[index] = Leaf(a[index], b[index])
        elif node_kind == _KIND_SPLIT:
            nodes[index] = SplitNode(
                make_split(a[index], b[index], is_cat[index], index, node_overflow),
                SplitStats(s_n[index], s_plus[index], s_left[index], s_left_plus[index]),
                nodes[c[index]],
                nodes[d[index]],
            )
        elif node_kind == _KIND_MAINTENANCE:
            first, count = a[index], b[index]
            variants = [
                SubtreeVariant(
                    make_split(
                        v_feature[vslot], v_payload[vslot], v_is_cat[vslot],
                        vslot, variant_overflow,
                    ),
                    SplitStats(
                        v_n[vslot], v_plus[vslot], v_sleft[vslot], v_sleft_plus[vslot]
                    ),
                    nodes[v_left[vslot]],
                    nodes[v_right[vslot]],
                    v_gain[vslot],
                )
                for vslot in range(first, first + count)
            ]
            nodes[index] = MaintenanceNode(variants=variants, active_index=c[index])
        else:
            raise SnapshotFormatError(f"unknown node kind {node_kind} at row {index}")

    trees = [
        HedgeCutTree(root=nodes[int(root)], counters=counter)
        for root, counter in zip(columns["tree_roots"], counters)
    ]
    model = HedgeCutClassifier.from_state(
        params=params,
        trees=trees,
        schema=schema,
        deletion_budget=meta["deletion_budget"],
        n_unlearned=meta["n_unlearned"],
        n_trained_on=meta["n_trained_on"],
    )
    info = _info_from_meta(path, meta, len(kind), len(v_feature))
    return model, info


def read_snapshot_info(path: str | Path) -> SnapshotInfo:
    """Read a snapshot's metadata block without decoding or verifying trees."""
    path = Path(path)
    meta, arrays = _read_archive(path)
    n_nodes = int(arrays["node_kind"].shape[0])
    n_variants = int(arrays["var_feature"].shape[0])
    return _info_from_meta(path, meta, n_nodes, n_variants)


def _info_from_meta(path: Path, meta: dict, n_nodes: int, n_variants: int) -> SnapshotInfo:
    return SnapshotInfo(
        path=path,
        format_version=meta["format_version"],
        wal_seq=meta["wal_seq"],
        n_trees=len(meta["tree_counters"]),
        n_nodes=n_nodes,
        n_variants=n_variants,
        deletion_budget=meta["deletion_budget"],
        n_unlearned=meta["n_unlearned"],
        n_trained_on=meta["n_trained_on"],
        created_at=meta["created_at"],
        checksum=meta["checksum"],
        size_bytes=path.stat().st_size if path.exists() else 0,
    )
