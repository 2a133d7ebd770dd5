"""Strict-durability ordering of a store snapshot (``fsync=True``).

A snapshot lets the store compact its log: the WAL segments it covers are
unlinked. If the snapshot were not yet durable when they go, a crash
could lose both. The file must be fsynced, renamed into place and its
directory fsynced before the first segment is unlinked, and the unlinks
themselves must be made durable with a WAL directory fsync.
"""

import os
from pathlib import Path

import pytest

from repro.persistence.store import ModelStore

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="needs /proc to name fsynced fds"
)


@pytest.fixture()
def events(monkeypatch):
    """Every fsync, rename and unlink, in call order, with its path."""
    log: list[tuple[str, Path]] = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

    def fsync(descriptor):
        log.append(("fsync", Path(os.readlink(f"/proc/self/fd/{descriptor}"))))
        return real_fsync(descriptor)

    def replace(source, target, **kwargs):
        log.append(("replace", Path(target)))
        return real_replace(source, target, **kwargs)

    def unlink(path, **kwargs):
        log.append(("unlink", Path(path)))
        return real_unlink(path, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "unlink", unlink)
    return log


def test_snapshot_is_durable_before_any_segment_is_unlinked(
    tmp_path, fitted_model, income_split, events
):
    train, _ = income_split
    store = ModelStore(tmp_path, fsync=True, keep_snapshots=1)
    for row in range(3):
        store.wal.append(train.record(row))
        store.wal.rotate()
    events.clear()
    info = store.save_snapshot(fitted_model)

    snapshot = info.path.resolve()
    wal_dir = store.wal.directory.resolve()
    order = [(kind, path.resolve()) for kind, path in events]
    unlinked = [i for i, (kind, path) in enumerate(order)
                if kind == "unlink" and path.parent == wal_dir]
    assert unlinked, "the snapshot compacted no segment"
    first_unlink = unlinked[0]

    staged = order.index(("fsync", snapshot.with_name(snapshot.name + ".tmp")))
    renamed = order.index(("replace", snapshot))
    directory = order.index(("fsync", snapshot.parent))
    assert staged < renamed < directory < first_unlink
    # The unlinks are made durable too.
    assert ("fsync", wal_dir) in order[unlinked[-1]:]
    store.close()


def test_snapshot_without_fsync_never_syncs(tmp_path, fitted_model, events):
    store = ModelStore(tmp_path, fsync=False)
    events.clear()
    info = store.save_snapshot(fitted_model)
    assert not [event for event in events if event[0] == "fsync"]
    assert info.path.exists()
    assert not list(info.path.parent.glob("*.tmp"))
    store.close()
