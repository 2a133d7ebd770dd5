"""Directory fsync, shared by the snapshot writer and the write-ahead log.

Fsyncing a file makes its bytes durable but not its name: a file that was
just created, renamed or unlinked can reappear or vanish after a crash
until the directory holding it is fsynced too.
"""

from __future__ import annotations

import os
from pathlib import Path


def fsync_directory(directory: str | Path) -> None:
    """Make the entries of ``directory`` (creates, renames, unlinks) durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)
