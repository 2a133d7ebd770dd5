"""Python side of the frontier trainers' level kernels (``native/train.c``).

:func:`count_level` fills the count tensors of
:class:`~repro.training.histogram.LevelHistograms`, and :func:`route_level`
partitions the plain splits of a level into the next level's arrays for
:class:`~repro.training.frontier.FrontierTreeBuilder`. Both write into
arrays the caller owns. Shapes, dtypes and contiguity are checked here and
every index in C; a level that fails either check raises
:class:`LevelKernelError`, and nothing is written past a buffer.
"""

from __future__ import annotations

import numpy as np

from repro.native import ffi, lib

#: cffi element type of every code dtype the dataset layer produces.
_CTYPES = {np.dtype(t): f"{np.dtype(t).name}_t[]" for t in (np.uint8, np.uint16, np.int64)}
_INT64 = (np.dtype(np.int64),)
_UINT8 = (np.dtype(np.uint8),)


class LevelKernelError(ValueError):
    """A malformed level: a code outside its domain, a label above 1,
    non-monotone starts, an out-of-range destination, or arrays that do
    not fit together."""


def _buffer(array, shape, keep, dtypes=_INT64, writable=False):
    """A pointer into a checked array; ``keep`` holds it for the call."""
    if not (
        isinstance(array, np.ndarray) and array.dtype in dtypes
        and array.shape == shape and array.flags.c_contiguous
    ):
        raise LevelKernelError(f"expected a C-contiguous {shape} array of {dtypes}")
    keep.append(ffi.from_buffer(_CTYPES[array.dtype], array, require_writable=writable))
    return keep[-1]


def _level(codes, labels, starts, n_values, keep):
    """The ``hc_level`` of one level's code columns, labels and starts."""
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if len(n_values) != len(codes) or starts.ndim != 1 or starts.size < 1:
        raise LevelKernelError("expected one domain per column and n_slots + 1 starts")
    n = len(labels)
    level = ffi.new("hc_level *")
    level.labels = _buffer(labels, (n,), keep, _UINT8)
    columns = [_buffer(column, (n,), keep, tuple(_CTYPES)) for column in codes]
    keep.append(ffi.new("void *[]", columns))
    level.codes = keep[-1]
    widths = np.asarray([column.itemsize for column in codes], dtype=np.int64)
    level.width = _buffer(widths, widths.shape, keep)
    domains = np.asarray(n_values, dtype=np.int64)
    level.n_values = _buffer(domains, domains.shape, keep)
    level.starts = _buffer(starts, starts.shape, keep)
    level.n_features, level.n_positions, level.n_slots = len(codes), n, starts.size - 1
    return level


def _run(status: int) -> None:
    if status != lib.HC_OK:
        raise LevelKernelError("a code, label, start or destination is out of range")


def count_level(codes, labels, starts, n_values, counts, node_counts) -> None:
    """Fill ``counts[f][slot, label, code]`` and ``node_counts[slot, label]``.

    ``counts[f]`` is a C-contiguous int64 ``(n_slots, 2, n_values[f])``
    array, ``node_counts`` an int64 ``(n_slots, 2)`` one.
    """
    keep: list = []
    level = _level(codes, labels, starts, n_values, keep)
    if len(counts) != len(codes):
        raise LevelKernelError("expected one count tensor per column")
    shapes = [(level.n_slots, 2, domain) for domain in n_values]
    outs = ffi.new("int64_t *[]", [
        _buffer(out, shape, keep, writable=True) for out, shape in zip(counts, shapes)
    ])
    nodes = _buffer(node_counts, (level.n_slots, 2), keep, writable=True)
    _run(lib.hc_level_counts(level, outs, nodes))


def route_level(
    codes, labels, starts, n_values, numeric, feature, param, tables,
    left_start, right_start, out_codes, out_labels,
) -> None:
    """Stable-partition every plain split of a level into the next level.

    Per slot: ``feature`` is the split feature, -1 for a slot that is not
    a plain split; ``param`` the numeric cut (``code < cut`` goes left),
    the subset mask of a categorical feature with at most 62 values, or
    the offset of a wider feature's membership table inside ``tables``
    (bool); ``left_start``/``right_start`` the child segments' offsets in
    the outputs, -1 for a child that is not routed. Positions of non-split
    slots and unrouted children are dropped; the rest keep their order.
    ``numeric`` flags each feature; ``out_codes`` match ``codes`` in dtype.
    """
    keep: list = []
    level = _level(codes, labels, starts, n_values, keep)
    if len(out_codes) != len(codes):
        raise LevelKernelError("expected one output per column")
    n_slots, n_out = level.n_slots, len(out_labels)
    plan = [
        _buffer(np.ascontiguousarray(array, dtype=np.int64), (n_slots,), keep)
        for array in (feature, param, left_start, right_start)
    ]
    numeric = np.ascontiguousarray(numeric, dtype=np.uint8)
    tables = np.ascontiguousarray(tables, dtype=np.uint8)
    outs = ffi.new("void *[]", [
        _buffer(out, (n_out,), keep, (column.dtype,), writable=True)
        for out, column in zip(out_codes, codes)
    ])
    dest = np.empty(len(labels), dtype=np.int64)
    _run(lib.hc_level_route(
        level, plan[0], plan[1], _buffer(numeric, (len(codes),), keep, _UINT8),
        _buffer(tables, (tables.size,), keep, _UINT8), tables.size,
        plan[2], plan[3], outs,
        _buffer(out_labels, (n_out,), keep, _UINT8, writable=True), n_out,
        _buffer(dest, dest.shape, keep, writable=True),
    ))
