"""Build the native kernel module into the cache.

Runs standalone (it imports nothing from ``repro``), so the loader in
:mod:`repro.native` can run it as a child process on a cache miss and
the serving process never imports the cffi build machinery or
setuptools. ``make native`` runs it directly with ``--werror``::

    python src/repro/native/build.py --werror

The cache key is a hash of the C sources, the cdef, the compiler flags,
the cffi backend version and the Python ABI tag. A build compiles into a
private temporary directory inside the cache and moves the finished
extension into place with ``os.replace``, so processes that build
concurrently never load a half-written file.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import sysconfig
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Compiled as one unit, in this order: ``write.c`` uses the status codes
#: and markers ``kernel.c`` defines.
SOURCES = (HERE / "kernel.c", HERE / "write.c")
CACHE = HERE / "_build"

#: Declarations cffi exposes to Python. API mode compiles its wrappers
#: against ``kernel.c`` itself, so a mismatch fails the build.
CDEF = """
#define HC_OK ...
#define HC_TORN ...
#define HC_RANGE ...
typedef struct {
    const int64_t *feature;
    const int64_t *payload;
    const int64_t *right;
    int64_t n_slots;
    const uint8_t *route;
    int64_t route_len;
    int64_t width;
    const int64_t *roots;
    int64_t n_trees;
    const int64_t *leaf_n;
    const int64_t *leaf_n_plus;
    int64_t n_leaves;
} hc_pack;
int hc_leaves(const hc_pack *p, const int64_t *values, int64_t n_rows,
              int64_t n_features, int64_t *out);
int hc_votes(const hc_pack *p, const int64_t *values, int64_t n_rows,
             int64_t n_features, int64_t *out);
int hc_proba(const hc_pack *p, const int64_t *values, int64_t n_rows,
             int64_t n_features, double *out);
int hc_shards(const int64_t *values, const int64_t *labels, int64_t n_rows,
              int64_t n_features, uint64_t salt, uint64_t n_shards,
              int64_t *out);
#define HC_REJECT_LEAF ...
#define HC_REJECT_SPLIT ...
#define HC_REJECT_VARIANT ...
typedef struct {
    const int64_t *feature;
    const int64_t *payload;
    const int64_t *right;
    const int64_t *stats_row;
    int64_t n_slots;
    const uint8_t *route;
    int64_t route_len;
    int64_t width;
    const int64_t *roots;
    int64_t n_trees;
    const int64_t *fan_ptr;
    const int64_t *fan_slots;
    int64_t n_fan;
    int64_t n_mnodes;
    int64_t *stats;
    int64_t n_stats;
    int64_t *leaves;
    int64_t n_leaves;
    double *gains;
    int64_t *active;
    const int64_t *leaf_read_row;
    int64_t *read_n;
    int64_t *read_n_plus;
    int64_t n_read;
    int64_t *log;
    int64_t *mlog;
    int64_t *stack;
    int64_t scratch_len;
    int64_t *seen;
    int64_t *touched;
    int64_t *saved_active;
    double *saved_gains;
    int64_t epoch;
} hc_store;
int hc_write(hc_store *s, const int64_t *values, const int64_t *labels,
             int64_t n_records, int64_t n_features, int64_t sign,
             int64_t *report, int64_t *switched);
"""

#: Bit-identity with the numpy formulation needs IEEE double arithmetic
#: exactly as written: no fused multiply-add, never -ffast-math.
COMPILE_ARGS = ("-O2", "-ffp-contract=off", "-Wall", "-Wextra")


def module_name() -> str:
    """The extension's module name, ``_hc_kernel_<cache key>``."""
    import _cffi_backend

    key = hashlib.sha256()
    for part in (
        *(source.read_bytes() for source in SOURCES),
        CDEF.encode(),
        " ".join(COMPILE_ARGS).encode(),
        _cffi_backend.__version__.encode(),
        sys.implementation.cache_tag.encode(),
        str(sysconfig.get_config_var("EXT_SUFFIX")).encode(),
    ):
        key.update(part)
        key.update(b"\0")
    return f"_hc_kernel_{key.hexdigest()[:16]}"


def cached_path(name: str) -> Path:
    return CACHE / (name + sysconfig.get_config_var("EXT_SUFFIX"))


def build(werror: bool = False) -> Path:
    """Compile the kernel module and move it into the cache atomically.

    Args:
        werror: also pass ``-Werror``, so that any warning fails the build.

    Returns:
        the path of the cached extension module.
    """
    import cffi

    name = module_name()
    builder = cffi.FFI()
    builder.cdef(CDEF)
    builder.set_source(
        name,
        "\n".join(source.read_text() for source in SOURCES),
        extra_compile_args=[*COMPILE_ARGS, *(["-Werror"] if werror else [])],
    )
    CACHE.mkdir(parents=True, exist_ok=True)
    target = cached_path(name)
    with tempfile.TemporaryDirectory(dir=CACHE, prefix="tmp-") as scratch:
        os.replace(builder.compile(tmpdir=scratch, verbose=False), target)
    return target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--werror", action="store_true", help="treat compiler warnings as errors"
    )
    args = parser.parse_args(argv)
    print(build(werror=args.werror))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
