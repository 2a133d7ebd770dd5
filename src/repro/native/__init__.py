"""The compiled C kernels: traversal, the write kernel and the routing hash.

``kernel.c`` and ``write.c`` are compiled as one unit with cffi (API
mode) and the system C compiler (gcc) on the first import in a fresh
checkout, and cached next to the sources in ``_build/`` (see
:mod:`repro.native.build` for the cache key and the atomic install). A
cache miss runs the build in a child process; a cache hit loads the
extension directly, without cffi's build machinery or setuptools.

There is no pure-Python fallback: if cffi or the compiler is missing,
importing this package raises :class:`ImportError` saying so.

Exports ``ffi`` and ``lib``; the traversal wrappers live in
:mod:`repro.core.packed`, the write kernel's in :mod:`repro.core.writes`,
the routing hash in :mod:`repro.sharding.partitioner`.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys

try:
    import _cffi_backend  # noqa: F401  (the extension's runtime)
except ImportError as error:  # pragma: no cover - depends on the install
    raise ImportError(
        "repro.native needs the 'cffi' package (and gcc) for its C kernel"
    ) from error

from repro.native import build as _build


def _load():
    name = _build.module_name()
    path = _build.cached_path(name)
    if not path.exists():
        completed = subprocess.run(
            [sys.executable, _build.__file__], capture_output=True, text=True
        )
        if completed.returncode != 0 or not path.exists():
            raise ImportError(
                "repro.native could not build its C kernel with cffi and the "
                f"system C compiler (gcc):\n{completed.stderr[-2000:]}"
            )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


ffi, lib = _load()
