"""The environment block every result carries: cores, versions, BLAS threads.

The BLAS thread count is read, never set, through the getter that numpy's
bundled OpenBLAS exports; any other BLAS reports "unknown".
"""

from __future__ import annotations

import ctypes
import os
import platform

import numpy as np
import scipy

OPENBLAS_GETTER = "scipy_openblas_get_num_threads64_"


def _loaded_libraries():
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if path.startswith("/") and ".so" in path:
                yield path


def blas_threads():
    for path in dict.fromkeys(_loaded_libraries()):
        if "openblas" not in os.path.basename(path).lower():
            continue
        try:
            getter = getattr(ctypes.CDLL(path), OPENBLAS_GETTER)
        except (OSError, AttributeError):
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        return int(getter())
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ROBUST_SCATTER_THREADS": os.environ.get("ROBUST_SCATTER_THREADS"),
    }
