"""One BLAS thread for the whole process, and the worker map.

Importing the package sets every loaded OpenBLAS to one thread, once, for
the life of the process. On the matrices the package factors (measured up
to p = 512 on 2 cores) a single Tyler solve is faster on one BLAS thread at
every size, under a worker pool BLAS threads would compete with the workers
for the same cores, and one fixed count keeps library and CLI outputs
independent of ``OPENBLAS_NUM_THREADS``. Replicate and column loops
(`experiment.weight_deviation_experiment`, `sparse.clime`) hand their units
to `map_units`, so each worker runs one BLAS thread.

A process running the package carries two OpenBLAS copies: numpy's
(``libscipy_openblas64_``: matrix products, the solvers' SYRK Gram,
eigenvalues), mapped by ``import numpy``, and scipy's
(``libscipy_openblas``: the Cholesky and triangular kernels of
``estimators.quad_forms``). scipy's copy is mapped without importing scipy:
`SCIPY_OPENBLAS` is that library, loaded by path with ``ctypes.CDLL`` from
the ``scipy.libs`` folder next to the package that
``importlib.util.find_spec("scipy")`` locates (which runs no scipy code),
and `estimators` binds its kernels by symbol from it. A later
``import scipy.linalg`` (by `simplex` or `master_equation`'s root search)
maps the same file again, which the loader resolves to the one copy already
mapped, so the pin below covers it. Where scipy bundles no such library
(conda or system scipy, non-Linux wheels, scipy < 1.13, whose bundled
symbols carry no ``scipy_`` prefix) `SCIPY_OPENBLAS` is None, this module
imports ``scipy.linalg`` to map scipy's LAPACK before the pin, and
`estimators` takes the kernels from scipy's Cython capsules. Both copies
are then found in ``/proc/self/maps`` and set through their C-ABI setters,
which take the count by value. The pin records each copy it set, with its
getter and setter, in `_PINNED`; `blas_report` reads that record and binds
nothing itself. A copy without a known setter, or mapped after the import,
is left as it is, and `blas_report` calls it unmanaged.

The workers are threads, so they overlap only native calls that release the
GIL: numpy's matrix products and ``linalg``, ``quad_forms``' kernels and
HiGHS. scipy's f2py ``scipy.linalg.lapack``/``blas`` wrappers hold it for
the whole call; no worker loop of the package calls them. The
master-equation draws run in the calling thread, outside any worker loop.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.util
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

import numpy  # noqa: F401  (both OpenBLAS copies must be mapped before the pin below)

__all__ = ["SCIPY_OPENBLAS", "blas_report", "require_threads", "map_units"]

T = TypeVar("T")
R = TypeVar("R")

# (getter, setter) per OpenBLAS build, C ABI: int get(void), void set(int).
# numpy's ILP64 copy suffixes its symbols with 64_; scipy's LP64 copy has no
# suffix. The Fortran-ABI setter (trailing underscore) takes an int* instead.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _scipy_openblas() -> Optional[ctypes.CDLL]:
    """scipy's bundled LP64 OpenBLAS (``scipy.libs/libscipy_openblas*.so``),
    loaded by path, or None when scipy bundles none whose LAPACK symbols
    carry the ``scipy_`` prefix."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    site = os.path.dirname(list(spec.submodule_search_locations)[0])
    for path in sorted(glob.glob(os.path.join(site, "scipy.libs", "libscipy_openblas*.so"))):
        if "openblas64" in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_dpotrf_"):
            return lib
    return None


# scipy's copy must be mapped before the pin below: by path, else through
# scipy.linalg, whose Cython capsules `estimators` then binds
SCIPY_OPENBLAS = _scipy_openblas()
if SCIPY_OPENBLAS is None:
    import scipy.linalg  # noqa: F401


def _openblas_paths() -> List[str]:
    """Every OpenBLAS library mapped into this process, in map order."""
    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split()[-1] for line in fh]
    except OSError:
        return []
    return [path for path in dict.fromkeys(paths)
            if path.startswith("/") and "openblas" in os.path.basename(path).lower()]


def _thread_calls(path: str):
    """(get, set) of the OpenBLAS at `path`, or None without a known setter."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _THREAD_SYMBOLS:
        try:
            getter, setter = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


# The one place thread counts are set, for the life of the process:
# `_PINNED` maps each path set to its (get, set), the record `blas_report` reads.
_PINNED = {path: calls for path in _openblas_paths() if (calls := _thread_calls(path))}
for _get, _set in _PINNED.values():
    _set(1)


def blas_report() -> List[dict]:
    """Each OpenBLAS copy mapped now: "pinned" with its current thread count
    when the import-time pin set it, else "unmanaged" with no count (no
    known setter, or mapped after the pin ran)."""
    return [
        {
            "library": os.path.basename(path),
            "threads": _PINNED[path][0]() if path in _PINNED else None,
            "in_loops": "pinned" if path in _PINNED else "unmanaged",
        }
        for path in _openblas_paths()
    ]


def require_threads(threads: int) -> None:
    """`ValueError` unless `threads` is a worker count `map_units` accepts,
    an integer of at least 1. Callers doing work before their map check here first."""
    if not isinstance(threads, numbers.Integral):
        raise ValueError(f"threads must be integral, got {threads!r}")
    if threads < 1:
        raise ValueError("threads must be at least 1")


def map_units(fn: Callable[[T], R], items: Iterable[T], threads: int) -> List[R]:
    """``[fn(x) for x in items]`` on `threads` workers, results in input order.

    One worker runs the units in the calling thread; more use a thread pool.
    The first exception raised by `fn` propagates.
    """
    require_threads(threads)
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
