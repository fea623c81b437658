"""One BLAS thread per worker: the pin, and the one worker map that holds it.

Replicate and column loops (`experiment.weight_deviation_experiment`,
`sparse.clime`) hand their units to `map_units`. On the small matrices those
units factor, a multithreaded OpenBLAS costs more in thread hand-offs than it
computes, and under a worker pool its threads and the pool's compete for the
same cores. So while a map runs, every loaded OpenBLAS is held at one thread
and its previous count comes back when the map ends. The CLI holds the same
pin, `ONE_BLAS_THREAD`, around each whole command: a single Tyler solve is
faster on one BLAS thread at every size measured, p = 512 included, and the
command's output no longer depends on the process's BLAS thread count.

A process running numpy and scipy carries two OpenBLAS copies: numpy's
(``libscipy_openblas64_``: matrix products, the solvers' SYRK Gram,
eigenvalues) and scipy's (``libscipy_openblas``: the Cholesky and triangular
kernels of ``estimators.quad_forms``). Both are found in
``/proc/self/maps`` on first use and set through their C-ABI setters, which
take the count by value. A copy without a known setter is left as it is; when
no copy is found the pin does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, TypeVar

__all__ = ["openblas_copies", "blas_report", "ONE_BLAS_THREAD", "map_units"]

T = TypeVar("T")
R = TypeVar("R")

# (getter, setter) per OpenBLAS build, C ABI: int get(void), void set(int).
# numpy's ILP64 copy suffixes its symbols with 64_; scipy's LP64 copy has no
# suffix. The Fortran-ABI setter (trailing underscore) takes an int* instead.
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@dataclass(frozen=True)
class OpenBlasCopy:
    """One loaded OpenBLAS library and, when known, its thread-count calls."""

    path: str
    get_threads: Optional[Callable[[], int]]
    set_threads: Optional[Callable[[int], None]]

    @property
    def managed(self) -> bool:
        return self.set_threads is not None


def _bind(lib: ctypes.CDLL) -> tuple:
    for get_name, set_name in _THREAD_SYMBOLS:
        try:
            getter, setter = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None, None


def openblas_copies() -> List[OpenBlasCopy]:
    """Every OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = [line.split()[-1] for line in fh]
    except OSError:
        return []
    copies = []
    for path in dict.fromkeys(paths):
        if not path.startswith("/") or "openblas" not in os.path.basename(path).lower():
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        copies.append(OpenBlasCopy(path, *_bind(lib)))
    return copies


def blas_report() -> List[dict]:
    """Each OpenBLAS copy with its current thread count and whether commands
    and worker loops pin it ("pinned") or leave it alone ("unmanaged")."""
    return [
        {
            "library": os.path.basename(c.path),
            "threads": c.get_threads() if c.managed else None,
            "in_loops": "pinned" if c.managed else "unmanaged",
        }
        for c in openblas_copies()
    ]


class _OneBlasThread:
    """Context manager holding every managed OpenBLAS at one thread.

    The thread counts are process-wide, so there is one instance per
    process, `ONE_BLAS_THREAD`. Nested and concurrent holders (a command
    and the maps it runs, or several maps) share the pin: the first to
    enter records the counts and sets them to 1, the last to leave restores
    them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(c, c.get_threads()) for c in openblas_copies() if c.managed]
                for c, _ in self._saved:
                    c.set_threads(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for c, count in self._saved:
                    c.set_threads(count)
                self._saved = []
        return False


ONE_BLAS_THREAD = _OneBlasThread()


def map_units(fn: Callable[[T], R], items: Iterable[T], threads: int) -> List[R]:
    """``[fn(x) for x in items]`` on `threads` workers, results in input order.

    One worker runs the units in the calling thread; more use a thread pool.
    Either way every OpenBLAS runs one thread per worker for the duration.
    The first exception raised by `fn` propagates after the pin is undone.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    with ONE_BLAS_THREAD:
        if threads == 1:
            return [fn(x) for x in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
