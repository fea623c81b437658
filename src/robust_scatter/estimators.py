"""Fixed-point solvers for the four scatter M-estimators.

The estimators share one template: a weighted sample covariance whose
weights are a function of the per-sample quadratic forms
d_i = p^{-1} x_i^T Sigma^{-1} x_i evaluated at the estimate itself.

kind  weight w_i      update for Sigma
----  --------------  --------------------------------------------------
ME    u(d_i)          (1/n) sum_i w_i x_i x_i^T
TE    1 / d_i         same, then rescaled to trace p
MRE   u(d_i)          (1/n) sum_i w_i x_i x_i^T / (1+a) + a/(1+a) * I
TRE   1 / d_i         same shrunk update

The Tyler kinds are the Maronna template with u = ``tyler_u()``.

All four are solved in d-space. Sigma(d) is the update above at weights
u(d), rescaled for TE, and the map is d -> quad_forms(x, Sigma(d)); d is a
fixed point iff Sigma(d) solves the estimator equation. The weighted
covariance is formed as B^T B with B = x * sqrt(w/n) row-wise, which numpy
hands to SYRK: half the flops of a general product, and exactly symmetric.
The forms take a Cholesky factor and a triangular inverse or solve, in
float64 (``dpotrf``, ``dtrtri``, ``dtrmm``, ``dtrsm``) or float32
(``spotrf``, ``strtri``, ``strmm``, ``strsm``), called by ctypes in scipy's
OpenBLAS: bound by their ``scipy_<name>_`` symbols in the library that
`parallel` loads by path, so that importing this module imports no scipy
module, or, where scipy bundles no such library, through the capsules of
scipy's Cython API (``scipy.linalg.cython_lapack``, ``cython_blas``), which
wrap the same functions. The factor is inverted by recursive 2 x 2 blocks,
``?trtri`` on diagonal blocks of at most 64 rows and ``?trmm`` for the rest
(`quad_forms`). Like numpy's SYRK, those calls release the GIL, so
the replicates of a worker pool (`parallel.map_units`) run their map
evaluations in parallel.
The solver iterates y = log d from the float64 forms at the identity (for
ME at c I, c = mean_i |x_i|^2 / p, so that its iterations do not depend on
the scale of its data),
mixing each step over the last few map values by Anderson acceleration
(Walker & Ni, SIAM J. Numer. Anal. 2011). The map runs in two phases, as
in mixed-precision refinement (Carson & Higham, SIAM J. Sci. Comput.
2018). First in float32: the data, the weights, Sigma(d) and its factor;
the forms come back in float64. Once the RMS log-residual is at most
``_SWITCH`` = 1e-5 (or the tolerance, when that is looser), in float64 to
the end. y and the Anderson history are float64 throughout and are kept
across the switch, but two evaluations are compared (by RMS log-residual,
or as a history pair) only in one precision: across the switch they also
differ by float32's rounding, about 1e-7, which stalls the mixing when the
residual is that small. The float32 phase also ends early when a float32
mixed step does not lower the RMS log-residual, and when a float32 evaluation
fails (no Cholesky, or forms that are not finite and positive): that
evaluation is done again in float64, and a float32 failure never raises
`ExistenceError`. A mixed step that raises the RMS log-residual is
replaced by the plain float64 step from the last accepted point, and the
history is cleared. Zero samples (legal for ME/MRE) keep d = 0 outside the
mixing. Once a float64 point's RMS log-residual is within ``_CHECK`` = 3
times the tolerance, the relative defining-equation residual is computed
at Sigma(d) (one SYRK), and ``converged`` means it is at most the
tolerance: every converged solve ends on a float64 evaluation. A solve
whose float64 evaluations stop making progress ends, unconverged, before
``max_iter``: after ``_STALL`` = 2 ``_WINDOW`` float64 evaluations in a row
none of which lowers the least float64 RMS log-residual so far (data too
ill-conditioned for float64 to reach the tolerance stall there). Any new
minimum counts as progress: near n = p, TE's RMS falls by small steps for
tens of evaluations and then converges.
``iterations`` counts map evaluations of both precisions; a failed float32
attempt and its float64 redo are one evaluation, so `quad_forms` runs
``iterations`` + 1 times, plus once per failed attempt. An unconverged
solve can stop on a float32 evaluation; its matrix is then that
evaluation's Sigma(d) and its residual uses that evaluation's forms.
Non-convergence is reported through the ``converged`` flag;
``ScatterEstimate.require_converged`` turns it into the one
``ConvergenceError`` for callers that need a converged estimate.
``require_existence`` holds every kind's existence conditions, for ``_solve``
(each public solver's one call) and for the experiment and the master
equation that predict their weights. ``interference_h`` exposes the ME map.
"""

from __future__ import annotations

import ctypes
import importlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from . import parallel
from .errors import ConvergenceError, ExistenceError
from .model import Dataset, ScatterMatrix

__all__ = [
    "KINDS",
    "UFunction",
    "rational_u",
    "huber_u",
    "tyler_u",
    "make_ufunction",
    "require_existence",
    "SolverConfig",
    "ScatterEstimate",
    "tyler",
    "maronna",
    "tyler_regularized",
    "maronna_regularized",
    "fit",
    "interference_h",
    "quad_forms",
]

KINDS = ("TE", "ME", "TRE", "MRE")

_ZERO_ROW_RTOL = 1e-14

# Anderson mixing keeps the differences of this many past map evaluations
_WINDOW = 5
# the map runs in float32 until the RMS log-residual is at most this (or the
# tolerance, when that is looser), then in float64
_SWITCH = 1e-5
# a float64 point's defining residual (one SYRK) is computed once its RMS
# log-residual is within this factor of the tolerance; the residual runs at
# 0.15-0.66 times the RMS (n = 2p, p = 64-512)
_CHECK = 3.0
# a solve stops, unconverged, after this many float64 evaluations in a row
# that fail to lower the least float64 RMS log-residual so far, counted from
# the one that reached it
_STALL = 2 * _WINDOW


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UFunction:
    """A weight function u together with phi(x) = x*u(x), its supremum and
    the unit crossing d0 = phi^{-1}(1) (None when the crossing does not
    exist or is not unique, e.g. for the Tyler case phi == 1)."""

    name: str
    u: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    phi_inf: float
    d0: Optional[float]


def rational_u() -> UFunction:
    """u(x) = 2/(1+x). phi(x) = 2x/(1+x), phi_inf = 2, phi^{-1}(1) = 1."""
    return UFunction(
        name="rational",
        u=lambda x: 2.0 / (1.0 + np.asarray(x, dtype=float)),
        phi=lambda x: 2.0 * np.asarray(x, dtype=float) / (1.0 + np.asarray(x, dtype=float)),
        phi_inf=2.0,
        d0=1.0,
    )


def huber_u(t: float = 2.0) -> UFunction:
    """Unnormalized Huber weight u(x) = min(1, t/x), u(0) = 1.

    phi(x) = min(x, t), so phi_inf = t and the unit crossing is at 1
    provided t > 1.
    """
    if not 0 < t < math.inf:  # t = inf would give u = inf/inf = NaN
        raise ValueError("huber threshold t must be positive and finite")

    def u(x):
        x = np.asarray(x, dtype=float)
        return t / np.maximum(x, t)

    return UFunction(
        name=f"huber:{t:g}",
        u=u,
        phi=lambda x: np.minimum(np.asarray(x, dtype=float), t),
        phi_inf=float(t),
        d0=1.0 if t > 1 else None,
    )


def tyler_u() -> UFunction:
    """u(x) = 1/x, phi == 1: the weight function implicit in TE/TRE."""

    def u(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return 1.0 / x

    return UFunction(
        name="tyler",
        u=u,
        phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        phi_inf=1.0,
        d0=None,
    )


def make_ufunction(u: Callable, name: str = "custom") -> UFunction:
    """Wrap a user weight function: derive phi, estimate phi_inf = phi(1e12)
    and locate the unit crossing d0 = phi^{-1}(1) with one `brentq` in log x
    over [1e-12, 1e12]; d0 is None unless phi(1e-12) < 1 < phi_inf. A crossing
    above 1e12 would come with phi_inf <= 1, which no estimator admits."""
    from scipy.optimize import brentq  # first use only, as in `simplex`

    def phi(x):
        x = np.asarray(x, dtype=float)
        return x * np.asarray(u(x), dtype=float)

    # phi is non-decreasing and bounded; probe far out for its supremum
    phi_inf = float(phi(np.asarray(1e12)))

    def excess(t: float) -> float:
        return float(phi(np.asarray(math.exp(t)))) - 1.0

    d0 = None
    if float(phi(np.asarray(1e-12))) < 1.0 < phi_inf:
        d0 = math.exp(brentq(excess, math.log(1e-12), math.log(1e12)))
    return UFunction(name=name, u=u, phi=phi, phi_inf=phi_inf, d0=d0)


# ---------------------------------------------------------------------------
# solver plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True, eq=False)
class ScatterEstimate:
    """Solver output: the SPD estimate plus the per-sample weights and
    convergence diagnostics. ``residual`` is the relative Frobenius residual
    of the defining fixed-point equation at ``matrix``; ``iterations`` counts
    the solver's map evaluations. ``u`` is the weight function for ME/MRE
    (None for the Tyler kinds)."""

    matrix: ScatterMatrix
    weights: np.ndarray
    kind: str
    alpha: float
    iterations: int
    residual: float
    converged: bool
    u: Optional[UFunction] = None

    def require_converged(self) -> "ScatterEstimate":
        """This estimate, or `ConvergenceError` when its solve is unconverged."""
        if not self.converged:
            raise ConvergenceError(f"{self.kind} did not converge: residual {self.residual:.3g} "
                                   f"after {self.iterations} map evaluations")
        return self


# LAPACK and BLAS of scipy's OpenBLAS (LP64, Fortran calling convention:
# every argument by pointer), by symbol from `parallel.SCIPY_OPENBLAS`, or,
# when that is None, from the capsules of scipy's Cython API, which wrap the
# same functions. A ctypes foreign call releases the GIL, so `map_units`
# workers overlap these kernels; scipy's f2py wrappers hold the GIL for the
# whole call.
_CHAR, _INT = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int)
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _kernel(module: str, name: str, *argtypes):
    """Kernel `name` (``dpotrf``, ...) of scipy's OpenBLAS, of library
    `module` ("lapack" or "blas"), as a ctypes function."""
    lib = parallel.SCIPY_OPENBLAS
    if lib is not None:
        address = ctypes.cast(getattr(lib, f"scipy_{name}_"), ctypes.c_void_p).value
    else:
        capsule = importlib.import_module(f"scipy.linalg.cython_{module}").__pyx_capi__[name]
        address = _capsule_pointer(capsule, _capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


class _Kernels(NamedTuple):
    """The four kernels of `quad_forms` in one precision, with the constant
    arguments of their calls: the ctypes scalar, its size and alpha = +-1."""

    prefix: str  # "d" or "s", for error messages
    scalar: type
    size: int  # bytes per entry, for pointers into a block of a matrix
    one: ctypes._SimpleCData
    minus_one: ctypes._SimpleCData
    potrf: Callable
    trtri: Callable
    trmm: Callable  # side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb
    trsm: Callable


# the character arguments, converted once
_L, _N, _R = ctypes.c_char_p(b"L"), ctypes.c_char_p(b"N"), ctypes.c_char_p(b"R")
# diagonal blocks of at most this order are inverted by one ?trtri call
_LEAF = 64


def _bind(prefix: str, scalar: type) -> _Kernels:
    real = ctypes.POINTER(scalar)
    triangular = (*(_CHAR,) * 4, *(_INT,) * 2, *(real,) * 2, _INT, real, _INT)
    return _Kernels(prefix, scalar, ctypes.sizeof(scalar), scalar(1.0), scalar(-1.0),
                    _kernel("lapack", prefix + "potrf", _CHAR, _INT, real, _INT, _INT),
                    _kernel("lapack", prefix + "trtri", _CHAR, _CHAR, _INT, real, _INT, _INT),
                    _kernel("blas", prefix + "trmm", *triangular),
                    _kernel("blas", prefix + "trsm", *triangular))


_FLOAT32, _FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)
_KERNELS = {_FLOAT64: _bind("d", ctypes.c_double), _FLOAT32: _bind("s", ctypes.c_float)}


def _require_factor(routine: str, info: ctypes.c_int) -> None:
    if info.value < 0:
        raise ValueError(f"{routine}: argument {-info.value} has an illegal value")
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"sigma is not positive definite (leading minor {info.value})")


def _invert_lower(k: _Kernels, a: ctypes._SimpleCData, lda: ctypes.c_int, first: int,
                  order: int, info: ctypes.c_int) -> None:
    """Invert in place the lower triangular diagonal block of `order` rows
    at row and column `first` of the column-major matrix whose first entry
    is `a`. A block of at most ``_LEAF`` rows is one ``?trtri`` call; a
    larger one, L = [[A, 0], [B, C]] with A of order // 2 rows, inverts A
    and C by recursion and then B <- -C^{-1} (B A^{-1}) by two ``?trmm``
    calls, so that it holds the lower left block of L^{-1}."""
    def at(row: int, col: int):
        return ctypes.byref(a, (row + col * lda.value) * k.size)

    if order <= _LEAF:
        k.trtri(_L, _N, ctypes.c_int(order), at(first, first), lda, info)
        _require_factor(k.prefix + "trtri", info)
        return
    half = order // 2
    mid = first + half
    _invert_lower(k, a, lda, first, half, info)
    _invert_lower(k, a, lda, mid, order - half, info)
    rows, cols, block = ctypes.c_int(order - half), ctypes.c_int(half), at(mid, first)
    k.trmm(_R, _L, _N, _N, rows, cols, k.one, at(first, first), lda, block, lda)
    k.trmm(_L, _L, _N, _N, rows, cols, k.minus_one, at(mid, mid), lda, block, lda)


def quad_forms(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """d_i = p^{-1} x_i^T sigma^{-1} x_i for every row of x, as float64.

    One LAPACK Cholesky sigma = L L^T (``np.linalg.LinAlgError`` naming the
    leading minor when sigma is not positive definite), then
    d_i = |L^{-1} x_i|^2 / p. With at least p rows, L is inverted once and
    applied to x^T by a triangular product; with fewer rows (the one-row
    leave-one-out forms of `experiment.quadratic_form_diagnostics`) one
    triangular solve is cheaper. L is inverted in place by recursive 2 x 2
    blocks (`_invert_lower`): ``?trtri`` on diagonal blocks of at most
    ``_LEAF`` = 64 rows, two ``?trmm`` products per split, so that most of
    the inverse's flops run in the matrix product (Peise & Bientinesi, ACM
    TOMS 2017): at one BLAS thread, 2.6-3.2 times faster than OpenBLAS's
    whole-matrix ``?trtri`` at p = 256-512. At p <= 64 it is one ``?trtri``
    call. The work is done in float32 when x
    and sigma are both float32 (the solver's first phase: ``spotrf``,
    ``strtri``, ``strmm``, ``strsm``) and in float64 otherwise (``dpotrf``,
    ``dtrtri``, ``dtrmm``, ``dtrsm``); the forms are float64 either way.
    The kernels, scipy's OpenBLAS in both precisions (bound by symbol from
    the library `parallel` loads by path, else through scipy's Cython
    capsules; see the module docstring), run without the GIL,
    in place on a Fortran-ordered copy of sigma and on a C-ordered copy of
    x, whose memory is the Fortran-ordered x^T they take. Only the lower
    triangle of sigma is read. `ValueError` unless x is a nonempty n x p
    array and sigma is p x p.
    """
    x, sigma = np.asarray(x), np.asarray(sigma)
    dtype = _FLOAT32 if x.dtype == sigma.dtype == _FLOAT32 else _FLOAT64
    k = _KERNELS[dtype]
    z = np.array(x, dtype=dtype, order="C")  # p x n x^T, transformed in place
    chol = np.array(sigma, dtype=dtype, order="F")
    n, p = z.shape
    if z.size == 0 or chol.shape != (p, p):
        raise ValueError(f"quad_forms needs a nonempty n x p x and a p x p sigma, "
                         f"got {z.shape} and {chol.shape}")
    # the kernels get the arrays' first entries by reference; both buffers
    # are C-contiguous (chol.T is), as from_buffer requires
    a, b = k.scalar.from_buffer(chol.T), k.scalar.from_buffer(z)
    dim, info = ctypes.c_int(p), ctypes.c_int(0)
    k.potrf(_L, dim, a, dim, info)
    _require_factor(k.prefix + "potrf", info)
    if n >= p:
        _invert_lower(k, a, dim, 0, p, info)
        k.trmm(_L, _L, _N, _N, dim, ctypes.c_int(n), k.one, a, dim, b, dim)
    else:
        k.trsm(_L, _L, _N, _N, dim, ctypes.c_int(n), k.one, a, dim, b, dim)
    return np.einsum("ij,ij->j", z.T, z.T).astype(np.float64, copy=False) / p


def _weighted_cov(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(1/n) sum_i w_i x_i x_i^T for weights w >= 0, exactly symmetric."""
    b = x * np.sqrt(w / x.shape[0])[:, None]
    return b.T @ b


def _relfrob(delta: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(delta) / np.linalg.norm(ref))


def _check_rows(x: np.ndarray) -> None:
    norms = np.linalg.norm(x, axis=1)
    tiny = norms < _ZERO_ROW_RTOL * max(norms.max(), 1e-300)
    if tiny.any():
        raise ExistenceError(
            f"{int(tiny.sum())} sample(s) have (near-)zero norm; "
            "Tyler-type weights are undefined for them"
        )


def _defining_rhs(kind: str, x: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """The defining equation's right side, in x's dtype (w is cast to it)."""
    raw = _weighted_cov(x, np.asarray(w, dtype=x.dtype))
    if kind in ("MRE", "TRE"):
        p = x.shape[1]
        return raw / (1.0 + alpha) + (alpha / (1.0 + alpha)) * np.eye(p, dtype=x.dtype)
    return raw


def _d_map(kind: str, x: np.ndarray, d: np.ndarray, weigh: Callable,
           alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """One step of the fixed-point map in d-space.

    Returns Sigma(d), the right side of the defining equation at weights
    u(d) (rescaled to trace p for TE), and the quadratic forms at it. d
    solves the estimator equation iff the forms equal d. Sigma(d) is in
    x's dtype, float32 or float64; the forms are float64.
    """
    sigma = _defining_rhs(kind, x, weigh(d), alpha)
    if kind == "TE":
        sigma *= x.shape[1] / np.trace(sigma)
    return sigma, quad_forms(x, sigma)


class _Point(NamedTuple):
    """One evaluation of the d-space map at d = e^y (y over the nonzero rows)."""

    y: np.ndarray
    sigma: np.ndarray  # Sigma(d)
    forms: np.ndarray  # quadratic forms at sigma, every row
    g: np.ndarray  # their logs over the nonzero rows: the map's value at y
    rms: float  # RMS log-residual of g - y


def _solve(kind: str, data: Dataset, u: Optional[UFunction], alpha: float,
           cfg: Optional[SolverConfig]) -> ScatterEstimate:
    """Every fit: `require_existence`, no zero sample for the Tyler kinds, then the solve."""
    require_existence(kind, data.n, data.p, u, alpha)
    tyler_kind = kind in ("TE", "TRE")
    if tyler_kind:
        _check_rows(data.samples)
    cfg = cfg or SolverConfig()
    weigh = (tyler_u() if tyler_kind else u).u
    x = np.ascontiguousarray(data.samples)
    n, p = x.shape

    # ME is affine equivariant, so it starts at its data's scale: the forms at
    # c I, c = mean_i |x_i|^2 / p (the identity for all-zero data, which has
    # no ME). The other kinds fix a scale (trace p, or alpha I) and start at I.
    start = float(np.einsum("ij,ij->", x, x)) / (n * p) if kind == "ME" else 1.0
    d0 = quad_forms(x, (start or 1.0) * np.eye(p))
    live = d0 > 0  # zero samples (legal for ME/MRE) keep d = 0 outside the mixing

    evals = 0
    # the data in float32 while the map runs in float32, None after the
    # switch; a value out of float32's range shows as a failed evaluation
    with np.errstate(all="ignore"):
        x32 = x.astype(np.float32)
    switch = max(_SWITCH, cfg.tol)
    # the least float64 RMS so far, and the float64 evaluations since the one
    # that reached it: `_STALL` of them end the solve
    mark, stalled = math.inf, 0

    def step(y: np.ndarray) -> _Point:
        """The map at y, in float32 while `x32` is set. A float32 evaluation
        that fails (no Cholesky, or forms that are not finite and positive)
        ends the float32 phase and is done again, as the same evaluation, in
        float64."""
        nonlocal evals, x32, mark, stalled
        evals += 1
        d = np.zeros(n)
        d[live] = np.exp(y)
        if x32 is not None:
            try:
                with np.errstate(all="ignore"):  # an overflow shows in the forms
                    sigma, forms = _d_map(kind, x32, d, weigh, alpha)
                if not np.all((forms[live] > 0) & (forms[live] < np.inf)):
                    x32 = None
            except np.linalg.LinAlgError:
                x32 = None
        if x32 is None:
            sigma, forms = _d_map(kind, x, d, weigh, alpha)
        g = np.log(forms[live])
        pt = _Point(y, sigma, forms, g, np.linalg.norm(g - y) / math.sqrt(max(g.size, 1)))
        if x32 is None:
            if pt.rms < mark:
                mark, stalled = pt.rms, 0
            else:
                stalled += 1
        return pt

    def spent() -> bool:
        return evals >= cfg.max_iter or stalled >= _STALL

    def defining_residual(pt: _Point) -> float:
        rhs = _defining_rhs(kind, x, weigh(pt.forms), alpha)
        return _relfrob(pt.sigma - rhs, pt.sigma)

    converged = False
    try:
        pt = step(np.log(d0[live]))
        df: list = []  # Anderson history: differences of the residuals g - y
        dg: list = []  # and of the map values g between accepted points
        while True:  # x32 is set here iff pt is a float32 evaluation
            if x32 is not None:
                if pt.rms <= switch:
                    x32 = None  # float64 from the next evaluation on
            elif pt.rms <= _CHECK * cfg.tol:
                residual = defining_residual(pt)
                if residual <= cfg.tol:
                    converged = True
                    break
            if spent():
                break
            # two evaluations are compared (RMS, secant pair) only in one
            # precision: across the switch they also differ by float32 rounding
            if df:
                gamma = np.linalg.lstsq(np.column_stack(df), pt.g - pt.y, rcond=None)[0]
                nxt = step(pt.g - np.column_stack(dg) @ gamma)
                if nxt.sigma.dtype == pt.sigma.dtype and not nxt.rms <= pt.rms:
                    # mixing did not help: plain float64 step from pt
                    df.clear()
                    dg.clear()
                    x32 = None
                    if spent():
                        break
                    nxt = step(pt.g)
            else:
                nxt = step(pt.g)
            if nxt.sigma.dtype == pt.sigma.dtype:
                df.append((nxt.g - nxt.y) - (pt.g - pt.y))
                dg.append(nxt.g - pt.g)
                del df[:-_WINDOW], dg[:-_WINDOW]
            pt = nxt
    except np.linalg.LinAlgError as exc:
        raise ExistenceError(
            f"{kind} iteration hit a non-SPD weighted covariance "
            "(data may be rank deficient or the existence condition fails)"
        ) from exc
    if not converged:
        residual = defining_residual(pt)

    return ScatterEstimate(
        matrix=ScatterMatrix(pt.sigma),
        weights=np.asarray(weigh(pt.forms), dtype=float),
        kind=kind,
        alpha=float(alpha),
        iterations=evals,
        residual=residual,
        converged=converged,
        u=u,
    )


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------

_ESTIMATOR_NAMES = {"TE": "Tyler's estimator", "ME": "Maronna's estimator"}


def require_existence(kind: str, n: int, p: int, u: Optional[UFunction] = None,
                      alpha: float = 0.0) -> None:
    """Raise `ExistenceError` unless the estimator of `kind` exists for n
    samples in dimension p: n > p for TE and ME, a u whose phi crosses 1 and
    has phi_inf > 1 for ME, alpha > max(0, p/n - 1) for TRE and alpha > 0 for
    MRE (Kent & Tyler 1991; Ollila & Tyler 2014). The TRE and MRE master
    equations have the same conditions. `ValueError`, checked first, when n
    or p is below 1, and when ME or MRE has no u.
    """
    if n < 1 or p < 1:
        raise ValueError(f"n and p must be positive, got n={n}, p={p}")
    if kind in ("ME", "MRE") and u is None:
        raise ValueError(f"kind {kind} needs a u function")
    if kind in ("TE", "ME") and n <= p:
        raise ExistenceError(f"{_ESTIMATOR_NAMES[kind]} needs n > p (got n={n}, p={p})")
    if kind == "ME":
        if u.d0 is None:
            raise ExistenceError(f"u function {u.name!r} has no unique unit crossing of phi")
        if not u.phi_inf > 1.0:
            raise ExistenceError(
                f"u function {u.name!r} has phi_inf = {u.phi_inf:g} <= 1; "
                "the Maronna fixed point need not exist"
            )
    if kind == "TRE" and not alpha > max(0.0, p / n - 1.0):
        raise ExistenceError(
            f"TRE needs alpha > max(0, p/n - 1) = {max(0.0, p / n - 1.0):g}, got {alpha:g}"
        )
    if kind == "MRE" and not alpha > 0:
        raise ExistenceError(f"MRE needs alpha > 0, got {alpha:g}")


def tyler(data: Dataset, cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Tyler's M-estimator: the trace-p solution of
    Sigma = (1/n) sum_i x_i x_i^T / (p^{-1} x_i^T Sigma^{-1} x_i).

    Requires n > p and no zero sample (`_solve` checks both first);
    invariant to per-sample rescaling.
    """
    return _solve("TE", data, None, 0.0, cfg)


def maronna(data: Dataset, u: UFunction, cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Maronna's M-estimator with weight function u; `_solve` checks phi_inf > 1, n > p."""
    return _solve("ME", data, u, 0.0, cfg)


def tyler_regularized(data: Dataset, alpha: float,
                      cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Regularized Tyler estimator; `_solve` checks alpha > max(0, p/n - 1), no zero sample."""
    return _solve("TRE", data, None, alpha, cfg)


def maronna_regularized(data: Dataset, u: UFunction, alpha: float,
                        cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Regularized Maronna estimator; exists uniquely for any alpha > 0 (`_solve` checks)."""
    return _solve("MRE", data, u, alpha, cfg)


def fit(kind: str, data: Dataset, u: Optional[UFunction] = None, alpha: float = 0.0,
        cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Solve the estimator of `kind` (TE, ME, TRE or MRE) on `data`.

    `u` is read by ME and MRE, `alpha` by TRE and MRE; other kinds ignore them.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if kind == "TE":
        return tyler(data, cfg)
    if kind == "TRE":
        return tyler_regularized(data, alpha, cfg)
    if kind == "ME":
        return maronna(data, u, cfg)
    return maronna_regularized(data, u, alpha, cfg)


# ---------------------------------------------------------------------------
# the Maronna interference function
# ---------------------------------------------------------------------------

def interference_h(d: np.ndarray, data: Dataset, u: UFunction) -> np.ndarray:
    """h_j(d) = p^{-1} x_j^T ((1/n) sum_i u(d_i) x_i x_i^T)^{-1} x_j.

    The Maronna fixed point in d-space: d solves the estimator equation iff
    h(d) = d. This is the map the ME solver iterates (``_d_map``). Positive,
    componentwise monotone and scalable in d.
    """
    d = np.asarray(d, dtype=float)
    if d.shape != (data.n,):
        raise ValueError(f"d must have shape ({data.n},), got {d.shape}")
    if not np.all(d > 0):
        raise ValueError("d must be strictly positive componentwise")
    if data.n <= data.p:
        raise ValueError("interference function needs n > p")
    return _d_map("ME", data.samples, d, u.u, 0.0)[1]

