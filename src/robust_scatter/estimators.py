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
The solver iterates y = log d from the forms at the identity, mixing each
step over the last few map values by Anderson acceleration (Walker & Ni,
SIAM J. Numer. Anal. 2011). A mixed step that raises the RMS log-residual
is replaced by the plain step from the last accepted point, and the
history is cleared. Zero samples (legal for ME/MRE) keep d = 0 outside the
mixing. Once the RMS log-residual is below the tolerance, the relative
defining-equation residual is computed at Sigma(d), and ``converged``
means it is below the tolerance too. ``iterations`` counts map
evaluations. Non-convergence is reported through the ``converged`` flag;
``ScatterEstimate.require_converged`` turns it into the one
``ConvergenceError`` for callers that need a converged estimate.
``require_existence`` holds every kind's existence conditions, for the
solvers and for the experiment and the master equation that predict their
weights. ``interference_h`` exposes the ME map itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg import blas, lapack

from .errors import ConvergenceError, ExistenceError
from .model import Dataset, ScatterMatrix

__all__ = [
    "KINDS",
    "UFunction",
    "rational_u",
    "huber_u",
    "tyler_u",
    "make_ufunction",
    "resolve_u",
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
    """Wrap a user weight function: derive phi, estimate phi_inf and locate
    the unit crossing d0 = phi^{-1}(1) with `brentq` on [1e-12, 1e3], the
    upper end doubled until phi reaches 1 there."""
    from scipy.optimize import brentq  # first use only, as in `simplex`

    def phi(x):
        x = np.asarray(x, dtype=float)
        return x * np.asarray(u(x), dtype=float)

    # phi is non-decreasing and bounded; probe far out for its supremum
    phi_inf = float(phi(np.asarray(1e12)))

    lo, hi = 1e-12, 1e3
    expansions = 0
    while phi(np.asarray(hi)) < 1.0 and expansions < 200:
        hi *= 2.0
        expansions += 1
    d0 = None
    if float(phi(np.asarray(lo))) < 1.0 <= float(phi(np.asarray(hi))):
        d0 = brentq(lambda x: float(phi(np.asarray(x))) - 1.0, lo, hi)
    return UFunction(name=name, u=u, phi=phi, phi_inf=phi_inf, d0=d0)


def resolve_u(name: str) -> UFunction:
    """Look up a weight function by CLI-style name: 'rational', 'huber'
    (t = 2) or 'huber:t'."""
    if name == "rational":
        return rational_u()
    base, sep, arg = name.partition(":")
    if base != "huber":
        raise ValueError(f"unknown u function {name!r}; available: rational, huber:t")
    return huber_u(float(arg)) if sep else huber_u()


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


def quad_forms(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """d_i = p^{-1} x_i^T sigma^{-1} x_i for every row of x.

    One LAPACK Cholesky sigma = L L^T (``np.linalg.LinAlgError`` when sigma
    is not positive definite), then d_i = |L^{-1} x_i|^2 / p. With at least
    p rows, L is inverted once and applied to x^T by a triangular product;
    with fewer rows (the one-row leave-one-out forms of
    `experiment.quadratic_form_diagnostics`) one triangular solve is
    cheaper. x^T of a C-ordered x is already in the Fortran order both
    kernels take, so no transposed copy of x is made.
    """
    n, p = x.shape
    chol, info = lapack.dpotrf(sigma, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"sigma is not positive definite (leading minor {info})")
    if n >= p:
        inv, _ = lapack.dtrtri(chol, lower=1, overwrite_c=1)
        z = blas.dtrmm(1.0, inv, x.T, lower=1)
    else:
        z = blas.dtrsm(1.0, chol, x.T, lower=1)
    return np.einsum("ij,ij->j", z, z) / p


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
    raw = _weighted_cov(x, w)
    if kind in ("MRE", "TRE"):
        p = x.shape[1]
        return raw / (1.0 + alpha) + (alpha / (1.0 + alpha)) * np.eye(p)
    return raw


def _d_map(kind: str, x: np.ndarray, d: np.ndarray, weigh: Callable,
           alpha: float) -> Tuple[np.ndarray, np.ndarray]:
    """One step of the fixed-point map in d-space.

    Returns Sigma(d), the right side of the defining equation at weights
    u(d) (rescaled to trace p for TE), and the quadratic forms at it. d
    solves the estimator equation iff the forms equal d.
    """
    sigma = _defining_rhs(kind, x, np.asarray(weigh(d), dtype=float), alpha)
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
    cfg = cfg or SolverConfig()
    weigh = (tyler_u() if kind in ("TE", "TRE") else u).u
    x = np.ascontiguousarray(data.samples)
    n, p = x.shape

    d0 = quad_forms(x, np.eye(p))
    live = d0 > 0  # zero samples (legal for ME/MRE) keep d = 0 outside the mixing

    evals = 0

    def step(y: np.ndarray) -> _Point:
        nonlocal evals
        evals += 1
        d = np.zeros(n)
        d[live] = np.exp(y)
        sigma, forms = _d_map(kind, x, d, weigh, alpha)
        g = np.log(forms[live])
        return _Point(y, sigma, forms, g, np.linalg.norm(g - y) / math.sqrt(max(g.size, 1)))

    def defining_residual(pt: _Point) -> float:
        rhs = _defining_rhs(kind, x, np.asarray(weigh(pt.forms), dtype=float), alpha)
        return _relfrob(pt.sigma - rhs, pt.sigma)

    converged = False
    try:
        pt = step(np.log(d0[live]))
        df: list = []  # Anderson history: differences of the residuals g - y
        dg: list = []  # and of the map values g between accepted points
        while True:
            if pt.rms <= cfg.tol:
                residual = defining_residual(pt)
                if residual <= cfg.tol:
                    converged = True
                    break
            if evals >= cfg.max_iter:
                break
            if df:
                gamma = np.linalg.lstsq(np.column_stack(df), pt.g - pt.y, rcond=None)[0]
                nxt = step(pt.g - np.column_stack(dg) @ gamma)
                if not nxt.rms <= pt.rms:  # mixing did not help: plain step from pt
                    df.clear()
                    dg.clear()
                    if evals >= cfg.max_iter:
                        break
                    nxt = step(pt.g)
            else:
                nxt = step(pt.g)
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
    equations have the same conditions. `ValueError` when ME or MRE has no u.
    """
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

    Requires n > p and no zero sample; invariant to per-sample rescaling.
    """
    require_existence("TE", data.n, data.p)
    _check_rows(data.samples)
    return _solve("TE", data, None, 0.0, cfg)


def maronna(data: Dataset, u: UFunction, cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Maronna's M-estimator with weight function u (needs phi_inf > 1, n > p)."""
    require_existence("ME", data.n, data.p, u)
    return _solve("ME", data, u, 0.0, cfg)


def tyler_regularized(data: Dataset, alpha: float,
                      cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Regularized Tyler estimator; needs alpha > max(0, p/n - 1) and no zero sample."""
    require_existence("TRE", data.n, data.p, alpha=alpha)
    _check_rows(data.samples)
    return _solve("TRE", data, None, alpha, cfg)


def maronna_regularized(data: Dataset, u: UFunction, alpha: float,
                        cfg: Optional[SolverConfig] = None) -> ScatterEstimate:
    """Regularized Maronna estimator; exists uniquely for any alpha > 0."""
    require_existence("MRE", data.n, data.p, u, alpha)
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

