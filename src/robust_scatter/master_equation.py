"""Deterministic-equivalent weight prediction for the regularized estimators.

For a weight function u (phi(x) = x*u(x)) and regularization alpha > 0,

    Q(d) = p^{-1} E Tr Sigma_p (phi(d) S' + alpha d I)^{-1},
    F(d) = (1+alpha) Q(d) / (1 + gamma phi(d) Q(d)),        gamma = p/n,

where S' is the sample covariance of n-1 fresh draws, still normalized by
1/n (the leave-one-out convention: removing one sample keeps the divisor),
and Sigma_p is the population shape of the sampling spec (`spec.shape`, the
identity when None). The draws follow `samplers.sample` of the spec itself,
x = mu + Y Sigma_p^{1/2}, so a mean enters S' as it enters any draw.
When the spec draws standard Gaussian rows (`DistributionSpec.standard_gaussian`),
X^T X is Wishart W_p(n-1, I), and each draw is the tridiagonal T = B^T B / n
of the bidiagonal model of Dumitriu & Edelman (Matrix models for beta
ensembles, J. Math. Phys. 43, 2002): the same law at a fraction of the cost.
Q on such a draw is the trace of the inverse of a shifted tridiagonal, read
from its LDL^T pivots and their derivatives in the shift (Meurant, A review
on the inverse of symmetric tridiagonal and block tridiagonal matrices, SIAM
J. Matrix Anal. Appl. 13, 1992), with no eigenvalues. Every other spec draws
its n-1 rows with `sample`.
F is continuous and strictly decreasing, so the master equation F(d*) = 1
has a unique root; the limiting weights are u(d*) for MRE and 1/d* for TRE.

Q is estimated by Monte Carlo. One set of draws is built once and reused for
every d evaluated during root finding (common random numbers), which keeps
the empirical F continuous and monotone in d up to rounding, so one call of
scipy's `brentq` in log d, over the whole search range, finds its root to
double precision on those draws. The Monte-Carlo error of d* therefore comes
from the draws alone, and the search sweeps each point it evaluates once. A
Gaussian draw keeps T; every other draw keeps the eigenvalues of S', and
only a general Sigma_p also needs its eigenvectors. The Gaussian draws of
one build come from one random stream, draw after draw, so the first R
draws do not depend on how many are built; every other draw is seeded by
its rep index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .estimators import UFunction, require_existence, tyler_u
from .samplers import DistributionSpec, derive_seed, sample

__all__ = [
    "MasterEquationResult",
    "solve_master",
    "QMonteCarlo",
]

MC_REPS = 200  # Monte-Carlo draws of Q when the caller names no count


@dataclass(frozen=True)
class MasterEquationResult:
    """Root of the master equation with Monte-Carlo error bars.

    ``f_residual`` is |F(d_star) - 1| on the frozen draws. ``q_star`` is
    the Monte-Carlo Q at ``d_star`` and ``mc_stderr`` its standard error
    (of Q, not of d_star).
    ``predicted_weight`` is the limit weight u(d_star) (1/d_star for TRE).
    """

    d_star: float
    f_residual: float
    mc_reps: int
    mc_stderr: float
    predicted_weight: float
    kind: str
    q_star: float


class QMonteCarlo:
    """Monte-Carlo estimator of Q with draws frozen at construction.

    Rep r stands for n-1 rows (so n >= 2). `spec.require_dims(n - 1, p)`
    runs once, before any draw, and `derive_seed` checks the seed before the
    first. When `spec.standard_gaussian`, rep r is the k x k tridiagonal
    T = B^T B / n of the bidiagonal Wishart model (k = min(n - 1, p)) and
    makes no rows; S' has the eigenvalues of T and p - k zeros. One
    `_wishart_tridiagonal` call draws every rep from one Generator seeded by
    ``derive_seed(seed)``, rep r from row r of a single rep-major `chisquare`
    call, so a build of R reps is the first R reps of any larger build. The
    reps' diagonals and squared off-diagonals are kept as the columns of two
    (k, reps) arrays, and Q sweeps their LDL^T pivots across all reps at
    once: O(k) Python steps per evaluation. Otherwise
    the rep draws ``sample(spec, n - 1, p, derive_seed(seed, r))``, the rows
    x = mu + Y Sigma_p^{1/2} of every other draw of `spec`, and keeps the
    eigenvalues of S' = X^T X / n; for a general Sigma_p = `spec.shape` it
    eigendecomposes S' and also keeps diag(U^T Sigma_p U), and Q is O(p) per
    rep. All d values share the same randomness, so `solve_master` roots
    one fixed, continuous F.
    """

    def __init__(self, spec: DistributionSpec, n: int, p: int, reps: int, seed: int):
        if reps < 1:
            raise ValueError("reps must be at least 1")
        if n < 2:
            raise ValueError(f"the master equation draws n - 1 rows and needs n >= 2, got n={n}")
        spec.require_dims(n - 1, p)
        self.reps, self.p = int(reps), p
        self._lam = self._coef = self._diag = self._off2 = None
        if spec.standard_gaussian:
            rng = np.random.default_rng(derive_seed(seed))
            self._diag, self._off2 = _wishart_tridiagonal(n - 1, p, reps, rng)
            self._diag /= n
            self._off2 /= n * n
            return
        shape = spec.shape

        def draw(r: int):
            x = sample(spec, n - 1, p, derive_seed(seed, r)).samples
            if shape is None:
                return np.linalg.eigvalsh(x.T @ x / n), None
            w, vec = np.linalg.eigh(x.T @ x / n)
            return w, np.einsum("ij,ij->j", vec, shape.entries @ vec)

        lam, coef = zip(*[draw(r) for r in range(reps)])
        self._lam = np.array(lam)
        self._coef = None if shape is None else np.array(coef)

    def q(self, phi_d: float, alpha_d: float) -> Tuple[float, float]:
        """Mean and standard error of p^{-1} Tr Sigma_p (phi_d S' + alpha_d I)^{-1}."""
        if self._diag is None:
            num = 1.0 if self._coef is None else self._coef
            per_rep = np.mean(num / (phi_d * self._lam + alpha_d), axis=1)
        else:
            k = self._diag.shape[0]
            per_rep = (_tridiagonal_inverse_trace(phi_d, alpha_d, self._diag, self._off2)
                       + (self.p - k) / alpha_d) / self.p
        mean = float(per_rep.mean())
        if self.reps == 1:
            return mean, 0.0
        return mean, float(per_rep.std(ddof=1) / math.sqrt(self.reps))


def _tridiagonal_inverse_trace(phi: float, shift: float, diag: np.ndarray,
                               off2: np.ndarray) -> np.ndarray:
    """Tr (phi T + shift I)^{-1} for each column's symmetric tridiagonal T,
    given by its diagonal (rows of `diag`) and squared off-diagonal (rows
    0..k-2 of `off2`), for phi >= 0 and shift > 0.

    The matrix A = phi T + shift I has diagonal a_i and squared off-diagonal
    e_i^2. Its LDL^T pivots are f_1 = a_1, f_i = a_i - e_{i-1}^2 / f_{i-1},
    and log det A = sum_i log f_i, so Tr A^{-1} = d/d(shift) log det A
    = sum_i f'_i / f_i, with f'_1 = 1, f'_i = 1 + (e_{i-1}^2 / f_{i-1}^2) f'_{i-1}.
    A is positive definite, so every pivot and every term is positive and
    nothing cancels. The loop keeps g_i = f'_i / f_i, so that
    g_i = (1 + t_i g_{i-1}) / f_i with t_i = e_{i-1}^2 / f_{i-1}.
    """
    a = phi * diag + shift
    e2 = (phi * phi) * off2
    f = a[0]
    g = 1.0 / f
    total = g.copy()
    for i in range(1, a.shape[0]):
        t = e2[i - 1] / f
        f = a[i] - t
        g = (1.0 + t * g) / f
        total += g
    return total


def _wishart_tridiagonal(m: int, p: int, reps: int,
                         rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonals and squared off-diagonals, as the columns of two (k, reps)
    arrays, of `reps` independent k x k tridiagonals B^T B whose eigenvalues
    are, in law, the nonzero eigenvalues of X^T X for an m x p matrix X of
    i.i.d. standard normals (Dumitriu & Edelman 2002), from 2 k - 1 chi
    draws each; k = min(m, p), and X^T X has p - k more zeros.

    With K = max(m, p), the upper bidiagonal k x k matrix B has diagonal
    a_i ~ chi_{K-i+1} and superdiagonal b_i ~ chi_{k-i}, all independent
    (drawn as a_i^2, then b_i^2). B^T B has diagonal a_i^2 + b_{i-1}^2 and
    off-diagonal a_i b_i, returned squared: a_i^2 b_i^2, with row k - 1 left
    0 (the sweep reads rows 0..k-2). All reps come from one `chisquare` call
    on `rng`, rep-major: rep r is row r of a (reps, 2 k - 1) draw, its a^2
    then its b^2, so the first R reps do not depend on `reps`.
    """
    k, big = min(m, p), max(m, p)
    dof = np.concatenate([np.arange(big, big - k, -1.0), np.arange(k - 1, 0, -1.0)])
    draws = rng.chisquare(np.broadcast_to(dof, (reps, 2 * k - 1))).T
    a2, b2 = draws[:k], draws[k:]
    diag = a2.copy()
    diag[1:] += b2
    off2 = np.zeros((k, reps))
    off2[:-1] = a2[:-1] * b2
    return diag, off2


def solve_master(spec: DistributionSpec, n: int, p: int, alpha: float,
                 u: Optional[UFunction] = None, reps: int = MC_REPS,
                 seed: int = 0) -> MasterEquationResult:
    """Solve F(d*) = 1 with one `brentq` in t = log d on the Monte-Carlo
    estimate of F (common random numbers across all d), over
    d in [0.5 * 2^-60, 2 * 2^60]. `ConvergenceError` unless F - 1 is > 0 at
    the low end and < 0 at the high end. Sigma_p is `spec.shape` (the
    identity when None). F, Q and its standard error are kept per t
    evaluated, so `brentq`'s own evaluations of the two ends and the result
    at its root (a point it evaluated) run no second Q sweep.

    `u` = None selects the TRE case (phi == 1, weights 1/d*), otherwise the
    MRE case with weights u(d*). Each has its estimator's existence
    condition on alpha, and n, p >= 1 (`estimators.require_existence`);
    the draws then need n >= 2 (`QMonteCarlo`), checked before any draw.
    """
    from scipy.optimize import brentq  # first use only, as in `simplex`

    kind = "TRE" if u is None else "MRE"
    require_existence(kind, n, p, u, alpha)
    ufun = tyler_u() if u is None else u
    gamma = p / n
    mc = QMonteCarlo(spec, n, p, reps, seed)

    @functools.cache  # brentq re-evaluates both ends and returns a point it evaluated
    def f_and_q(t: float) -> Tuple[float, float, float]:
        d = math.exp(t)
        phi_d = float(ufun.phi(np.asarray(d, dtype=float)))
        q, se = mc.q(phi_d, alpha * d)
        return (1.0 + alpha) * q / (1.0 + gamma * phi_d * q), q, se

    def excess(t: float) -> float:
        return f_and_q(t)[0] - 1.0

    # F is decreasing, so a sign change across the whole range brackets the root
    lo, hi = math.log(0.5 * 2.0 ** -60), math.log(2.0 * 2.0 ** 60)
    if not excess(lo) > 0.0:
        raise ConvergenceError(
            "no lower bracket for the master equation down to d = 0.5 * 2^-60; "
            "F never rises above 1 at this Monte-Carlo accuracy"
        )
    if not excess(hi) < 0.0:
        raise ConvergenceError(
            "no upper bracket for the master equation up to d = 2 * 2^60; "
            "F never falls below 1 at this Monte-Carlo accuracy"
        )

    # t is near 0 at the root, so brentq's default absolute xtol (2e-12)
    # would stop about 1e-12 short of d* in relative terms
    t_star = brentq(excess, lo, hi, xtol=1e-15)
    d_star = math.exp(t_star)
    f_star, q_star, se_star = f_and_q(t_star)
    return MasterEquationResult(
        d_star=d_star,
        f_residual=abs(f_star - 1.0),
        mc_reps=reps,
        mc_stderr=se_star,
        predicted_weight=float(ufun.u(np.asarray(d_star, dtype=float))),
        kind=kind,
        q_star=q_star,
    )
