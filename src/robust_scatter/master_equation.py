"""Deterministic-equivalent weight prediction for the regularized estimators.

For a weight function u (phi(x) = x*u(x)) and regularization alpha > 0,

    Q(d) = p^{-1} E Tr Sigma_p (phi(d) S' + alpha d I)^{-1},
    F(d) = (1+alpha) Q(d) / (1 + gamma phi(d) Q(d)),        gamma = p/n,

where S' is the sample covariance of n-1 fresh draws, still normalized by
1/n (the leave-one-out convention: removing one sample keeps the divisor),
and Sigma_p is the population shape of the sampling spec (`spec.shape`, the
identity when None). The draws are `samplers.sample` of the spec itself,
x = mu + Y Sigma_p^{1/2}, so a mean enters S' as it enters any draw.
F is continuous and strictly decreasing, so the master equation F(d*) = 1
has a unique root; the limiting weights are u(d*) for MRE and 1/d* for TRE.

Q is estimated by Monte Carlo. One set of draws is built once and reused for
every d evaluated during root finding (common random numbers), which keeps
the empirical F continuous and exactly monotone in d, so scipy's `brentq`
finds its root to double precision on those draws. The Monte-Carlo error of
d* therefore comes from the draws alone. Each draw keeps the eigenvalues of
S'; only a general Sigma_p also needs its eigenvectors. Each draw is seeded
by its rep index.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class MasterEquationResult:
    """Root of the master equation with Monte-Carlo error bars.

    ``bracket`` is the sign-change bracket handed to `brentq` (F > 1 at the
    left endpoint, < 1 at the right, on the frozen draws); ``f_residual`` is
    |F(d_star) - 1| on the same draws. ``q_star`` is the Monte-Carlo Q at
    ``d_star`` and ``mc_stderr`` its standard error (of Q, not of d_star).
    ``predicted_weight`` is the limit weight u(d_star) (1/d_star for TRE).
    """

    d_star: float
    bracket: Tuple[float, float]
    f_residual: float
    mc_reps: int
    mc_stderr: float
    predicted_weight: float
    kind: str
    q_star: float


class QMonteCarlo:
    """Monte-Carlo estimator of Q with draws frozen at construction.

    Rep r draws n-1 rows with ``sample(spec, n - 1, p, derive_seed(seed, r))``,
    so the rows are x = mu + Y Sigma_p^{1/2}, exactly as every other draw of
    `spec`, forms S' = X^T X / n and keeps its eigenvalues. At identity shape
    (`spec.shape` None) nothing else is needed; for a general
    Sigma_p = `spec.shape` the rep eigendecomposes S' and also keeps
    diag(U^T Sigma_p U).
    Evaluating Q at any d is then O(p) per rep, and all d values share the
    same randomness, so `solve_master` roots one fixed, continuous F.
    """

    def __init__(self, spec: DistributionSpec, n: int, p: int, reps: int, seed: int):
        if reps < 1:
            raise ValueError("reps must be at least 1")
        self.n = int(n)
        self.p = int(p)
        self.reps = int(reps)
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
        num = 1.0 if self._coef is None else self._coef
        per_rep = np.mean(num / (phi_d * self._lam + alpha_d), axis=1)
        mean = float(per_rep.mean())
        if self.reps == 1:
            return mean, 0.0
        return mean, float(per_rep.std(ddof=1) / math.sqrt(self.reps))


def _f_from_q(q: float, phi_d: float, alpha: float, gamma: float) -> float:
    return (1.0 + alpha) * q / (1.0 + gamma * phi_d * q)


def solve_master(spec: DistributionSpec, n: int, p: int, alpha: float,
                 u: Optional[UFunction] = None, reps: int = 200,
                 seed: int = 0) -> MasterEquationResult:
    """Solve F(d*) = 1 with `brentq` on the Monte-Carlo estimate of F
    (common random numbers across all d), after growing the bracket
    [0.5, 2] by factors of 2 until F - 1 changes sign on it. Sigma_p is
    `spec.shape` (the identity when None).

    `u` = None selects the TRE case (phi == 1, weights 1/d*), otherwise the
    MRE case with weights u(d*). Each has its estimator's existence
    condition on alpha (`estimators.require_existence`).
    """
    if n < 1 or p < 1:
        raise ValueError(f"n and p must be positive, got n={n}, p={p}")
    from scipy.optimize import brentq  # first use only, as in `simplex`

    kind = "TRE" if u is None else "MRE"
    require_existence(kind, n, p, u, alpha)
    ufun = tyler_u() if u is None else u
    gamma = p / n
    mc = QMonteCarlo(spec, n, p, reps, seed)

    def f_and_q(d: float) -> Tuple[float, float, float]:
        phi_d = float(ufun.phi(np.asarray(d, dtype=float)))
        q, se = mc.q(phi_d, alpha * d)
        return _f_from_q(q, phi_d, alpha, gamma), q, se

    def excess(d: float) -> float:
        return f_and_q(d)[0] - 1.0

    # F is decreasing, so at most one end of the bracket has to move
    lo, hi = 0.5, 2.0
    g_lo, g_hi = excess(lo), excess(hi)
    for _ in range(60):
        if g_lo <= 0.0:
            lo /= 2.0
            g_lo = excess(lo)
        elif g_hi >= 0.0:
            hi *= 2.0
            g_hi = excess(hi)
        else:
            break
    if not g_lo > 0.0:
        raise ConvergenceError(
            "no lower bracket for the master equation within 60 halvings; "
            "F never rises above 1 at this Monte-Carlo accuracy"
        )
    if not g_hi < 0.0:
        raise ConvergenceError(
            "no upper bracket for the master equation within 60 doublings; "
            "F never falls below 1 at this Monte-Carlo accuracy"
        )

    d_star = brentq(excess, lo, hi)
    f_star, q_star, se_star = f_and_q(d_star)
    return MasterEquationResult(
        d_star=float(d_star),
        bracket=(lo, hi),
        f_residual=abs(f_star - 1.0),
        mc_reps=reps,
        mc_stderr=se_star,
        predicted_weight=float(ufun.u(np.asarray(d_star, dtype=float))),
        kind=kind,
        q_star=q_star,
    )
