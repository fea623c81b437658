"""Deterministic-equivalent weight prediction for the regularized estimators.

For a weight function u (phi(x) = x*u(x)) and regularization alpha > 0,

    Q(d) = p^{-1} E Tr Sigma_p (phi(d) S' + alpha d I)^{-1},
    F(d) = (1+alpha) Q(d) / (1 + gamma phi(d) Q(d)),        gamma = p/n,

where S' is the sample covariance of n-1 fresh draws, still normalized by
1/n (the leave-one-out convention: removing one sample keeps the divisor).
F is continuous and strictly decreasing, so the master equation F(d*) = 1
has a unique root; the limiting weights are u(d*) for MRE and 1/d* for TRE.

Q is estimated by Monte Carlo. One set of draws is built once and reused for
every d evaluated during root finding (common random numbers), which keeps
the empirical F exactly monotone in d and makes bisection well-posed at
moderate rep counts. Each draw keeps the eigenvalues of S'; only a general
Sigma_p also needs its eigenvectors. The draws are built in the worker map
(`parallel.map_units`) on one worker pinned to one BLAS thread, and each is
seeded by its rep index, so the estimate does not depend on the BLAS thread
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError, ExistenceError
from .estimators import UFunction, tyler_u
from .model import Dataset, ScatterMatrix, leave_one_out_covariance
from .parallel import map_units
from .samplers import DistributionSpec, derive_seed, sample, spd_sqrt

__all__ = [
    "MasterEquationResult",
    "q_hat",
    "f_hat",
    "q_mc",
    "solve_master",
    "predicted_weight",
    "QMonteCarlo",
]


@dataclass(frozen=True)
class MasterEquationResult:
    """Root of the master equation with Monte-Carlo error bars.

    ``bracket`` is the final bisection bracket (F > 1 on the left endpoint,
    < 1 on the right, at the Monte-Carlo estimates); ``q_star`` is the
    Monte-Carlo Q at ``d_star`` and ``mc_stderr`` its standard error.
    """

    d_star: float
    bracket: Tuple[float, float]
    f_residual: float
    mc_reps: int
    mc_stderr: float
    predicted_weight: float
    kind: str
    q_star: float


def q_hat(d: float, data: Dataset, i: int, u: UFunction, alpha: float) -> float:
    """Leave-one-out plug-in Q̂_i(d) = p^{-1} x_i^T (phi(d) S_{-i} + alpha*d*I)^{-1} x_i.

    Pass ``tyler_u()`` as `u` for the TRE case phi == 1.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    p = data.p
    s_minus = leave_one_out_covariance(data, i).entries
    phi_d = float(u.phi(np.asarray(d, dtype=float)))
    m = phi_d * s_minus + alpha * d * np.eye(p)
    xi = data.row(i)
    try:
        z = np.linalg.solve(m, xi)
    except np.linalg.LinAlgError as exc:  # impossible for d, alpha > 0; guard anyway
        raise np.linalg.LinAlgError("regularized leave-one-out matrix is singular") from exc
    return float(xi @ z) / p


def f_hat(d: float, data: Dataset, i: int, u: UFunction, alpha: float) -> float:
    """F̂_i(d) = (1+alpha) Q̂_i(d) / (1 + gamma phi(d) Q̂_i(d))."""
    qi = q_hat(d, data, i, u, alpha)
    gamma = data.p / data.n
    phi_d = float(u.phi(np.asarray(d, dtype=float)))
    return (1.0 + alpha) * qi / (1.0 + gamma * phi_d * qi)


class QMonteCarlo:
    """Monte-Carlo estimator of Q with draws frozen at construction.

    Per rep: draw n-1 rows, form S' = X^T X / n and keep its eigenvalues.
    At identity shape (`shape` None) nothing else is needed; for a general
    Sigma_p the rep eigendecomposes S' and also keeps diag(U^T Sigma_p U).
    Evaluating Q at any d is then O(p) per rep, and all d values share the
    same randomness. The reps are built by `map_units` on one worker at one
    BLAS thread; rep r is seeded by ``derive_seed(seed, r)``.
    """

    def __init__(self, spec: DistributionSpec, shape: Optional[ScatterMatrix],
                 n: int, p: int, reps: int, seed: int):
        if reps < 1:
            raise ValueError("reps must be at least 1")
        if spec.shape is not None:
            raise ValueError("pass the shape matrix separately, with a shape-free spec")
        if shape is not None and shape.p != p:
            raise ValueError(f"shape is {shape.p}x{shape.p}, expected p={p}")
        self.n = int(n)
        self.p = int(p)
        self.reps = int(reps)
        root = None if shape is None else spd_sqrt(shape)

        def draw(r: int):
            x = sample(spec, n - 1, p, derive_seed(seed, r)).samples
            if root is None:
                return np.linalg.eigvalsh(x.T @ x / n), None
            x = x @ root
            w, vec = np.linalg.eigh(x.T @ x / n)
            return w, np.einsum("ij,ij->j", vec, shape.entries @ vec)

        lam, coef = zip(*map_units(draw, range(reps), 1))
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


def q_mc(d: float, spec: DistributionSpec, shape: Optional[ScatterMatrix],
         n: int, p: int, alpha: float, u: UFunction,
         reps: int, seed: int) -> Tuple[float, float]:
    """Monte-Carlo mean and standard error of Q(d) over `reps` fresh draws."""
    if d <= 0:
        raise ValueError("d must be positive")
    mc = QMonteCarlo(spec, shape, n, p, reps, seed)
    phi_d = float(u.phi(np.asarray(d, dtype=float)))
    return mc.q(phi_d, alpha * d)


def _f_from_q(q: float, phi_d: float, alpha: float, gamma: float) -> float:
    return (1.0 + alpha) * q / (1.0 + gamma * phi_d * q)


def solve_master(spec: DistributionSpec, shape: Optional[ScatterMatrix],
                 n: int, p: int, alpha: float, u: Optional[UFunction] = None,
                 reps: int = 200, seed: int = 0,
                 tol_root: float = 1e-3) -> MasterEquationResult:
    """Solve F(d*) = 1 by bracket expansion plus bisection on the
    Monte-Carlo estimate of F (common random numbers across all d).

    `u` = None selects the TRE case (phi == 1, weights 1/d*), which requires
    alpha > max(0, p/n - 1); otherwise the MRE case with weights u(d*).
    """
    gamma = p / n
    if alpha <= 0:
        raise ExistenceError(f"alpha must be positive, got {alpha:g}")
    if u is None:
        if alpha <= max(0.0, gamma - 1.0):
            raise ExistenceError(
                f"TRE master equation needs alpha > max(0, gamma-1) = "
                f"{max(0.0, gamma - 1.0):g}, got {alpha:g}"
            )
        ufun = tyler_u()
        kind = "TRE"
    else:
        ufun = u
        kind = "MRE"

    mc = QMonteCarlo(spec, shape, n, p, reps, seed)

    def f_and_q(d: float) -> Tuple[float, float, float]:
        phi_d = float(ufun.phi(np.asarray(d, dtype=float)))
        q, se = mc.q(phi_d, alpha * d)
        return _f_from_q(q, phi_d, alpha, gamma), q, se

    lo, hi = 0.5, 2.0
    f_lo, _, _ = f_and_q(lo)
    doublings = 0
    while f_lo <= 1.0:
        lo /= 2.0
        doublings += 1
        if doublings > 60:
            raise ConvergenceError(
                "no lower bracket for the master equation within 60 halvings; "
                "F never rises above 1 at this Monte-Carlo accuracy"
            )
        f_lo, _, _ = f_and_q(lo)
    f_hi, _, _ = f_and_q(hi)
    doublings = 0
    while f_hi >= 1.0:
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise ConvergenceError(
                "no upper bracket for the master equation within 60 doublings; "
                "F never falls below 1 at this Monte-Carlo accuracy"
            )
        f_hi, _, _ = f_and_q(hi)

    # bisection: F is exactly decreasing on the frozen draws
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid, q_mid, se_mid = f_and_q(mid)
        if abs(f_mid - 1.0) <= tol_root or (hi - lo) <= tol_root * mid:
            break
        if f_mid > 1.0:
            lo = mid
        else:
            hi = mid
    else:  # pragma: no cover - 200 halvings always reach the width condition
        raise ConvergenceError("master-equation bisection failed to terminate")

    return MasterEquationResult(
        d_star=float(mid),
        bracket=(float(lo), float(hi)),
        f_residual=float(abs(f_mid - 1.0)),
        mc_reps=reps,
        mc_stderr=se_mid,
        predicted_weight=float(ufun.u(np.asarray(mid, dtype=float))),
        kind=kind,
        q_star=q_mid,
    )


def predicted_weight(kind: str, u: Optional[UFunction] = None,
                     d_star: Optional[float] = None,
                     tau_p: Optional[float] = None) -> float:
    """Limiting weight for each estimator kind.

    TE: 1/tau_p;  ME: 1/phi^{-1}(1);  MRE: u(d*);  TRE: 1/d*, the MRE rule
    with u = ``tyler_u()``.
    """
    kind = kind.upper()
    if kind == "TE":
        if tau_p is None:
            raise ValueError("TE prediction needs tau_p = p^{-1} Tr Sigma_p")
        return 1.0 / tau_p
    if kind == "ME":
        if u is None or u.d0 is None:
            raise ValueError("ME prediction needs a u function with a unit crossing d0")
        return 1.0 / u.d0
    if kind in ("TRE", "MRE"):
        u = tyler_u() if kind == "TRE" else u
        if u is None or d_star is None:
            raise ValueError(f"{kind} prediction needs d_star (and u for MRE)")
        return float(u.u(np.asarray(d_star, dtype=float)))
    raise ValueError(f"unknown estimator kind {kind!r}")
