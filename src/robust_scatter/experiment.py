"""Weight-concentration experiments and spectral diagnostics.

The main entry point re-runs the deviation-vs-dimension experiment: for a
grid of dimensions p (with n = ratio * p samples), draw seeded replicates,
solve the chosen estimator, measure how far the weights sit from their
predicted limit, and fit the log-log decay slope of the mean deviations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .estimators import KINDS, SolverConfig, UFunction, fit, quad_forms, require_existence
from .master_equation import MasterEquationResult, solve_master
from .model import Dataset, sample_covariance
from .parallel import map_units
from .samplers import DistributionSpec, derive_seed, sample

__all__ = [
    "ExperimentConfig",
    "DimResult",
    "ExperimentReport",
    "weight_deviation_experiment",
    "fit_loglog_slope",
    "weight_deviations",
    "QuadraticFormReport",
    "quadratic_form_diagnostics",
    "stieltjes_diag",
    "eigen_bounds_diag",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for the weight-deviation experiment.

    The sampling spec must be shape-free; the experiment runs at identity
    population shape, which keeps tau_p = 1 so every kind has a well-defined
    limit weight (an ME u must cross phi = 1, at d0, for its limit 1/d0).
    Construction checks `require_existence` at every grid dimension, so a
    grid on which the estimator does not exist fails before any solve.
    `solver` configures every replicate's solve. `mc_reps` sets the
    Monte-Carlo draws of the master-equation solve that predicts the TRE/MRE
    limits (one solve per dimension).
    """

    kind: str
    dist: DistributionSpec
    dims: Tuple[int, ...]
    ratio: int = 2
    reps: int = 50
    base_seed: int = 0
    u: Optional[UFunction] = None
    alpha: float = 0.0
    solver: SolverConfig = SolverConfig()
    mc_reps: int = 200
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1 or any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dims must be a non-empty strictly increasing sequence")
        object.__setattr__(self, "dims", dims)
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.ratio < 1:
            raise ValueError("ratio must be at least 1")
        if self.threads < 1:
            raise ValueError("threads must be at least 1")
        for p in dims:
            require_existence(self.kind, self.ratio * p, p, self.u, self.alpha)
        if self.dist.shape is not None:
            raise ValueError("experiment spec must be shape-free (identity population shape)")


@dataclass(frozen=True)
class DimResult:
    """Deviation statistics at one dimension; the iteration fields count the
    solver's map evaluations over the converged replicates. ``mc_stderr`` is
    the Monte-Carlo standard error of Q at the master-equation root (None
    for TE and ME, whose limits are closed-form) and ``master_eq_s`` the wall
    seconds spent on the limit weight."""

    p: int
    n: int
    w_star: float
    linf_mean: float
    linf_stderr: float
    rmse_mean: float
    rmse_stderr: float
    failures: int
    iterations_mean: float
    iterations_max: int
    mc_stderr: Optional[float]
    master_eq_s: float = field(compare=False)  # a timing, not part of the result


@dataclass(frozen=True)
class ExperimentReport:
    """Per-dimension deviation statistics plus fitted log-log decay slopes:
    the `simulate` sidecar's keys, in order (``wall_time`` is written as
    ``experiment_wall_time_s``). The six fit fields are None without a slope:
    one dimension, or a mean deviation of 0 (every weight exactly at w*).
    ``predicted_weight`` is w* at the largest dimension; each row has its own.
    """

    slope_linf: Optional[float]
    intercept_linf: Optional[float]
    r2_linf: Optional[float]
    slope_rmse: Optional[float]
    intercept_rmse: Optional[float]
    r2_rmse: Optional[float]
    predicted_weight: float
    rows: Tuple[DimResult, ...]
    wall_time: float


def weight_deviations(weights: np.ndarray, w_star: float) -> Tuple[float, float]:
    """(max_i |w_i - w*|, sqrt(mean (w_i - w*)^2)) for one weight vector."""
    dev = np.abs(np.asarray(weights, dtype=float) - w_star)
    return float(dev.max()), float(np.sqrt(np.mean(dev * dev)))


def _limit_weight(cfg: ExperimentConfig, dim_index: int, p: int,
                  n: int) -> Tuple[float, Optional[MasterEquationResult]]:
    """(w*, the master-equation solve behind it) at one dimension: TE 1/tau_p
    = 1 at the identity shape the config enforces, ME 1/d0 (both closed-form,
    no solve), TRE and MRE u(d*) from the master equation."""
    if cfg.kind == "TE":
        return 1.0, None
    if cfg.kind == "ME":
        return 1.0 / cfg.u.d0, None
    master = solve_master(cfg.dist, n, p, cfg.alpha, u=cfg.u if cfg.kind == "MRE" else None,
                          reps=cfg.mc_reps, seed=derive_seed(cfg.base_seed, dim_index, cfg.reps))
    return master.predicted_weight, master


def _replicate(cfg: ExperimentConfig, dim_index: int, p: int, n: int, rep: int,
               w_star: float):
    """(linf, rmse, map evaluations) for one seeded replicate, or None when
    the solve fails."""
    seed = derive_seed(cfg.base_seed, dim_index, rep)
    data = sample(cfg.dist, n, p, seed)
    est = fit(cfg.kind, data, cfg.u, cfg.alpha, cfg.solver)
    if not est.converged:
        return None
    return (*weight_deviations(est.weights, w_star), est.iterations)


def weight_deviation_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full deviation experiment described by `cfg`.

    Replicates failing to converge are excluded and counted; more than 10%
    failures at any dimension aborts. Fully deterministic given `cfg`
    (replicate seeds depend only on (base_seed, dim index, rep index), so
    the thread count cannot change the numbers).
    """
    t0 = time.perf_counter()
    rows = []
    for k, p in enumerate(cfg.dims):
        n = cfg.ratio * p
        t_master = time.perf_counter()
        w_star, master = _limit_weight(cfg, k, p, n)
        master_eq_s = time.perf_counter() - t_master
        results = map_units(lambda rep: _replicate(cfg, k, p, n, rep, w_star),
                            range(cfg.reps), cfg.threads)

        ok = [r for r in results if r is not None]
        failures = cfg.reps - len(ok)
        if failures > 0.1 * cfg.reps:
            raise ConvergenceError(
                f"{failures}/{cfg.reps} replicates failed to converge at p={p} "
                f"(kind={cfg.kind}, family={cfg.dist.family})"
            )
        linf = np.array([r[0] for r in ok])
        rmse = np.array([r[1] for r in ok])
        iterations = [r[2] for r in ok]

        def _stderr(v: np.ndarray) -> float:
            if v.size <= 1:
                return 0.0
            return float(v.std(ddof=1) / math.sqrt(v.size))

        rows.append(DimResult(
            p=p, n=n, w_star=w_star,
            linf_mean=float(linf.mean()), linf_stderr=_stderr(linf),
            rmse_mean=float(rmse.mean()), rmse_stderr=_stderr(rmse),
            failures=failures,
            iterations_mean=float(np.mean(iterations)), iterations_max=max(iterations),
            mc_stderr=None if master is None else master.mc_stderr,
            master_eq_s=master_eq_s,
        ))

    if len(rows) >= 2 and all(r.linf_mean > 0 and r.rmse_mean > 0 for r in rows):
        slope_l, icpt_l, r2_l = fit_loglog_slope([(r.p, r.linf_mean) for r in rows])
        slope_r, icpt_r, r2_r = fit_loglog_slope([(r.p, r.rmse_mean) for r in rows])
    else:
        slope_l = icpt_l = r2_l = slope_r = icpt_r = r2_r = None

    return ExperimentReport(
        slope_linf=slope_l, intercept_linf=icpt_l, r2_linf=r2_l,
        slope_rmse=slope_r, intercept_rmse=icpt_r, r2_rmse=r2_r,
        predicted_weight=rows[-1].w_star,
        rows=tuple(rows),
        wall_time=time.perf_counter() - t0,
    )


def fit_loglog_slope(points) -> Tuple[float, float, float]:
    """Least squares of log(value) on log(p), reported as a decay exponent.

    Fits log v = intercept - slope * log p, so a curve v ~ p^{-1/2} yields
    slope = +0.5. Returns (slope, intercept, r2).
    """
    pts = [(float(a), float(b)) for a, b in points]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    if any(v <= 0 for _, v in pts) or any(a <= 0 for a, _ in pts):
        raise ValueError("log-log fit needs strictly positive dimensions and values")
    x = np.log([a for a, _ in pts])
    y = np.log([v for _, v in pts])
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise ValueError("dimensions must not be all equal")
    b = float(np.sum((x - xbar) * (y - ybar))) / sxx
    intercept = ybar - b * xbar
    resid = y - (intercept + b * x)
    sst = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(np.sum(resid**2)) / sst
    return -b, float(intercept), float(r2)


# ---------------------------------------------------------------------------
# proof-level diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticFormReport:
    """Concentration diagnostics for the per-sample quadratic forms.

    ``max_dev_full``: max_i |p^{-1} x_i^T S^{-1} x_i - 1| (limit 1).
    ``max_dev_loo``: same for the leave-one-out forms against 1/(1-gamma).
    ``max_sm_rel_err``: worst relative error of the exact Sherman-Morrison
    link  q_full = q_loo / (1 + gamma q_loo), computed from two independent
    factorizations.
    """

    n: int
    p: int
    gamma: float
    max_dev_full: float
    max_dev_loo: float
    max_sm_rel_err: float


def quadratic_form_diagnostics(data: Dataset) -> QuadraticFormReport:
    """Evaluate both quadratic-form families and their algebraic link."""
    if data.n <= data.p:
        raise ValueError(f"diagnostics need n > p (got n={data.n}, p={data.p})")
    x = data.samples
    n, p = data.n, data.p
    gamma = p / n
    s = sample_covariance(data).entries
    q_full = quad_forms(x, s)

    # downdate S per row, but factor each S_{-i} on its own: the link below
    # must compare two independent factorizations
    q_loo = np.empty(n)
    for i in range(n):
        s_minus = s - np.outer(x[i], x[i]) / n
        q_loo[i] = float(quad_forms(x[i : i + 1], s_minus)[0])

    linked = q_loo / (1.0 + gamma * q_loo)
    rel_err = np.abs(q_full - linked) / np.abs(q_full)
    return QuadraticFormReport(
        n=n, p=p, gamma=gamma,
        max_dev_full=float(np.max(np.abs(q_full - 1.0))),
        max_dev_loo=float(np.max(np.abs(q_loo - 1.0 / (1.0 - gamma)))),
        max_sm_rel_err=float(rel_err.max()),
    )


def stieltjes_diag(data: Dataset, eps: float) -> float:
    """Regularized Stieltjes diagnostic p^{-1} Tr (S + eps I)^{-1}.

    For isotropic data with gamma = p/n < 1 and small eps this approaches
    1/(1-gamma), the Marchenko-Pastur Stieltjes transform at zero.
    """
    if not eps >= 0:
        raise ValueError("eps must be nonnegative")
    s = sample_covariance(data).entries
    lam = np.linalg.eigvalsh(s)
    if eps == 0.0 and lam[0] <= 1e-12 * max(lam[-1], 1.0):
        raise np.linalg.LinAlgError("sample covariance is singular at eps = 0")
    return float(np.mean(1.0 / (lam + eps)))


def eigen_bounds_diag(data: Dataset) -> Tuple[float, float]:
    """Extreme eigenvalues (lambda_min, lambda_max) of the sample covariance."""
    lam = np.linalg.eigvalsh(sample_covariance(data).entries)
    return float(lam[0]), float(lam[-1])
