"""Weight-concentration experiments and spectral diagnostics.

The main entry point re-runs the deviation-vs-dimension experiment: for a
grid of dimensions p, draw seeded replicates, solve the chosen estimator,
measure how far the weights sit from their predicted limit, and fit the
log-log decay slope of the mean deviations. `ExperimentConfig._grid` alone
makes the grid points (index, p, n = ratio·p); `_STATS` names the statistics.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ConvergenceError
from .estimators import KINDS, SolverConfig, UFunction, fit, quad_forms, require_existence
from .master_equation import MC_REPS, MasterEquationResult, solve_master
from .model import Dataset, sample_covariance
from .parallel import map_units, require_threads
from .samplers import DistributionSpec, derive_seed, require_seed, sample

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


_GridPoint = NamedTuple("_GridPoint", [("index", int), ("p", int), ("n", int)])


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for the weight-deviation experiment.

    The sampling spec must be shape-free; the experiment runs at identity
    population shape, which keeps tau_p = 1 so every kind has a well-defined
    limit weight (an ME u must cross phi = 1, at d0, for its limit 1/d0).
    Construction checks, at every grid dimension, the sampler's rules
    (`DistributionSpec.require_dims`) and then `require_existence`, so a
    grid that cannot be drawn, or on which the estimator does not exist,
    fails before any solve: they walk the grid points the experiment runs.
    `dims`, `ratio`, `reps` and `mc_reps` are integers (numpy ones pass);
    `base_seed` is a seed (`samplers.require_seed`), checked with them;
    `solver` configures every replicate's solve. `mc_reps` (at least 1, for
    every kind) sets the Monte-Carlo draws of the master-equation solve that
    predicts the TRE/MRE limits (one solve per dimension).
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
    mc_reps: int = MC_REPS
    threads: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        dims = tuple(_integer("dims", d) for d in self.dims)
        if len(dims) < 1 or any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dims must be a non-empty strictly increasing sequence")
        object.__setattr__(self, "dims", dims)
        for name in ("reps", "ratio", "mc_reps"):
            value = _integer(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "base_seed", require_seed(self.base_seed))
        require_threads(self.threads)
        if self.dist.shape is not None:
            raise ValueError("experiment spec must be shape-free (identity population shape)")
        for _, p, n in self._grid():
            self.dist.require_dims(n, p)
            require_existence(self.kind, n, p, self.u, self.alpha)

    def _grid(self) -> Iterator[_GridPoint]:
        """The grid points in order: the one place n is made from p."""
        return (_GridPoint(k, p, self.ratio * p) for k, p in enumerate(self.dims))


def _integer(name: str, value) -> int:
    try:  # numpy integers pass, stored as int
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be integral, got {value!r}") from None


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
    the `simulate` sidecar's keys, in order. The six fit fields are None
    without a slope: one dimension, or a mean deviation of 0 (every weight
    exactly at w*).
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
    experiment_wall_time_s: float


def weight_deviations(weights: np.ndarray, w_star: float) -> Tuple[float, float]:
    """(max_i |w_i - w*|, sqrt(mean (w_i - w*)^2)) for one weight vector."""
    dev = np.abs(np.asarray(weights, dtype=float) - w_star)
    return float(dev.max()), float(np.sqrt(np.mean(dev * dev)))


# a converged replicate's `weight_deviations` and map evaluations; each `_STATS` name
# is a field, with `<name>_mean`/`_stderr` in `DimResult` and `*_<name>` fit fields
_Replicate = NamedTuple("_Replicate", [("linf", float), ("rmse", float), ("iterations", int)])
_STATS = ("linf", "rmse")


def _stderr(v: np.ndarray) -> float:
    return 0.0 if v.size <= 1 else float(v.std(ddof=1) / math.sqrt(v.size))


def _limit_weight(cfg: ExperimentConfig,
                  point: _GridPoint) -> Tuple[float, Optional[MasterEquationResult]]:
    """(w*, the master-equation solve behind it) at one grid point: TE 1/tau_p
    = 1 at the identity shape the config enforces, ME 1/d0 (both closed-form,
    no solve), TRE and MRE u(d*) from the master equation."""
    if cfg.kind == "TE":
        return 1.0, None
    if cfg.kind == "ME":
        return 1.0 / cfg.u.d0, None
    master = solve_master(cfg.dist, point.n, point.p, cfg.alpha,
                          u=cfg.u if cfg.kind == "MRE" else None, reps=cfg.mc_reps,
                          seed=derive_seed(cfg.base_seed, point.index, cfg.reps))
    return master.predicted_weight, master


def _replicate(cfg: ExperimentConfig, point: _GridPoint, rep: int,
               w_star: float) -> Optional[_Replicate]:
    """One seeded replicate's record, or None when the solve fails."""
    data = sample(cfg.dist, point.n, point.p, derive_seed(cfg.base_seed, point.index, rep))
    est = fit(cfg.kind, data, cfg.u, cfg.alpha, cfg.solver)
    if not est.converged:
        return None
    return _Replicate(*weight_deviations(est.weights, w_star), est.iterations)


def weight_deviation_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the full deviation experiment described by `cfg`.

    Replicates failing to converge are excluded and counted; more than 10%
    failures at any dimension aborts. Fully deterministic given `cfg`
    (replicate seeds depend only on (base_seed, dim index, rep index), so
    the thread count cannot change the numbers).
    """
    t0 = time.perf_counter()
    rows = []
    for point in cfg._grid():
        t_master = time.perf_counter()
        w_star, master = _limit_weight(cfg, point)
        master_eq_s = time.perf_counter() - t_master
        results = map_units(lambda rep: _replicate(cfg, point, rep, w_star),
                            range(cfg.reps), cfg.threads)
        ok = [r for r in results if r is not None]
        failures = cfg.reps - len(ok)
        if failures > 0.1 * cfg.reps:
            raise ConvergenceError(
                f"{failures}/{cfg.reps} replicates failed to converge at p={point.p} "
                f"(kind={cfg.kind}, family={cfg.dist.family})"
            )
        stats = {}
        for name in _STATS:
            v = np.array([getattr(r, name) for r in ok])
            stats[f"{name}_mean"], stats[f"{name}_stderr"] = float(v.mean()), _stderr(v)
        iterations = [r.iterations for r in ok]
        rows.append(DimResult(
            p=point.p, n=point.n, w_star=w_star, **stats, failures=failures,
            iterations_mean=float(np.mean(iterations)), iterations_max=max(iterations),
            mc_stderr=None if master is None else master.mc_stderr, master_eq_s=master_eq_s))

    means = {name: [getattr(r, f"{name}_mean") for r in rows] for name in _STATS}
    sloped = len(rows) >= 2 and all(m > 0 for ms in means.values() for m in ms)
    fits = {}
    for name, ms in means.items():
        line = fit_loglog_slope(zip(cfg.dims, ms)) if sloped else (None, None, None)
        fits.update(zip((f"slope_{name}", f"intercept_{name}", f"r2_{name}"), line))
    return ExperimentReport(**fits, predicted_weight=rows[-1].w_star, rows=tuple(rows),
                            experiment_wall_time_s=time.perf_counter() - t0)


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
    # an all-zero row has q_full = q_loo = 0: the link holds exactly, error 0
    gap = np.abs(q_full - linked)
    rel_err = np.divide(gap, np.abs(q_full), out=np.zeros(n), where=gap != 0)
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
