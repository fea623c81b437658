"""Sparse shape and inverse-shape estimation on top of Tyler's estimator.

Two pipelines:

* hard thresholding -- zero every entry of the robust scatter estimate whose
  magnitude falls below t = c1 * ||estimate|| * sqrt(log p / n);
* CLIME -- estimate a sparse inverse shape column by column, each column
  solving  min ||w||_1  s.t.  ||S_hat w - e_j||_inf <= lambda,  followed by
  a smaller-magnitude-wins symmetrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .estimators import SolverConfig, tyler
from .model import Dataset, NormReport, ScatterMatrix, matrix_norms
from .parallel import map_units
from .simplex import solve_lp

__all__ = [
    "SparseEstimate",
    "hard_threshold",
    "choose_threshold",
    "sparse_cov_estimate",
    "clime_column",
    "clime",
]


@dataclass(frozen=True, eq=False)
class SparseEstimate:
    """Result of a sparse pipeline: the estimated matrix, which method
    produced it, its tuning parameter (threshold t or lambda), norms of the
    dense input matrix, and, when the truth was supplied, the error norms."""

    matrix: np.ndarray
    method: str
    parameter: float
    input_norms: NormReport
    error_vs_truth: Optional[NormReport] = None


def hard_threshold(m: np.ndarray, t: float) -> np.ndarray:
    """Zero the entries with |m_ij| < t; entries with |m_ij| >= t are kept
    exactly (the boundary is kept). Idempotent."""
    if not t >= 0:
        raise ValueError("threshold t must be nonnegative")
    a = np.asarray(m, dtype=float)
    return np.where(np.abs(a) >= t, a, 0.0)


def choose_threshold(n: float, p: float, scale: float, c1: float) -> float:
    """t = c1 * scale * sqrt(log(p) / n), with `scale` an operator-norm proxy."""
    if not (n >= 1 and p > 1):
        raise ValueError("need n >= 1 and p > 1")
    if not scale > 0:
        raise ValueError("scale must be positive")
    if not c1 >= 0:
        raise ValueError("c1 must be nonnegative")
    return float(c1 * scale * math.sqrt(math.log(p) / n))


def sparse_cov_estimate(data: Dataset, c1: float,
                        truth: Optional[np.ndarray] = None,
                        cfg: Optional[SolverConfig] = None) -> SparseEstimate:
    """Tyler's estimator followed by hard thresholding at the data-driven t."""
    dense = tyler(data, cfg).require_converged().matrix.entries
    norms = matrix_norms(dense)
    t = choose_threshold(data.n, data.p, norms.operator_norm, c1)
    out = hard_threshold(dense, t)
    err = matrix_norms(out - np.asarray(truth, dtype=float)) if truth is not None else None
    return SparseEstimate(matrix=out, method="threshold", parameter=t,
                          input_norms=norms, error_vs_truth=err)


def clime_column(s_hat: ScatterMatrix, j: int, lam: float) -> np.ndarray:
    """Solve one CLIME column:  min ||w||_1  s.t.  ||S_hat w - e_j||_inf <= lambda.

    Uses the w = w+ - w- split (2p nonnegative variables, 2p inequality
    rows) and the HiGHS dual simplex behind `solve_lp`. Raises
    InfeasibleError when no w satisfies the constraint at this lambda.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    p = s_hat.p
    if not 0 <= j < p:
        raise IndexError(f"column index {j} out of range for p={p}")
    m = s_hat.entries
    ej = np.zeros(p)
    ej[j] = 1.0
    a_ub = np.block([[m, -m], [-m, m]])
    b_ub = np.concatenate([ej + lam, lam - ej])
    z, _ = solve_lp(np.ones(2 * p), a_ub, b_ub)
    return z[:p] - z[p:]


def clime(s_hat: ScatterMatrix, lam: float,
          truth: Optional[np.ndarray] = None, threads: int = 1) -> SparseEstimate:
    """All p CLIME columns plus symmetrization.

    Symmetrization keeps, for each (i, j), whichever of the two column
    estimates has the smaller magnitude (exact ties average), so the output
    equals its transpose exactly.
    """
    cols = map_units(lambda j: clime_column(s_hat, j, lam), range(s_hat.p), threads)
    w = np.column_stack(cols)  # w[i, j] = column-j estimate of entry (i, j)

    wt = w.T
    absw, abswt = np.abs(w), np.abs(wt)
    out = np.where(absw < abswt, w, np.where(abswt < absw, wt, (w + wt) / 2.0))

    err = matrix_norms(out - np.asarray(truth, dtype=float)) if truth is not None else None
    return SparseEstimate(matrix=out, method="clime", parameter=float(lam),
                          input_norms=matrix_norms(s_hat.entries), error_vs_truth=err)
