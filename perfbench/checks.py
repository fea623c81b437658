"""Output checks for the benchmark workloads.

Every check recomputes what it compares against with its own numpy/scipy
algebra, or tests a property the method must have; none compares against a
stored copy of an earlier output. Each function returns a list of error
strings, empty when the output passes. The tolerances are derived in
``perfbench/README.md`` ("Check tolerances").
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, linprog

# Figure-1 slope band of acceptance criteria 1-2, widened by SLOPE_Z standard
# errors of the fitted slope (a run has only a few replicates per dimension).
SLOPE_BAND = (0.35, 0.65)
SLOPE_Z = 4.0
# The program's solvers stop at a relative defining-equation residual of
# 1e-10; recomputed by another factorization it stays far below this.
RESIDUAL_TOL = 1e-8
# Statistics recomputed from re-solved replicates against the program's
# full-precision sidecar values (solver tolerance propagated, see README).
STAT_RTOL = 1e-7
# z-score applied to the Monte-Carlo standard error of a predicted weight.
MC_Z = 4.0
# Printed CSV values carry 10 significant digits.
CSV_RTOL = 1e-9


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# fixed-point algebra
# ---------------------------------------------------------------------------

def quad_forms(x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """d_i = p^-1 x_i' sigma^-1 x_i by an LU solve (the program uses Cholesky)."""
    z = np.linalg.solve(sigma, x.T)
    return np.einsum("ij,ji->i", x, z) / x.shape[1]


def rational_u(d):
    return 2.0 / (1.0 + np.asarray(d, dtype=float))


def weights(kind: str, x: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Weights the defining equation of `kind` assigns to `sigma` (rational u)."""
    d = quad_forms(x, sigma)
    return 1.0 / d if kind in ("TE", "TRE") else rational_u(d)


def defining_residual(kind: str, x: np.ndarray, sigma: np.ndarray,
                      alpha: float = 0.0) -> float:
    """Relative Frobenius residual of sigma in its defining equation."""
    n, p = x.shape
    w = weights(kind, x, sigma)
    rhs = x.T @ (x * w[:, None]) / n
    if kind in ("TRE", "MRE"):
        rhs = rhs / (1.0 + alpha) + alpha / (1.0 + alpha) * np.eye(p)
    return float(np.linalg.norm(sigma - rhs) / np.linalg.norm(sigma))


def fixed_point_errors(kind: str, x: np.ndarray, sigma: np.ndarray,
                       alpha: float = 0.0, label: str = "") -> list:
    errors = []
    res = defining_residual(kind, x, sigma, alpha)
    if not res <= RESIDUAL_TOL:
        errors.append(f"{label}: {kind} defining-equation residual {res:.3g} > {RESIDUAL_TOL:g}")
    if kind == "TE":
        tr = float(np.trace(sigma))
        if _rel(tr, x.shape[1]) > RESIDUAL_TOL:
            errors.append(f"{label}: TE trace {tr!r} != p = {x.shape[1]}")
    return errors


def deviation_stats(w: np.ndarray, w_star: float):
    """(max_i |w_i - w*|, rms_i |w_i - w*|) of one weight vector."""
    dev = np.abs(np.asarray(w, dtype=float) - w_star)
    return float(dev.max()), float(np.sqrt(np.mean(dev * dev)))


def replicate_stat_errors(row: dict, stats: list, label: str) -> list:
    """Mean deviations of re-solved replicates against one sidecar row."""
    errors = []
    for key, idx in (("linf_mean", 0), ("rmse_mean", 1)):
        mine = float(np.mean([s[idx] for s in stats]))
        if _rel(row[key], mine) > STAT_RTOL:
            errors.append(f"{label}: p={row['p']} {key} {row[key]!r} but re-solved "
                          f"replicates give {mine!r}")
    return errors


# ---------------------------------------------------------------------------
# Figure-1 report
# ---------------------------------------------------------------------------

def loglog_slope(ps, values) -> float:
    """Decay exponent b of values ~ p^-b by ordinary least squares in logs."""
    x = np.log(np.asarray(ps, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xc = x - x.mean()
    return float(-(xc @ (y - y.mean())) / (xc @ xc))


def report_errors(csv_rows: list, meta: dict, dims, ratio: int, label: str) -> list:
    """Consistency of one `simulate` CSV with its sidecar and the grid asked for."""
    errors = []
    rows = meta["rows"]
    if [r["p"] for r in rows] != list(dims) or [r["n"] for r in rows] != [ratio * p for p in dims]:
        return [f"{label}: sidecar rows are for p={[r['p'] for r in rows]}, expected {list(dims)}"]
    if len(csv_rows) != len(rows):
        return [f"{label}: CSV has {len(csv_rows)} rows, sidecar {len(rows)}"]
    keys = ("linf_mean", "linf_stderr", "rmse_mean", "rmse_stderr")
    for c, r in zip(csv_rows, rows):
        if (int(c[0]), int(c[1])) != (r["p"], r["n"]):
            errors.append(f"{label}: CSV row {c[:2]} != sidecar ({r['p']}, {r['n']})")
        for v, k in zip(c[2:], keys):
            if not (math.isfinite(v) and v >= 0) or abs(v - r[k]) > CSV_RTOL * abs(r[k]):
                errors.append(f"{label}: p={r['p']} CSV {k}={v!r}, sidecar {r[k]!r}")
        if r["failures"] != 0:
            errors.append(f"{label}: p={r['p']} has {r['failures']} failed replicates")
    for which in ("linf", "rmse"):
        mine = loglog_slope([r["p"] for r in rows], [r[f"{which}_mean"] for r in rows])
        if abs(mine - meta[f"slope_{which}"]) > 1e-9:
            errors.append(f"{label}: slope_{which} {meta[f'slope_{which}']!r}, "
                          f"refit of its own rows gives {mine!r}")
    return errors


def slope_se(metas: list, which: str) -> float:
    """Standard error of a fitted log-log slope.

    Each row's relative standard error stderr/mean is the delta-method
    standard error of log(mean). They are pooled (root mean square) across
    the grids at each dimension, because one grid has only reps - 1 degrees
    of freedom per dimension, and propagated through the least-squares fit.
    """
    rel = np.array([[r[f"{which}_stderr"] / r[f"{which}_mean"] for r in m["rows"]]
                    for m in metas])
    pooled = np.sqrt(np.mean(rel ** 2, axis=0))
    x = np.log([r["p"] for r in metas[0]["rows"]])
    xc = x - x.mean()
    return float(np.sqrt(np.sum(xc ** 2 * pooled ** 2)) / np.sum(xc ** 2))


def slope_band_errors(metas: list, labels: list) -> list:
    """Fitted L-inf and RMS decay slopes inside SLOPE_BAND +- SLOPE_Z * SE."""
    errors = []
    for which in ("linf", "rmse"):
        se = slope_se(metas, which)
        lo, hi = SLOPE_BAND[0] - SLOPE_Z * se, SLOPE_BAND[1] + SLOPE_Z * se
        for m, label in zip(metas, labels):
            s = m[f"slope_{which}"]
            if not lo <= s <= hi:
                errors.append(f"{label}: slope_{which} {s:.4f} outside "
                              f"[{lo:.4f}, {hi:.4f}] (band {SLOPE_BAND}, SE {se:.4f})")
    return errors


# ---------------------------------------------------------------------------
# regularized weight prediction (Marchenko-Pastur, real Gaussian rows)
# ---------------------------------------------------------------------------

def mp_stieltjes(t: float, c: float) -> float:
    """m(-t) = int dF(x)/(x+t) for the Marchenko-Pastur law of ratio c < 1."""
    b = t + 1.0 - c
    return 2.0 / (b + math.sqrt(b * b + 4.0 * c * t))


def _mp_chebyshev(t: float, c: float):
    a_, b_ = 1.0 + c + t, 2.0 * math.sqrt(c)
    root = math.sqrt(a_ * a_ - b_ * b_)
    return root, (root - a_) / b_


def mp_mean_correction(t: float, c: float) -> float:
    """Limit of E Tr (S+tI)^-1 - p m(-t) for real Gaussian rows (Bai-Silverstein
    2004): (f(a)+f(b))/4 - (1/2pi) int_0^pi f(1+c+2 sqrt(c) cos th) dth,
    f(x) = 1/(x+t), a, b the edges of the support."""
    a = (1.0 - math.sqrt(c)) ** 2
    b = (1.0 + math.sqrt(c)) ** 2
    root, _ = _mp_chebyshev(t, c)
    return (1.0 / (a + t) + 1.0 / (b + t)) / 4.0 - 1.0 / (2.0 * root)


def mp_variance(t: float, c: float) -> float:
    """Limit of Var Tr (S+tI)^-1 for real Gaussian rows: (1/2) sum_k k a_k^2 with
    a_k the cosine coefficients of f(1+c+2 sqrt(c) cos th), here in closed form."""
    root, r = _mp_chebyshev(t, c)
    return 2.0 * r * r / (root * root * (1.0 - r * r) ** 2)


def predict_weight(kind: str, p: int, n: int, alpha: float, mc_reps: int,
                   tol_root: float) -> dict:
    """The program's Monte-Carlo w* as the benchmark predicts it.

    The program estimates Q(d) = p^-1 E Tr (phi(d) S' + alpha d I)^-1 with S'
    the n-1 row sample covariance divided by n, i.e. s S_N with N = n-1,
    s = N/n. So Q = (m(-t) + mean_correction(t)/p) / (phi s), t = alpha d /
    (phi s), at ratio c = p/N, with an O(p^-2) remainder. ``w`` solves
    F(d) = (1+alpha) Q / (1 + gamma phi Q) = 1; ``tol`` adds the Monte-Carlo
    error (MC_Z standard errors), the bisection stopping rule and half the
    first-order finite-p correction as a bound on the remainder.
    """
    gamma = p / n
    big_n = n - 1
    s = big_n / n
    c = p / big_n
    if kind == "TRE":
        phi = lambda d: 1.0  # noqa: E731
        weight = lambda d: 1.0 / d  # noqa: E731
        dweight = lambda d: 1.0 / d ** 2  # noqa: E731
    else:
        phi = lambda d: 2.0 * d / (1.0 + d)  # noqa: E731
        weight = lambda d: 2.0 / (1.0 + d)  # noqa: E731
        dweight = lambda d: 2.0 / (1.0 + d) ** 2  # noqa: E731

    def q(d, corrected=True):
        t = alpha * d / (phi(d) * s)
        m = mp_stieltjes(t, c)
        if corrected:
            m += mp_mean_correction(t, c) / p
        return m / (phi(d) * s)

    def f(d, corrected=True):
        qd = q(d, corrected)
        return (1.0 + alpha) * qd / (1.0 + gamma * phi(d) * qd)

    d1 = brentq(lambda d: f(d) - 1.0, 1e-6, 1e6, xtol=1e-15, rtol=1e-14)
    d0 = brentq(lambda d: f(d, False) - 1.0, 1e-6, 1e6, xtol=1e-15, rtol=1e-14)
    h = 1e-5 * d1
    f_d = abs(f(d1 + h) - f(d1 - h)) / (2.0 * h)
    q1 = q(d1)
    f_q = (1.0 + alpha) / (1.0 + gamma * phi(d1) * q1) ** 2
    t1 = alpha * d1 / (phi(d1) * s)
    q_se = math.sqrt(mp_variance(t1, c)) / (p * phi(d1) * s) / math.sqrt(mc_reps)
    f_root = max(tol_root, f_d * tol_root * d1 / 2.0)
    mc_term = dweight(d1) * MC_Z * f_q * q_se / f_d
    root_term = dweight(d1) * f_root / f_d
    finite_p_term = abs(weight(d1) - weight(d0)) / 2.0
    return {"w": weight(d1), "tol": mc_term + root_term + finite_p_term,
            "q_se": q_se, "f_q": f_q, "f_root": f_root}


def tre_closed_form(alpha: float, gamma: float) -> float:
    """Limit TRE weight (1+alpha)/(1+alpha-gamma)."""
    return (1.0 + alpha) / (1.0 + alpha - gamma)


def weight_prediction_errors(kind: str, w: float, p: int, n: int, alpha: float,
                             pred: dict, label: str) -> list:
    """A Monte-Carlo w* against `pred` (from predict_weight); TRE also against
    its closed form, allowing the finite-p distance of the prediction."""
    errors = []
    if not abs(w - pred["w"]) <= pred["tol"]:
        errors.append(f"{label}: {kind} w*={w!r} at p={p} differs from the predicted "
                      f"{pred['w']:.6f} by more than {pred['tol']:.2e}")
    if kind == "TRE":
        limit = tre_closed_form(alpha, p / n)
        allowed = abs(pred["w"] - limit) + pred["tol"]
        if not abs(w - limit) <= allowed:
            errors.append(f"{label}: TRE w*={w!r} farther than {allowed:.2e} from the "
                          f"closed form {limit:.6f}")
    return errors


def master_eq_errors(doc: dict, alpha: float, tol_root: float, label: str) -> list:
    """The `master-eq --kind tre` payload against the prediction and identities."""
    p, n = doc["p"], doc["n"]
    pred = predict_weight("TRE", p, n, alpha, doc["mc_reps"], tol_root)
    errors = weight_prediction_errors("TRE", doc["predicted_weight"], p, n, alpha, pred, label)
    if _rel(doc["d_star"] * doc["predicted_weight"], 1.0) > 1e-15:
        errors.append(f"{label}: d_star * w* = {doc['d_star'] * doc['predicted_weight']!r}")
    # at the returned root |F - 1| <= f_root, and dQ = dF / F_Q
    gap_bound = 1.5 * pred["f_root"] / pred["f_q"]
    if not doc["tre_identity_gap"] <= gap_bound:
        errors.append(f"{label}: TRE identity gap {doc['tre_identity_gap']:.3g} > {gap_bound:.3g}")
    ratio = doc["mc_stderr"] / pred["q_se"]
    if not 0.5 <= ratio <= 2.0:
        errors.append(f"{label}: Monte-Carlo stderr {doc['mc_stderr']:.3g} is {ratio:.2f}x "
                      f"the predicted {pred['q_se']:.3g}")
    return errors


# ---------------------------------------------------------------------------
# CSV pipelines
# ---------------------------------------------------------------------------

def diagnose_errors(x: np.ndarray, doc: dict, eps: float, label: str) -> list:
    """`diagnose` payload against the benchmark's own algebra on the same rows."""
    n, p = x.shape
    errors = []
    if (doc["n"], doc["p"]) != (n, p):
        return [f"{label}: payload is for n={doc['n']}, p={doc['p']}, data is {n}x{p}"]
    s = x.T @ x / n
    lam = np.linalg.eigvalsh(s)
    q_full = quad_forms(x, s)
    gamma = p / n
    q_loo = q_full / (1.0 - gamma * q_full)
    qf = doc["quadratic_forms"]
    mine = {
        "eigen_bounds.lambda_min": (doc["eigen_bounds"]["lambda_min"], lam[0]),
        "eigen_bounds.lambda_max": (doc["eigen_bounds"]["lambda_max"], lam[-1]),
        "stieltjes.m_hat": (doc["stieltjes"]["m_hat"], float(np.mean(1.0 / (lam + eps)))),
        "max_dev_full": (qf["max_dev_full"], float(np.max(np.abs(q_full - 1.0)))),
        "max_dev_loo": (qf["max_dev_loo"], float(np.max(np.abs(q_loo - 1.0 / (1.0 - gamma))))),
    }
    for key, (got, want) in mine.items():
        if _rel(got, want) > 1e-9:
            errors.append(f"{label}: {key} {got!r}, own algebra gives {want!r}")
    if not qf["max_sherman_morrison_rel_err"] <= 1e-10:
        errors.append(f"{label}: Sherman-Morrison error {qf['max_sherman_morrison_rel_err']:.3g} > 1e-10")
    return errors


def kept_entry_errors(out: np.ndarray, t: float, label: str) -> list:
    """Every nonzero entry of a hard-thresholded matrix is at least t in magnitude."""
    low = (out != 0.0) & (np.abs(out) < t * (1.0 - CSV_RTOL))
    if low.any():
        return [f"{label}: {int(low.sum())} kept entries below the threshold {t:.6g}"]
    return []


def threshold_errors(out: np.ndarray, t: float, sigma: np.ndarray, c1: float, n: int,
                     label: str) -> list:
    """Hard-threshold output against the residual-checked Tyler estimate `sigma`."""
    p = out.shape[0]
    errors = []
    t_own = c1 * float(np.linalg.norm(sigma, 2)) * math.sqrt(math.log(p) / n)
    if _rel(t, t_own) > 1e-8:
        errors.append(f"{label}: threshold {t!r}, own c1*||S||*sqrt(log p/n) = {t_own!r}")
    errors += kept_entry_errors(out, t, label)
    kept = out != 0.0
    if np.any(np.abs(out[kept] - sigma[kept]) > 1e-8 * np.abs(sigma[kept]) + 1e-12):
        errors.append(f"{label}: kept entries differ from the Tyler estimate")
    high = np.abs(sigma[~kept]) >= t * (1.0 + 1e-7)
    if high.any():
        errors.append(f"{label}: {int(high.sum())} zeroed entries have |Tyler entry| >= t")
    return errors


def symmetric_errors(m: np.ndarray, label: str) -> list:
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        return [f"{label}: not a finite square matrix (shape {m.shape})"]
    if not np.array_equal(m, m.T):
        return [f"{label}: matrix is not exactly symmetric "
                f"(max |M - M'| = {float(np.max(np.abs(m - m.T))):.3g})"]
    return []


def clime_column_errors(s: np.ndarray, j: int, lam: float, w: np.ndarray,
                        label: str) -> list:
    """One CLIME column against scipy's HiGHS: feasible and l1-optimal."""
    p = s.shape[0]
    ej = np.zeros(p)
    ej[j] = 1.0
    errors = []
    excess = float(np.max(np.abs(s @ w - ej))) - lam
    if excess > 1e-9:
        errors.append(f"{label}: column {j} violates ||S w - e_j|| <= lambda by {excess:.3g}")
    res = linprog(np.ones(2 * p), A_ub=np.block([[s, -s], [-s, s]]),
                  b_ub=np.concatenate([ej + lam, lam - ej]), bounds=(0, None),
                  method="highs")
    if res.status != 0:
        return errors + [f"{label}: HiGHS status {res.status} on column {j}: {res.message}"]
    obj = float(np.abs(w).sum())
    if abs(obj - res.fun) > 1e-7 * max(1.0, res.fun):
        errors.append(f"{label}: column {j} has ||w||_1 = {obj!r}, HiGHS optimum {res.fun!r}")
    return errors


def clime_symmetrization_errors(omega: np.ndarray, j: int, w: np.ndarray,
                                label: str) -> list:
    """The written column j keeps, entry by entry, the smaller of two column
    estimates, so it is never larger in magnitude than the re-solved column."""
    over = np.abs(omega[:, j]) > np.abs(w) * (1.0 + CSV_RTOL) + 1e-12
    if over.any():
        return [f"{label}: column {j} has {int(over.sum())} entries larger than the "
                f"re-solved CLIME column"]
    return []
