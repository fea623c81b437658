"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.

Criteria 4 and 6 bound a maximum over the n=400 rows of a draw at p=200,
gamma = p/n = 1/2. The paper proves concentration at rate sqrt(log n / p)
with unspecified universal constants, so each bound is computed per draw
from a stated inequality, at a declared failure probability DELTA = 0.05
per draw; nothing is fitted to the measured deviations. A draw passes when
its statistic is within the bound; a criterion passes on >= 18 of 20 draws.

Criterion 4 (quadratic forms). With S the sample covariance and
S_-i = S - x_i x_i'/n, the leave-one-out form q_loo,i = p^-1 x_i' A x_i,
A = S_-i^-1, has x_i Gaussian and independent of A. Laurent & Massart
(Ann. Statist. 2000, Lemma 1), conditionally on A, give

    P(x'Ax - tr A >= 2 |A|_F sqrt(t) + 2 |A| t) <= exp(-t),
    P(tr A - x'Ax >= 2 |A|_F sqrt(t))            <= exp(-t).

A union over the 2n one-sided events with t = log(2n/DELTA) puts every
q_loo,i in [tr A/p - 2|A|_F sqrt(t)/p, tr A/p + (2|A|_F sqrt(t) + 2|A| t)/p]
with probability >= 1 - DELTA. The bound on max|q_loo - 1/(1-gamma)| is the
farthest band edge; the exact Sherman-Morrison link
q_full = q_loo/(1 + gamma q_loo), increasing in q_loo, maps the band to the
bound on max|q_full - 1|. One eigendecomposition of S per draw gives tr A
and tr A^2 by Sherman-Morrison and |A| = 1/mu, mu the smallest root of the
rank-one downdate secular equation. The link itself must hold to 1e-10 on
every draw.

Criterion 6 (regularized weights). For a fitted TRE/MRE estimate with
weights w_i, Sigma_-i = Sigma - w_i x_i x_i'/(n(1+alpha)),
d_i = p^-1 x_i' Sigma^-1 x_i and q_i = p^-1 x_i' Sigma_-i^-1 x_i satisfy

    d_i (1 + gamma u(d_i) q_i/(1+alpha)) = q_i,

which for TRE (u(d) = 1/d) reads w_i = (1+alpha)/((1+alpha-gamma) q_i).
This identity maps q to w monotonically and must hold to 1e-10 on every
row of every draw. The band is built around the prediction w*: its
q-centre c* follows from w* through the identity, and q is taken as a
quadratic form in A = (1+alpha)(w* S + alpha I)^-1, S the draw's sample
covariance, with Var q = (2 tr A^2 + (kappa-3) sum_j A_jj^2)/p^2 (kappa the
coordinate kurtosis: 3 Gaussian, 6 Laplace). The band
c* -+ z sigma_q, z = Phi^-1(1 - DELTA/(2n)), mapped through the identity,
bounds max|w_i - w*|. Because that band is wide, a location leg also
checks the mean weight of each draw:
|mean(w) - w* - w''(c*) sigma_q^2/2| <= 4 sd(w)/sqrt(n), where the middle
term is the Jensen bias of w(q) (sigma_w^2/w* for TRE).
"""

import os

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq
from scipy.special import ndtri

from robust_scatter import (
    Dataset,
    DistributionSpec,
    ExperimentConfig,
    RadialLaw,
    ScatterMatrix,
    SolverConfig,
    clime,
    clime_column,
    derive_seed,
    hard_threshold,
    maronna,
    maronna_regularized,
    matrix_norms,
    quadratic_form_diagnostics,
    rational_u,
    sample,
    sample_covariance,
    solve_master,
    sparse_cov_estimate,
    stieltjes_diag,
    symmetrize,
    tyler,
    tyler_regularized,
    tyler_u,
    weight_deviations,
)
from robust_scatter.master_equation import QMonteCarlo

from lp_oracle import clime_column_oracle

GAUSS = DistributionSpec("gaussian")
LAPLACE = DistributionSpec("laplace-iid")
DIMS = (64, 128, 256, 512)
BASE_SEED = 20260810
SLOPE_BAND = (0.35, 0.65)
# declared per-draw failure probability of the criterion 4 and 6 bands; the
# paper leaves the constant of the max statistic unspecified
DELTA = 0.05
KURTOSIS = {"gaussian": 3.0, "laplace-iid": 6.0}
IDENTITY_RTOL = 1e-10


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _figure1(kind, dist, u=None):
    # every usable core: the replicates do not depend on the worker count
    cfg = ExperimentConfig(kind=kind, dist=dist, dims=DIMS, ratio=2, reps=50,
                           base_seed=BASE_SEED, u=u, threads=len(os.sched_getaffinity(0)))
    return weight_deviation_experiment_cached(cfg)


_cache = {}


def weight_deviation_experiment_cached(cfg):
    from robust_scatter import weight_deviation_experiment

    key = (cfg.kind, cfg.dist.family, cfg.dims, cfg.reps, cfg.base_seed)
    if key not in _cache:
        _cache[key] = weight_deviation_experiment(cfg)
    return _cache[key]


def _aggregate_monotone(rep):
    """Mean deviation at dimension 4p below the one at p, per the grid rows."""
    rows = {r.p: r for r in rep.rows}
    return all(rows[4 * p].linf_mean < rows[p].linf_mean
               and rows[4 * p].rmse_mean < rows[p].rmse_mean
               for p in (64, 128))


def test_criterion_1_figure1_tyler():
    details = []
    ok = True
    for dist, label in ((GAUSS, "gaussian"), (LAPLACE, "laplace")):
        rep = _figure1("TE", dist)
        for slope, which in ((rep.slope_linf, "linf"), (rep.slope_rmse, "rmse")):
            inside = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
            ok &= inside
            details.append(f"{label}/{which}={slope:.3f}")
        ok &= _aggregate_monotone(rep)
    _report(1, "figure-1 slopes, Tyler", ok, ", ".join(details) + f" in {SLOPE_BAND}")


def test_criterion_2_figure1_maronna():
    rep = _figure1("ME", LAPLACE, u=rational_u())
    ok = (rep.predicted_weight == 1.0
          and SLOPE_BAND[0] <= rep.slope_linf <= SLOPE_BAND[1]
          and SLOPE_BAND[0] <= rep.slope_rmse <= SLOPE_BAND[1]
          and _aggregate_monotone(rep))
    _report(2, "figure-1 slopes, Maronna rational u", ok,
            f"w*={rep.predicted_weight}, linf={rep.slope_linf:.3f}, "
            f"rmse={rep.slope_rmse:.3f} in {SLOPE_BAND}")


def test_criterion_3_exact_algebra():
    rng = np.random.default_rng(33)
    checks = {}

    # Sherman-Morrison link at machine precision
    data = sample(GAUSS, 60, 12, seed=1)
    checks["sherman-morrison"] = quadratic_form_diagnostics(data).max_sm_rel_err <= 1e-10

    # leave-one-out decomposition
    from robust_scatter import leave_one_out_covariance

    full = sample_covariance(data).entries
    worst = 0.0
    for j in range(data.n):
        recon = leave_one_out_covariance(data, j).entries + np.outer(
            data.row(j), data.row(j)) / data.n
        worst = max(worst, np.max(np.abs(recon - full)) / np.max(np.abs(full)))
    checks["loo-decomposition"] = worst <= 1e-12

    # TE trace constraint
    est = tyler(sample(GAUSS, 80, 16, seed=2))
    checks["te-trace"] = abs(est.matrix.trace() - 16) <= 1e-8 * 16

    # hard-threshold idempotence (exact)
    m = rng.normal(size=(9, 9))
    once = hard_threshold(m, 0.5)
    checks["threshold-idempotent"] = np.array_equal(hard_threshold(once, 0.5), once)

    # CLIME symmetry (exact)
    a = rng.normal(size=(6, 6))
    s_hat = ScatterMatrix(a @ a.T / 6 + 0.5 * np.eye(6))
    out = clime(s_hat, 0.2).matrix
    checks["clime-symmetry"] = np.array_equal(out, out.T)

    # Tyler per-sample scale invariance
    x = rng.standard_normal((50, 8))
    e1 = tyler(Dataset(x))
    e2 = tyler(Dataset(x * rng.uniform(0.1, 10.0, size=(50, 1))))
    rel = np.linalg.norm(e1.matrix.entries - e2.matrix.entries) / np.linalg.norm(
        e1.matrix.entries)
    checks["tyler-scale-invariance"] = rel <= 1e-8

    # Maronna full-rank-transform weight invariance
    a = rng.standard_normal((8, 8)) + 3 * np.eye(8)
    w1 = maronna(Dataset(x), rational_u()).weights
    w2 = maronna(Dataset(x @ a.T), rational_u()).weights
    checks["maronna-transform-invariance"] = np.max(np.abs(w1 - w2) / w1) <= 1e-6

    # MRE/TRE eigenvalue floor
    d_small = Dataset(rng.standard_normal((15, 6)))
    ok_floor = True
    for alpha in (0.5, 1.0, 3.0):
        for est in (tyler_regularized(d_small, alpha),
                    maronna_regularized(d_small, rational_u(), alpha)):
            lam = np.linalg.eigvalsh(est.matrix.entries)[0]
            ok_floor &= lam >= alpha / (1 + alpha) - 1e-10
    checks["regularized-eigen-floor"] = ok_floor

    ok = all(checks.values())
    _report(3, "exact algebra suite", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()))


def _laurent_massart_bands(x, t):
    """Per-row Laurent-Massart band [lo_i, hi_i] for q_loo,i at level exp(-t)
    per side (see the module docstring), from one eigendecomposition of S."""
    n, p = x.shape
    lam, vec = np.linalg.eigh(x.T @ x / n)
    y2 = (x @ vec) ** 2                     # squared coordinates in S's eigenbasis
    inv = 1.0 / lam
    # Sherman-Morrison: A = S^-1 + v v'/c with v = S^-1 x_i, c = n - x_i' S^-1 x_i
    c = n - y2 @ inv
    v2 = y2 @ inv**2
    tr_a = inv.sum() + v2 / c
    fro = np.sqrt((inv**2).sum() + 2.0 * (y2 @ inv**3) / c + v2**2 / c**2)
    # |A| = 1/mu, mu in (0, lam_1) the root of 1 - n^-1 sum_j y2_j/(lam_j - mu);
    # bisection keeps mu_lo below the root, so 1/mu_lo never understates |A|
    mu_lo, mu_hi = np.zeros(n), np.full(n, lam[0])
    for _ in range(60):
        mid = 0.5 * (mu_lo + mu_hi)
        below = (y2 / (lam - mid[:, None])).sum(axis=1) < n
        mu_lo = np.where(below, mid, mu_lo)
        mu_hi = np.where(below, mu_hi, mid)
    op = 1.0 / mu_lo
    lo = (tr_a - 2.0 * fro * np.sqrt(t)) / p
    hi = (tr_a + 2.0 * fro * np.sqrt(t) + 2.0 * op * t) / p
    return lo, hi


def test_criterion_4_quadratic_form_concentration():
    # max|q_full - 1| and max|q_loo - 1/(1-gamma)| within their Laurent-Massart
    # bounds (module docstring), each on >= 18 of 20 seeds
    n, p = 400, 200
    gamma = p / n
    t = np.log(2 * n / DELTA)
    loo_centre = 1.0 / (1.0 - gamma)

    def link(q):
        return q / (1.0 + gamma * q)

    pass_full = pass_loo = 0
    worst_sm = 0.0
    tight_full = tight_loo = (0.0, 0.0, 1.0)  # (ratio, measured, bound)
    for seed in range(20):
        data = sample(GAUSS, n, p, seed=seed)
        rep = quadratic_form_diagnostics(data)
        worst_sm = max(worst_sm, rep.max_sm_rel_err)
        lo, hi = _laurent_massart_bands(data.samples, t)
        bound_loo = max(np.max(hi - loo_centre), np.max(loo_centre - lo))
        bound_full = max(np.max(link(hi) - 1.0), np.max(1.0 - link(lo)))
        pass_full += rep.max_dev_full <= bound_full
        pass_loo += rep.max_dev_loo <= bound_loo
        tight_full = max(tight_full, (rep.max_dev_full / bound_full, rep.max_dev_full,
                                      bound_full))
        tight_loo = max(tight_loo, (rep.max_dev_loo / bound_loo, rep.max_dev_loo, bound_loo))
    ok = pass_full >= 18 and pass_loo >= 18 and worst_sm <= IDENTITY_RTOL
    _report(4, "quadratic-form concentration", ok,
            f"max|q_full-1| <= bound on {pass_full}/20 (tightest {tight_full[1]:.3f} vs "
            f"{tight_full[2]:.3f}), max|q_loo-2| <= bound on {pass_loo}/20 (tightest "
            f"{tight_loo[1]:.3f} vs {tight_loo[2]:.3f}), need >=18 each at delta={DELTA}; "
            f"Sherman-Morrison link worst {worst_sm:.1e} (<= {IDENTITY_RTOL:.0e})")


def test_criterion_5_master_equation_sanity():
    res = solve_master(GAUSS, 400, 200, alpha=1.0, u=None,
                       reps=400, seed=BASE_SEED)
    q, se = QMonteCarlo(GAUSS, 400, 200, reps=400, seed=BASE_SEED).q(1.0, 1.0 * res.d_star)
    target = 1.0 / (1.0 + 1.0 - 0.5)
    gap = abs(q - target)
    ok_tre = gap <= 3.0 * max(se, 1e-15)

    mre = solve_master(GAUSS, 400, 200, alpha=1.0, u=rational_u(),
                       reps=400, seed=BASE_SEED)
    ok_mre = mre.d_star <= 2.0  # (1+alpha)/alpha * s_max at s_max = 1
    _report(5, "master equation TRE identity + MRE bound", ok_tre and ok_mre,
            f"|Q(d*)-{target:.4f}|={gap:.2e} vs 3*stderr={3 * se:.2e}; "
            f"MRE d*={mre.d_star:.4f} <= 2")


def _weight_of_q(q, u, gamma, alpha):
    """w = u(d) with d solving d = q (1 - gamma phi(d)/(1+alpha)): the weight
    the leave-one-out identity assigns to a leave-one-out form q."""
    d = brentq(lambda d: d - q * (1.0 - gamma * float(u.phi(d)) / (1.0 + alpha)),
               0.0, q, xtol=1e-14)
    return float(u.u(d))


def _q_centre(w, u, gamma, alpha):
    """The leave-one-out form whose weight under the identity is w."""
    d = brentq(lambda d: float(u.u(d)) - w, 1e-9, 1e9, xtol=1e-14)
    return d / (1.0 - gamma * float(u.phi(d)) / (1.0 + alpha))


def _identity_rel_err(x, est, u):
    """Worst relative error over rows of d_i (1 + gamma u(d_i) q_i/(1+alpha)) = q_i,
    with d_i and q_i solved directly from the fitted matrix and weights."""
    n, p = x.shape
    gamma, alpha = p / n, est.alpha
    sigma = est.matrix.entries
    d = np.einsum("ij,ji->i", x, np.linalg.solve(sigma, x.T)) / p
    q = np.empty(n)
    for i in range(n):
        sigma_minus = sigma - est.weights[i] * np.outer(x[i], x[i]) / (n * (1.0 + alpha))
        q[i] = x[i] @ cho_solve(cho_factor(sigma_minus), x[i]) / p
    lhs = d * (1.0 + gamma * u.u(d) * q / (1.0 + alpha))
    return float(np.max(np.abs(lhs - q) / q))


def test_criterion_6_regularized_weight_prediction():
    # max|w_i - w*| within the band around the prediction and the mean weight
    # at w* plus its Jensen bias (module docstring), on >= 18/20 seeds each
    n, p, alpha = 400, 200, 1.0
    gamma = p / n
    z = ndtri(1.0 - DELTA / (2 * n))
    tre = solve_master(GAUSS, n, p, alpha=alpha, u=None,
                       reps=400, seed=BASE_SEED)
    mre = solve_master(LAPLACE, n, p, alpha=alpha, u=rational_u(),
                       reps=400, seed=BASE_SEED)
    cases = (
        ("TRE", GAUSS, tyler_u(), tre.predicted_weight,
         lambda data: tyler_regularized(data, alpha)),
        ("MRE", LAPLACE, rational_u(), mre.predicted_weight,
         lambda data: maronna_regularized(data, rational_u(), alpha)),
    )
    ok = True
    details = []
    worst_identity = 0.0
    for tag, (kind, spec, u, w_star, fit) in enumerate(cases):
        def w_of(q):
            return _weight_of_q(q, u, gamma, alpha)

        c_star = _q_centre(w_star, u, gamma, alpha)
        h = 1e-3 * c_star
        w2 = (w_of(c_star + h) - 2.0 * w_of(c_star) + w_of(c_star - h)) / h**2
        passed = 0
        tight_max = tight_loc = (0.0, 0.0, 1.0)  # (ratio, measured, bound)
        for seed in range(20):
            data = sample(spec, n, p, seed=derive_seed(6, tag, seed))
            x = data.samples
            est = fit(data)
            worst_identity = max(worst_identity, _identity_rel_err(x, est, u))

            lam, vec = np.linalg.eigh(x.T @ x / n)
            a = (1.0 + alpha) / (w_star * lam + alpha)   # spectrum of A
            a_diag = vec**2 @ a
            sigma_q = np.sqrt(2.0 * np.sum(a**2)
                              + (KURTOSIS[spec.family] - 3.0) * np.sum(a_diag**2)) / p
            bound = max(w_of(c_star - z * sigma_q) - w_star,
                        w_star - w_of(c_star + z * sigma_q))
            dev = float(np.max(np.abs(est.weights - w_star)))

            jensen = 0.5 * w2 * sigma_q**2
            loc = abs(float(np.mean(est.weights)) - w_star - jensen)
            loc_bound = 4.0 * float(np.std(est.weights, ddof=1)) / np.sqrt(n)

            passed += dev <= bound and loc <= loc_bound
            tight_max = max(tight_max, (dev / bound, dev, bound))
            tight_loc = max(tight_loc, (loc / loc_bound, loc, loc_bound))
        ok &= passed >= 18
        details.append(
            f"{kind} w*={w_star:.4f} on {passed}/20 (tightest max|w-w*| {tight_max[1]:.3f} "
            f"vs {tight_max[2]:.3f}, tightest location {tight_loc[1]:.4f} vs "
            f"{tight_loc[2]:.4f})")
    ok &= worst_identity <= IDENTITY_RTOL
    _report(6, "TRE/MRE limiting-weight prediction", ok,
            "; ".join(details) + f"; need >=18 each at delta={DELTA}; "
            f"leave-one-out identity worst {worst_identity:.1e} (<= {IDENTITY_RTOL:.0e})")


def test_criterion_7_stieltjes():
    passed = 0
    worst = 0.0
    for seed in range(20):
        m_hat = stieltjes_diag(sample(GAUSS, 600, 300, seed=seed), 0.01)
        dev = abs(m_hat - 2.0)
        passed += dev < 0.2
        worst = max(worst, dev)
    ok = passed >= 18
    _report(7, "Stieltjes diagnostic", ok,
            f"|m(0.01)-2|<0.2 on {passed}/20 seeds (worst {worst:.3f})")


def test_criterion_8_sparse_rate():
    p = 100
    tri = np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1))
    tri *= p / np.trace(tri)
    spec = DistributionSpec("gaussian", shape=ScatterMatrix(tri))
    means = {}
    for n in (1000, 4000):
        errs = []
        for seed in range(20):
            est = sparse_cov_estimate(
                sample(spec, n, p, seed=derive_seed(8, n, seed)), c1=0.5)
            errs.append(matrix_norms(est.matrix - tri).operator_norm)
        means[n] = float(np.mean(errs))
    ratio = means[4000] / means[1000]
    ok = 0.3 <= ratio <= 0.8
    _report(8, "sparse covariance rate", ok,
            f"mean op error {means[1000]:.4f} (n=1000) -> {means[4000]:.4f} (n=4000), "
            f"ratio {ratio:.3f} in [0.3, 0.8]")


def test_criterion_9_clime_oracle():
    rng = np.random.default_rng(99)
    worst_obj_gap = 0.0
    worst_violation = 0.0
    count = 0
    for trial in range(25):
        p = int(rng.integers(2, 7))
        a = rng.normal(size=(p, p))
        s = a @ a.T / p + 0.4 * np.eye(p)
        j = int(rng.integers(p))
        lam = float(rng.uniform(0.05, 0.5))
        w = clime_column(ScatterMatrix(s), j, lam)
        oracle = clime_column_oracle(s, j, lam)
        assert oracle is not None
        ej = np.zeros(p)
        ej[j] = 1.0
        worst_violation = max(worst_violation, float(np.max(np.abs(s @ w - ej)) - lam))
        worst_obj_gap = max(worst_obj_gap, abs(float(np.abs(w).sum()) - oracle[1]))
        count += 1
    ok = count == 25 and worst_obj_gap <= 1e-6 and worst_violation <= 1e-9
    _report(9, "CLIME vertex-oracle equivalence", ok,
            f"25 instances, worst objective gap {worst_obj_gap:.2e} (<=1e-6), "
            f"worst constraint excess {worst_violation:.2e} (<=1e-9)")


def test_criterion_10_symmetrization():
    p, n = 256, 512
    mu = np.full(p, 5.0)
    shifted = DistributionSpec("laplace-iid", mean=mu)
    clean_devs, sym_devs = [], []
    for seed in range(10):
        d0 = sample(LAPLACE, n, p, seed=derive_seed(10, 0, seed))
        clean_devs.append(weight_deviations(tyler(d0).weights, 1.0)[0])
        d1 = sample(shifted, 2 * n, p, seed=derive_seed(10, 1, seed))
        est = tyler(symmetrize(d1))
        sym_devs.append(weight_deviations(est.weights, 1.0)[0])
    clean_m, sym_m = float(np.mean(clean_devs)), float(np.mean(sym_devs))
    ok = sym_m <= 1.5 * clean_m and sym_m < 0.8
    _report(10, "symmetrized shifted data keeps TE concentration", ok,
            f"mean linf dev: symmetrized {sym_m:.3f} vs clean {clean_m:.3f} "
            f"(need <= 1.5x clean and < 0.8)")


def test_criterion_11_heavy_tail_robustness():
    spec = DistributionSpec("elliptical", radial_law=RadialLaw("pareto", 2.5))
    wins = 0
    details = []
    for seed in range(20):
        data = sample(spec, 1000, 100, seed=seed)
        est = tyler(data, SolverConfig())
        tyl_dev = float(np.max(np.abs(est.matrix.entries - np.eye(100))))
        s_dev = float(np.max(np.abs(sample_covariance(data).entries - np.eye(100))))
        wins += tyl_dev < 3.0 * s_dev
        if seed < 3:
            details.append(f"{tyl_dev:.3f}|{s_dev:.3f}")
    ok = wins >= 15
    _report(11, "heavy-tail robustness of Tyler vs sample covariance", ok,
            f"{wins}/20 seeds with ||Tyl-I||max < 3*||S-I||max "
            f"(first seeds tyl|S: {', '.join(details)})")
