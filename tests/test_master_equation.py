from dataclasses import replace

import numpy as np
import pytest

import robust_scatter.master_equation
from robust_scatter import (
    ConvergenceError,
    DistributionSpec,
    ExistenceError,
    ScatterMatrix,
    derive_seed,
    make_ufunction,
    rational_u,
    sample,
    solve_master,
    tyler_regularized,
    tyler_u,
)
from robust_scatter.master_equation import QMonteCarlo

GAUSS = DistributionSpec("gaussian")
LAPLACE = DistributionSpec("laplace-iid")
SEARCH_RANGE = (0.5 * 2.0 ** -60, 2.0 * 2.0 ** 60)  # the ends of solve_master's search in d


def zero_u():
    return make_ufunction(lambda x: np.zeros_like(np.asarray(x, dtype=float)))


class TestQMonteCarlo:
    def test_zero_phi_gives_exact_trace_formula(self):
        # with u == 0 the matrix is alpha*d*I, so Q = tau_p / (alpha d) exactly
        shape = ScatterMatrix(np.diag([1.0, 3.0]))  # tau_p = 2
        phi = float(zero_u().phi(np.asarray(1.0)))
        mc = QMonteCarlo(replace(GAUSS, shape=shape), n=20, p=2, reps=10, seed=1)
        mean, stderr = mc.q(phi, 2.0 * 1.0)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_upper_bound_per_draw(self):
        shape = ScatterMatrix(np.diag([0.5, 1.5, 1.0]))  # tau_p = 1
        u = rational_u()
        for seed in range(10):
            d, alpha = 1.3, 0.7
            mc = QMonteCarlo(replace(GAUSS, shape=shape), n=12, p=3, reps=1, seed=seed)
            mean, _ = mc.q(float(u.phi(np.asarray(d))), alpha * d)
            assert mean <= 1.0 / (alpha * d) + 1e-12

    def test_stderr_scales_like_inverse_sqrt_reps(self):
        ratios = []
        phi = float(rational_u().phi(np.asarray(1.0)))
        for seed in range(10):
            _, se100 = QMonteCarlo(GAUSS, 40, 20, reps=100, seed=seed).q(phi, 1.0)
            _, se400 = QMonteCarlo(GAUSS, 40, 20, reps=400, seed=seed).q(phi, 1.0)
            ratios.append(se400 / se100)
        assert 0.4 <= np.mean(ratios) <= 0.6

    def test_f_monotone_and_bounded_on_grid(self):
        mc = QMonteCarlo(GAUSS, 60, 30, reps=50, seed=2)
        alpha, gamma = 1.0, 0.5
        u = rational_u()
        grid = np.linspace(0.3, 3.0, 8)
        fs, qs, ses = [], [], []
        for d in grid:
            phi_d = float(u.phi(np.asarray(d)))
            q, se = mc.q(phi_d, alpha * d)
            fs.append((1 + alpha) * q / (1 + gamma * phi_d * q))
            qs.append(q)
            ses.append(se)
        for i in range(len(grid) - 1):
            assert fs[i] - fs[i + 1] > -2.0 * max(ses[i], ses[i + 1])
        for f, q in zip(fs, qs):
            assert f <= (1 + alpha) * q + 1e-12


def dense_q(mc, phi_d, alpha_d):
    """Q and its standard error from np.linalg.eigvalsh of each Gaussian rep's
    dense T, with the p - k zero eigenvalues of S' put back."""
    k = mc._diag.shape[0]
    per_rep = []
    for r in range(mc.reps):
        t = np.diag(mc._diag[:, r]) + np.diag(np.sqrt(mc._off2[:-1, r]), 1)
        t += np.triu(t, 1).T
        lam = np.concatenate([np.zeros(mc.p - k), np.linalg.eigvalsh(t)])
        per_rep.append(np.mean(1.0 / (phi_d * lam + alpha_d)))
    per_rep = np.array(per_rep)
    stderr = per_rep.std(ddof=1) / np.sqrt(mc.reps) if mc.reps > 1 else 0.0
    return per_rep.mean(), stderr


class TestGaussianSweep:
    """Q of a Gaussian build comes from the LDL^T pivots of each rep's
    tridiagonal; the oracle is the dense spectrum of the same T."""

    @pytest.mark.parametrize("n,p", [(60, 25), (16, 25)], ids=["p<n-1", "p>n-1"])
    def test_q_matches_dense_eigenvalues(self, n, p):
        mc = QMonteCarlo(GAUSS, n, p, reps=30, seed=4)
        lo, hi = SEARCH_RANGE
        u = rational_u()
        points = [(1.0, 0.7), (0.3, 2.5), (2.0, 1e-3)]
        # both ends of solve_master's search, for TRE (phi = 1) and MRE (rational u)
        points += [(1.0, lo), (1.0, hi)]
        points += [(float(u.phi(np.asarray(d))), d) for d in (lo, hi)]
        for phi_d, alpha_d in points:
            mean, stderr = mc.q(phi_d, alpha_d)
            ref_mean, ref_stderr = dense_q(mc, phi_d, alpha_d)
            assert mean == pytest.approx(ref_mean, rel=1e-12)
            assert stderr == pytest.approx(ref_stderr, rel=1e-12)

    @pytest.mark.parametrize("n,p", [(60, 25), (16, 25)], ids=["p<n-1", "p>n-1"])
    def test_zero_phi_gives_one_over_alpha_d(self, n, p):
        # phi = 0 leaves alpha d I: every rep's Q is 1/(alpha d), exactly at a
        # power of two
        mc = QMonteCarlo(GAUSS, n, p, reps=10, seed=5)
        assert mc.q(0.0, 2.0) == (0.5, 0.0)
        assert mc.q(0.0, 0.3)[0] == pytest.approx(1.0 / 0.3, rel=1e-15)

    def test_one_rep_has_zero_stderr(self):
        mc = QMonteCarlo(GAUSS, 60, 25, reps=1, seed=6)
        mean, stderr = mc.q(1.0, 0.7)
        assert stderr == 0.0
        assert mean == pytest.approx(dense_q(mc, 1.0, 0.7)[0], rel=1e-12)


class TestBuild:
    """How `QMonteCarlo` builds its draws: one per rep, in order; eigenvalues
    only at identity shape, and the shape read from the spec."""

    def test_identity_shape_keeps_the_eigenvalues_of_each_draw(self):
        # a non-Gaussian spec keeps the dense draw: rep r is the spectrum of
        # the Gram of the rows `sample` makes
        n, p, seed = 50, 12, 8
        mc = QMonteCarlo(LAPLACE, n, p, reps=6, seed=seed)
        for r in range(6):
            x = sample(LAPLACE, n - 1, p, derive_seed(seed, r)).samples
            expected = np.linalg.eigh(x.T @ x / n)[0]
            assert np.max(np.abs(mc._lam[r] - expected)) <= 1e-12 * expected[-1]
        # at identity shape Q is the mean of 1/(phi lambda + alpha d) over the draws
        q, _ = mc.q(0.7, 1.3)
        assert q == pytest.approx(np.mean(1.0 / (0.7 * mc._lam + 1.3)), rel=1e-14)

    @pytest.mark.parametrize("n,p", [(50, 12), (9, 12)], ids=["p<n-1", "p>n-1"])
    def test_gaussian_reps_are_the_bidiagonal_model(self, n, p):
        # rep r is the tridiagonal T = B^T B / n, with B rebuilt from row r of
        # the build's one stream of chi draws, drawn rep by rep: diagonal
        # chi_{K-i+1}, superdiagonal chi_{k-i}; S' has T's k eigenvalues and
        # p - k zeros
        seed, m, reps = 8, n - 1, 6
        k, big = min(m, p), max(m, p)
        mc = QMonteCarlo(GAUSS, n, p, reps=reps, seed=seed)
        assert mc._diag.shape == mc._off2.shape == (k, reps)
        assert np.all(mc._off2[-1] == 0.0)  # row k-1 pads the k-1 off-diagonal entries
        per_rep = []
        rng = np.random.default_rng(derive_seed(seed))
        for r in range(reps):
            a2 = rng.chisquare(np.arange(big, big - k, -1.0))
            b2 = rng.chisquare(np.arange(k - 1, 0, -1.0))
            np.testing.assert_array_equal(mc._diag[:, r], (a2 + np.append(0.0, b2)) / n)
            np.testing.assert_array_equal(mc._off2[:-1, r], a2[:-1] * b2 / n ** 2)
            bidiag = np.diag(np.sqrt(a2)) + np.diag(np.sqrt(b2), 1)
            t = bidiag.T @ bidiag / n
            np.testing.assert_allclose(mc._diag[:, r], np.diag(t), rtol=1e-14)
            np.testing.assert_allclose(mc._off2[:-1, r], np.diag(t, 1) ** 2, rtol=1e-14)
            lam = np.concatenate([np.zeros(p - k), np.linalg.eigvalsh(t)])
            per_rep.append(np.mean(1.0 / (0.7 * lam + 1.3)))
        # Q counts the p - k zero eigenvalues, each as 1/(alpha d)
        assert mc.q(0.7, 1.3)[0] == pytest.approx(np.mean(per_rep), rel=1e-12)

    @pytest.mark.parametrize("n,p", [(50, 12), (9, 12)], ids=["p<n-1", "p>n-1"])
    def test_gaussian_build_is_a_prefix_of_a_larger_one(self, n, p):
        # all reps come from one stream, rep-major: a build of 7 reps is the
        # first 7 reps of a build of 20
        small = QMonteCarlo(GAUSS, n, p, reps=7, seed=8)
        large = QMonteCarlo(GAUSS, n, p, reps=20, seed=8)
        np.testing.assert_array_equal(small._diag, large._diag[:, :7])
        np.testing.assert_array_equal(small._off2, large._off2[:, :7])

    @pytest.mark.parametrize("n,p", [(41, 20), (11, 20)])
    def test_gaussian_reps_follow_the_wishart_moments(self, n, p):
        # E tr S' = mp/n and E tr S'^2 = mp(m+p+1)/n^2 for X^T X ~ W_p(m, I),
        # m = n - 1; each within 4 standard errors of the reps' own mean. On
        # the tridiagonal T, tr S' = sum diag and tr S'^2 = sum diag^2 + 2 sum off^2
        m, reps = n - 1, 2000
        mc = QMonteCarlo(GAUSS, n, p, reps=reps, seed=21)
        for stat, exact in ((mc._diag.sum(axis=0), m * p / n),
                            ((mc._diag ** 2).sum(axis=0) + 2.0 * mc._off2.sum(axis=0),
                             m * p * (m + p + 1) / n ** 2)):
            se = stat.std(ddof=1) / np.sqrt(reps)
            assert abs(stat.mean() - exact) <= 4.0 * se

    def test_shape_comes_from_the_spec(self):
        # each rep is exactly the eigh of the covariance of the shaped draw
        # `sample` makes from the same spec and seed
        n, p, seed = 40, 5, 9
        shape = ScatterMatrix(np.diag([0.5, 1.0, 1.5, 2.0, 3.0]) + 0.2)
        spec = replace(GAUSS, shape=shape)
        mc = QMonteCarlo(spec, n, p, reps=4, seed=seed)
        for r in range(4):
            x = sample(spec, n - 1, p, derive_seed(seed, r)).samples
            w, vec = np.linalg.eigh(x.T @ x / n)
            np.testing.assert_array_equal(mc._lam[r], w)
            np.testing.assert_array_equal(
                mc._coef[r], np.einsum("ij,ij->j", vec, shape.entries @ vec))

    def test_mean_and_shape_follow_sample(self):
        # with a mean, the rows are x = mu + Y Sigma^{1/2}, as in `sample`
        n, p, seed = 40, 4, 11
        spec = DistributionSpec("gaussian", mean=np.full(p, 3.0),
                                shape=ScatterMatrix(np.diag([4.0, 1.0, 1.0, 0.25])))
        mc = QMonteCarlo(spec, n, p, reps=3, seed=seed)
        for r in range(3):
            x = sample(spec, n - 1, p, derive_seed(seed, r)).samples
            np.testing.assert_array_equal(mc._lam[r], np.linalg.eigh(x.T @ x / n)[0])

    def test_needs_two_rows(self, monkeypatch):
        # each rep draws n - 1 rows, so n = 1 is rejected before any draw
        monkeypatch.setattr(robust_scatter.master_equation, "sample",
                            lambda *args: pytest.fail("drew before checking n"))
        for build in (lambda: QMonteCarlo(GAUSS, 1, 1, reps=2, seed=0),
                      lambda: solve_master(GAUSS, 1, 1, alpha=1.0, u=None, reps=2, seed=0)):
            with pytest.raises(ValueError, match=r"needs n >= 2, got n=1$"):
                build()

    def test_wrong_dimension_mean_rejected_before_any_draw(self, monkeypatch):
        # an all-zero mean draws standard Gaussian rows, which make no `sample`
        # call, so the dimension rules run before the first draw
        for name in ("sample", "_wishart_tridiagonal"):
            monkeypatch.setattr(robust_scatter.master_equation, name,
                                lambda *args: pytest.fail("drew before checking dims"))
        spec = DistributionSpec("gaussian", mean=np.zeros(3))
        with pytest.raises(ValueError, match=r"^mean has shape \(3,\), expected \(4,\)$"):
            QMonteCarlo(spec, 20, 4, reps=2, seed=0)

    @pytest.mark.parametrize("seed", [-3, 2.5])
    def test_bad_seed_rejected_before_any_draw(self, monkeypatch, seed):
        for name in ("sample", "_wishart_tridiagonal"):
            monkeypatch.setattr(robust_scatter.master_equation, name,
                                lambda *args: pytest.fail("drew before checking the seed"))
        for spec in (GAUSS, LAPLACE):  # the Wishart path and the row path
            for build in (lambda: QMonteCarlo(spec, 20, 4, reps=2, seed=seed),
                          lambda: solve_master(spec, 20, 4, alpha=1.0, reps=2, seed=seed)):
                with pytest.raises(ValueError,
                                   match=f"^seed must be a non-negative integer, got {seed}$"):
                    build()

    def test_wrong_dimension_shape_rejected(self):
        spec = replace(GAUSS, shape=ScatterMatrix(np.eye(3)))
        with pytest.raises(ValueError, match="expected p=4"):
            QMonteCarlo(spec, 20, 4, reps=2, seed=0)


class TestSolveMaster:
    def test_tre_root_identity(self):
        # at the root, Q(d*) = 1/(1+alpha-gamma) (common random numbers make
        # this near-exact: the root is exact on the draws)
        res = solve_master(GAUSS, 120, 60, alpha=1.0, u=None, reps=200, seed=3)
        q, se = QMonteCarlo(GAUSS, 120, 60, reps=200, seed=3).q(1.0, 1.0 * res.d_star)
        assert abs(q - 1.0 / 1.5) <= 3.0 * max(se, 1e-12)
        assert SEARCH_RANGE[0] < res.d_star < SEARCH_RANGE[1]
        assert res.predicted_weight == pytest.approx(1.0 / res.d_star, rel=1e-12)

    @pytest.mark.parametrize("spec", [GAUSS, LAPLACE], ids=["gaussian", "laplace-iid"])
    @pytest.mark.parametrize("u", [None, rational_u()], ids=["TRE", "MRE"])
    def test_root_is_exact_on_the_draws(self, spec, u):
        n, p, alpha = 128, 64, 1.0
        res = solve_master(spec, n, p, alpha=alpha, u=u, reps=200, seed=7)
        assert res.f_residual <= 1e-12
        if u is None:
            assert abs(res.q_star - 1.0 / (1.0 + alpha - p / n)) <= 1e-12
        # F - 1 changes sign over the search range on the same draws
        mc = QMonteCarlo(spec, n, p, reps=200, seed=7)
        ufun = tyler_u() if u is None else u

        def f_of(d):
            phi_d = float(ufun.phi(np.asarray(d)))
            q, _ = mc.q(phi_d, alpha * d)
            return (1.0 + alpha) * q / (1.0 + p / n * phi_d * q)

        lo, hi = SEARCH_RANGE
        assert f_of(lo) > 1.0 > f_of(hi)
        assert lo < res.d_star < hi

    @pytest.mark.parametrize("q,side", [(1.0 / 1.5, "lower"), (10.0, "upper")])
    def test_no_sign_change_raises_convergence_error(self, monkeypatch, q, side):
        # a constant Q makes F constant: F == 1 exactly (no lower end with
        # F > 1) or F > 1 everywhere (no upper end with F < 1)
        monkeypatch.setattr(QMonteCarlo, "q", lambda self, phi_d, alpha_d: (q, 0.0))
        with pytest.raises(ConvergenceError, match=f"no {side} bracket"):
            solve_master(GAUSS, 40, 20, alpha=1.0, u=None, reps=2, seed=0)

    def test_q_star_is_monte_carlo_q_at_root(self):
        res = solve_master(GAUSS, 120, 60, alpha=1.0, u=None, reps=50, seed=3)
        q, _ = QMonteCarlo(GAUSS, 120, 60, reps=50, seed=3).q(1.0, 1.0 * res.d_star)
        assert res.q_star == q

    @pytest.mark.parametrize("u", [None, rational_u()], ids=["TRE", "MRE"])
    def test_never_sweeps_one_point_twice(self, monkeypatch, u):
        # brentq evaluates both ends again and returns a point it evaluated;
        # those and the final Q at the root reuse the sweeps already run
        sweeps = []
        q = QMonteCarlo.q

        def recorded(self, phi_d, alpha_d):
            sweeps.append((phi_d, alpha_d))
            return q(self, phi_d, alpha_d)

        monkeypatch.setattr(QMonteCarlo, "q", recorded)
        res = solve_master(GAUSS, 120, 60, alpha=1.0, u=u, reps=50, seed=3)
        assert len(sweeps) == len(set(sweeps)) >= 3
        assert res.f_residual <= 1e-12

    def test_mre_upper_bound_identity_shape(self):
        res = solve_master(GAUSS, 80, 40, alpha=1.0, u=rational_u(),
                           reps=100, seed=4)
        assert res.d_star <= 2.0  # (1+alpha)/alpha * s_max with s_max = 1
        assert res.kind == "MRE"
        u = rational_u()
        assert res.predicted_weight == pytest.approx(float(u.u(np.asarray(res.d_star))))

    def test_root_stability_under_doubled_reps(self):
        kw = dict(alpha=1.0, u=rational_u(), seed=5)
        r1 = solve_master(GAUSS, 80, 40, reps=150, **kw)
        r2 = solve_master(GAUSS, 80, 40, reps=300, **kw)
        # propagate Q-stderr through the local slope of F
        mc = QMonteCarlo(GAUSS, 80, 40, reps=150, seed=5)
        u = rational_u()

        def f_of(d):
            phi_d = float(u.phi(np.asarray(d)))
            q, _ = mc.q(phi_d, 1.0 * d)
            return 2.0 * q / (1.0 + 0.5 * phi_d * q)

        h = 1e-3 * r1.d_star
        slope = abs((f_of(r1.d_star + h) - f_of(r1.d_star - h)) / (2 * h))
        combined = np.hypot(r1.mc_stderr, r2.mc_stderr) * 2.0 / slope
        assert abs(r1.d_star - r2.d_star) <= 3.0 * combined

    def test_tre_consistency_with_estimator(self):
        # weights of the solved estimator cluster around 1/d*; bound frozen
        # from a 20-seed pilot at this size (observed max deviation ~0.5-0.6)
        res = solve_master(GAUSS, 400, 200, alpha=1.0, u=None, reps=200, seed=6)
        est = tyler_regularized(sample(GAUSS, 400, 200, seed=6), 1.0)
        dev = np.max(np.abs(est.weights - res.predicted_weight))
        assert dev < 0.75
        # the bulk tracks the prediction far more tightly than the extremes
        assert abs(np.mean(est.weights) - res.predicted_weight) < 0.05

    def test_tre_alpha_validation(self):
        with pytest.raises(ExistenceError):
            solve_master(GAUSS, 50, 100, alpha=0.5, u=None, reps=10, seed=0)
        with pytest.raises(ExistenceError):
            solve_master(GAUSS, 100, 50, alpha=-1.0, u=rational_u(), reps=10, seed=0)
        for u in (None, rational_u()):
            with pytest.raises(ExistenceError, match="needs alpha"):
                solve_master(GAUSS, 100, 50, alpha=float("nan"), u=u, reps=10, seed=0)
