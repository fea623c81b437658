from dataclasses import replace

import numpy as np
import pytest

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


class TestBuild:
    """How `QMonteCarlo` builds its draws: one per rep, in order; eigenvalues
    only at identity shape, and the shape read from the spec."""

    def test_identity_shape_keeps_the_eigenvalues_of_each_draw(self):
        n, p, seed = 50, 12, 8
        mc = QMonteCarlo(GAUSS, n, p, reps=6, seed=seed)
        for r in range(6):
            x = sample(GAUSS, n - 1, p, derive_seed(seed, r)).samples
            expected = np.linalg.eigh(x.T @ x / n)[0]
            assert np.max(np.abs(mc._lam[r] - expected)) <= 1e-12 * expected[-1]
        # at identity shape Q is the mean of 1/(phi lambda + alpha d) over the draws
        q, _ = mc.q(0.7, 1.3)
        assert q == pytest.approx(np.mean(1.0 / (0.7 * mc._lam + 1.3)), rel=1e-14)

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
        assert res.bracket[0] < res.d_star < res.bracket[1]
        assert res.predicted_weight == pytest.approx(1.0 / res.d_star, rel=1e-12)

    @pytest.mark.parametrize("spec", [GAUSS, LAPLACE], ids=["gaussian", "laplace-iid"])
    @pytest.mark.parametrize("u", [None, rational_u()], ids=["TRE", "MRE"])
    def test_root_is_exact_on_the_draws(self, spec, u):
        n, p, alpha = 128, 64, 1.0
        res = solve_master(spec, n, p, alpha=alpha, u=u, reps=200, seed=7)
        assert res.f_residual <= 1e-12
        if u is None:
            assert abs(res.q_star - 1.0 / (1.0 + alpha - p / n)) <= 1e-12
        # the reported bracket is a sign change of F - 1 on the same draws
        mc = QMonteCarlo(spec, n, p, reps=200, seed=7)
        ufun = tyler_u() if u is None else u

        def f_of(d):
            phi_d = float(ufun.phi(np.asarray(d)))
            q, _ = mc.q(phi_d, alpha * d)
            return (1.0 + alpha) * q / (1.0 + p / n * phi_d * q)

        lo, hi = res.bracket
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
