import numpy as np
import pytest

from robust_scatter import (
    Dataset,
    DistributionSpec,
    ExistenceError,
    ScatterMatrix,
    derive_seed,
    f_hat,
    make_ufunction,
    master_equation,
    predicted_weight,
    q_hat,
    q_mc,
    rational_u,
    sample,
    solve_master,
    tyler_regularized,
    tyler_u,
)
from robust_scatter.master_equation import QMonteCarlo
from robust_scatter.parallel import openblas_copies

GAUSS = DistributionSpec("gaussian")


def zero_u():
    return make_ufunction(lambda x: np.zeros_like(np.asarray(x, dtype=float)))


class TestQHat:
    def _probe_data(self):
        # rows 0..1 give S_{-2} = I (p=2, n=3); row 2 is the probe sqrt(p) e_1
        return Dataset([
            [np.sqrt(3.0), 0.0],
            [0.0, np.sqrt(3.0)],
            [np.sqrt(2.0), 0.0],
        ])

    def test_constructed_identity_case(self):
        data = self._probe_data()
        assert q_hat(1.0, data, 2, tyler_u(), alpha=1.0) == pytest.approx(0.5, abs=1e-12)
        assert q_hat(3.0, data, 2, tyler_u(), alpha=1.0) == pytest.approx(0.25, abs=1e-12)

    def test_f_hat_formula(self):
        data = self._probe_data()
        q = q_hat(1.0, data, 2, tyler_u(), alpha=1.0)
        gamma = 2.0 / 3.0
        expected = 2.0 * q / (1.0 + gamma * q)
        assert f_hat(1.0, data, 2, tyler_u(), alpha=1.0) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_d(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.standard_normal((12, 4)))
        u = rational_u()
        vals = [q_hat(d, data, 0, u, alpha=0.5) for d in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        data = self._probe_data()
        with pytest.raises(ValueError):
            q_hat(0.0, data, 2, tyler_u(), alpha=1.0)
        with pytest.raises(ValueError):
            q_hat(1.0, data, 2, tyler_u(), alpha=0.0)


class TestQMonteCarlo:
    def test_zero_phi_gives_exact_trace_formula(self):
        # with u == 0 the matrix is alpha*d*I, so Q = tau_p / (alpha d) exactly
        shape = ScatterMatrix(np.diag([1.0, 3.0]))  # tau_p = 2
        mean, stderr = q_mc(1.0, GAUSS, shape, n=20, p=2, alpha=2.0,
                            u=zero_u(), reps=10, seed=1)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_upper_bound_per_draw(self):
        shape = ScatterMatrix(np.diag([0.5, 1.5, 1.0]))  # tau_p = 1
        u = rational_u()
        for seed in range(10):
            d, alpha = 1.3, 0.7
            mean, _ = q_mc(d, GAUSS, shape, n=12, p=3, alpha=alpha, u=u, reps=1, seed=seed)
            assert mean <= 1.0 / (alpha * d) + 1e-12

    def test_stderr_scales_like_inverse_sqrt_reps(self):
        ratios = []
        for seed in range(10):
            _, se100 = q_mc(1.0, GAUSS, None, 40, 20, 1.0, rational_u(), reps=100, seed=seed)
            _, se400 = q_mc(1.0, GAUSS, None, 40, 20, 1.0, rational_u(), reps=400, seed=seed)
            ratios.append(se400 / se100)
        assert 0.4 <= np.mean(ratios) <= 0.6

    def test_f_monotone_and_bounded_on_grid(self):
        mc = QMonteCarlo(GAUSS, None, 60, 30, reps=50, seed=2)
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
    """How `QMonteCarlo` builds its draws: in the worker map, eigenvalues only
    at identity shape."""

    def test_identity_shape_keeps_the_eigenvalues_of_each_draw(self):
        n, p, seed = 50, 12, 8
        mc = QMonteCarlo(GAUSS, None, n, p, reps=6, seed=seed)
        for r in range(6):
            x = sample(GAUSS, n - 1, p, derive_seed(seed, r)).samples
            expected = np.linalg.eigh(x.T @ x / n)[0]
            assert np.max(np.abs(mc._lam[r] - expected)) <= 1e-12 * expected[-1]
        # at identity shape Q is the mean of 1/(phi lambda + alpha d) over the draws
        q, _ = mc.q(0.7, 1.3)
        assert q == pytest.approx(np.mean(1.0 / (0.7 * mc._lam + 1.3)), rel=1e-14)

    @pytest.mark.parametrize("shape", [None, ScatterMatrix(np.diag([0.5, 1.5, 1.0]))],
                             ids=["identity", "diagonal"])
    def test_draws_run_at_one_blas_thread(self, monkeypatch, shape):
        copies = [c for c in openblas_copies() if c.managed]
        if not copies:
            pytest.skip("no OpenBLAS with a known thread setter is loaded")
        seen = []

        def watched(*args, **kwargs):
            seen.append([c.get_threads() for c in copies])
            return sample(*args, **kwargs)

        monkeypatch.setattr(master_equation, "sample", watched)
        before = [c.get_threads() for c in copies]
        # a count no default picks, so a build at the process's count shows
        for c in copies:
            c.set_threads(3)
        try:
            QMonteCarlo(GAUSS, shape, 20, 3, reps=5, seed=1)
            assert [c.get_threads() for c in copies] == [3] * len(copies)
        finally:
            for c, count in zip(copies, before):
                c.set_threads(count)
        assert seen == [[1] * len(copies)] * 5


class TestSolveMaster:
    def test_tre_root_identity(self):
        # at the root, Q(d*) = 1/(1+alpha-gamma) (common random numbers make
        # this near-exact once the bisection is tight)
        res = solve_master(GAUSS, None, 120, 60, alpha=1.0, u=None,
                           reps=200, seed=3, tol_root=1e-6)
        q, se = q_mc(res.d_star, GAUSS, None, 120, 60, 1.0, tyler_u(), reps=200, seed=3)
        assert abs(q - 1.0 / 1.5) <= 3.0 * max(se, 1e-12)
        assert res.bracket[0] < res.d_star < res.bracket[1]
        assert res.predicted_weight == pytest.approx(1.0 / res.d_star, rel=1e-12)

    def test_q_star_is_monte_carlo_q_at_root(self):
        res = solve_master(GAUSS, None, 120, 60, alpha=1.0, u=None, reps=50, seed=3)
        q, _ = QMonteCarlo(GAUSS, None, 120, 60, reps=50, seed=3).q(1.0, 1.0 * res.d_star)
        assert res.q_star == q

    def test_mre_upper_bound_identity_shape(self):
        res = solve_master(GAUSS, None, 80, 40, alpha=1.0, u=rational_u(),
                           reps=100, seed=4)
        assert res.d_star <= 2.0  # (1+alpha)/alpha * s_max with s_max = 1
        assert res.kind == "MRE"
        u = rational_u()
        assert res.predicted_weight == pytest.approx(float(u.u(np.asarray(res.d_star))))

    def test_root_stability_under_doubled_reps(self):
        kw = dict(alpha=1.0, u=rational_u(), seed=5, tol_root=1e-6)
        r1 = solve_master(GAUSS, None, 80, 40, reps=150, **kw)
        r2 = solve_master(GAUSS, None, 80, 40, reps=300, **kw)
        # propagate Q-stderr through the local slope of F
        mc = QMonteCarlo(GAUSS, None, 80, 40, reps=150, seed=5)
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
        res = solve_master(GAUSS, None, 400, 200, alpha=1.0, u=None,
                           reps=200, seed=6, tol_root=1e-6)
        est = tyler_regularized(sample(GAUSS, 400, 200, seed=6), 1.0)
        dev = np.max(np.abs(est.weights - res.predicted_weight))
        assert dev < 0.75
        # the bulk tracks the prediction far more tightly than the extremes
        assert abs(np.mean(est.weights) - res.predicted_weight) < 0.05

    def test_tre_alpha_validation(self):
        with pytest.raises(ExistenceError):
            solve_master(GAUSS, None, 50, 100, alpha=0.5, u=None, reps=10, seed=0)
        with pytest.raises(ExistenceError):
            solve_master(GAUSS, None, 100, 50, alpha=-1.0, u=rational_u(), reps=10, seed=0)


class TestPredictedWeight:
    def test_known_values(self):
        assert predicted_weight("ME", u=rational_u()) == 1.0
        assert predicted_weight("TE", tau_p=1.0) == 1.0
        assert predicted_weight("TE", tau_p=2.0) == 0.5  # Sigma_p = diag(1, 3)
        assert predicted_weight("TRE", d_star=0.8) == pytest.approx(1.25)
        u = rational_u()
        assert predicted_weight("MRE", u=u, d_star=1.0) == pytest.approx(1.0)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            predicted_weight("TE")
        with pytest.raises(ValueError):
            predicted_weight("ME")
        with pytest.raises(ValueError):
            predicted_weight("TRE")
        with pytest.raises(ValueError):
            predicted_weight("MRE", u=rational_u())
        with pytest.raises(ValueError):
            predicted_weight("XX", d_star=1.0)
