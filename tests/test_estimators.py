import ctypes

import numpy as np
import pytest
from scipy.linalg import blas, lapack

from robust_scatter import (
    ConvergenceError,
    Dataset,
    DistributionSpec,
    ExistenceError,
    RadialLaw,
    ScatterMatrix,
    SolverConfig,
    fit,
    huber_u,
    interference_h,
    make_ufunction,
    maronna,
    maronna_regularized,
    rational_u,
    sample,
    spd_sqrt,
    tyler,
    tyler_regularized,
    tyler_u,
)
import robust_scatter.estimators as estimators
from robust_scatter.estimators import quad_forms
from robust_scatter import parallel
from robust_scatter.parallel import map_units

from fixed_point_oracle import defining_residual, picard_oracle, tyler_objective, weights


def bisect_root(f, lo, hi, tol=1e-12):
    """Scalar bisection oracle: root of f on [lo, hi] with f(lo), f(hi) of opposite sign."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


class TestUFunctions:
    def test_rational(self):
        u = rational_u()
        assert u.phi_inf == 2.0
        assert u.d0 == 1.0
        x = np.linspace(1e-6, 50, 200)
        np.testing.assert_allclose(u.phi(x), x * u.u(x), atol=1e-12)

    def test_huber(self):
        u = huber_u(2.0)
        assert u.phi_inf == 2.0
        assert u.d0 == 1.0
        assert u.u(np.asarray(0.0)) == 1.0
        x = np.linspace(0.0, 10, 101)
        np.testing.assert_allclose(u.phi(x), x * u.u(x), atol=1e-12)

    def test_tyler_u_has_constant_phi(self):
        u = tyler_u()
        x = np.linspace(0.1, 30, 50)
        np.testing.assert_allclose(u.phi(x), 1.0)
        np.testing.assert_allclose(u.u(x) * x, 1.0)

    def test_make_ufunction_finds_unit_crossing(self):
        u = make_ufunction(lambda x: 2.0 / (1.0 + np.asarray(x)))
        assert u.d0 == pytest.approx(1.0, abs=1e-9)
        assert u.phi_inf == pytest.approx(2.0, abs=1e-6)

    def test_make_ufunction_evaluates_u_no_farther_than_phi_inf(self):
        # phi = 2x^5/(1+x^5): x^5 overflows past about 1e61, so a search that
        # reached that far would see phi = 0 there and lose the crossing at 1
        with np.errstate(over="raise"):
            u = make_ufunction(lambda x: 2.0 * np.asarray(x) ** 4 / (1.0 + np.asarray(x) ** 5))
        assert u.d0 == pytest.approx(1.0, abs=1e-9)
        assert u.phi_inf == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("u", [lambda x: 1.0 / (1.0 + np.asarray(x)),
                                   lambda x: 1.0 / np.maximum(x, 1.0)],
                             ids=["below-1", "plateau-at-1"])
    def test_make_ufunction_without_sign_change_has_no_d0(self, u):
        # phi = x/(1+x) never crosses 1 (in floats it reaches 1.0 past 2^53), and
        # phi = min(x, 1) meets 1 on a plateau, as huber_u(1) does: no unique d0
        assert make_ufunction(u).d0 is None

    def test_inadmissible_u_rejected(self):
        u = huber_u(0.8)  # phi_inf = 0.8 <= 1
        data = Dataset(np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(ExistenceError):
            maronna(data, u)


class TestTyler:
    def test_scalar_case_pins_trace(self):
        est = tyler(Dataset([[1.0], [3.0]]))
        np.testing.assert_allclose(est.matrix.entries, [[1.0]])
        np.testing.assert_allclose(est.weights, [1.0, 1.0 / 9.0])
        assert est.converged

    def test_trace_constraint(self):
        data = sample(DistributionSpec("gaussian"), 60, 10, seed=1)
        est = tyler(data)
        assert abs(est.matrix.trace() - 10) <= 1e-8 * 10

    def test_per_sample_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 8))
        scales = rng.uniform(0.1, 10.0, size=(50, 1))
        e1 = tyler(Dataset(x))
        e2 = tyler(Dataset(x * scales))
        diff = np.linalg.norm(e1.matrix.entries - e2.matrix.entries)
        assert diff / np.linalg.norm(e1.matrix.entries) <= 1e-8

    def test_weight_concentration_p200(self):
        # instance of the limiting-weight law at tau_p = 1; bound frozen from
        # a 20-seed pilot (observed max deviation 0.36-0.64 at this size)
        data = sample(DistributionSpec("gaussian"), 400, 200, seed=0)
        est = tyler(data)
        assert est.converged
        assert np.max(np.abs(est.weights - 1.0)) < 0.7

    def test_agrees_with_plain_picard_oracle(self):
        data = sample(DistributionSpec("gaussian"), 40, 5, seed=3)
        est = tyler(data, SolverConfig(tol=1e-12))
        sig, _ = picard_oracle("TE", data.samples)
        np.testing.assert_allclose(est.matrix.entries, sig, atol=1e-8)

    def test_preconditions(self):
        with pytest.raises(ExistenceError):
            tyler(Dataset(np.eye(3)))  # n = p
        with pytest.raises(ExistenceError):
            tyler(Dataset([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))  # zero row

    def test_non_convergence_reported_not_raised(self):
        data = sample(DistributionSpec("gaussian"), 40, 8, seed=4)
        est = tyler(data, SolverConfig(max_iter=2))
        assert not est.converged
        assert est.iterations == 2
        assert est.residual > 0


class TestMaronna:
    def test_scalar_case_vs_bisection_oracle(self):
        data = Dataset([[1.0], [3.0]])
        u = rational_u()
        # scalar fixed point: sigma = (1/2)[u(1/sigma) + 9 u(9/sigma)]
        f = lambda s: 0.5 * (float(u.u(1.0 / s)) + 9.0 * float(u.u(9.0 / s))) - s
        root = bisect_root(f, 1e-6, 100.0)
        est = maronna(data, u)
        assert est.matrix.entries[0, 0] == pytest.approx(root, abs=1e-8)
        assert defining_residual("ME", data.samples, est.matrix.entries, u.u) < 1e-8

    def test_full_rank_transform_weight_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 6))
        a = rng.standard_normal((6, 6)) + 3 * np.eye(6)
        assert np.linalg.cond(a) < 100
        u = rational_u()
        w1 = maronna(Dataset(x), u).weights
        w2 = maronna(Dataset(x @ a.T), u).weights
        np.testing.assert_allclose(w1, w2, rtol=1e-6)

    @pytest.mark.parametrize("scale", [2.0 ** 40, 2.0 ** -40], ids=["2^40", "2^-40"])
    def test_start_follows_the_data_scale(self, scale):
        # ME is affine equivariant and starts from the forms at c I, c the
        # mean |x_i|^2 / p: scaling by a power of two scales every float
        # operation exactly, so the solve is the same, and Sigma scales by scale^2
        x = sample(DistributionSpec("gaussian"), 60, 6, seed=32).samples
        u = rational_u()
        ref, est = maronna(Dataset(x), u), maronna(Dataset(x * scale), u)
        assert est.iterations == ref.iterations
        np.testing.assert_array_equal(est.matrix.entries, ref.matrix.entries * scale ** 2)
        np.testing.assert_array_equal(est.weights, ref.weights)

    @pytest.mark.parametrize("scale", [1e15, 1e20])
    def test_converges_on_far_scaled_data(self, scale):
        # from the identity, these scales overflowed `exp` in the Anderson
        # steps and ended in ExistenceError; a warning fails the test
        x = sample(DistributionSpec("gaussian"), 60, 6, seed=32).samples
        u = rational_u()
        est = maronna(Dataset(x * scale), u)
        assert est.converged
        assert est.iterations == maronna(Dataset(x), u).iterations
        assert defining_residual("ME", x * scale, est.matrix.entries, u.u) < 1e-8

    def test_weight_concentration_p200_laplace(self):
        # pilot-calibrated bound (observed ~0.2 at this size); limit weight is 1
        data = sample(DistributionSpec("laplace-iid"), 400, 200, seed=0)
        est = maronna(data, rational_u())
        assert est.converged
        assert np.max(np.abs(est.weights - 1.0)) < 0.35

    def test_accepts_zero_rows(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((20, 3))
        x[4] = 0.0  # u(0) is finite, so the zero sample is legal
        est = maronna(Dataset(x), rational_u())
        assert est.converged

    def test_needs_more_samples_than_dims(self):
        with pytest.raises(ExistenceError):
            maronna(Dataset(np.eye(3)), rational_u())


class TestRegularized:
    def test_mre_scalar_vs_bisection_oracle(self):
        u = rational_u()
        # sigma = (1/2) u(4/sigma) * 4 + 1/2
        f = lambda s: 0.5 * float(u.u(4.0 / s)) * 4.0 + 0.5 - s
        root = bisect_root(f, 1e-6, 50.0)
        est = maronna_regularized(Dataset([[2.0]]), u, 1.0)
        assert est.matrix.entries[0, 0] == pytest.approx(root, abs=1e-8)

    def test_tre_scalar_case(self):
        est = tyler_regularized(Dataset([[2.0]]), 1.0)
        assert est.matrix.entries[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert est.weights[0] == pytest.approx(0.25, abs=1e-10)

    def test_mre_constant_u_closed_form(self):
        # with u == c the equation needs no iteration:
        # Sigma = (c S)/(1+a) + a/(1+a) I
        rng = np.random.default_rng(7)
        x = rng.standard_normal((12, 4))
        c, alpha = 0.7, 0.5
        u = make_ufunction(lambda t: np.full_like(np.asarray(t, dtype=float), c))
        est = maronna_regularized(Dataset(x), u, alpha)
        s = x.T @ x / 12
        expected = c * s / (1 + alpha) + alpha / (1 + alpha) * np.eye(4)
        np.testing.assert_allclose(est.matrix.entries, expected, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 4.0])
    def test_eigenvalue_floor(self, alpha):
        rng = np.random.default_rng(8)
        data = Dataset(rng.standard_normal((15, 6)))
        for est in (tyler_regularized(data, alpha) if alpha > 0 else None,
                    maronna_regularized(data, rational_u(), alpha)):
            lam_min = np.linalg.eigvalsh(est.matrix.entries)[0]
            assert lam_min >= alpha / (1 + alpha) - 1e-10

    def test_mre_works_with_p_larger_than_n(self):
        rng = np.random.default_rng(9)
        est = maronna_regularized(Dataset(rng.standard_normal((10, 30))), rational_u(), 1.0)
        assert est.converged

    def test_tre_alpha_region(self):
        rng = np.random.default_rng(10)
        data = Dataset(rng.standard_normal((10, 20)))  # gamma = 2
        with pytest.raises(ExistenceError):
            tyler_regularized(data, 0.5)  # needs alpha > 1
        est = tyler_regularized(data, 1.5)
        assert est.converged

    def test_tre_rejects_zero_rows(self):
        x = np.zeros((5, 2))
        x[1:] = np.random.default_rng(11).standard_normal((4, 2))
        with pytest.raises(ExistenceError):
            tyler_regularized(Dataset(x), 1.0)


class TestFit:
    def test_dispatches_to_each_solver(self):
        data = sample(DistributionSpec("gaussian"), 60, 6, seed=12)
        u = rational_u()
        direct = {
            "TE": tyler(data),
            "ME": maronna(data, u),
            "TRE": tyler_regularized(data, 0.5),
            "MRE": maronna_regularized(data, u, 0.5),
        }
        for kind, est in direct.items():
            got = fit(kind, data, u=u, alpha=0.5)
            assert got.kind == kind
            np.testing.assert_array_equal(got.matrix.entries, est.matrix.entries)

    def test_rejects_unknown_kind_and_missing_u(self):
        data = sample(DistributionSpec("gaussian"), 30, 3, seed=13)
        with pytest.raises(ValueError):
            fit("XE", data)
        with pytest.raises(ValueError):
            fit("MRE", data, alpha=1.0)

    @pytest.mark.parametrize("kind", estimators.KINDS)
    @pytest.mark.parametrize("n,p", [(0, 0), (0, 64), (5, 0), (-1, 3)])
    def test_existence_checks_n_and_p_first(self, kind, n, p):
        # ahead of every kind's own rule (TRE's p/n, the missing u of ME/MRE)
        name, value = ("n", n) if n < 1 else ("p", p)
        with pytest.raises(ValueError, match=rf"^{name} must be at least 1, got {value}$"):
            estimators.require_existence(kind, n, p, alpha=1.0)

    def test_tyler_kinds_are_the_maronna_template_with_tyler_u(self):
        data = sample(DistributionSpec("laplace-iid"), 80, 20, seed=14)
        tre = tyler_regularized(data, 0.5)
        mre = maronna_regularized(data, tyler_u(), 0.5)
        assert np.array_equal(tre.matrix.entries, mre.matrix.entries)
        assert np.array_equal(tre.weights, mre.weights)


class TestInterferenceFunction:
    def test_fixed_point_at_converged_estimate(self):
        data = sample(DistributionSpec("gaussian"), 30, 4, seed=12)
        u = rational_u()
        est = maronna(data, u, SolverConfig(tol=1e-12))
        d = quad_forms(data.samples, est.matrix.entries)
        np.testing.assert_allclose(interference_h(d, data, u), d, atol=1e-8)

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        data = Dataset(rng.standard_normal((20, 3)))
        u = rational_u()
        for _ in range(100):
            d = rng.uniform(0.1, 5.0, size=20)
            d2 = d + rng.uniform(0.0, 2.0, size=20)
            h1, h2 = interference_h(d, data, u), interference_h(d2, data, u)
            assert np.all(h2 >= h1 - 1e-12)

    def test_scalability(self):
        rng = np.random.default_rng(14)
        data = Dataset(rng.standard_normal((20, 3)))
        u = rational_u()
        for _ in range(50):
            d = rng.uniform(0.1, 5.0, size=20)
            lhs = 2.0 * interference_h(d, data, u)
            rhs = interference_h(2.0 * d, data, u)
            assert np.all(lhs >= rhs - 1e-12)

    def test_positivity_and_validation(self):
        rng = np.random.default_rng(15)
        data = Dataset(rng.standard_normal((20, 3)))
        h = interference_h(np.full(20, 0.5), data, rational_u())
        assert np.all(h > 0)
        with pytest.raises(ValueError):
            interference_h(np.zeros(20), data, rational_u())


class TestTylerObjective:
    def test_minimized_by_tyler_weights(self):
        rng = np.random.default_rng(16)
        p = 5
        data = Dataset(rng.standard_normal((p + 1, p)))
        est = tyler(data, SolverConfig(tol=1e-13))
        n = data.n
        w_hat = n * est.weights / est.weights.sum()  # rescale onto the simplex
        base = tyler_objective(w_hat, data.samples)
        assert base <= tyler_objective(np.ones(n), data.samples) + 1e-9
        for _ in range(50):
            pert = np.abs(w_hat + rng.normal(0, 0.05, size=n))
            pert = np.maximum(pert, 1e-3)
            pert *= n / pert.sum()
            assert base <= tyler_objective(pert, data.samples) + 1e-9

    def test_scaling_shift_constant(self):
        rng = np.random.default_rng(17)
        data = Dataset(rng.standard_normal((12, 3)))
        w = np.ones(12)
        c = 1.7
        scaled = Dataset(c * data.samples)
        gap = tyler_objective(w, scaled.samples) - tyler_objective(w, data.samples)
        assert gap == pytest.approx(2 * 12 * np.log(c), rel=1e-10)

    def test_value_at_identity_covariance(self):
        # rows sqrt(p) e_i repeated give S = I; objective = n log n
        p, reps = 3, 2
        rows = np.vstack([np.sqrt(p) * np.eye(p)] * reps)
        data = Dataset(rows)
        n = data.n
        assert tyler_objective(np.ones(n), data.samples) == pytest.approx(n * np.log(n), rel=1e-12)


class TestDiagnostics:
    def test_sherman_morrison_identity_machine_precision(self):
        data = sample(DistributionSpec("gaussian"), 50, 10, seed=19)
        x = data.samples
        n, p = 50, 10
        gamma = p / n
        s = x.T @ x / n
        q_full = quad_forms(x, s)
        for i in range(n):
            s_minus = s - np.outer(x[i], x[i]) / n
            q_loo = float(x[i] @ np.linalg.solve(s_minus, x[i])) / p
            assert abs(q_full[i] - q_loo / (1 + gamma * q_loo)) <= 1e-10 * q_full[i]

    def test_quadratic_form_shape_independence(self):
        rng = np.random.default_rng(20)
        data = Dataset(rng.standard_normal((30, 5)))
        a = rng.standard_normal((5, 5))
        shape = ScatterMatrix(a @ a.T + 2 * np.eye(5))
        shaped = data.samples @ spd_sqrt(shape)
        q1 = quad_forms(data.samples, (data.samples.T @ data.samples) / 30)
        q2 = quad_forms(shaped, (shaped.T @ shaped) / 30)
        np.testing.assert_allclose(q1, q2, rtol=1e-10)

    def test_uniqueness_probe_random_inits(self):
        # the solver (identity start) and plain Picard from random SPD starts
        # must reach one fixed point
        rng = np.random.default_rng(21)
        data = Dataset(rng.standard_normal((40, 10)))
        u = rational_u()
        for kind in ("TE", "ME", "TRE", "MRE"):
            ref = fit(kind, data, u, 1.0, SolverConfig(tol=1e-12)).matrix.entries
            for _ in range(20):
                a = rng.standard_normal((10, 10))
                m, _ = picard_oracle(kind, data.samples, u.u, 1.0, start=a @ a.T + 0.5 * np.eye(10))
                assert np.linalg.norm(m - ref) / np.linalg.norm(ref) <= 1e-6, kind

    def test_weights_consistent_with_matrix(self):
        data = sample(DistributionSpec("gaussian"), 30, 5, seed=22)
        for est in (tyler(data), maronna(data, rational_u()),
                    tyler_regularized(data, 1.0),
                    maronna_regularized(data, rational_u(), 1.0)):
            recomputed = weights(est.kind, data.samples, est.matrix.entries,
                                 est.u.u if est.u else None)
            np.testing.assert_allclose(recomputed, est.weights, atol=1e-8)

    def test_fixed_point_residual_contract(self):
        data = sample(DistributionSpec("gaussian"), 30, 5, seed=23)
        est = tyler(data)
        assert est.converged
        residual = defining_residual("TE", data.samples, est.matrix.entries)
        assert residual <= 1e-10
        # the stored diagnostic is the same quantity the oracle computes
        assert est.residual == pytest.approx(residual, abs=1e-14)
        # identity is not a fixed point of this data
        assert defining_residual("TE", data.samples, np.eye(5)) > 1e-3


def f2py_inverse(chol):
    """Reference for `estimators._invert_lower`: the same recursion, ?trtri on
    diagonal blocks of at most 64 rows and two ?trmm products per split,
    through scipy's f2py wrappers, which copy their inputs and hold the GIL.
    Only the lower triangle of the result is the inverse."""
    p = chol.shape[0]
    if p <= 64:
        inv, info = lapack.dtrtri(chol, lower=1)
        assert info == 0
        return inv
    half = p // 2
    inv = chol.copy()
    inv[:half, :half] = f2py_inverse(chol[:half, :half])
    inv[half:, half:] = f2py_inverse(chol[half:, half:])
    lower_left = blas.dtrmm(1.0, inv[:half, :half], chol[half:, :half], side=1, lower=1)
    inv[half:, :half] = blas.dtrmm(-1.0, inv[half:, half:], lower_left, lower=1)
    return inv


def f2py_quad_forms(x, sigma):
    """Reference for `quad_forms`: the same LAPACK and BLAS routines through
    scipy's f2py wrappers."""
    n, p = x.shape
    chol, info = lapack.dpotrf(sigma, lower=1, clean=0)
    assert info == 0
    if n >= p:
        z = blas.dtrmm(1.0, f2py_inverse(chol), x.T, lower=1)
    else:
        z = blas.dtrsm(1.0, chol, x.T, lower=1)
    return np.einsum("ij,ij->j", z, z) / p


def recursive_inverse(chol):
    """The inverse of the lower triangular `chol` by `estimators._invert_lower`,
    in chol's precision, with zeros above the diagonal."""
    work = np.array(chol, order="F")
    k = estimators._KERNELS[work.dtype]
    dim = ctypes.c_int(work.shape[0])
    estimators._invert_lower(k, k.scalar.from_buffer(work.T), dim, 0, dim.value, ctypes.c_int(0))
    return np.tril(work)


def capsule_kernels(monkeypatch):
    """`quad_forms`' kernels in both precisions bound as where scipy bundles
    no libscipy_openblas: through scipy's Cython capsules."""
    monkeypatch.setattr(parallel, "SCIPY_OPENBLAS", None)
    return {np.dtype(np.float64): estimators._bind("d", ctypes.c_double),
            np.dtype(np.float32): estimators._bind("s", ctypes.c_float)}


def _layout(a, order):
    """`a` as a C-ordered, F-ordered or strided (every other entry) array."""
    if order == "strided":
        big = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
        big[::2, ::2] = a
        return big[::2, ::2]
    return np.asarray(a, order=order)


class TestQuadForms:
    """Both kernels of `quad_forms`: the inverted factor (rows >= p) and
    the triangular solve (rows < p)."""

    P = 12

    @staticmethod
    def _spd(rng, p):
        a = rng.standard_normal((p, p))
        return a @ a.T + 0.5 * np.eye(p)

    @pytest.mark.parametrize("rows", [1, P - 1, P, 2 * P])
    def test_matches_dense_solve(self, rows):
        rng = np.random.default_rng(40 + rows)
        sigma = self._spd(rng, self.P)
        x = rng.standard_normal((rows, self.P))
        want = np.einsum("ij,ji->i", x, np.linalg.solve(sigma, x.T)) / self.P
        np.testing.assert_allclose(quad_forms(x, sigma), want, rtol=1e-12)

    @pytest.mark.parametrize("p", [P, 96])
    @pytest.mark.parametrize("rows", ["1", "p-1", "p", "2p"])
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_equals_f2py_kernels(self, p, rows, order):
        n = {"1": 1, "p-1": p - 1, "p": p, "2p": 2 * p}[rows]
        rng = np.random.default_rng(p + n)
        sigma = self._spd(rng, p)
        # only the lower triangle is read: junk above it must not matter
        sigma[np.triu_indices(p, 1)] = rng.standard_normal(p * (p - 1) // 2)
        x = rng.standard_normal((n, p))
        got = quad_forms(_layout(x, order), _layout(sigma, order))
        assert np.array_equal(got, f2py_quad_forms(x, sigma))

    @pytest.mark.parametrize("p", [48, 64, 65, 129, 257])
    @pytest.mark.parametrize("rows", ["p/2", "2p"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kernels_by_path_equal_capsule_kernels(self, p, rows, dtype, monkeypatch):
        n = {"p/2": p // 2, "2p": 2 * p}[rows]
        rng = np.random.default_rng(47 + p + n)
        sigma = self._spd(rng, p).astype(dtype)
        x = rng.standard_normal((n, p)).astype(dtype)
        got = quad_forms(x, sigma)
        monkeypatch.setattr(estimators, "_KERNELS", capsule_kernels(monkeypatch))
        assert np.array_equal(got, quad_forms(x, sigma))

    def test_worker_pool_equals_serial(self):
        rng = np.random.default_rng(44)
        units = []
        for k in range(16):
            p = 48 + 8 * (k % 4)
            x = rng.standard_normal((p // 2 if k % 2 else 2 * p, p))
            units.append((x, self._spd(rng, p)))
        # and at p >= 129, where the inverse recurses two levels deep
        for p in (129, 160, 192, 257):
            units.append((rng.standard_normal((2 * p, p)), self._spd(rng, p)))
        serial = [quad_forms(x, s) for x, s in units]
        pooled = map_units(lambda u: quad_forms(*u), units, threads=2)
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))

    @pytest.mark.parametrize("p", [64, 65, 96, 128, 129, 257, 512])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recursive_inverse_at_split_boundaries(self, p, dtype):
        # p <= 64 is one ?trtri call; 65 and 129 split into blocks of unequal
        # order; 129, 257 and 512 recurse two or more levels deep
        rng = np.random.default_rng(46 + p)
        a = rng.standard_normal((2 * p, p))
        chol = np.linalg.cholesky(a.T @ a / (2 * p)).astype(dtype)
        got = recursive_inverse(chol)
        u = np.finfo(dtype).eps / 2
        # the normwise bound of LAPACK's triangular inverses (Du Croz & Higham 1992)
        lf, gf = chol.astype(np.float64), got.astype(np.float64)
        bound = p * u * np.linalg.norm(gf) * np.linalg.norm(lf)
        assert np.linalg.norm(gf @ lf - np.eye(p)) <= bound
        whole, info = (lapack.dtrtri if dtype == np.float64 else lapack.strtri)(chol, lower=1)
        assert info == 0
        np.testing.assert_allclose(got, np.tril(whole), rtol=0,
                                   atol=(1e-13 if dtype == np.float64 else 1e-5)
                                   * np.abs(whole).max())
        if dtype == np.float64:
            assert np.array_equal(got, np.tril(f2py_inverse(chol)))

    @pytest.mark.parametrize("x_shape,sigma_shape", [((0, P), (P, P)), ((3, P), (P + 1, P + 1)),
                                                     ((3, P), (P, 1))])
    def test_bad_shapes_raise_before_the_kernels(self, x_shape, sigma_shape):
        with pytest.raises(ValueError, match="nonempty n x p x and a p x p sigma"):
            quad_forms(np.ones(x_shape), np.eye(*sigma_shape))

    def test_illegal_kernel_argument_raises(self):
        # a negative LAPACK info (an illegal argument) raises; no forms are returned
        with pytest.raises(ValueError, match="dpotrf: argument 4 has an illegal value"):
            estimators._require_factor("dpotrf", ctypes.c_int(-4))

    @pytest.mark.parametrize("rows", [1, 2 * P])
    def test_non_spd_raises(self, rows):
        x = np.random.default_rng(41).standard_normal((rows, self.P))
        sigma = np.eye(self.P)
        sigma[3, 3] = -1.0
        for dtype in (np.float64, np.float32):
            with pytest.raises(np.linalg.LinAlgError, match=r"leading minor 4\)"):
                quad_forms(x.astype(dtype), sigma.astype(dtype))

    @pytest.mark.parametrize("p", [P, 128])
    @pytest.mark.parametrize("rows", ["1", "p-1", "2p"])
    def test_float32_forms_match_float64(self, p, rows):
        n = {"1": 1, "p-1": p - 1, "2p": 2 * p}[rows]
        rng = np.random.default_rng(45 + p + n)
        sigma = self._spd(rng, p) / p
        x = rng.standard_normal((n, p))
        x32 = x.astype(np.float32)
        got = quad_forms(x32, sigma.astype(np.float32))
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, quad_forms(x, sigma), rtol=1e-5)
        # float32 only when both inputs are: one float64 input keeps float64
        assert np.array_equal(quad_forms(x32, sigma), quad_forms(x32.astype(np.float64), sigma))

    def test_weighted_cov_exactly_symmetric(self):
        x = sample(DistributionSpec("laplace-iid"), 90, 30, seed=42).samples
        w = np.random.default_rng(43).random(90)
        s = estimators._weighted_cov(x, w)
        assert np.array_equal(s, s.T)
        want = x.T @ (x * w[:, None]) / 90
        np.testing.assert_allclose(s, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def _record_dtypes(monkeypatch):
    """Record the precision of each `quad_forms` call the solver makes
    (float32 only when x and sigma both are), with ":failed" when the call
    raised `LinAlgError` or returned forms that are not finite and positive."""
    dtypes = []

    def recorded(x, sigma):
        name = "float32" if x.dtype == sigma.dtype == np.float32 else "float64"
        try:
            forms = quad_forms(x, sigma)
        except np.linalg.LinAlgError:
            dtypes.append(name + ":failed")
            raise
        dtypes.append(name if np.all((forms > 0) & (forms < np.inf)) else name + ":failed")
        return forms

    monkeypatch.setattr(estimators, "quad_forms", recorded)
    return dtypes


ELLIPTICAL_PARETO = DistributionSpec("elliptical", radial_law=RadialLaw("pareto", 3.0))


class TestSolver:
    """The Anderson-mixed d-space iteration behind all four solvers."""

    @pytest.mark.parametrize("kind", ["ME", "TRE", "MRE"])
    def test_agrees_with_plain_picard_oracle(self, kind):
        data = sample(DistributionSpec("gaussian"), 40, 5, seed=3)
        u = rational_u()
        est = fit(kind, data, u, 0.5, SolverConfig(tol=1e-12))
        sig, _ = picard_oracle(kind, data.samples, u.u, 0.5)
        np.testing.assert_allclose(est.matrix.entries, sig, atol=1e-8)

    @pytest.mark.parametrize("kind", ["TE", "ME", "TRE", "MRE"])
    @pytest.mark.parametrize("spec", [DistributionSpec("gaussian"),
                                      DistributionSpec("laplace-iid"), ELLIPTICAL_PARETO],
                             ids=["gaussian", "laplace-iid", "elliptical-pareto3"])
    def test_converged_means_defining_residual_within_tol(self, kind, spec):
        data = sample(spec, 120, 30, seed=24)
        u = rational_u()
        for cfg in (SolverConfig(), SolverConfig(tol=1e-9)):
            est = fit(kind, data, u, 0.7, cfg)
            assert est.converged
            assert defining_residual(kind, data.samples, est.matrix.entries, u.u, 0.7) <= cfg.tol
            assert est.iterations <= cfg.max_iter

    @pytest.mark.parametrize("kind", ["ME", "MRE"])
    def test_zero_row_converges_with_weight_u0(self, kind):
        x = sample(DistributionSpec("laplace-iid"), 60, 8, seed=26).samples.copy()
        x[[5, 17]] = 0.0
        data = Dataset(x)
        u = rational_u()
        est = fit(kind, data, u, 1.0)
        assert est.converged
        assert defining_residual(kind, x, est.matrix.entries, u.u, 1.0) <= 1e-10
        np.testing.assert_array_equal(est.weights[[5, 17]], u.u(np.zeros(2)))
        sig, _ = picard_oracle(kind, x, u.u, 1.0)
        np.testing.assert_allclose(est.matrix.entries, sig, atol=1e-8)

    @pytest.mark.parametrize("kind", ["TE", "ME", "TRE", "MRE"])
    @pytest.mark.parametrize("spec", [DistributionSpec("gaussian"),
                                      DistributionSpec("laplace-iid")],
                             ids=["gaussian", "laplace-iid"])
    def test_float32_phase_agrees_with_picard_oracle_at_p128(self, kind, spec, monkeypatch):
        # at n = 2p the first evaluations run in float32; the solve ends on a
        # float64 evaluation whose defining residual is within tol
        dtypes = _record_dtypes(monkeypatch)
        data = sample(spec, 256, 128, seed=30)
        u = rational_u()
        cfg = SolverConfig()
        est = fit(kind, data, u, 0.5, cfg)
        assert est.converged and est.residual <= cfg.tol
        assert defining_residual(kind, data.samples, est.matrix.entries, u.u, 0.5) <= cfg.tol
        assert dtypes[0] == "float64"  # the start: the forms at the identity
        assert "float32" in dtypes[1:] and dtypes[-1] == "float64"
        assert len(dtypes) == est.iterations + 1
        sig, _ = picard_oracle(kind, data.samples, u.u, 0.5)
        np.testing.assert_allclose(est.matrix.entries, sig, atol=1e-8)
        # a tolerance looser than the switch level still ends in float64
        dtypes.clear()
        loose = fit(kind, data, u, 0.5, SolverConfig(tol=1e-4))
        assert loose.converged and dtypes[-1] == "float64"
        assert defining_residual(kind, data.samples, loose.matrix.entries, u.u, 0.5) <= 1e-4

    @pytest.mark.parametrize("kind,fault", [("TE", "cholesky"), ("ME", "cholesky"),
                                            ("TE", "overflow"), ("TRE", "overflow")])
    def test_failed_float32_evaluation_falls_back_to_float64(self, kind, fault, monkeypatch):
        # "cholesky": a column of scale 1e-25 keeps the data full rank in
        # float64, but its float32 weighted variance underflows to 0, so
        # spotrf stops there (the TRE/MRE ridge would keep it SPD).
        # "overflow": rows of scale 1e20 leave the Tyler kinds' estimate as
        # it is, but their float32 forms (about 1e40) overflow to inf.
        dtypes = _record_dtypes(monkeypatch)
        x = sample(DistributionSpec("gaussian"), 60, 6, seed=31).samples.copy()
        if fault == "cholesky":
            x[:, 2] *= 1e-25
        else:
            x *= 1e20
        u = rational_u()
        est = fit(kind, Dataset(x), u, 0.5)
        assert est.converged
        assert defining_residual(kind, x, est.matrix.entries, u.u, 0.5) <= 1e-10
        # the failed float32 attempt is redone, as the same evaluation, in float64
        assert dtypes[:3] == ["float64", "float32:failed", "float64"]
        assert set(dtypes[3:]) == {"float64"} and len(dtypes) == est.iterations + 2
        sig, _ = picard_oracle(kind, x, u.u, 0.5)
        np.testing.assert_allclose(est.matrix.entries, sig, atol=1e-8)

    def test_constant_map_does_not_stall_at_the_switch(self, monkeypatch):
        # Huber t = 2 at n = 2p: every d_i(S) <= n/p = 2, and on this draw
        # every start form is below 2 too, so u = 1 throughout and the map
        # is constant. The second float32 evaluation shows an RMS of exactly
        # 0, the first float64 one float32's rounding (about 1e-7): compared
        # across the switch, as a rejected step or as a secant pair, that
        # stalls the mixing (5 and 10 evaluations).
        dtypes = _record_dtypes(monkeypatch)
        data = sample(DistributionSpec("gaussian"), 32, 16, seed=32)
        est = maronna(data, huber_u(2.0))
        assert est.converged and np.all(est.weights == 1.0)
        assert dtypes[1:] == ["float32", "float32", "float64", "float64"]
        assert est.iterations == 4

    @pytest.mark.parametrize("kind", ["TE", "ME", "TRE", "MRE"])
    @pytest.mark.parametrize("max_iter", [2, 7, 500])
    def test_quad_forms_called_once_per_iteration_plus_one(self, kind, max_iter, monkeypatch):
        calls = []

        def counted(x, sigma):
            calls.append(1)
            return quad_forms(x, sigma)

        monkeypatch.setattr(estimators, "quad_forms", counted)
        data = sample(DistributionSpec("laplace-iid"), 80, 20, seed=27)
        est = fit(kind, data, rational_u(), 0.5, SolverConfig(max_iter=max_iter))
        assert len(calls) == est.iterations + 1
        assert est.iterations <= max_iter
        assert est.converged == (max_iter == 500)

    @pytest.mark.parametrize("kind", ["TE", "ME"])
    def test_stalled_solve_stops_unconverged(self, kind, monkeypatch):
        # columns 0 and 1 equal to within 1e-6: float64's RMS log-residual
        # stops falling far above tol, and the solve stops there, well before
        # max_iter = 500
        dtypes = _record_dtypes(monkeypatch)
        x = sample(DistributionSpec("gaussian"), 60, 6, seed=31).samples.copy()
        x[:, 1] = x[:, 0] + 1e-6 * np.random.default_rng(33).standard_normal(60)
        est = fit(kind, Dataset(x), rational_u())
        assert not est.converged
        assert est.iterations <= 50
        # one call per evaluation and the start, plus one per failed float32 attempt
        assert len(dtypes) == est.iterations + 1 + sum(t.endswith(":failed") for t in dtypes)
        assert np.isfinite(est.residual) and est.residual > 1e-10
        with pytest.raises(ConvergenceError, match=f"{kind} did not converge"):
            est.require_converged()

    @pytest.mark.parametrize("n", [67, 70])
    @pytest.mark.parametrize("spec", [DistributionSpec("gaussian"),
                                      DistributionSpec("laplace-iid")],
                             ids=["gaussian", "laplace-iid"])
    def test_slow_tyler_solve_near_n_equal_p_is_not_stopped(self, spec, n):
        # at n <= 1.1p TE's RMS log-residual falls slowly, by new minima that
        # take 10-20 float64 evaluations to halve it, yet the solve converges
        # (35-126 evaluations). Picard takes 450-1100 updates to 1e-13, a
        # contraction of 0.93-0.97, so a fit with residual 1e-10 is within
        # about 30 times that of the fixed point
        cfg = SolverConfig()
        for seed in range(100, 104):
            data = sample(spec, n, 64, seed=seed)
            est = tyler(data, cfg)
            assert est.converged and est.residual <= cfg.tol
            assert defining_residual("TE", data.samples, est.matrix.entries) <= cfg.tol
            sig, _ = picard_oracle("TE", data.samples)
            np.testing.assert_allclose(est.matrix.entries, sig, atol=1e-8)

    def test_uses_at_most_half_the_picard_evaluations(self):
        # a count guard on the acceleration itself, against the plain iteration
        data = sample(DistributionSpec("laplace-iid"), 256, 128, seed=28)
        est = tyler(data)
        assert est.converged
        _, picard_updates = picard_oracle("TE", data.samples, tol=1e-10)
        assert est.iterations <= picard_updates / 2


# a NaN fails every float precondition, as an out-of-range number does
@pytest.mark.parametrize("call,match", [
    (lambda data: SolverConfig(tol=np.nan), "tol must be positive"),
    (lambda data: huber_u(np.nan), "huber threshold"),
    (lambda data: huber_u(np.inf), "huber threshold"),
    (lambda data: tyler_regularized(data, np.nan), "TRE needs alpha"),
    (lambda data: maronna_regularized(data, rational_u(), np.nan), "MRE needs alpha"),
    (lambda data: interference_h(np.full(data.n, np.nan), data, rational_u()),
     "strictly positive"),
], ids=["tol", "huber-t", "huber-t-inf", "tre-alpha", "mre-alpha", "interference-d"])
def test_nan_fails_preconditions(call, match):
    data = Dataset(np.random.default_rng(29).standard_normal((20, 3)))
    with pytest.raises(ValueError, match=match):
        call(data)
