import numpy as np
import pytest

from robust_scatter import (
    Dataset,
    DistributionSpec,
    InfeasibleError,
    RadialLaw,
    ScatterMatrix,
    choose_threshold,
    clime,
    clime_column,
    hard_threshold,
    sample,
    sparse_cov_estimate,
    tyler,
)
from lp_oracle import clime_column_oracle


class TestHardThreshold:
    def test_zero_threshold_is_identity(self):
        m = np.array([[1.0, -0.2], [0.3, 0.0]])
        np.testing.assert_array_equal(hard_threshold(m, 0.0), m)

    def test_kills_small_entries(self):
        m = np.array([[1.0, 0.2], [0.2, 1.0]])
        np.testing.assert_array_equal(hard_threshold(m, 0.5), np.eye(2))

    def test_boundary_kept(self):
        np.testing.assert_array_equal(hard_threshold(np.array([[0.5]]), 0.5), [[0.5]])

    def test_entries_exactly_zero_or_input(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(8, 8))
        out = hard_threshold(m, 0.7)
        assert np.all((out == 0.0) | (out == m))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 6))
        once = hard_threshold(m, 0.4)
        np.testing.assert_array_equal(hard_threshold(once, 0.4), once)

    def test_supports_nested_in_t(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(7, 7))
        prev = np.abs(hard_threshold(m, 0.1)) > 0
        for t in (0.3, 0.6, 1.2):
            cur = np.abs(hard_threshold(m, t)) > 0
            assert np.all(prev | ~cur)  # cur support subset of prev
            prev = cur

    def test_negative_t_rejected(self):
        for t in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="threshold t"):
                hard_threshold(np.eye(2), t)


class TestChooseThreshold:
    def test_formula(self):
        assert choose_threshold(1, np.e, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_linear_in_c1(self):
        t1 = choose_threshold(100, 50, 2.0, 1.0)
        t2 = choose_threshold(100, 50, 2.0, 2.0)
        assert t2 == pytest.approx(2 * t1, rel=1e-12)

    def test_sqrt_scaling_in_n(self):
        t1 = choose_threshold(100, 50, 2.0, 1.0)
        t4 = choose_threshold(400, 50, 2.0, 1.0)
        assert t4 == pytest.approx(t1 / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_threshold(100, 50, 0.0, 1.0)
        with pytest.raises(ValueError):
            choose_threshold(100, 1.0, 1.0, 1.0)
        # a NaN fails each check, as an out-of-range number does
        for args, match in [((100, 50, 2.0, float("nan")), "c1"),
                            ((100, 50, float("nan"), 1.0), "scale"),
                            ((float("nan"), 50, 2.0, 1.0), "n >= 1")]:
            with pytest.raises(ValueError, match=match):
                choose_threshold(*args)


class TestSparseCovPipeline:
    def test_composition_is_exact(self):
        data = sample(DistributionSpec("gaussian"), 80, 10, seed=3)
        est = sparse_cov_estimate(data, c1=0.5)
        dense = tyler(data).matrix.entries
        t = choose_threshold(80, 10, np.linalg.norm(dense, 2), 0.5)
        np.testing.assert_array_equal(est.matrix, hard_threshold(dense, t))
        assert est.method == "threshold"
        assert est.parameter == pytest.approx(t)

    def test_heavy_tail_identity_offdiagonals_cleared(self):
        spec = DistributionSpec("elliptical", radial_law=RadialLaw("pareto", 2.5))
        data = sample(spec, 500, 50, seed=4)
        est = sparse_cov_estimate(data, c1=2.0)
        off = est.matrix - np.diag(np.diag(est.matrix))
        assert np.all(off == 0.0)

    def test_recovers_tridiagonal_support(self):
        p = 50
        tri = np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1))
        spec = DistributionSpec("gaussian", shape=ScatterMatrix(tri))
        est = sparse_cov_estimate(sample(spec, 2000, p, seed=5), c1=0.5,
                                  truth=tri)
        found = (np.abs(est.matrix) > 0) & (tri > 0)
        assert found.sum() / (tri > 0).sum() >= 0.9
        assert est.error_vs_truth is not None


class TestClimeColumn:
    def test_identity_small_lambda(self):
        col = clime_column(ScatterMatrix(np.eye(3)), 0, 0.25)
        np.testing.assert_allclose(col, [0.75, 0.0, 0.0], atol=1e-10)

    def test_identity_large_lambda(self):
        col = clime_column(ScatterMatrix(np.eye(3)), 1, 1.0)
        np.testing.assert_allclose(col, 0.0, atol=1e-12)

    def test_diagonal_two_by_two(self):
        col = clime_column(ScatterMatrix(np.diag([2.0, 1.0])), 0, 0.1)
        np.testing.assert_allclose(col, [0.45, 0.0], atol=1e-10)

    def test_infeasible_rank_deficient(self):
        s = ScatterMatrix(np.ones((2, 2)))
        with pytest.raises(InfeasibleError):
            clime_column(s, 0, 0.3)  # needs lam >= 1/2

    def test_lambda_validation(self):
        for lam in (0.0, float("nan")):
            with pytest.raises(ValueError, match="lambda must be positive"):
                clime_column(ScatterMatrix(np.eye(2)), 0, lam)
        with pytest.raises(IndexError):
            clime_column(ScatterMatrix(np.eye(2)), 2, 0.5)

    def test_matches_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            p = int(rng.integers(2, 5))
            a = rng.normal(size=(p, p))
            s = a @ a.T / p + 0.3 * np.eye(p)
            j = int(rng.integers(p))
            lam = float(rng.uniform(0.05, 0.4))
            w = clime_column(ScatterMatrix(s), j, lam)
            oracle = clime_column_oracle(s, j, lam)
            assert oracle is not None
            ej = np.zeros(p)
            ej[j] = 1.0
            assert np.max(np.abs(s @ w - ej)) <= lam + 1e-9
            assert abs(np.abs(w).sum() - oracle[1]) <= 1e-6


class TestClime:
    def test_identity_factor(self):
        est = clime(ScatterMatrix(np.eye(4)), 0.5)
        np.testing.assert_allclose(est.matrix, 0.5 * np.eye(4), atol=1e-10)
        assert est.method == "clime"

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(6, 6))
        s = ScatterMatrix(a @ a.T / 6 + 0.5 * np.eye(6))
        est = clime(s, 0.2)
        np.testing.assert_array_equal(est.matrix, est.matrix.T)

    def test_l1_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        s = ScatterMatrix(a @ a.T / 5 + 0.5 * np.eye(5))
        norms = [np.abs(clime(s, lam).matrix).sum() for lam in (0.05, 0.15, 0.4)]
        assert norms[0] >= norms[1] >= norms[2]

    def test_threads_do_not_change_result(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 5))
        s = ScatterMatrix(a @ a.T / 5 + 0.5 * np.eye(5))
        np.testing.assert_array_equal(clime(s, 0.2).matrix,
                                      clime(s, 0.2, threads=3).matrix)

    def test_beats_naive_inversion_on_sparse_precision(self):
        # tridiagonal precision; lambda frozen from the pilot (0.02)
        p = 30
        omega = np.eye(p) + 0.3 * (np.eye(p, k=1) + np.eye(p, k=-1))
        sigma = np.linalg.inv(omega)
        sigma *= p / np.trace(sigma)
        omega_true = np.linalg.inv(sigma)
        spec = DistributionSpec("gaussian", shape=ScatterMatrix(sigma))
        est = tyler(sample(spec, 2000, p, seed=42))
        naive_err = np.linalg.norm(np.linalg.inv(est.matrix.entries) - omega_true, 2)
        out = clime(est.matrix, 0.02, truth=omega_true)
        assert out.error_vs_truth.operator_norm < naive_err


def test_clime_column_at_the_clime_rate_on_a_tyler_proxy():
    # multivariate t5 rows with a tridiagonal shape, p = 40, n = 400, at
    # lambda = sqrt(log p / n): many-pivot programs, not one-pivot ones
    p, n = 40, 400
    rng = np.random.default_rng(11)
    tri = np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1))
    g = rng.standard_normal((n, p)) @ np.linalg.cholesky(tri).T
    rows = g / np.sqrt(rng.chisquare(5, size=n) / 5)[:, None]
    s = tyler(Dataset(rows)).matrix.entries
    lam = float(np.sqrt(np.log(p) / n))
    s_inv = np.linalg.inv(s)
    for j in (0, p // 2, p - 1):
        w = clime_column(ScatterMatrix(s), j, lam)
        ej = np.zeros(p)
        ej[j] = 1.0
        assert np.max(np.abs(s @ w - ej)) <= lam + 1e-9
        # S^{-1} e_j is feasible, so the l1 minimizer cannot exceed its norm
        assert np.abs(w).sum() <= np.abs(s_inv[:, j]).sum() + 1e-9
