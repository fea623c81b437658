import numpy as np
import pytest

from robust_scatter import (
    CsvFormatError,
    Dataset,
    ScatterMatrix,
    leave_one_out_covariance,
    load_dataset_csv,
    matrix_norms,
    sample_covariance,
    save_matrix_csv,
)


def brute_force_cov(rows):
    """Independent oracle: explicit (1/n) sum of outer products."""
    rows = [np.asarray(r, dtype=float) for r in rows]
    p = rows[0].size
    acc = np.zeros((p, p))
    for r in rows:
        acc += np.outer(r, r)
    return acc / len(rows)


def power_iteration_opnorm(m, iters=2000):
    """Independent oracle for the largest singular value."""
    a = np.asarray(m, dtype=float)
    v = np.ones(a.shape[1]) / np.sqrt(a.shape[1])
    g = a.T @ a
    for _ in range(iters):
        v = g @ v
        v /= np.linalg.norm(v)
    return float(np.sqrt(v @ g @ v))


class TestSampleCovariance:
    def test_scalar_two_samples(self):
        s = sample_covariance(Dataset([[1.0], [3.0]]))
        np.testing.assert_allclose(s.entries, [[5.0]])

    def test_single_row_outer_product(self):
        s = sample_covariance(Dataset([[1.0, 0.0]]))
        np.testing.assert_allclose(s.entries, [[1.0, 0.0], [0.0, 0.0]])

    def test_three_by_two_vs_brute_force(self):
        rows = [[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]]
        s = sample_covariance(Dataset(rows))
        np.testing.assert_allclose(s.entries, [[2.0 / 3.0, 0.0], [0.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(s.entries, brute_force_cov(rows), atol=1e-15)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        s1 = sample_covariance(Dataset(x))
        s2 = sample_covariance(Dataset(x[rng.permutation(12)]))
        np.testing.assert_allclose(s1.entries, s2.entries, rtol=1e-12)

    def test_entrywise_deviation_shrinks_with_n(self):
        # isotropic data at p=50: mean max|S - I| decreases from n=1250 to n=5000
        p = 50
        devs = {n: [] for n in (1250, 5000)}
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for n in devs:
                x = rng.standard_normal((n, p))
                s = sample_covariance(Dataset(x)).entries
                devs[n].append(np.max(np.abs(s - np.eye(p))))
        assert np.mean(devs[5000]) < np.mean(devs[1250])


class TestLeaveOneOut:
    def test_scalar_cases(self):
        d = Dataset([[1.0], [3.0]])
        np.testing.assert_allclose(leave_one_out_covariance(d, 0).entries, [[4.5]])
        np.testing.assert_allclose(leave_one_out_covariance(d, 1).entries, [[0.5]])

    def test_three_by_two(self):
        d = Dataset([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]])
        loo = leave_one_out_covariance(d, 2)
        np.testing.assert_allclose(loo.entries, [[2.0 / 3.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-15)
        # cross-check against full covariance minus the outer product
        full = sample_covariance(d).entries
        np.testing.assert_allclose(loo.entries + np.outer(d.row(2), d.row(2)) / 3, full,
                                   atol=1e-15)

    def test_decomposition_identity_random(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((9, 5))
        d = Dataset(x)
        full = sample_covariance(d).entries
        for j in range(d.n):
            recon = leave_one_out_covariance(d, j).entries + np.outer(x[j], x[j]) / d.n
            assert np.max(np.abs(recon - full)) <= 1e-12 * np.max(np.abs(full))

    def test_index_out_of_range(self):
        d = Dataset([[1.0], [3.0]])
        with pytest.raises(IndexError):
            leave_one_out_covariance(d, 2)
        with pytest.raises(IndexError):
            leave_one_out_covariance(d, -1)


class TestMatrixNorms:
    def test_identity(self):
        r = matrix_norms(np.eye(2))
        assert (r.max_norm, r.l1_norm, r.operator_norm) == (1.0, 2.0, 1.0)

    def test_symmetric_off_diagonal(self):
        r = matrix_norms([[0.0, -3.0], [-3.0, 0.0]])
        assert r.max_norm == 3.0
        assert r.l1_norm == 6.0
        assert r.operator_norm == pytest.approx(3.0)

    def test_operator_norm_vs_power_iteration(self):
        m = [[1.0, 2.0], [0.0, 1.0]]
        r = matrix_norms(m)
        assert r.max_norm == 2.0
        assert r.l1_norm == 4.0
        assert r.operator_norm == pytest.approx(power_iteration_opnorm(m), rel=1e-10)

    def test_invariants_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = rng.standard_normal((6, 6))
            m = (m + m.T) / 2
            r = matrix_norms(m)
            assert 0 <= r.max_norm <= r.l1_norm
            assert r.operator_norm >= np.max(np.abs(np.diag(m))) - 1e-12


class TestDatasetAndScatterMatrix:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            Dataset([[np.nan]])
        with pytest.raises(ValueError):
            Dataset([1.0, 2.0])

    def test_dataset_immutable(self):
        d = Dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            d.samples[0, 0] = 5.0

    def test_scatter_matrix_symmetrized_on_write(self):
        m = ScatterMatrix([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(m.entries, m.entries.T)


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 3))
        path = tmp_path / "d.csv"
        save_matrix_csv(x, path, digits=17)
        back = load_dataset_csv(path)
        np.testing.assert_allclose(back.samples, x, rtol=1e-15)

    def test_parse_error_reports_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(CsvFormatError) as exc:
            load_dataset_csv(path)
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(CsvFormatError) as exc:
            load_dataset_csv(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_rejected(self, token, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text(f"1.0,2.0\n3.0,{token}\n")
        with pytest.raises(CsvFormatError) as exc:
            load_dataset_csv(path)
        assert exc.value.line == 2
        assert exc.value.column == 2

    def test_blank_lines_after_the_first_row_skipped(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("1.0,2.0\n\n3.0,4.0\n\n")
        np.testing.assert_array_equal(load_dataset_csv(path).samples, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            load_dataset_csv(path)
