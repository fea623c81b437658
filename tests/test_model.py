import re

import numpy as np
import pytest

import robust_scatter
from robust_scatter import (
    CsvFormatError,
    Dataset,
    DistributionSpec,
    ExperimentConfig,
    ScatterMatrix,
    SolverConfig,
    derive_seed,
    leave_one_out_covariance,
    load_dataset_csv,
    matrix_norms,
    require_existence,
    sample,
    sample_covariance,
    save_matrix_csv,
    solve_master,
)
from robust_scatter.cli import build_parser
from robust_scatter.master_equation import QMonteCarlo
from robust_scatter.parallel import map_units


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


# ---------------------------------------------------------------------------
# the count rule: every count, size, seed and index goes through require_count
# ---------------------------------------------------------------------------

_GAUSS = DistributionSpec("gaussian")


def _clime_cli(threads, tmp_path):
    path = tmp_path / "data.csv"
    save_matrix_csv(np.random.default_rng(0).standard_normal((40, 4)), path)
    args = build_parser().parse_args(["clime", "--input", str(path), "--lambda", "0.3",
                                      "--out", str(tmp_path / "out.csv")])
    args.threads = threads  # past the parser's type=int, as a library caller could
    robust_scatter.cli._cmd_clime(args)


def _experiment(**fields):
    return ExperimentConfig(**{"kind": "TE", "dist": _GAUSS, "dims": (4,), "reps": 2, **fields})


# input -> (name in the message, minimum, call taking (value, tmp_path)); the
# call returns the int the callee stored, or None where it only checks
COUNT_INPUTS = {
    "require_existence-n": ("n", 1, lambda v, _: require_existence("TE", v, 5)),
    "require_existence-p": ("p", 1, lambda v, _: require_existence("TRE", 10, v, alpha=1.0)),
    "require_dims-n": ("n", 1, lambda v, _: _GAUSS.require_dims(v, 3)),
    "require_dims-p": ("p", 1, lambda v, _: _GAUSS.require_dims(3, v)),
    "sample-n": ("n", 1, lambda v, _: sample(_GAUSS, v, 5, 1).n),
    "sample-seed": ("seed", 0, lambda v, _: sample(_GAUSS, 4, 3, v) and None),
    "derive_seed-seed": ("seed", 0, lambda v, _: derive_seed(v, 1) and None),
    "derive_seed-path": ("path index", 0, lambda v, _: derive_seed(5, v) and None),
    "solve_master-n": ("n", 1, lambda v, _: solve_master(_GAUSS, v, 5, 1.0, reps=20, seed=3)
                       and None),
    "solve_master-reps": ("reps", 1, lambda v, _: solve_master(_GAUSS, 20, 5, 1.0, reps=v,
                                                               seed=3).mc_reps),
    "solve_master-seed": ("seed", 0, lambda v, _: solve_master(_GAUSS, 20, 5, 1.0, reps=20,
                                                               seed=v) and None),
    "QMonteCarlo-n": ("n", 1, lambda v, _: QMonteCarlo(_GAUSS, v, 5, 20, 3) and None),
    "QMonteCarlo-reps": ("reps", 1, lambda v, _: QMonteCarlo(_GAUSS, 20, 5, v, 3).reps),
    "max_iter": ("max_iter", 1, lambda v, _: SolverConfig(max_iter=v).max_iter),
    "map_units-threads": ("threads", 1, lambda v, _: map_units(abs, [-1, 2], v) and None),
    "clime-cli-threads": ("threads", 1, _clime_cli),
    "experiment-dims": ("dims", 1, lambda v, _: _experiment(dims=(v,)).dims[0]),
    **{f"experiment-{field}": (name, minimum,
                               lambda v, _, field=field: getattr(_experiment(**{field: v}), field))
       for field, name, minimum in (("ratio", "ratio", 1),
                                    ("reps", "reps", 1), ("mc_reps", "mc_reps", 1),
                                    ("threads", "threads", 1), ("base_seed", "seed", 0))},
}


def _no_work(*args, **kwargs):
    raise AssertionError("a draw or solve ran before the count was checked")


@pytest.mark.parametrize("bad", [2.5, "3", None, "below"], ids=["float", "str", "none", "below"])
@pytest.mark.parametrize("case", COUNT_INPUTS, ids=list(COUNT_INPUTS))
def test_count_rule_has_one_owner(case, bad, tmp_path, monkeypatch):
    name, minimum, call = COUNT_INPUTS[case]
    for module, attr in ((robust_scatter.samplers, "_isotropic_rows"),
                         (robust_scatter.master_equation, "sample"),
                         (robust_scatter.master_equation, "_wishart_tridiagonal"),
                         (robust_scatter.estimators, "_solve"),
                         (robust_scatter.experiment, "sample"),
                         (robust_scatter.experiment, "solve_master"),
                         (robust_scatter.experiment, "fit"),
                         (robust_scatter.cli, "tyler"),
                         (robust_scatter.sparse, "solve_lp")):
        monkeypatch.setattr(module, attr, _no_work)
    if bad == "below":
        bad, rule = minimum - 1, f"at least {minimum}"
    else:
        rule = "integral"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {rule}, "
                                         f"got {re.escape(repr(bad))}$"):
        call(bad, tmp_path)


@pytest.mark.parametrize("case", COUNT_INPUTS, ids=list(COUNT_INPUTS))
def test_count_rule_passes_numpy_integers_as_int(case, tmp_path):
    stored = COUNT_INPUTS[case][2](np.int64(6), tmp_path)
    assert stored is None or (stored == 6 and type(stored) is int)
