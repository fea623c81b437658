import numpy as np
import pytest

import robust_scatter.experiment
from robust_scatter import (
    ConvergenceError,
    Dataset,
    DistributionSpec,
    ExistenceError,
    ExperimentConfig,
    ScatterMatrix,
    SolverConfig,
    derive_seed,
    eigen_bounds_diag,
    fit_loglog_slope,
    huber_u,
    make_ufunction,
    quadratic_form_diagnostics,
    rational_u,
    sample,
    stieltjes_diag,
    tyler,
    weight_deviation_experiment,
    weight_deviations,
)

GAUSS = DistributionSpec("gaussian")


class TestSlopeFit:
    def test_one_decade_per_decade(self):
        slope, _, r2 = fit_loglog_slope([(10.0, 1.0), (100.0, 0.1)])
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_flat_curve(self):
        slope, _, r2 = fit_loglog_slope([(10.0, 0.7), (100.0, 0.7)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_exact_power_law(self):
        pts = [(p, 3.0 * p ** -0.5) for p in (32, 64, 128, 256)]
        slope, intercept, r2 = fit_loglog_slope(pts)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10.0, 1.0)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10.0, 1.0), (20.0, 0.0)])


class TestWeightDeviationExperiment:
    def test_single_dim_single_rep(self):
        cfg = ExperimentConfig(kind="TE", dist=GAUSS, dims=(16,), reps=1, base_seed=0)
        rep = weight_deviation_experiment(cfg)
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert (row.p, row.n) == (16, 32)
        assert row.linf_stderr == 0.0 and row.rmse_stderr == 0.0
        assert rep.slope_linf is None  # one dimension: no slope

    def test_rmse_never_exceeds_linf(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = rng.uniform(0.2, 3.0, size=rng.integers(2, 30))
            linf, rmse = weight_deviations(w, 1.0)
            assert rmse <= linf + 1e-15

    def test_deterministic_and_thread_invariant(self):
        base = ExperimentConfig(kind="ME", dist=DistributionSpec("laplace-iid"),
                                dims=(8, 16), reps=4, base_seed=3, u=rational_u())
        r1 = weight_deviation_experiment(base)
        r2 = weight_deviation_experiment(base)
        threaded = ExperimentConfig(kind="ME", dist=DistributionSpec("laplace-iid"),
                                    dims=(8, 16), reps=4, base_seed=3, u=rational_u(),
                                    threads=3)
        r3 = weight_deviation_experiment(threaded)
        assert r1.rows == r2.rows == r3.rows
        assert r1.slope_linf == r2.slope_linf == r3.slope_linf

    def test_deviation_shrinks_with_dimension(self):
        cfg = ExperimentConfig(kind="TE", dist=GAUSS, dims=(32, 128), reps=10, base_seed=4)
        rep = weight_deviation_experiment(cfg)
        assert rep.rows[1].linf_mean < rep.rows[0].linf_mean
        assert rep.rows[1].rmse_mean < rep.rows[0].rmse_mean

    def test_rows_report_solver_iterations(self):
        cfg = ExperimentConfig(kind="TE", dist=GAUSS, dims=(16, 32), reps=3, base_seed=8)
        rep = weight_deviation_experiment(cfg)
        for k, row in enumerate(rep.rows):
            refits = [tyler(sample(GAUSS, row.n, row.p, derive_seed(8, k, r))) for r in range(3)]
            counts = [est.iterations for est in refits]
            assert row.iterations_mean == pytest.approx(np.mean(counts), rel=1e-15)
            assert row.iterations_max == max(counts)
            # each statistic's mean and standard error over the refits (TE: w* = 1)
            devs = np.array([weight_deviations(est.weights, 1.0) for est in refits])
            for name, col in (("linf", devs[:, 0]), ("rmse", devs[:, 1])):
                assert getattr(row, f"{name}_mean") == pytest.approx(col.mean(), rel=1e-15)
                assert getattr(row, f"{name}_stderr") == pytest.approx(
                    col.std(ddof=1) / np.sqrt(3), rel=1e-15)
        for name in ("linf", "rmse"):
            fitted = fit_loglog_slope([(r.p, getattr(r, f"{name}_mean")) for r in rep.rows])
            reported = [getattr(rep, f"{field}_{name}") for field in ("slope", "intercept", "r2")]
            assert reported == pytest.approx(fitted, rel=1e-15)

    def test_failures_abort(self):
        cfg = ExperimentConfig(kind="TE", dist=GAUSS, dims=(16,), reps=3,
                               base_seed=5, solver=SolverConfig(max_iter=1))
        with pytest.raises(ConvergenceError, match="3/3 replicates"):
            weight_deviation_experiment(cfg)

    def test_regularized_kind_uses_master_equation(self):
        cfg = ExperimentConfig(kind="TRE", dist=GAUSS, dims=(16, 32), reps=3,
                               base_seed=6, alpha=1.0, mc_reps=50)
        rep = weight_deviation_experiment(cfg)
        assert rep.predicted_weight > 1.0  # d* < 1 at alpha=1, identity shape
        assert all(r.failures == 0 for r in rep.rows)

    def test_me_limit_is_one_over_the_unit_crossing(self):
        # phi(x) = 3x/(1+x) crosses 1 at d0 = 1/2, so every weight tends to 2
        u = make_ufunction(lambda x: 3.0 / (1.0 + x))
        assert u.d0 == pytest.approx(0.5, rel=1e-9)
        cfg = ExperimentConfig(kind="ME", dist=GAUSS, dims=(16, 32), reps=3, base_seed=2, u=u)
        rep = weight_deviation_experiment(cfg)
        assert rep.predicted_weight == 1.0 / u.d0 == pytest.approx(2.0, rel=1e-9)
        assert all(r.w_star == rep.predicted_weight for r in rep.rows)
        # deviations from w* = 1 would be about 1; around 2 they are a fifth of that
        assert all(r.rmse_mean < 0.5 for r in rep.rows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind="TE", dist=GAUSS, dims=(32, 16))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="ME", dist=GAUSS, dims=(16,))  # no u
        with pytest.raises(ValueError, match="unit crossing"):
            # phi = min(x, 1/2) never reaches 1: ME has no limit weight
            ExperimentConfig(kind="ME", dist=GAUSS, dims=(16,), u=huber_u(0.5))
        with pytest.raises(ValueError):
            ExperimentConfig(kind="TRE", dist=GAUSS, dims=(16,))  # no alpha
        with pytest.raises(ValueError):
            ExperimentConfig(kind="XX", dist=GAUSS, dims=(16,))
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(kind="TRE", dist=GAUSS, dims=(16,), alpha=float("nan"))

    def test_existence_checked_at_construction(self):
        # ratio 1 gives n = p at every dimension: TE does not exist there
        with pytest.raises(ExistenceError, match="needs n > p"):
            ExperimentConfig(kind="TE", dist=GAUSS, dims=(16, 32), ratio=1)
        with pytest.raises(ExistenceError, match="needs alpha"):
            ExperimentConfig(kind="TRE", dist=GAUSS, dims=(16,), alpha=0.0)


    def test_sampler_rules_checked_at_construction(self):
        # every grid dimension, before any draw: not after the valid ones ran
        with pytest.raises(ValueError, match="even p, got p=65"):
            ExperimentConfig(kind="TE", dist=DistributionSpec("permuted-smoothed"), dims=(64, 65))
        with pytest.raises(ValueError, match=r"mean has shape \(64,\), expected \(128,\)"):
            ExperimentConfig(kind="TE", dist=DistributionSpec("gaussian", mean=np.ones(64)),
                             dims=(64, 128))
        with pytest.raises(ValueError, match="n and p must be positive, got n=0, p=0"):
            ExperimentConfig(kind="TRE", dist=GAUSS, dims=(0, 64), alpha=1.0)

    @pytest.mark.parametrize("kind", ["TE", "ME", "TRE", "MRE"])
    def test_mc_reps_checked_for_every_kind(self, kind):
        # TE and ME never solve the master equation, yet 0 draws is no config
        with pytest.raises(ValueError, match="mc_reps must be at least 1"):
            ExperimentConfig(kind=kind, dist=GAUSS, dims=(16,), u=rational_u(), alpha=1.0,
                             mc_reps=0)

    @pytest.mark.parametrize("name, bad, good", [
        ("dims", (8.7, 16), (np.int64(8), 16)),
        ("ratio", 2.5, np.int64(3)),
        ("reps", 2.5, np.int32(2)),
        ("mc_reps", 2.5, np.int64(20)),
    ])
    def test_non_integral_sizes_rejected_before_any_solve(self, monkeypatch, name, bad, good):
        # TRE, so an accepted config would solve the master equation first
        calls = []
        monkeypatch.setattr(robust_scatter.experiment, "solve_master",
                            lambda *a, **k: calls.append(a))
        fields = dict(kind="TRE", dist=GAUSS, dims=(8, 16), alpha=1.0)
        with pytest.raises(ValueError, match=f"{name} must be integral, got "):
            weight_deviation_experiment(ExperimentConfig(**{**fields, name: bad}))
        assert calls == []
        # numpy integers pass, stored as int
        value = getattr(ExperimentConfig(**{**fields, name: good}), name)
        assert value == good
        assert all(type(v) is int for v in (value if name == "dims" else (value,)))

    def test_bad_base_seed_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(robust_scatter.experiment, "solve_master",
                            lambda *a, **k: calls.append(a))
        fields = dict(kind="TRE", dist=GAUSS, dims=(8, 16), alpha=1.0)
        for bad in (2.5, -1):
            with pytest.raises(ValueError,
                               match=f"^seed must be a non-negative integer, got {bad}$"):
                weight_deviation_experiment(ExperimentConfig(**fields, base_seed=bad))
        assert calls == []
        # a numpy integer passes, stored as int
        seed = ExperimentConfig(**fields, base_seed=np.int64(5)).base_seed
        assert seed == 5 and type(seed) is int

    def test_shaped_spec_rejected_before_dimension_rules(self):
        spec = DistributionSpec("gaussian", shape=ScatterMatrix(np.eye(16)))
        with pytest.raises(ValueError, match="must be shape-free"):
            ExperimentConfig(kind="TE", dist=spec, dims=(16, 32))


class TestQuadraticFormDiagnostics:
    def test_sherman_morrison_link_exact(self):
        data = sample(GAUSS, 60, 12, seed=7)
        rep = quadratic_form_diagnostics(data)
        assert rep.max_sm_rel_err <= 1e-10

    def test_gaussian_concentration_levels(self):
        # pilot-calibrated honest bounds at p=200, n=400 (typical values are
        # ~0.21 for the full form and ~1.1 for the leave-one-out form)
        data = sample(GAUSS, 400, 200, seed=8)
        rep = quadratic_form_diagnostics(data)
        assert rep.gamma == 0.5
        assert rep.max_dev_full < 0.35
        assert rep.max_dev_loo < 1.6

    def test_needs_more_samples_than_dims(self):
        with pytest.raises(ValueError):
            quadratic_form_diagnostics(Dataset(np.eye(3)))


class TestStieltjes:
    def test_identity_covariance(self):
        p = 4
        rows = np.vstack([np.sqrt(p) * np.eye(p)] * 2)  # S = I
        assert stieltjes_diag(Dataset(rows), 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_eps(self):
        data = sample(GAUSS, 50, 10, seed=9)
        assert stieltjes_diag(data, 0.01) > stieltjes_diag(data, 0.5)

    def test_approaches_marchenko_pastur_value(self):
        data = sample(GAUSS, 600, 300, seed=10)
        assert abs(stieltjes_diag(data, 0.01) - 2.0) < 0.2

    def test_singular_at_zero_eps(self):
        data = Dataset(np.ones((3, 5)))  # rank 1, p > n
        with pytest.raises(np.linalg.LinAlgError):
            stieltjes_diag(data, 0.0)
        for eps in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="eps must be nonnegative"):
                stieltjes_diag(data, eps)


class TestEigenBounds:
    def test_identity_rows(self):
        p = 5
        rows = np.vstack([np.sqrt(p) * np.eye(p)] * 3)
        lmin, lmax = eigen_bounds_diag(Dataset(rows))
        assert lmin == pytest.approx(1.0, abs=1e-12)
        assert lmax == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_quarter_ratio(self):
        lmin, lmax = eigen_bounds_diag(sample(GAUSS, 800, 200, seed=11))
        assert lmin > 0.1
        assert lmax < 4.0

    def test_permuted_smoothed_degenerate_direction(self):
        # the balanced +-1 vectors are orthogonal to the all-ones direction,
        # so one eigenvalue sits near sigma^2 while the bulk stays away from 0
        data = sample(DistributionSpec("permuted-smoothed"), 800, 200, seed=12)
        lam = np.linalg.eigvalsh((data.samples.T @ data.samples) / 800)
        assert lam[0] < 1e-3
        assert lam[1] > 0.15
