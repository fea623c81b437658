import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robust_scatter
from robust_scatter import (DistributionSpec, RadialLaw, SolverConfig, clime, fit,
                             load_dataset_csv, matrix_norms, parallel, rational_u, sample,
                             sample_covariance, save_matrix_csv, sparse_cov_estimate, tyler)
from robust_scatter.cli import _parse_radial, _resolve_u, build_parser, estimate_to_dict, main
from robust_scatter.model import matrix_csv_text


@pytest.fixture
def data_csv(tmp_path):
    data = sample(DistributionSpec("gaussian"), 60, 10, seed=0)
    path = tmp_path / "data.csv"
    save_matrix_csv(data.samples, path, digits=17)
    return path


def run(*args):
    return main([str(a) for a in args])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def loads_strict(text):
    """Parse standard JSON: NaN and Infinity raise."""
    return json.loads(text, parse_constant=_reject_constant)


class TestEstimate:
    def test_writes_schema_and_sidecar(self, data_csv, tmp_path):
        out = tmp_path / "est.json"
        rc = run("estimate", "--kind", "tyler", "--input", data_csv, "--out", out)
        assert rc == 0
        doc = json.loads(out.read_text())
        for key in ("kind", "p", "n", "alpha", "matrix", "weights",
                    "iterations", "residual", "converged"):
            assert key in doc
        assert doc["kind"] == "TE" and doc["p"] == 10 and doc["n"] == 60
        assert len(doc["matrix"]) == 100 and len(doc["weights"]) == 60
        assert doc["converged"] is True
        side = json.loads((tmp_path / "est.json.meta.json").read_text())
        assert side["command"] == "estimate"
        assert "version" in side and "config" in side

    def test_round_trip_identical(self, data_csv, tmp_path):
        # the library fit, serialized, is the JSON the command wrote
        out = tmp_path / "est.json"
        run("estimate", "--kind", "maronna-reg", "--u", "rational", "--alpha", "0.5",
            "--input", data_csv, "--out", out)
        data = load_dataset_csv(data_csv)
        est = fit("MRE", data, rational_u(), 0.5)
        assert estimate_to_dict(est, data.n) == json.loads(out.read_text())

    def test_non_convergence_exits_2(self, data_csv, tmp_path, capsys):
        rc = run("estimate", "--kind", "tyler", "--input", data_csv,
                 "--out", tmp_path / "e.json", "--max-iter", "1")
        assert rc == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["code"] == "non_convergence"
        assert not (tmp_path / "e.json").exists()  # no partial write

    def test_unknown_flag_exits_1(self, data_csv, tmp_path, capsys):
        rc = run("estimate", "--kind", "tyler", "--input", data_csv,
                 "--out", tmp_path / "e.json", "--frobnicate")
        assert rc == 1

    def test_missing_input_exits_1(self, tmp_path):
        rc = run("estimate", "--kind", "tyler", "--input", tmp_path / "nope.csv",
                 "--out", tmp_path / "e.json")
        assert rc == 1

    def test_csv_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,x\n")
        rc = run("estimate", "--kind", "tyler", "--input", bad, "--out", tmp_path / "e.json")
        assert rc == 1
        assert "column 2" in capsys.readouterr().err

    def test_infinite_huber_threshold_exits_1(self, data_csv, tmp_path, capsys):
        out = tmp_path / "e.json"
        assert run("estimate", "--kind", "maronna", "--u", "huber:inf", "--input", data_csv,
                   "--out", out) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "error: bad --u value 'huber:inf': expected a finite number, got 'inf'\n"
        assert not out.exists() and not Path(f"{out}.meta.json").exists()

    def test_existence_error_exits_1(self, tmp_path, capsys):
        wide = tmp_path / "wide.csv"
        save_matrix_csv(np.random.default_rng(1).standard_normal((4, 6)), wide)
        out = tmp_path / "e.json"
        assert run("estimate", "--kind", "tyler", "--input", wide, "--out", out) == 1
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == "error: Tyler's estimator needs n > p (got n=4, p=6)\n"
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


class TestSimulate:
    def test_csv_rows_and_sidecar_slopes(self, tmp_path):
        out = tmp_path / "fig.csv"
        rc = run("simulate", "--kind", "maronna", "--u", "rational", "--dist", "laplace",
                 "--dims", "16,32", "--ratio", "2", "--reps", "2", "--seed", "7",
                 "--out", out)
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,n,linf_mean,linf_stderr,rmse_mean,rmse_stderr"
        assert len(lines) == 3
        assert lines[1].startswith("16,32,") and lines[2].startswith("32,64,")
        side = json.loads((tmp_path / "fig.csv.meta.json").read_text())
        assert list(side) == ["command", "version", "config", "wall_time_s",
                              "slope_linf", "intercept_linf", "r2_linf",
                              "slope_rmse", "intercept_rmse", "r2_rmse",
                              "predicted_weight", "rows", "experiment_wall_time_s", "blas"]
        assert "failures" not in side  # rows[].failures is the one copy
        assert [r["p"] for r in side["rows"]] == [16, 32]
        assert side["rows"][0]["n"] == 32 and "linf_mean" in side["rows"][0]
        assert list(side["rows"][0]) == ["p", "n", "w_star", "linf_mean", "linf_stderr",
                                         "rmse_mean", "rmse_stderr", "failures",
                                         "iterations_mean", "iterations_max",
                                         "mc_stderr", "master_eq_s"]
        assert all(1 <= r["iterations_mean"] <= r["iterations_max"] <= 500
                   for r in side["rows"])
        # each CSV cell is the sidecar row field its header names, to 10 significant digits
        header = lines[0].split(",")
        for line, row in zip(lines[1:], side["rows"]):
            assert [float(c) for c in line.split(",")] == [float(f"{row[h]:.10g}") for h in header]
        # ME's limit weight is closed-form: no Monte-Carlo error to report
        assert all(r["mc_stderr"] is None and r["master_eq_s"] >= 0 for r in side["rows"])

    def test_seed_determinism_byte_identical(self, tmp_path):
        args = ("simulate", "--kind", "tyler", "--dist", "gaussian", "--dims", "8,16",
                "--reps", "2", "--seed", "3")
        run(*args, "--out", tmp_path / "a.csv")
        run(*args, "--out", tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        # the second grid's p = 128 solves run their first map evaluations in float32
        for k, (args, threads) in enumerate([
            (("--kind", "tyler", "--dist", "gaussian", "--dims", "8,16", "--reps", "3",
              "--seed", "4"), "3"),
            (("--kind", "maronna", "--u", "rational", "--dist", "laplace", "--dims", "64,128",
              "--reps", "2", "--seed", "5"), "2"),
        ]):
            run("simulate", *args, "--out", tmp_path / f"a{k}.csv", "--threads", "1")
            run("simulate", *args, "--out", tmp_path / f"b{k}.csv", "--threads", threads)
            assert (tmp_path / f"a{k}.csv").read_bytes() == (tmp_path / f"b{k}.csv").read_bytes()

    @pytest.mark.parametrize("flags", [
        # Huber t = 2 at n = 2p: every d_i(S) = n h_ii / p <= n/p = 2 <= t, so u = 1
        # on every row, S solves the ME equation and every weight sits at w* = 1
        ("--kind", "maronna", "--u", "huber", "--dims", "16,32"),
        ("--kind", "tyler", "--dims", "24"),
    ], ids=["zero-deviation", "single-dim"])
    def test_undefined_slopes_are_null(self, flags, tmp_path):
        out = tmp_path / "fig.csv"
        assert run("simulate", *flags, "--reps", "2", "--seed", "6", "--out", out) == 0
        side = loads_strict(Path(f"{out}.meta.json").read_text())
        for key in ("slope_linf", "intercept_linf", "r2_linf",
                    "slope_rmse", "intercept_rmse", "r2_rmse"):
            assert side[key] is None
        if "huber" in flags:
            assert all(r["linf_mean"] == r["rmse_mean"] == 0.0 for r in side["rows"])
            assert side["predicted_weight"] == 1.0

    def test_me_without_unit_crossing_exits_1(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        assert run("simulate", "--kind", "maronna", "--u", "huber:0.5", "--dims", "16,32",
                   "--reps", "2", "--seed", "6", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unit crossing" in err
        assert err.count("\n") == 1
        assert not out.exists() and not Path(f"{out}.meta.json").exists()

    def test_bad_solver_flag_fails_before_the_master_equation(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        solve_master = robust_scatter.experiment.solve_master
        monkeypatch.setattr(robust_scatter.experiment, "solve_master",
                            lambda *a, **k: calls.append(1) or solve_master(*a, **k))
        out = tmp_path / "reg.csv"
        assert run("simulate", "--kind", "tyler-reg", "--alpha", "1", "--tol", "0",
                   "--dims", "12,24", "--reps", "2", "--seed", "4", "--out", out) == 1
        assert "tol must be positive" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_bad_threads_fail_before_the_master_equation(self, tmp_path, capsys, monkeypatch):
        calls = []
        solve_master = robust_scatter.experiment.solve_master
        monkeypatch.setattr(robust_scatter.experiment, "solve_master",
                            lambda *a, **k: calls.append(1) or solve_master(*a, **k))
        out = tmp_path / "reg.csv"
        assert run("simulate", "--kind", "tyler-reg", "--alpha", "1", "--threads", "0",
                   "--dims", "12,24", "--reps", "2", "--seed", "4", "--out", out) == 1
        assert "threads must be at least 1" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_regularized_rows_report_the_master_equation(self, tmp_path):
        out = tmp_path / "reg.csv"
        assert run("simulate", "--kind", "tyler-reg", "--alpha", "1", "--mc-reps", "30",
                   "--dist", "gaussian", "--dims", "12,24", "--reps", "2", "--seed", "4",
                   "--out", out) == 0
        rows = json.loads((tmp_path / "reg.csv.meta.json").read_text())["rows"]
        assert all(r["mc_stderr"] > 0 and r["master_eq_s"] > 0 for r in rows)


class TestMasterEq:
    def test_stdout_json_fields(self, capsys):
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", "0.5",
                 "--dist", "gaussian", "--p", "40", "--reps", "50", "--seed", "3")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for key in ("d_star", "f_residual", "mc_stderr", "predicted_weight",
                    "tre_identity_gap"):
            assert key in doc
        assert doc["predicted_weight"] == pytest.approx(1.0 / doc["d_star"])
        assert doc["n"] == 80

    @pytest.mark.parametrize("kind,flags,extra", [
        ("tre", ("--gamma", "0.5"), ["q_at_root", "tre_identity_gap"]),
        ("mre", ("--n", "60", "--dist", "laplace"), []),
    ], ids=["tre", "mre"])
    def test_payload_keys_in_order(self, kind, flags, extra, capsys):
        assert run("master-eq", "--kind", kind, "--alpha", "1", "--p", "20", *flags,
                   "--reps", "20", "--seed", "3") == 0
        doc = loads_strict(capsys.readouterr().out)
        assert list(doc) == ["kind", "p", "n", "gamma", "alpha", "d_star", "f_residual",
                             "mc_reps", "mc_stderr", "predicted_weight", *extra]
        assert doc["kind"] == kind.upper() and doc["mc_reps"] == 20

    def test_needs_n_or_gamma(self, capsys):
        rc = run("master-eq", "--kind", "tre", "--alpha", "1",
                 "--dist", "gaussian", "--p", "40", "--seed", "3")
        assert rc == 1
        assert "one of the arguments --n --gamma is required" in capsys.readouterr().err

    def test_n_and_gamma_exclusive(self, tmp_path, capsys):
        out = tmp_path / "meq.json"
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--n", "100", "--gamma", "0.5",
                 "--dist", "gaussian", "--p", "40", "--seed", "3", "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not allowed with argument --n" in err
        assert not out.exists() and not Path(f"{out}.meta.json").exists()

    @pytest.mark.parametrize("gamma", ["0", "-0.5"])
    def test_gamma_must_be_positive(self, gamma, capsys):
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", gamma,
                 "--dist", "gaussian", "--p", "40", "--seed", "3")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--gamma must be positive" in err

    @pytest.mark.parametrize("flags", [("--n", "0"), ("--n", "-5"), ("--p", "0", "--n", "10"),
                                       ("--p", "1", "--gamma", "3")],
                             ids=["n0", "n-5", "p0", "gamma-rounds-n-to-0"])
    def test_n_and_p_must_be_positive(self, flags, tmp_path, capsys):
        out = tmp_path / "meq.json"
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--p", "40", *flags,
                 "--dist", "gaussian", "--reps", "20", "--seed", "3", "--out", out)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n and p must be positive" in err
        assert err.count("\n") == 1
        assert not out.exists() and not Path(f"{out}.meta.json").exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--kind", "tyler", "--dims", "8", "--reps", "1", "--seed", "-1"),
    ("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", "0.5", "--p", "10",
     "--seed", "-3"),
    ("diagnose", "--p", "5", "--n", "20", "--seed", "-2"),
], ids=["simulate", "master-eq", "diagnose"])
def test_negative_seed_exits_1_naming_the_seed(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(*argv, "--out", out) == 1
    seed = argv[-1]
    assert capsys.readouterr().err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert not out.exists()


class TestSparsePipelines:
    def test_sparse_cov_outputs(self, data_csv, tmp_path):
        out = tmp_path / "sp.csv"
        rc = run("sparse-cov", "--input", data_csv, "--c1", "0.5", "--out", out)
        assert rc == 0
        m = np.loadtxt(out, delimiter=",")
        assert m.shape == (10, 10)
        side = json.loads((tmp_path / "sp.csv.meta.json").read_text())
        assert side["method"] == "threshold"
        assert side["threshold"] > 0
        assert "input_norms" in side

    def test_clime_outputs_symmetric(self, data_csv, tmp_path):
        out = tmp_path / "om.csv"
        rc = run("clime", "--input", data_csv, "--lambda", "0.3", "--out", out)
        assert rc == 0
        m = np.loadtxt(out, delimiter=",")
        np.testing.assert_allclose(m, m.T, atol=1e-15)
        side = json.loads((tmp_path / "om.csv.meta.json").read_text())
        assert side["method"] == "clime" and side["lambda"] == 0.3

    def test_clime_tyler_proxy_non_convergence_exits_2(self, data_csv, tmp_path, capsys):
        out = tmp_path / "om.csv"
        rc = run("clime", "--input", data_csv, "--lambda", "0.3", "--proxy", "tyler",
                 "--max-iter", "1", "--out", out)
        assert rc == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "non_convergence"
        assert not out.exists() and not Path(f"{out}.meta.json").exists()

    @pytest.mark.parametrize("command", ["sparse-cov", "clime"])
    def test_truth_errors_are_the_library_errors(self, command, data_csv, tmp_path):
        truth_path = tmp_path / "truth.csv"
        save_matrix_csv(np.eye(10), truth_path, digits=17)
        out = tmp_path / "m.csv"
        flags = ("--c1", "0.5") if command == "sparse-cov" else ("--lambda", "0.3")
        assert run(command, "--input", data_csv, *flags, "--truth", truth_path,
                   "--out", out) == 0
        data, truth = load_dataset_csv(data_csv), np.eye(10)
        if command == "sparse-cov":
            est = sparse_cov_estimate(data, 0.5, cfg=SolverConfig())
        else:
            est = clime(tyler(data).matrix, 0.3)
        err = matrix_norms(est.matrix - truth)
        side = json.loads(Path(f"{out}.meta.json").read_text())
        assert side["error_vs_truth"] == {"max": err.max_norm, "l1": err.l1_norm,
                                          "operator": err.operator_norm}

    def test_clime_sample_proxy_is_the_library_clime(self, data_csv, tmp_path):
        out = tmp_path / "om.csv"
        assert run("clime", "--input", data_csv, "--lambda", "0.3", "--proxy", "sample",
                   "--out", out) == 0
        s = sample_covariance(load_dataset_csv(data_csv))
        assert out.read_bytes() == matrix_csv_text(clime(s, 0.3).matrix).encode()


@pytest.mark.parametrize("command", ["estimate", "sparse-cov", "clime"])
def test_non_convergence_message_is_shared(command, data_csv, tmp_path, capsys):
    # each command that needs a converged Tyler fit reports it the same way
    args = _commands(data_csv, tmp_path)[command]
    assert run(*args, "--max-iter", "1") == 2
    est = tyler(load_dataset_csv(data_csv), SolverConfig(max_iter=1))
    assert json.loads(capsys.readouterr().out)["error"] == {
        "code": "non_convergence",
        "message": f"TE did not converge: residual {est.residual:.3g} after 1 map evaluations",
    }


SIMULATE_SMALL = ("simulate", "--kind", "tyler", "--dist", "gaussian", "--dims", "8,16",
                  "--reps", "2", "--seed", "4")
WORKER_COMMANDS = ("simulate", "clime")


def _commands(data_csv, tmp_path):
    """A small run of every command, each ending in ``--out <path>``."""
    return {
        "estimate": ("estimate", "--kind", "tyler", "--input", data_csv,
                     "--out", tmp_path / "est.json"),
        "simulate": (*SIMULATE_SMALL, "--out", tmp_path / "fig.csv"),
        "master-eq": ("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", "0.5",
                      "--p", "20", "--reps", "20", "--seed", "3",
                      "--out", tmp_path / "meq.json"),
        "sparse-cov": ("sparse-cov", "--input", data_csv, "--c1", "0.5",
                       "--out", tmp_path / "sp.csv"),
        "clime": ("clime", "--input", data_csv, "--lambda", "0.3",
                  "--out", tmp_path / "om.csv"),
        "diagnose": ("diagnose", "--input", data_csv, "--out", tmp_path / "diag.json"),
    }


@pytest.mark.parametrize("command", ["master-eq", "diagnose"])
def test_stdout_is_the_out_file(command, data_csv, tmp_path, capsys):
    args = _commands(data_csv, tmp_path)[command]
    assert run(*args) == 0
    capsys.readouterr()
    assert run(*args[:-2]) == 0
    assert capsys.readouterr().out.encode() == Path(args[-1]).read_bytes()


@pytest.mark.parametrize("command,flag,rc", [
    pytest.param("simulate", ("--mean", "1"), 1, id="simulate-1"),
    pytest.param("master-eq", ("--mean", "1"), 1, id="master-eq-1"),
    pytest.param("diagnose", ("--mean", "1"), 0, id="diagnose-0"),
    # the master-equation root is exact to double precision: no stopping tolerance
    pytest.param("simulate", ("--tol-root", "1e-3"), 1, id="simulate-tol-root"),
    pytest.param("master-eq", ("--tol-root", "1e-3"), 1, id="master-eq-tol-root"),
])
def test_mean_only_on_diagnose(command, flag, rc, data_csv, tmp_path, capsys):
    args = _commands(data_csv, tmp_path)[command]
    if command == "diagnose":  # --mean is a sampling flag, read by synthetic draws alone
        args = ("diagnose", "--p", "10", "--n", "30", "--seed", "1", *args[-2:])
    assert run(*args, *flag) == rc
    err = capsys.readouterr().err
    assert (f"unrecognized arguments: {' '.join(flag)}" in err) == (rc == 1)


ELLIPTICAL_RADIAL = ("--dist", "elliptical", "--radial", "chi:{}")
NON_FINITE_FLAGS = [
    ("estimate", ("--alpha", "{}")), ("estimate", ("--tol", "{}")),
    ("simulate", ("--alpha", "{}")), ("simulate", ("--tol", "{}")),
    ("simulate", ("--sigma", "{}")), ("simulate", ELLIPTICAL_RADIAL),
    ("master-eq", ("--alpha", "{}")), ("master-eq", ("--gamma", "{}")),
    ("master-eq", ("--sigma", "{}")), ("master-eq", ELLIPTICAL_RADIAL),
    ("sparse-cov", ("--c1", "{}")), ("sparse-cov", ("--tol", "{}")),
    ("clime", ("--lambda", "{}")), ("clime", ("--tol", "{}")),
    ("diagnose", ("--eps", "{}")), ("diagnose", ("--sigma", "{}")),
    ("diagnose", ("--mean", "{}")), ("diagnose", ELLIPTICAL_RADIAL),
]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command,flags", NON_FINITE_FLAGS,
                         ids=[f"{c}{f[-2]}" for c, f in NON_FINITE_FLAGS])
def test_non_finite_float_flag_exits_1(command, flags, value, data_csv, tmp_path, capsys):
    args = _commands(data_csv, tmp_path)[command]
    if command == "diagnose":  # synthetic draws: the sampling flags are read
        args = ("diagnose", "--p", "10", "--n", "30", "--seed", "1", *args[-2:])
    assert run(*args, *(f.format(value) for f in flags)) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert f"expected a finite number, got {value!r}" in cap.err
    assert not Path(args[-1]).exists() and not Path(f"{args[-1]}.meta.json").exists()


DATA = object()  # stands for the dataset CSV of `data_csv`
ONE_COLUMN = object()  # stands for a 50 x 1 dataset CSV
# bad invocations (without --out); a tuple is the shape of a --truth matrix
# written next to the data. Each must be rejected before any solve, except
# those of DRAW_CHECKED, which `solve_master` rejects before its first draw.
BAD_INVOCATIONS = {
    "tre-dims-0": ("simulate", "--kind", "tyler-reg", "--alpha", "1", "--dims", "0,64",
                   "--reps", "2", "--seed", "1"),
    "odd-permuted-smoothed-dim": ("simulate", "--kind", "tyler", "--dist", "permuted-smoothed",
                                  "--dims", "64,65", "--reps", "2", "--seed", "1"),
    **{f"{command}-truth-{r}x{c}": (command, "--input", DATA, *flags, "--truth", (r, c))
       for command, flags in (("sparse-cov", ("--c1", "0.5")), ("clime", ("--lambda", "0.3")))
       for r, c in ((1, 1), (1, 10), (11, 11))},
    "radial-chi-empty": ("simulate", "--kind", "tyler", "--dist", "elliptical",
                         "--radial", "chi:", "--dims", "8,16", "--reps", "2", "--seed", "1"),
    "radial-constant-empty": ("simulate", "--kind", "tyler", "--dist", "elliptical",
                              "--radial", "constant:", "--dims", "8,16", "--reps", "2",
                              "--seed", "1"),
    "dims-not-integer": ("simulate", "--kind", "tyler", "--dims", "64,x", "--reps", "2",
                         "--seed", "1"),
    "gamma-0": ("master-eq", "--kind", "tre", "--alpha", "1", "--p", "20", "--gamma", "0",
                "--seed", "3"),
    "threads-0": ("clime", "--input", DATA, "--lambda", "0.3", "--threads", "0"),
    "clime-lambda-0": ("clime", "--input", DATA, "--lambda", "0"),
    "sparse-cov-c1-negative": ("sparse-cov", "--input", DATA, "--c1", "-1"),
    "sparse-cov-one-column": ("sparse-cov", "--input", ONE_COLUMN, "--c1", "0.5"),
    "mc-reps-0": ("simulate", "--kind", "tyler", "--dims", "16", "--reps", "2", "--seed", "1",
                  "--mc-reps", "0"),
    "u-huber-empty": ("estimate", "--kind", "maronna", "--input", DATA, "--u", "huber:"),
    "u-huber-not-a-number": ("estimate", "--kind", "maronna", "--input", DATA,
                             "--u", "huber:abc"),
    "master-eq-n-1": ("master-eq", "--kind", "tre", "--alpha", "1", "--p", "1", "--n", "1",
                      "--seed", "3"),
    "master-eq-gamma-rounds-n-to-1": ("master-eq", "--kind", "tre", "--alpha", "1", "--p", "1",
                                      "--gamma", "1.5", "--seed", "3"),
    "tre-ratio-1-dims-1": ("simulate", "--kind", "tyler-reg", "--alpha", "1", "--dims", "1,2",
                           "--ratio", "1", "--reps", "2", "--seed", "1"),
    "diagnose-input-p": ("diagnose", "--input", DATA, "--p", "5"),
    "diagnose-singular-eps-0": ("diagnose", "--p", "3", "--n", "2", "--seed", "1",
                                "--eps", "0"),
}
# the one stderr line of each, after `error: `; a flag the CLI splits itself is named
EXPECTED_ERRORS = {
    "tre-dims-0": "n and p must be positive, got n=0, p=0",
    "odd-permuted-smoothed-dim": "permuted-smoothed requires even p, got p=65",
    **{f"{command}-truth-{r}x{c}": f"--truth is {r}x{c}, expected 10x10"
       for command in ("sparse-cov", "clime") for r, c in ((1, 1), (1, 10), (11, 11))},
    "radial-chi-empty": "bad --radial value 'chi:': expected a finite number, got ''",
    "radial-constant-empty": "bad --radial value 'constant:': expected a finite number, got ''",
    "dims-not-integer": "bad --dims value '64,x': expected comma-separated integers",
    "gamma-0": "--gamma must be positive, got 0",
    "threads-0": "threads must be at least 1",
    "clime-lambda-0": "lambda must be positive",
    "sparse-cov-c1-negative": "c1 must be nonnegative",
    "sparse-cov-one-column": "need n >= 1 and p > 1",
    "mc-reps-0": "mc_reps must be at least 1",
    "u-huber-empty": "bad --u value 'huber:': expected a finite number, got ''",
    "u-huber-not-a-number": "bad --u value 'huber:abc': expected a finite number, got 'abc'",
    **dict.fromkeys(("master-eq-n-1", "master-eq-gamma-rounds-n-to-1", "tre-ratio-1-dims-1"),
                    "the master equation draws n - 1 rows and needs n >= 2, got n=1"),
    "diagnose-input-p": "diagnose --input does not sample; drop --p",
    "diagnose-singular-eps-0": "sample covariance is singular at eps = 0",
}
DRAW_CHECKED = {"master-eq-n-1", "master-eq-gamma-rounds-n-to-1", "tre-ratio-1-dims-1"}


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran before the input was rejected")


@pytest.mark.parametrize("case", BAD_INVOCATIONS, ids=list(BAD_INVOCATIONS))
def test_failure_contract(case, data_csv, tmp_path, capsys, monkeypatch):
    # exit 1, one `error: ` line on stderr, nothing on stdout, no file written
    args = BAD_INVOCATIONS[case]
    stubs = [(robust_scatter.cli, "tyler"), (robust_scatter.cli, "fit"),
             (robust_scatter.sparse, "tyler"), (robust_scatter.experiment, "fit")]
    if case in DRAW_CHECKED:
        stubs.append((robust_scatter.master_equation, "sample"))
    else:
        stubs += [(robust_scatter.cli, "solve_master"),
                  (robust_scatter.experiment, "solve_master")]
    for module, name in stubs:
        monkeypatch.setattr(module, name, _no_solve)
    argv = []
    for arg in args:
        if arg is DATA:
            arg = data_csv
        elif arg is ONE_COLUMN:
            arg = tmp_path / "one_column.csv"
            save_matrix_csv(np.random.default_rng(0).standard_normal((50, 1)), arg)
        elif isinstance(arg, tuple):
            arg = tmp_path / "truth.csv"
            save_matrix_csv(np.ones(args[-1]), arg)
        argv.append(arg)
    before = sorted(tmp_path.iterdir())
    assert run(*argv, "--out", tmp_path / "out") == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert cap.err == f"error: {EXPECTED_ERRORS[case]}\n"
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("text,law", [("chi", RadialLaw("chi", 1.0)),
                                      ("constant", RadialLaw("constant", 1.0)),
                                      ("chi:3", RadialLaw("chi", 3.0)),
                                      ("pareto:2.5", RadialLaw("pareto", 2.5))])
def test_radial_grammar(text, law):
    # a bare kind takes parameter 1; `kind:` with nothing after it is an error
    assert _parse_radial(text) == law


@pytest.mark.parametrize("name,expected", [("rational", "rational"),
                                           ("huber", "huber:2"), ("huber:3.5", "huber:3.5")])
def test_resolve_u_names(name, expected):
    assert _resolve_u(name, "ME").name == expected
    assert _resolve_u(name, "TE") is None  # the Tyler kinds have no u


@pytest.mark.parametrize("name", ["foo", "rational:2", "huber:x"])
def test_resolve_u_unknown_name_rejected(name):
    with pytest.raises(ValueError):
        _resolve_u(name, "MRE")


class TestThreads:
    """One worker-count check for every command that runs a worker map."""

    @pytest.mark.parametrize("command", WORKER_COMMANDS)
    def test_flag_below_one_exits_1(self, command, data_csv, tmp_path, capsys, monkeypatch):
        calls = []  # the check comes before any solve, `clime`'s Tyler proxy included
        monkeypatch.setattr(robust_scatter.cli, "tyler", lambda *a, **k: calls.append(1))
        args = _commands(data_csv, tmp_path)[command]
        assert run(*args, "--threads", "0") == 1
        assert "threads must be at least 1" in capsys.readouterr().err
        assert calls == []
        assert not Path(args[-1]).exists()

    # every command's sidecar has a `blas` list; the worker commands also
    # echo the worker count that ran
    @pytest.mark.parametrize("command", [*WORKER_COMMANDS, "estimate", "master-eq",
                                         "sparse-cov", "diagnose"])
    def test_sidecar_records_resolved_threads_and_blas(self, command, data_csv, tmp_path):
        args = _commands(data_csv, tmp_path)[command]
        threads = ("--threads", "2") if command in WORKER_COMMANDS else ()
        assert run(*args, *threads) == 0
        side = json.loads(Path(f"{args[-1]}.meta.json").read_text())
        assert side["config"].get("threads") == (2 if command in WORKER_COMMANDS else None)
        assert isinstance(side["blas"], list)
        for entry in side["blas"]:
            assert set(entry) == {"library", "threads", "in_loops"}
            assert entry["in_loops"] in ("pinned", "unmanaged")
            assert (entry["threads"] is None) == (entry["in_loops"] == "unmanaged")


# the CLI commands, then library calls made without the CLI: `fit` for each
# kind and `quadratic_form_diagnostics`, their float outputs written raw
_CLI_AND_LIBRARY = """
import json, sys
from robust_scatter import fit, load_dataset_csv, quadratic_form_diagnostics, rational_u
from robust_scatter.cli import main
argvs, data_path, lib_out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
rc = max(main(argv) for argv in argvs)
data = load_dataset_csv(data_path)
parts = []
for kind in ("TE", "ME", "TRE", "MRE"):
    est = fit(kind, data, rational_u(), 1.0)
    parts += [est.matrix.entries.tobytes(), est.weights.tobytes()]
parts.append(repr(quadratic_form_diagnostics(data)).encode())
with open(lib_out, "wb") as fh:
    fh.write(b"".join(parts))
sys.exit(rc)
"""


def test_blas_threads_do_not_change_outputs(tmp_path):
    # simulate covers the replicate loop on two workers and, for TRE, the
    # master-equation draws; estimate, diagnose and sparse-cov run on the
    # calling thread; the library calls go through no CLI code at all
    src = str(Path(robust_scatter.__file__).resolve().parents[1])
    data = tmp_path / "data.csv"
    save_matrix_csv(sample(DistributionSpec("laplace-iid"), 400, 100, seed=12).samples, data,
                    digits=17)
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        commands = [
            ("simulate", "--kind", kind, *extra, "--dist", "laplace", "--dims", "32,96",
             "--reps", "3", "--seed", "11", "--threads", "2", "--out", f"{out}.sim-{kind}.csv")
            for kind, extra in (("tyler", ()), ("tyler-reg", ("--alpha", "1", "--mc-reps", "40")))
        ] + [
            ("estimate", "--kind", kind, "--input", data, "--out", f"{out}.est-{kind}.json")
            for kind in ("tyler", "maronna-reg")
        ] + [
            ("diagnose", "--input", data, "--out", f"{out}.diag.json"),
            ("sparse-cov", "--input", data, "--c1", "0.5", "--out", f"{out}.sp.csv"),
        ]
        argvs = [[str(a) for a in cmd] for cmd in commands]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        lib_out = f"{out}.lib.bin"
        subprocess.run([sys.executable, "-c", _CLI_AND_LIBRARY, json.dumps(argvs), str(data),
                        lib_out], env=env, check=True, capture_output=True, timeout=300)
        outputs.append([Path(path).read_bytes() for path in [*(a[-1] for a in argvs), lib_out]])
    assert outputs[0] == outputs[1]


class TestDiagnose:
    @pytest.mark.parametrize("flags", [
        ("--dist", "elliptical"), ("--sigma", "0.1"), ("--radial", "pareto:3"),
        ("--mean", "5"), ("--shape-file", "missing.csv"),
        ("--dist", "elliptical", "--radial", "pareto:3", "--mean", "5",
         "--shape-file", "missing.csv"),
        ("--p", "50", "--n", "7", "--seed", "3"),
    ])
    def test_input_rejects_sampling_flags(self, flags, data_csv, tmp_path, capsys):
        args = _commands(data_csv, tmp_path)["diagnose"]
        assert run(*args, *flags) == 1
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags[::2])
        assert not Path(args[-1]).exists()

    def test_synthetic_report(self, capsys):
        rc = run("diagnose", "--dist", "gaussian", "--p", "20", "--n", "60", "--seed", "1")
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["quadratic_forms"]["max_sherman_morrison_rel_err"] < 1e-10
        assert doc["eigen_bounds"]["lambda_min"] > 0
        assert doc["stieltjes"]["m_hat"] > 0

    def test_zero_row_link_error_is_zero(self, tmp_path, capsys):
        # the zero row's forms are q_full = q_loo = 0, where the link holds
        # exactly; its relative error is 0, not 0/0 = NaN (not JSON)
        x = sample(DistributionSpec("gaussian"), 40, 5, seed=0).samples.copy()
        x[3] = 0.0
        path = tmp_path / "zero_row.csv"
        save_matrix_csv(x, path, digits=17)
        assert run("diagnose", "--input", path) == 0
        doc = loads_strict(capsys.readouterr().out)
        assert 0 <= doc["quadratic_forms"]["max_sherman_morrison_rel_err"] < 1e-10

    def test_requires_input_or_params(self, capsys):
        assert run("diagnose", "--dist", "gaussian") == 1

    def test_synthetic_requires_seed(self, capsys):
        assert run("diagnose", "--dist", "gaussian", "--p", "10", "--n", "30") == 1


class TestShapeFile:
    def test_master_eq_with_population_shape(self, tmp_path, capsys):
        # TE-free check that the shape matrix enters Q: with Sigma_p = 2I the
        # TRE root changes but the identity Q(d*) = 1/(1+alpha-gamma) holds
        shape_path = tmp_path / "shape.csv"
        save_matrix_csv(2.0 * np.eye(30), shape_path, digits=17)
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", "0.5",
                 "--dist", "gaussian", "--p", "30", "--reps", "80", "--seed", "5",
                 "--shape-file", shape_path)
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tre_identity_gap"] <= 3 * max(doc["mc_stderr"], 1e-12)
        # doubling the population scale roughly doubles d* (Q scales in d)
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", "0.5",
                 "--dist", "gaussian", "--p", "30", "--reps", "80", "--seed", "5")
        doc_id = json.loads(capsys.readouterr().out)
        assert doc["d_star"] == pytest.approx(2 * doc_id["d_star"], rel=0.02)

    def test_shape_file_dimension_mismatch(self, tmp_path, capsys):
        shape_path = tmp_path / "shape.csv"
        save_matrix_csv(np.eye(4), shape_path, digits=17)
        rc = run("master-eq", "--kind", "tre", "--alpha", "1", "--gamma", "0.5",
                 "--dist", "gaussian", "--p", "30", "--reps", "20", "--seed", "5",
                 "--shape-file", shape_path)
        assert rc == 1


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for cmd in ("estimate", "simulate", "master-eq", "sparse-cov", "clime", "diagnose"):
        assert cmd in text


def test_help_shows_every_default():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {name: " ".join(sp.format_help().split()) for name, sp in sub.choices.items()}
    for name, sp in sub.choices.items():
        for action in sp._actions:
            if action.option_strings and action.default not in (None, argparse.SUPPRESS):
                assert f"(default: {action.default})" in helps[name], (name, action.dest)
    # `diagnose` marks its sampling flags not given with None, but shows what a draw uses
    for shown in ("distribution family (default: gaussian)",
                  "for permuted-smoothed (default: 0.01)",
                  "pareto:a (default: constant:1)",
                  "every coordinate (default: 0.0)"):
        assert shown in helps["diagnose"]


def test_cli_import_leaves_scipy_optimize_unloaded():
    # the LP solver imports scipy.optimize on first use; importing it with
    # the CLI would add its load time to every command
    src = str(Path(robust_scatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, robust_scatter.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_commands_without_lp_or_root_search_leave_scipy_unloaded(data_csv, tmp_path):
    # quad_forms binds scipy's bundled OpenBLAS by path, so the commands
    # that need no LP and no root search import no scipy module at all
    if parallel.SCIPY_OPENBLAS is None:
        pytest.skip("scipy bundles no libscipy_openblas: its kernels come through scipy.linalg")
    commands = _commands(data_csv, tmp_path)
    argvs = [[str(a) for a in commands[name]]
             for name in ("estimate", "simulate", "sparse-cov", "diagnose")]
    src = str(Path(robust_scatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys, robust_scatter.cli as cli; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True)
    codes, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(argvs)
    assert loaded == []
