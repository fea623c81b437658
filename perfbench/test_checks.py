"""Fast tests of the benchmark's own code.

Each workload runs at tiny sizes through the CLI and must pass its checks;
each check must also reject a corrupted output. Run with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import envinfo  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import robust_scatter as rs  # noqa: E402
from robust_scatter import cli  # noqa: E402


def _run_plan(workload, tmp_path, seed=3):
    pl = inputs.plan(workload, seed, str(tmp_path), tiny=True)
    pl.write_inputs()
    for cmd in pl.commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(cmd.argv)) == 0, cmd.name
    return pl


def _cmd(pl, name):
    return next(c for c in pl.commands if c.name == name)


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _all_command_errors(pl):
    return [e for cmd in pl.commands for e in workloads.command_errors(pl, cmd)]


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    return _run_plan("fig1-pooled", tmp_path_factory.mktemp("fig1"))


@pytest.fixture(scope="module")
def regularized(tmp_path_factory):
    return _run_plan("regularized", tmp_path_factory.mktemp("reg"))


@pytest.fixture(scope="module")
def csv_pipelines(tmp_path_factory):
    return _run_plan("csv-pipelines", tmp_path_factory.mktemp("csv"))


def _copy(pl, tmp_path):
    """The plan's outputs in a fresh directory, so a test can corrupt them."""
    dst = tmp_path / "copy"
    shutil.copytree(pl.workdir, dst)
    return inputs.plan(pl.workload, pl.seed, str(dst), tiny=True)


# ---------------------------------------------------------------------------
# fig1-pooled
# ---------------------------------------------------------------------------

def test_fig1_outputs_pass(fig1):
    assert _all_command_errors(fig1) == []
    assert workloads.run_errors(fig1) == ([], {})


def test_fig1_rejects_scaled_w_star(fig1, tmp_path):
    pl = _copy(fig1, tmp_path)
    cmd = pl.commands[0]

    def scale(doc):
        doc["predicted_weight"] *= 1.04
    _edit_json(cmd.out + ".meta.json", scale)
    assert any("w* =" in e for e in workloads.command_errors(pl, cmd))


def test_fig1_rejects_deviation_not_matching_resolved_replicates(fig1, tmp_path):
    pl = _copy(fig1, tmp_path)
    cmd = pl.commands[1]

    def scale(doc):
        doc["rows"][0]["linf_mean"] *= 1.04
    _edit_json(cmd.out + ".meta.json", scale)
    errors, _ = workloads.run_errors(pl)
    assert any("re-solved replicates" in e for e in errors)


def test_fig1_rejects_slope_outside_band(fig1):
    metas = [workloads._meta(c) for c in fig1.commands]
    assert checks.slope_band_errors(metas, ["a", "b", "c", "d"]) == []
    metas[2]["slope_rmse"] = -0.25  # deviations growing with p
    errors = checks.slope_band_errors(metas, ["a", "b", "c", "d"])
    assert len(errors) == 1 and "c: slope_rmse" in errors[0]


def test_fixed_point_check_rejects_perturbed_matrix():
    data = rs.sample(rs.DistributionSpec("laplace-iid"), 60, 20, 5)
    sigma = rs.tyler(data).matrix.entries
    assert checks.fixed_point_errors("TE", data.samples, sigma) == []
    bad = sigma.copy()
    bad[0, 1] = bad[1, 0] = bad[0, 1] + 1e-3
    assert checks.fixed_point_errors("TE", data.samples, bad)
    assert checks.fixed_point_errors("TE", data.samples, sigma * 1.04)  # trace != p


# ---------------------------------------------------------------------------
# regularized
# ---------------------------------------------------------------------------

def test_regularized_outputs_pass(regularized):
    assert _all_command_errors(regularized) == []
    assert workloads.run_errors(regularized) == ([], {})


@pytest.mark.parametrize("factor", [1.04, 0.96])
def test_master_eq_rejects_scaled_w_star(regularized, tmp_path, factor):
    pl = _copy(regularized, tmp_path)
    cmd = _cmd(pl, "master-eq tre")

    def scale(doc):
        doc["predicted_weight"] *= factor
        doc["d_star"] /= factor
    _edit_json(cmd.out, scale)
    assert any("differs from the predicted" in e for e in workloads.command_errors(pl, cmd))


@pytest.mark.parametrize("name", ["simulate tyler-reg", "simulate maronna-reg"])
def test_simulate_reg_rejects_scaled_w_star(regularized, tmp_path, name):
    pl = _copy(regularized, tmp_path)
    cmd = _cmd(pl, name)

    def scale(doc):
        doc["rows"][-1]["w_star"] *= 1.04
    _edit_json(cmd.out + ".meta.json", scale)
    assert any("differs from the predicted" in e for e in workloads.command_errors(pl, cmd))


def test_regularized_residual_check_rejects_unregularized_fit():
    data = rs.sample(rs.DistributionSpec("gaussian"), 80, 40, 9)
    tre = rs.tyler_regularized(data, 1.0).matrix.entries
    assert checks.fixed_point_errors("TRE", data.samples, tre, 1.0) == []
    assert checks.fixed_point_errors("TRE", data.samples, tre, 0.5)
    mre = rs.maronna_regularized(data, rs.rational_u(), 1.0).matrix.entries
    assert checks.fixed_point_errors("MRE", data.samples, mre, 1.0) == []
    assert checks.fixed_point_errors("TRE", data.samples, mre, 1.0)


def test_prediction_reaches_closed_form_and_variance_formula():
    big = checks.predict_weight("TRE", 10**6, 2 * 10**6, 1.0, 200, 1e-3)
    assert abs(big["w"] - 4.0 / 3.0) < 1e-5
    t, c = 0.7, 0.5
    th = np.linspace(0.0, np.pi, 20001)
    f = 1.0 / (1.0 + c + 2.0 * np.sqrt(c) * np.cos(th) + t)
    coef = [(2.0 / np.pi) * np.trapezoid(f * np.cos(k * th), th) for k in range(1, 80)]
    series = 0.5 * sum(k * a * a for k, a in enumerate(coef, start=1))
    assert abs(checks.mp_variance(t, c) - series) < 1e-8 * series


# ---------------------------------------------------------------------------
# csv-pipelines
# ---------------------------------------------------------------------------

def test_csv_outputs_pass(csv_pipelines):
    assert _all_command_errors(csv_pipelines) == []
    errors, facts = workloads.run_errors(csv_pipelines)
    assert errors == []
    assert facts["clime_nonzeros_per_column"] > 1.0  # not a one-pivot LP


def test_diagnose_rejects_scaled_deviation(csv_pipelines, tmp_path):
    pl = _copy(csv_pipelines, tmp_path)
    cmd = _cmd(pl, "diagnose")

    def scale(doc):
        doc["quadratic_forms"]["max_dev_full"] *= 1.04
    _edit_json(cmd.out, scale)
    assert any("max_dev_full" in e for e in workloads.command_errors(pl, cmd))


def _write_csv(path, m):
    np.savetxt(path, m, delimiter=",", fmt="%.10g")


def test_sparse_cov_rejects_entry_below_threshold(csv_pipelines, tmp_path):
    pl = _copy(csv_pipelines, tmp_path)
    cmd = _cmd(pl, "sparse-cov")
    out = np.loadtxt(cmd.out, delimiter=",")
    t = workloads._meta(cmd)["threshold"]
    i, j = np.argwhere(out == 0.0)[0]
    out[i, j] = out[j, i] = 0.5 * t
    _write_csv(cmd.out, out)
    assert any("below the threshold" in e for e in workloads.command_errors(pl, cmd))


def test_sparse_cov_rejects_zeroed_entry_above_threshold(csv_pipelines, tmp_path):
    pl = _copy(csv_pipelines, tmp_path)
    cmd = _cmd(pl, "sparse-cov")
    out = np.loadtxt(cmd.out, delimiter=",")
    out[0, 1] = out[1, 0] = 0.0  # tridiagonal shape: kept at these sizes
    _write_csv(cmd.out, out)
    errors, _ = workloads.run_errors(pl)
    assert any("zeroed entries" in e for e in errors)


def test_clime_rejects_asymmetric_matrix(csv_pipelines, tmp_path):
    pl = _copy(csv_pipelines, tmp_path)
    cmd = _cmd(pl, "clime")
    out = np.loadtxt(cmd.out, delimiter=",")
    out[0, 1] += 1e-6
    _write_csv(cmd.out, out)
    assert any("not exactly symmetric" in e for e in workloads.command_errors(pl, cmd))


def test_clime_column_check_rejects_off_optimum_column(csv_pipelines):
    x = np.loadtxt(csv_pipelines.datasets["clime"][0], delimiter=",")
    proxy = rs.tyler(rs.Dataset(x)).matrix
    lam = _cmd(csv_pipelines, "clime").params["lambda"]
    w = rs.clime_column(proxy, 2, lam)
    assert checks.clime_column_errors(proxy.entries, 2, lam, w, "c") == []
    off = w.copy()
    off[np.argmax(np.abs(w) == 0)] += 0.01  # feasible or not, no longer l1-optimal
    assert checks.clime_column_errors(proxy.entries, 2, lam, off, "c")
    assert checks.clime_column_errors(proxy.entries, 2, lam, w * 0.9, "c")


# ---------------------------------------------------------------------------
# tracing and environment
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_overlapping_children():
    tr = spans.Tracer()
    tr.spans = [
        ["experiment.weight_deviation_experiment", 0.0, 10.0, 1, None],
        ["estimators.solve", 1.0, 5.0, 2, 0],   # pool thread A
        ["estimators.solve", 3.0, 7.0, 3, 0],   # pool thread B, overlapping
        ["estimators.quad_forms", 1.5, 2.0, 2, 1],
    ]
    out = tr.summary()["spans"]
    assert out["experiment.weight_deviation_experiment"] == (1, pytest.approx(4.0))
    assert out["estimators.solve"] == (2, pytest.approx(7.5))
    assert out["estimators.quad_forms"] == (1, pytest.approx(0.5))


def test_instrument_nests_spans_and_restores_functions():
    data = rs.sample(rs.DistributionSpec("gaussian"), 60, 10, 2)
    orig = rs.estimators.quad_forms
    tracer = spans.Tracer()
    with spans.Instrument(tracer):
        rs.sparse.sparse_cov_estimate(data, 0.5)
    assert rs.estimators.quad_forms is orig and rs.sparse.tyler is rs.estimators.tyler
    names = {s[0]: s for s in tracer.spans}
    top = tracer.spans.index(names["sparse.sparse_cov_estimate"])
    solve = tracer.spans.index(names["estimators.solve"])
    assert tracer.spans[solve][4] == top
    assert all(s[4] == solve for s in tracer.spans if s[0] == "estimators.quad_forms")
    summary = tracer.summary()
    assert summary["counters"]["estimators.iterations"] > 0
    assert summary["spans"]["estimators.quad_forms"][0] == summary["counters"]["estimators.iterations"] + 1


def test_pool_thread_spans_parent_to_main_thread_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap("samplers.sample", lambda: None)

    def submit():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    tracer.wrap("experiment.weight_deviation_experiment", submit)()
    assert tracer.spans[1][0] == "samplers.sample" and tracer.spans[1][4] == 0


def test_environment_block():
    env = envinfo.environment()
    assert env["usable_cores"] >= 1
    assert isinstance(env["blas_threads"], int) or env["blas_threads"] == "unknown"
    for key in ("python", "numpy", "scipy", "blas_name", "blas_version",
                "OPENBLAS_NUM_THREADS", "ROBUST_SCATTER_THREADS"):
        assert key in env


def test_run_refuses_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "regularized",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
