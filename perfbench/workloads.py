"""Output checks of each workload, wired to the files its commands write.

``command_errors`` is the check that belongs to one command and runs after
every job. ``run_errors`` runs once per run, outside the timed region: it
redraws replicates and re-solves them through the program's public
functions, and checks them with the algebra in ``checks``.
"""

from __future__ import annotations

import json

import numpy as np

import checks
from inputs import ALPHA, DIAG_EPS, FIG1_GRIDS, TOL_ROOT, Plan

import robust_scatter as rs
import robust_scatter.cli  # noqa: F401  (DIST_BY_NAME)

# replicates re-solved per run: every rep of the smallest RESOLVE_DIMS dimensions
RESOLVE_DIMS = 2
CLIME_RESOLVED_COLUMNS = 3


def _meta(cmd) -> dict:
    with open(cmd.out + ".meta.json") as fh:
        return json.load(fh)


def _csv(path: str, skip: int = 0) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)


def _solve(kind: str, data, alpha: float = ALPHA):
    u = rs.rational_u()
    if kind == "TE":
        return rs.tyler(data)
    if kind == "ME":
        return rs.maronna(data, u)
    if kind == "TRE":
        return rs.tyler_regularized(data, alpha)
    return rs.maronna_regularized(data, u, alpha)


def command_errors(pl: Plan, cmd) -> list:
    """Checks of one command's outputs that are cheap enough to run per job."""
    label = f"{pl.workload}/{cmd.name}"
    if pl.workload == "fig1-pooled":
        meta = _meta(cmd)
        errors = checks.report_errors(_csv(cmd.out, skip=1).tolist(), meta,
                                      pl.sizes["dims"], 2, label)
        w_stars = [meta["predicted_weight"]] + [r["w_star"] for r in meta["rows"]]
        if any(w != 1.0 for w in w_stars):
            errors.append(f"{label}: w* = {w_stars}, expected exactly 1 "
                          f"(TE with tau_p = 1, ME with phi^-1(1) = 1)")
        return errors
    if pl.workload == "regularized":
        if cmd.name == "master-eq tre":
            with open(cmd.out) as fh:
                doc = json.load(fh)
            if doc["kind"] != "TRE" or doc["gamma"] != 0.5:
                return [f"{label}: payload is for kind={doc['kind']}, gamma={doc['gamma']}"]
            return checks.master_eq_errors(doc, ALPHA, TOL_ROOT, label)
        meta = _meta(cmd)
        errors = checks.report_errors(_csv(cmd.out, skip=1).tolist(), meta,
                                      pl.sizes["dims"], 2, label)
        kind = cmd.params["kind"]
        for r in meta["rows"]:
            pred = checks.predict_weight(kind, r["p"], r["n"], ALPHA, pl.sizes["mc_reps"], TOL_ROOT)
            errors += checks.weight_prediction_errors(kind, r["w_star"], r["p"], r["n"], ALPHA,
                                                      pred, label)
        return errors
    if cmd.name == "diagnose":
        with open(cmd.out) as fh:
            doc = json.load(fh)
        return checks.diagnose_errors(_dataset(pl, "cov"), doc, DIAG_EPS, label)
    out = _csv(cmd.out)
    errors = checks.symmetric_errors(out, label)
    if cmd.name == "sparse-cov" and not errors:
        errors += checks.kept_entry_errors(out, _meta(cmd)["threshold"], label)
    return errors


def _dataset(pl: Plan, name: str) -> np.ndarray:
    return _csv(pl.datasets[name][0])


def run_errors(pl: Plan) -> tuple:
    """Once-per-run checks; returns (errors, facts) with facts for the record."""
    if pl.workload == "fig1-pooled":
        return _fig1_run_errors(pl), {}
    if pl.workload == "regularized":
        return _regularized_run_errors(pl), {}
    return _csv_run_errors(pl)


def _resolved_row_errors(pl: Plan, cmd, spec, kind: str, alpha: float) -> list:
    meta = _meta(cmd)
    label = f"{pl.workload}/{cmd.name}"
    errors = []
    for k, row in enumerate(meta["rows"][:RESOLVE_DIMS]):
        stats = []
        for rep in range(pl.sizes["reps"]):
            seed = rs.derive_seed(cmd.params["seed"], k, rep)
            data = rs.sample(spec, row["n"], row["p"], seed)
            est = _solve(kind, data, alpha)
            x, sigma = data.samples, est.matrix.entries
            errors += checks.fixed_point_errors(kind, x, sigma, alpha,
                                                f"{label} p={row['p']} rep {rep}")
            stats.append(checks.deviation_stats(checks.weights(kind, x, sigma), row["w_star"]))
        errors += checks.replicate_stat_errors(row, stats, label)
    return errors


def _fig1_run_errors(pl: Plan) -> list:
    metas = [_meta(c) for c in pl.commands]
    errors = checks.slope_band_errors(metas, [c.name for c in pl.commands])
    for cmd, (_, dist) in zip(pl.commands, FIG1_GRIDS):
        spec = rs.DistributionSpec(rs.cli.DIST_BY_NAME[dist])
        errors += _resolved_row_errors(pl, cmd, spec, cmd.params["kind"], 0.0)
    return errors


def _regularized_run_errors(pl: Plan) -> list:
    errors = []
    spec = rs.DistributionSpec("gaussian")
    for cmd in pl.commands[1:]:
        errors += _resolved_row_errors(pl, cmd, spec, cmd.params["kind"], ALPHA)
    return errors


def _csv_run_errors(pl: Plan) -> tuple:
    errors = []
    by_name = {c.name: c for c in pl.commands}

    x = _dataset(pl, "cov")
    sigma = rs.tyler(rs.Dataset(x)).matrix.entries
    errors += checks.fixed_point_errors("TE", x, sigma, 0.0, "csv-pipelines/sparse-cov Tyler")
    cmd = by_name["sparse-cov"]
    out = _csv(cmd.out)
    errors += checks.threshold_errors(out, _meta(cmd)["threshold"], sigma,
                                      pl.sizes["c1"], x.shape[0], "csv-pipelines/sparse-cov")

    x = _dataset(pl, "clime")
    proxy = rs.tyler(rs.Dataset(x)).matrix
    errors += checks.fixed_point_errors("TE", x, proxy.entries, 0.0, "csv-pipelines/clime proxy")
    cmd = by_name["clime"]
    lam = cmd.params["lambda"]
    omega = _csv(cmd.out)
    p = x.shape[1]
    cols = np.random.default_rng([pl.seed, 2]).choice(p, size=min(CLIME_RESOLVED_COLUMNS, p),
                                                      replace=False)
    for j in sorted(int(c) for c in cols):
        w = rs.clime_column(proxy, j, lam)
        errors += checks.clime_column_errors(proxy.entries, j, lam, w, "csv-pipelines/clime")
        errors += checks.clime_symmetrization_errors(omega, j, w, "csv-pipelines/clime")
    facts = {
        "clime_lambda": lam,
        "clime_nonzeros_per_column": float(np.count_nonzero(omega) / p),
        "sparse_cov_kept_offdiagonal": int(np.count_nonzero(out) - np.count_nonzero(np.diag(out))),
    }
    return errors, facts
