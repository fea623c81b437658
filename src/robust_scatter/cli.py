"""Command-line interface.

Subcommands: estimate, simulate, master-eq, sparse-cov, clime, diagnose.
Each command returns its primary artifact (CSV or JSON text) and the
command-specific sidecar fields; `main` does the rest, the same way for all
six. It times the run, writes the artifact to a temporary file renamed
onto `--out` (never partially written), or to stdout when `master-eq` or
`diagnose` get no `--out`, and next to it a JSON sidecar
(`<out>.meta.json`) echoing the full configuration, package version and
BLAS configuration, so any run can be reproduced exactly. Every command
runs at the one BLAS thread the package pins at import (`parallel`), and the
sidecar reports that count.

Exit codes: 0 success, 1 usage error, 2 numerical failure (the failure is
reported as JSON on stdout with a machine-readable ``code``). Failures are
raised, and reported by `main` alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import RobustScatterError
from .estimators import (
    ScatterEstimate,
    ScatterMatrix,
    SolverConfig,
    fit,
    resolve_u,
    tyler,
)
from .experiment import (
    ExperimentConfig,
    eigen_bounds_diag,
    quadratic_form_diagnostics,
    stieltjes_diag,
    weight_deviation_experiment,
)
from .master_equation import solve_master
from .model import load_dataset_csv, matrix_csv_text, sample_covariance, write_text_atomic
from .parallel import blas_report
from .samplers import DistributionSpec, RadialLaw, sample
from .sparse import clime as clime_solve
from .sparse import sparse_cov_estimate

KIND_BY_NAME = {"tyler": "TE", "maronna": "ME", "tyler-reg": "TRE", "maronna-reg": "MRE"}
DIST_BY_NAME = {
    "gaussian": "gaussian",
    "laplace": "laplace-iid",
    "permuted-smoothed": "permuted-smoothed",
    "elliptical": "elliptical",
}


# sampling flags (argparse dest -> default); `diagnose` reads them only for synthetic draws
_DIST_DEFAULTS = {"dist": "gaussian", "sigma": DistributionSpec.sigma_smooth,
                  "radial": "constant:1", "mean": 0.0, "shape_file": None}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# `diagnose` defaults its sampling flags to None to mark them not given; help shows the real ones
class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):
        if action.default is None and _DIST_DEFAULTS.get(action.dest) is not None:
            return f"{action.help} (default: {_DIST_DEFAULTS[action.dest]})"
        return super()._get_help_string(action)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write_sidecar(args: argparse.Namespace, extra: dict, wall_time: float) -> None:
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    payload = {
        "command": args.command,
        "version": __version__,
        "config": echo,
        "wall_time_s": wall_time,
    }
    payload.update(extra)
    payload["blas"] = blas_report()
    write_text_atomic(f"{args.out}.meta.json", _json_text(payload))


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command and write what it returns: the primary text to
    `args.out` (stdout when there is none) and, with an `args.out`, the
    sidecar. Any failure is raised before anything is written."""
    t0 = time.perf_counter()
    text, extra = args.func(args)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    write_text_atomic(args.out, text)
    _write_sidecar(args, extra, time.perf_counter() - t0)
    return 0


def _norms_dict(norms) -> dict:
    return {"max": norms.max_norm, "l1": norms.l1_norm, "operator": norms.operator_norm}


def _sparse_extra(est, parameter_key: str) -> dict:
    """The `sparse-cov` and `clime` sidecar fields, the parameter named after the flag."""
    return {
        "method": est.method,
        parameter_key: est.parameter,
        "input_norms": _norms_dict(est.input_norms),
        "error_vs_truth": _norms_dict(est.error_vs_truth) if est.error_vs_truth else None,
    }


def estimate_to_dict(est: ScatterEstimate, n: int) -> dict:
    return {
        "kind": est.kind,
        "p": est.matrix.p,
        "n": n,
        "alpha": est.alpha,
        "u": est.u.name if est.u is not None else None,
        "matrix": [float(v) for v in est.matrix.entries.ravel()],
        "weights": [float(v) for v in est.weights],
        "iterations": est.iterations,
        "residual": est.residual,
        "converged": est.converged,
    }


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """The type of every float flag: a finite number, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_dist_args(sp, with_shape: bool, with_mean: bool = False) -> None:
    sp.add_argument("--dist", choices=sorted(DIST_BY_NAME), default=_DIST_DEFAULTS["dist"],
                    help="sampling distribution family")
    sp.add_argument("--sigma", type=_finite_float, default=_DIST_DEFAULTS["sigma"],
                    help="smoothing level for permuted-smoothed")
    sp.add_argument("--radial", default=_DIST_DEFAULTS["radial"],
                    help="radial law for elliptical: constant:c, chi:k or pareto:a")
    if with_mean:
        sp.add_argument("--mean", type=_finite_float, default=_DIST_DEFAULTS["mean"],
                        help="constant mean added to every coordinate")
    if with_shape:
        sp.add_argument("--shape-file", default=_DIST_DEFAULTS["shape_file"],
                        help="CSV file with the p x p population shape matrix")


def _add_solver_args(sp) -> None:
    sp.add_argument("--tol", type=_finite_float, default=SolverConfig.tol,
                    help="stop once the defining-equation residual is at most this")
    sp.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                    help="map evaluations allowed per solve")


def _parse_radial(text: str) -> RadialLaw:
    kind, _, arg = text.partition(":")
    try:
        return RadialLaw(kind, _finite_float(arg) if arg else 1.0)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad --radial value {text!r}: {exc}") from None


def _dist_spec(args: argparse.Namespace, p: int) -> DistributionSpec:
    family = DIST_BY_NAME[args.dist]
    mean = None
    if getattr(args, "mean", 0.0):
        mean = np.full(p, float(args.mean))
    shape_file = getattr(args, "shape_file", None)
    return DistributionSpec(
        family=family,
        sigma_smooth=args.sigma,
        radial_law=_parse_radial(args.radial) if family == "elliptical" else None,
        mean=mean,
        shape=ScatterMatrix(load_dataset_csv(shape_file).samples) if shape_file else None,
    )


def _solver_cfg(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_estimate(args) -> tuple[str, dict]:
    data = load_dataset_csv(args.input)
    kind = KIND_BY_NAME[args.kind]
    u = resolve_u(args.u) if kind in ("ME", "MRE") else None
    est = fit(kind, data, u, args.alpha, _solver_cfg(args)).require_converged()
    return _json_text(estimate_to_dict(est, data.n)), {}


def _cmd_simulate(args) -> tuple[str, dict]:
    kind = KIND_BY_NAME[args.kind]
    dims = tuple(int(s) for s in args.dims.split(","))
    cfg = ExperimentConfig(
        kind=kind,
        dist=_dist_spec(args, dims[0]),
        dims=dims,
        ratio=args.ratio,
        reps=args.reps,
        base_seed=args.seed,
        u=resolve_u(args.u) if kind in ("ME", "MRE") else None,
        alpha=args.alpha,
        solver=_solver_cfg(args),
        mc_reps=args.mc_reps,
        threads=args.threads,
    )
    report = weight_deviation_experiment(cfg)
    text = "p,n,linf_mean,linf_stderr,rmse_mean,rmse_stderr\n" + matrix_csv_text(
        [[r.p, r.n, r.linf_mean, r.linf_stderr, r.rmse_mean, r.rmse_stderr]
         for r in report.rows])
    extra = asdict(report)
    extra["experiment_wall_time_s"] = extra.pop("wall_time")
    return text, extra


def _cmd_master_eq(args) -> tuple[str, dict]:
    p, n = args.p, args.n
    if n is None:  # the parser takes exactly one of --n and --gamma
        if not args.gamma > 0:
            raise UsageError(f"--gamma must be positive, got {args.gamma:g}")
        n = int(round(p / args.gamma))
    u = resolve_u(args.u) if args.kind == "mre" else None
    res = solve_master(_dist_spec(args, p), n, p, args.alpha, u=u, reps=args.reps,
                       seed=args.seed)
    payload = {"kind": res.kind, "p": p, "n": n, "gamma": p / n, "alpha": args.alpha}
    payload.update((k, v) for k, v in asdict(res).items() if k not in ("kind", "q_star"))
    if res.kind == "TRE":
        # internal sanity: at the root, Q must equal 1/(1+alpha-gamma)
        payload["q_at_root"] = res.q_star
        payload["tre_identity_gap"] = abs(res.q_star - 1.0 / (1.0 + args.alpha - p / n))
    return _json_text(payload), {}


def _cmd_sparse_cov(args) -> tuple[str, dict]:
    data = load_dataset_csv(args.input)
    truth = load_dataset_csv(args.truth).samples if args.truth else None
    est = sparse_cov_estimate(data, args.c1, truth=truth, cfg=_solver_cfg(args))
    return matrix_csv_text(est.matrix), _sparse_extra(est, "threshold")


def _cmd_clime(args) -> tuple[str, dict]:
    data = load_dataset_csv(args.input)
    if args.proxy == "tyler":
        proxy = tyler(data, _solver_cfg(args)).require_converged().matrix
    else:
        proxy = sample_covariance(data)
    truth = load_dataset_csv(args.truth).samples if args.truth else None
    out = clime_solve(proxy, args.lam, truth=truth, threads=args.threads)
    return matrix_csv_text(out.matrix), _sparse_extra(out, "lambda")


def _cmd_diagnose(args) -> tuple[str, dict]:
    if args.input:
        given = [f"--{key.replace('_', '-')}" for key in _DIST_DEFAULTS
                 if getattr(args, key) is not None]
        if given:
            raise UsageError(f"diagnose --input does not sample; drop {', '.join(given)}")
        data = load_dataset_csv(args.input)
    else:
        for key, default in _DIST_DEFAULTS.items():
            if getattr(args, key) is None:
                setattr(args, key, default)
        if args.p is None or args.n is None or args.seed is None:
            raise UsageError("diagnose needs --input, or --p/--n/--seed for synthetic data")
        data = sample(_dist_spec(args, args.p), args.n, args.p, args.seed)
    payload = {"n": data.n, "p": data.p, "gamma": data.p / data.n}
    lmin, lmax = eigen_bounds_diag(data)
    payload["eigen_bounds"] = {"lambda_min": lmin, "lambda_max": lmax}
    payload["stieltjes"] = {"eps": args.eps, "m_hat": stieltjes_diag(data, args.eps)}
    if data.n > data.p:
        q = quadratic_form_diagnostics(data)
        payload["quadratic_forms"] = {
            "max_dev_full": q.max_dev_full,
            "max_dev_loo": q.max_dev_loo,
            "loo_target": 1.0 / (1.0 - q.gamma),
            "max_sherman_morrison_rel_err": q.max_sm_rel_err,
        }
    else:
        payload["quadratic_forms"] = None
    return _json_text(payload), {}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="robust-scatter",
        description="Robust scatter-matrix estimation: Tyler/Maronna fixed points, "
                    "weight-concentration experiments, sparse covariance and precision pipelines.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = _HelpFormatter

    sp = sub.add_parser("estimate", formatter_class=fmt,
                        help="fit one estimator to a dataset CSV")
    sp.add_argument("--kind", choices=sorted(KIND_BY_NAME), required=True)
    sp.add_argument("--input", required=True, help="dataset CSV (n rows, p columns)")
    sp.add_argument("--out", required=True, help="output JSON path")
    sp.add_argument("--u", default="rational", help="weight function: rational or huber:t")
    sp.add_argument("--alpha", type=_finite_float, default=1.0, help="regularization (reg kinds)")
    _add_solver_args(sp)
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("simulate", formatter_class=fmt,
                        help="weight-deviation experiment over a dimension grid")
    sp.add_argument("--kind", choices=sorted(KIND_BY_NAME), required=True)
    _add_dist_args(sp, with_shape=False)
    sp.add_argument("--u", default="rational",
                    help="weight function for the maronna kinds: rational or huber:t")
    sp.add_argument("--alpha", type=_finite_float, default=ExperimentConfig.alpha,
                    help="regularization (reg kinds)")
    sp.add_argument("--dims", required=True, help="comma-separated dimensions, e.g. 64,128,256")
    sp.add_argument("--ratio", type=int, default=ExperimentConfig.ratio, help="n = ratio * p")
    sp.add_argument("--reps", type=int, default=ExperimentConfig.reps,
                    help="seeded replicates per dimension")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True, help="output CSV path")
    _add_solver_args(sp)
    sp.add_argument("--mc-reps", type=int, default=ExperimentConfig.mc_reps,
                    help="Monte-Carlo draws of the master equation per dimension (reg kinds)")
    sp.add_argument("--threads", type=int, default=ExperimentConfig.threads,
                    help="worker threads")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("master-eq", formatter_class=fmt,
                        help="solve the limiting-weight master equation")
    sp.add_argument("--kind", choices=["tre", "mre"], required=True)
    _add_dist_args(sp, with_shape=True)
    sp.add_argument("--u", default="rational", help="weight function for mre: rational or huber:t")
    sp.add_argument("--alpha", type=_finite_float, required=True)
    sp.add_argument("--p", type=int, required=True)
    size = sp.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, default=None)
    size.add_argument("--gamma", type=_finite_float, default=None, help="p/n (alternative to --n)")
    sp.add_argument("--reps", type=int, default=200, help="Monte-Carlo draws")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", default=None, help="output JSON path (stdout when omitted)")
    sp.set_defaults(func=_cmd_master_eq)

    sp = sub.add_parser("sparse-cov", formatter_class=fmt,
                        help="hard-thresholded Tyler estimate of a sparse shape matrix")
    sp.add_argument("--input", required=True)
    sp.add_argument("--c1", type=_finite_float, required=True, help="threshold constant")
    sp.add_argument("--out", required=True, help="output CSV path (dense matrix)")
    sp.add_argument("--truth", default=None, help="optional CSV with the true shape matrix")
    _add_solver_args(sp)
    sp.set_defaults(func=_cmd_sparse_cov)

    sp = sub.add_parser("clime", formatter_class=fmt,
                        help="sparse inverse-shape estimation via column-wise l1 programs")
    sp.add_argument("--input", required=True)
    sp.add_argument("--lambda", dest="lam", type=_finite_float, required=True)
    sp.add_argument("--out", required=True, help="output CSV path (dense matrix)")
    sp.add_argument("--proxy", choices=["tyler", "sample"], default="tyler",
                    help="shape proxy the l1 programs invert")
    sp.add_argument("--truth", default=None, help="optional CSV with the true inverse shape")
    _add_solver_args(sp)
    sp.add_argument("--threads", type=int, default=1, help="worker threads")
    sp.set_defaults(func=_cmd_clime)

    sp = sub.add_parser("diagnose", formatter_class=fmt,
                        help="quadratic-form, Stieltjes and eigenvalue diagnostics")
    sp.add_argument("--input", default=None,
                    help="dataset CSV (else a synthetic draw, the only use of the sampling flags)")
    _add_dist_args(sp, with_shape=True, with_mean=True)
    sp.set_defaults(**dict.fromkeys(_DIST_DEFAULTS))  # None marks a flag as not given
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None, help="required for synthetic draws")
    sp.add_argument("--eps", type=_finite_float, default=0.01,
                    help="ridge of the Stieltjes diagnostic mean(1/(eig(S) + eps))")
    sp.add_argument("--out", default=None, help="output JSON path (stdout when omitted)")
    sp.set_defaults(func=_cmd_diagnose)

    return parser


def _fail(code: str, message: str) -> None:
    print(json.dumps({"error": {"code": code, "message": message}}))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        return _run(parser.parse_args(argv))
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RobustScatterError as exc:
        _fail(exc.code, str(exc))
        return 2
    except np.linalg.LinAlgError as exc:
        _fail("linear_algebra", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
