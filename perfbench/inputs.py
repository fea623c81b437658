"""What each workload hands the program: command lines and dataset CSVs.

Everything here is a function of (workload, seed, sizes). It imports only
numpy, so a set-up probe pays for nothing the program itself does not.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

FIG1_GRIDS = (("tyler", "gaussian"), ("tyler", "laplace"),
              ("maronna", "gaussian"), ("maronna", "laplace"))
ALPHA = 1.0
TOL_ROOT = 1e-3  # the CLI default of --tol-root, used by the checks
DIAG_EPS = 0.01  # the CLI default of diagnose --eps

# Sizes per workload; TINY runs every check in a second or two for the tests.
SIZES = {
    "fig1-pooled": {"dims": (64, 128, 256, 512), "reps": 2},
    "regularized": {"master_p": 200, "master_reps": 200,
                    "dims": (64, 128), "reps": 3, "mc_reps": 200},
    "csv-pipelines": {"cov_p": 100, "cov_n": 1000, "clime_p": 40, "clime_n": 400,
                      "c1": 0.5},
}
TINY = {
    "fig1-pooled": {"dims": (16, 32, 64), "reps": 2},
    "regularized": {"master_p": 40, "master_reps": 60,
                    "dims": (20, 40), "reps": 2, "mc_reps": 60},
    "csv-pipelines": {"cov_p": 12, "cov_n": 120, "clime_p": 8, "clime_n": 80,
                      "c1": 0.5},
}
WORKLOADS = tuple(SIZES)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def sub_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


@dataclass(frozen=True)
class Command:
    name: str
    argv: list
    out: str  # primary output; its sidecar is out + ".meta.json"
    params: dict = field(default_factory=dict)  # what the checks need to know


@dataclass
class Plan:
    workload: str
    seed: int
    workdir: str
    sizes: dict
    commands: list = field(default_factory=list)
    datasets: dict = field(default_factory=dict)  # name -> (path, n, p, rng index)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_inputs(self) -> None:
        for path, n, p, index in self.datasets.values():
            rng = np.random.default_rng([self.seed, index])
            np.savetxt(path, banded_t_rows(rng, n, p), delimiter=",", fmt="%.17g")


def banded_t_rows(rng: np.random.Generator, n: int, p: int, dof: float = 5.0) -> np.ndarray:
    """Multivariate-t rows with tridiagonal shape (1 on, 0.4 off the diagonal):
    heavy-tailed elliptical data with a sparse shape and sparse-ish inverse."""
    shape = np.eye(p) + 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1))
    z = rng.standard_normal((n, p)) @ np.linalg.cholesky(shape).T
    return z / np.sqrt(rng.chisquare(dof, size=n) / dof)[:, None]


def clime_lambda(p: int, n: int) -> float:
    """sqrt(log p / n) to four digits, the rate-optimal CLIME level."""
    return round(math.sqrt(math.log(p) / n), 4)


def plan(workload: str, seed: int, workdir: str, tiny: bool = False) -> Plan:
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    sizes = (TINY if tiny else SIZES)[workload]
    pl = Plan(workload, seed, workdir, sizes)
    if workload == "fig1-pooled":
        dims = ",".join(str(d) for d in sizes["dims"])
        for g, (kind, dist) in enumerate(FIG1_GRIDS):
            out = pl.path(f"fig1-{kind}-{dist}.csv")
            pl.commands.append(Command(f"simulate {kind}/{dist}", [
                "simulate", "--kind", kind, "--u", "rational", "--dist", dist,
                "--dims", dims, "--ratio", "2", "--reps", str(sizes["reps"]),
                "--seed", str(sub_seed(seed, g)), "--threads", str(usable_cores()),
                "--out", out], out,
                {"kind": "TE" if kind == "tyler" else "ME", "dist": dist,
                 "seed": sub_seed(seed, g)}))
    elif workload == "regularized":
        out = pl.path("master-eq.json")
        pl.commands.append(Command("master-eq tre", [
            "master-eq", "--kind", "tre", "--alpha", str(ALPHA), "--gamma", "0.5",
            "--dist", "gaussian", "--p", str(sizes["master_p"]),
            "--reps", str(sizes["master_reps"]), "--seed", str(sub_seed(seed, 0)),
            "--out", out], out))
        dims = ",".join(str(d) for d in sizes["dims"])
        for g, kind in enumerate(("tyler-reg", "maronna-reg"), start=1):
            out = pl.path(f"{kind}.csv")
            pl.commands.append(Command(f"simulate {kind}", [
                "simulate", "--kind", kind, "--u", "rational", "--alpha", str(ALPHA),
                "--dist", "gaussian", "--dims", dims, "--ratio", "2",
                "--reps", str(sizes["reps"]), "--mc-reps", str(sizes["mc_reps"]),
                "--seed", str(sub_seed(seed, g)), "--threads", "1", "--out", out], out,
                {"kind": "TRE" if kind == "tyler-reg" else "MRE", "seed": sub_seed(seed, g)}))
    else:
        cov = pl.path("cov-data.csv")
        cl = pl.path("clime-data.csv")
        pl.datasets = {"cov": (cov, sizes["cov_n"], sizes["cov_p"], 0),
                       "clime": (cl, sizes["clime_n"], sizes["clime_p"], 1)}
        lam = clime_lambda(sizes["clime_p"], sizes["clime_n"])
        pl.commands += [
            Command("diagnose", ["diagnose", "--input", cov, "--eps", str(DIAG_EPS),
                                 "--out", pl.path("diagnose.json")], pl.path("diagnose.json")),
            Command("sparse-cov", ["sparse-cov", "--input", cov, "--c1", str(sizes["c1"]),
                                   "--out", pl.path("sparse-cov.csv")], pl.path("sparse-cov.csv")),
            Command("clime", ["clime", "--input", cl, "--lambda", str(lam), "--proxy", "tyler",
                              "--out", pl.path("clime.csv")], pl.path("clime.csv"),
                    {"lambda": lam}),
        ]
    return pl
