"""Benchmark of the robust-scatter toolkit, run through its CLI entry point.

    python3 perfbench/run.py --workload fig1-pooled --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Workloads (see README.md): fig1-pooled,
regularized, csv-pipelines. One run:

1. times SETUP_PROBES fresh interpreters that import ``robust_scatter`` and
   write the workload's inputs (``setup_s`` is their median);
2. sets up the same inputs in this process and repeats the workload's job,
   a fixed list of ``robust_scatter.cli.main`` calls, until ``--seconds``
   have passed and at least MIN_JOBS jobs ran, timing each job (wall and
   process CPU);
3. checks every command's outputs after each job, and once per run checks
   re-solved replicates and LP columns against the benchmark's own algebra;
4. prints the environment block, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the jobs alternate untraced and traced; the metrics are
the per-layer calls and self times of the traced jobs plus the tracing
overhead. Results and spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORK_DIR = HERE / "work"
SETUP_PROBES = 5
MIN_JOBS = 3  # a median of fewer jobs follows a single slow one


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="keep starting jobs until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh interpreter
    ap.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int, workdir: str):
    """What a user pays before the first job: imports and input files."""
    import robust_scatter.cli  # noqa: F401

    os.makedirs(workdir, exist_ok=True)
    pl = inputs.plan(workload, seed, workdir)
    pl.write_inputs()
    return pl


def time_setup(args, workdir: Path) -> float:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe", repr(spawned),
         "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_command(cmd) -> int:
    """One CLI call; its stdout (error payloads) is kept off ours."""
    cli = sys.modules["robust_scatter.cli"]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(cmd.argv))
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        return -1
    if rc != 0:
        print(f"{cmd.name}: exit {rc} {buf.getvalue().strip()}", file=sys.stderr)
    return rc


def run_jobs(args, pl) -> dict:
    import spans
    import workloads

    jobs, errors, outputs0 = [], [], None
    attempted = failed = 0
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < args.seconds:
        # Each job writes its outputs afresh, as a single run does: on ext4,
        # renaming over an existing file flushes it (about 70 ms a file on the
        # reference machine of README.md).
        for cmd in pl.commands:
            for path in (cmd.out, cmd.out + ".meta.json"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        tracer = spans.Tracer() if args.trace and len(jobs) % 2 == 1 else None
        ctx = spans.Instrument(tracer) if tracer else contextlib.nullcontext()
        with ctx:
            c0, w0 = os.times(), time.perf_counter()
            rcs = [run_command(cmd) for cmd in pl.commands]
            wall, c1 = time.perf_counter() - w0, os.times()
        jobs.append({"wall_s": wall, "cpu_s": (c1.user - c0.user) + (c1.system - c0.system),
                     "traced": tracer is not None,
                     "layers": tracer.summary() if tracer else None,
                     "spans": tracer.spans if tracer else None})
        attempted += len(rcs)
        failed += sum(rc != 0 for rc in rcs)
        ok = [cmd for cmd, rc in zip(pl.commands, rcs) if rc == 0]
        for cmd in ok:
            errors += workloads.command_errors(pl, cmd)
        outputs = {cmd.out: Path(cmd.out).read_bytes() for cmd in ok}
        if outputs0 is None:
            outputs0 = outputs
        elif any(outputs0.get(k, v) != v for k, v in outputs.items()):
            errors.append(f"job {len(jobs)}: outputs differ from the first job's (same inputs)")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts = {}
    if failed == 0:
        run_errs, facts = workloads.run_errors(pl)
        errors += run_errs
    return {"jobs": jobs, "errors": errors, "attempted": attempted, "failed": failed,
            "peak_rss_mib": peak_rss_mib, "facts": facts}


def metrics(args, res: dict, setup_times: list) -> dict:
    import spans

    plain = [j for j in res["jobs"] if not j["traced"]]
    job_s = statistics.median(j["wall_s"] for j in plain)
    if not args.trace:
        return {
            "job_s": (job_s, "s"),
            "cpu_s": (statistics.median(j["cpu_s"] for j in plain), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
        }
    traced = [j for j in res["jobs"] if j["traced"]]
    out = {}
    for name in spans.SPAN_NAMES:
        out[f"{name}.calls"] = (statistics.median(j["layers"]["spans"][name][0] for j in traced), "count")
        out[f"{name}.self_s"] = (statistics.median(j["layers"]["spans"][name][1] for j in traced), "s")
    for name in spans.COUNTERS:
        out[name] = (statistics.median(j["layers"]["counters"][name] for j in traced), "count")
    traced_s = statistics.median(j["wall_s"] for j in traced)
    out["trace.job_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - job_s, "s")
    return out


def bench(args) -> int:
    import envinfo

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = [time_setup(args, work / f"probe{i}") for i in range(SETUP_PROBES)]
        pl = setup(args.workload, args.seed, str(work / "run"))
        res = run_jobs(args, pl)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it
    env = envinfo.environment()
    mets = metrics(args, res, setup_times)
    result = {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in mets.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, setup_s_samples=setup_times, errors=res["errors"],
                  facts=res["facts"],
                  jobs=[{k: j[k] for k in ("wall_s", "cpu_s", "traced")} for j in res["jobs"]])
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.json", "w") as fh:
            json.dump([j["spans"] for j in res["jobs"] if j["traced"]], fh)
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robust_scatter" / "__init__.py").is_file():
        print(f"error: {SRC} holds no robust_scatter package; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # spans and workloads import robust_scatter: import them after
    if args.setup_probe is not None:
        setup(args.workload, args.seed, args.workdir)
        print(json.dumps({"setup_s": time.monotonic() - args.setup_probe}))
        return 0
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
