import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from robust_scatter import parallel
from robust_scatter.parallel import blas_report, map_units

OUTSIDE = 3  # a thread count neither the pin nor a 2-core default picks


def _built_with_scipy_openblas(module) -> bool:
    blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("name") == "scipy-openblas"


def _assert_both_copies(names):
    # numpy's ILP64 copy and scipy's LP64 copy are two libraries
    if _built_with_scipy_openblas(np):
        assert any(n.startswith("libscipy_openblas64_") for n in names), names
    if _built_with_scipy_openblas(scipy):
        assert any(n.startswith("libscipy_openblas") and "64_" not in n for n in names), names


@pytest.fixture
def pinned_copies():
    """Every OpenBLAS the pin set, now at OUTSIDE threads, put back afterwards."""
    copies = dict(parallel._PINNED)  # path -> (get, set)
    _assert_both_copies([os.path.basename(path) for path in copies])
    if not copies:
        pytest.skip("no OpenBLAS with a known thread setter is loaded")
    before = [(set_threads, get_threads()) for get_threads, set_threads in copies.values()]
    for _, set_threads in copies.values():
        set_threads(OUTSIDE)
    try:
        yield {path: OUTSIDE for path in copies}
    finally:
        for set_threads, n in before:
            set_threads(n)


def test_import_pins_every_copy_to_one_thread():
    # a fresh process whose environment asks for 3 threads: importing the
    # package alone must leave every copy with a known setter at 1
    code = ("import json; import robust_scatter; from robust_scatter import parallel; "
            "print(json.dumps([[get() for get, _ in parallel._PINNED.values()], "
            "parallel.blas_report()]))")
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(OUTSIDE),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    counts, report = json.loads(done.stdout)
    pinned = [r for r in report if r["in_loops"] == "pinned"]
    _assert_both_copies([r["library"] for r in pinned])
    if not counts:
        pytest.skip("no OpenBLAS with a known thread setter is loaded")
    assert counts == [1] * len(counts)
    assert len(pinned) == len(counts)
    assert all(r["threads"] == 1 for r in pinned)


def test_copy_mapped_after_import_is_not_pinned(tmp_path):
    # "pinned" names the copies the import-time pin set, not every copy with
    # a setter: scipy's OpenBLAS, loaded again under another name after the
    # import, is reported unmanaged
    scipy_copy = [path for path in parallel._PINNED if "64_" not in os.path.basename(path)]
    if not scipy_copy:
        pytest.skip("scipy's LP64 OpenBLAS is not loaded")
    late = tmp_path / "liblate_openblas.so"
    shutil.copy(scipy_copy[0], late)
    code = ("import ctypes, json, sys; from robust_scatter import parallel; "
            "ctypes.CDLL(sys.argv[1]); print(json.dumps(parallel.blas_report()))")
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(late)], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    report = json.loads(done.stdout)
    assert [r for r in report if r["library"] == late.name] == [
        {"library": late.name, "threads": None, "in_loops": "unmanaged"}]
    pinned = [r for r in report if r["in_loops"] == "pinned"]
    _assert_both_copies([r["library"] for r in pinned])
    assert all(r["threads"] == 1 for r in pinned)


def test_no_op_when_discovery_finds_nothing(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas_paths", lambda: [])
    assert blas_report() == []


def test_blas_report_lists_each_copy(pinned_copies):
    report = blas_report()
    pinned = [r for r in report if r["in_loops"] == "pinned"]
    assert sorted(r["library"] for r in pinned) == sorted(
        os.path.basename(p) for p in pinned_copies)
    assert all(r["threads"] == OUTSIDE for r in pinned)


@pytest.mark.parametrize("threads", [1, 3])
def test_results_in_input_order(threads):
    rng = random.Random(0)
    delays = [rng.uniform(0, 0.01) for _ in range(24)]

    def fn(i):
        time.sleep(delays[i])  # later units finish first
        return i * i

    assert map_units(fn, range(24), threads) == [i * i for i in range(24)]


@pytest.mark.parametrize("threads", [0, -2])
def test_rejects_fewer_than_one_thread(threads):
    calls = []
    with pytest.raises(ValueError, match="threads must be at least 1"):
        map_units(calls.append, range(3), threads)
    assert calls == []


def test_rejects_non_integral_threads():
    calls = []
    with pytest.raises(ValueError, match="threads must be integral, got 1.5"):
        map_units(calls.append, range(3), 1.5)
    assert calls == []
    assert map_units(calls.append, range(3), np.int64(2)) == [None] * 3  # numpy integers pass
