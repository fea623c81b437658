import os
import random
import sys
import threading
import time

import numpy as np
import pytest
import scipy

from robust_scatter import parallel
from robust_scatter.parallel import blas_report, map_units, openblas_copies

OUTSIDE = 3  # a thread count no default picks on its own, so a restore shows


def _built_with_scipy_openblas(module) -> bool:
    blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("name") == "scipy-openblas"


def _counts():
    return {c.path: c.get_threads() for c in openblas_copies() if c.managed}


@pytest.fixture
def managed():
    """Every managed OpenBLAS set to OUTSIDE threads, put back afterwards."""
    copies = [c for c in openblas_copies() if c.managed]
    names = [os.path.basename(c.path) for c in copies]
    # numpy's ILP64 copy and scipy's LP64 copy are two libraries
    if _built_with_scipy_openblas(np):
        assert any(n.startswith("libscipy_openblas64_") for n in names), names
    if _built_with_scipy_openblas(scipy):
        assert any(n.startswith("libscipy_openblas") and "64_" not in n for n in names), names
    if not copies:
        pytest.skip("no OpenBLAS with a known thread setter is loaded")
    before = [(c, c.get_threads()) for c in copies]
    for c in copies:
        c.set_threads(OUTSIDE)
    try:
        yield {c.path: OUTSIDE for c in copies}
    finally:
        for c, n in before:
            c.set_threads(n)


@pytest.mark.parametrize("threads", [1, 3])
def test_every_copy_reads_one_inside_the_map(managed, threads):
    inside = map_units(lambda _: _counts(), range(6), threads)
    assert all(seen == {path: 1 for path in managed} for seen in inside)
    assert _counts() == managed


@pytest.mark.parametrize("threads", [1, 3])
def test_counts_restored_after_an_exception_in_fn(managed, threads):
    def fn(x):
        if x == 4:
            raise RuntimeError("unit 4 failed")
        return x

    with pytest.raises(RuntimeError, match="unit 4 failed"):
        map_units(fn, range(8), threads)
    assert _counts() == managed
    assert parallel.ONE_BLAS_THREAD._depth == 0


def test_nested_maps_restore_once(managed):
    def outer(_):
        inner = map_units(lambda _: _counts(), range(3), 2)
        return inner, _counts()

    for inner, after_inner in map_units(outer, range(4), 2):
        # the inner map ending must not undo the outer map's pin
        assert all(seen == {path: 1 for path in managed} for seen in inner)
        assert after_inner == {path: 1 for path in managed}
    assert _counts() == managed


def test_concurrent_maps_stress(managed):
    """More map callers than cores, switching often: the pin holds while any
    map runs and the counts come back exactly once, after the last one."""
    errors = []
    pinned = {path: 1 for path in managed}

    def caller():
        try:
            for _ in range(20):
                for seen in map_units(lambda _: _counts(), range(3), 2):
                    assert seen == pinned
        except Exception as exc:  # reported to the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert parallel.ONE_BLAS_THREAD._depth == 0
    assert _counts() == managed


def test_no_op_when_discovery_finds_nothing(managed, monkeypatch):
    real_counts = _counts
    monkeypatch.setattr(parallel, "openblas_copies", lambda: [])
    inside = map_units(lambda _: real_counts(), range(4), 2)
    assert all(seen == managed for seen in inside)
    assert blas_report() == []


def test_blas_report_lists_each_copy(managed):
    report = blas_report()
    pinned = [r for r in report if r["in_loops"] == "pinned"]
    assert sorted(r["library"] for r in pinned) == sorted(os.path.basename(p) for p in managed)
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
