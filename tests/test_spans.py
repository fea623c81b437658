"""The benchmark's tracer names program functions by string; a rename or a
deletion in the package must show here, not as a failed traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in SPANS.FUNCTIONS],
                         ids=[f"{m}.{a}" for m, a, _ in SPANS.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"robust_scatter.{module}"), attr))


@pytest.mark.parametrize("module,cls,method", [m[:3] for m in SPANS.METHODS],
                         ids=[f"{m}.{c}.{f}" for m, c, f, _ in SPANS.METHODS])
def test_traced_method_exists(module, cls, method):
    klass = getattr(importlib.import_module(f"robust_scatter.{module}"), cls)
    assert callable(getattr(klass, method))
