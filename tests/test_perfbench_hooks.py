"""The benchmark tracer finds every layer it hooks.

perfbench/tracer.py wraps package functions by "module:attribute" name and
reports a name that no longer resolves as an absent layer reading 0, rather
than failing. So a rename in the package must fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
POINTS = sorted({point for _, points in tracer.LAYERS for point in points} |
                {point for _, point in tracer.StepProbe.POINTS})


@pytest.mark.parametrize("point", POINTS)
def test_every_benchmark_patch_point_resolves(point):
    patches = tracer.Patches()
    try:
        assert patches.replace(point, lambda fn: fn), f"{point} no longer exists"
    finally:
        patches.restore()
