"""The benchmark tracer finds every layer it hooks, and the benchmark runs.

perfbench/tracer.py wraps package functions by "module:attribute" name and
reports a name that no longer resolves as an absent layer reading 0, rather
than failing. So a rename in the package must fail here instead. A package
change that breaks the benchmark's use of the API fails the smoke run.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUN_PATH = TRACER_PATH.with_name("run.py")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", TRACER_PATH)
POINTS = sorted({point for _, points in tracer.LAYERS for point in points} |
                {point for _, point in tracer.StepProbe.POINTS})


@pytest.mark.parametrize("point", POINTS)
def test_every_benchmark_patch_point_resolves(point):
    patches = tracer.Patches()
    try:
        assert patches.replace(point, lambda fn: fn), f"{point} no longer exists"
    finally:
        patches.restore()


def test_benchmark_smoke_run_passes_on_a_copy(tmp_path):
    """`perfbench/run.py --smoke` runs every workload through the package's
    public API at tiny size. It runs on a copy, so the checkout's
    .bench_out/ and .bench_work/ stay untouched."""
    repo = TRACER_PATH.parents[1]
    for name in ("src", "perfbench"):
        shutil.copytree(repo / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEGFEAT_")}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("smoke ")]
    assert len(lines) == 6, proc.stdout
    assert all(": ok " in ln for ln in lines), proc.stdout


@pytest.mark.parametrize("workload", ["train_desk", "train_timit", "segment_long"])
def test_traced_smoke_run_finds_every_layer_and_runs_every_hook(tmp_path, monkeypatch, workload):
    """Each hook reads its layer's arguments and result (the encoder hook, for
    one, reads `x.value.shape`). The tracer counts a hook that cannot read
    them as a hook error and goes on, so a package change that hands a
    wrapped name other arguments must fail here. The run writes its work
    files and spans under tmp_path, not into the checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # run.py sets them on import; restored after
    monkeypatch.syspath_prepend(str(RUN_PATH.parent))
    run = _load("perfbench_run", RUN_PATH)
    shutil.copy(RUN_PATH.parents[1] / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    result, errors, notes = run.run(workload, seed=0, seconds=0.5, trace=True, smoke=True)
    assert result["correct"], errors
    assert notes["absent_layers"] == []
    assert notes["hook_errors"] == {}
