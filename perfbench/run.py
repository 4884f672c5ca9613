"""segfeat benchmark: one workload per run, one process, one BLAS thread.

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

With `--trace 0` the run measures the end-to-end metrics with tracing off.
With `--trace 1` it repeats the same work twice, untraced and traced, checks
that both produced byte-identical outputs, and reports the per-layer
metrics, then one short extra pass under tracemalloc for the memory peaks.
The last line of standard output is the JSON result; the lines before it
record the environment and every metric by name and unit.

`--smoke` runs every workload at tiny size in both modes and checks that the
printed metric names match BENCHMARK.json. Run from the repository root.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3       # at least; cheap set-ups repeat until SETUP_SECONDS
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 9
EXIT_USAGE = 2

E2E_UNITS = {
    "setup_s": "s",
    "epoch_s": "s",
    "train_frames_per_s": "frames/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "rtf": "ratio",
    "peak_mem_mib": "MiB",
    "f1": "fraction",
    "r_value": "fraction",
}


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(EXIT_USAGE)


def import_package():
    """Import segfeat from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "segfeat" / "__init__.py").is_file():
        die(f"no segfeat sources under {src}; run from a full checkout")
    for name in [k for k in os.environ if k.startswith("SEGFEAT_")]:
        del os.environ[name]  # the CLI reads SEGFEAT_* overrides; keep runs hermetic
    sys.path[:0] = [str(BENCH_DIR), str(src)]
    import segfeat
    if Path(segfeat.__file__).resolve().parent != (src / "segfeat").resolve():
        die(f"imported segfeat from {segfeat.__file__}, not from {src}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "load": "closed loop, one caller, no concurrency"}


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def keep_going(elapsed: float, done: int, seconds: float) -> bool:
    """Start another unit while, at the mean duration so far, it would end no
    more than half a unit past `seconds`; at least one unit always runs."""
    return done == 0 or elapsed + 0.5 * elapsed / done <= seconds


def run_units(workload, state, seconds, probe):
    """Closed loop: the next unit starts when the previous one returned."""
    outcomes = []
    t0 = time.perf_counter()
    while keep_going(time.perf_counter() - t0, len(outcomes), seconds):
        outcomes.append(workload.unit(state, len(outcomes), probe))
    return outcomes


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure(workload, work: Path, seed: int, seconds: float):
    """Untraced run: repeated set-ups, then the timed loop."""
    from tracer import Patches, StepProbe
    patches = Patches()
    probe = StepProbe()
    probe.install(patches)
    try:
        setup_times = []
        while len(setup_times) < SETUP_REPEATS or (
                sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS):
            state = None  # release the previous set-up before making the next
            target = fresh_dir(work / "setup")
            t0 = time.perf_counter()
            state = workload.setup(target, seed, probe)
            setup_times.append(time.perf_counter() - t0)
        outcomes = run_units(workload, state, seconds, probe)
    finally:
        patches.restore()
    counted = outcomes + workload.checks(outcomes)
    errors = [e for o in counted for e in o.errors]
    attempted = sum(o.attempted for o in counted)
    failed = sum(o.failed for o in counted)
    if any(o.digest for o in outcomes):
        metrics, notes = workload.summarize(state, outcomes)
    else:  # nothing succeeded: there is nothing to measure
        metrics, notes = dict.fromkeys(E2E_UNITS), {}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_mem_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes["setup_repeats"] = len(setup_times)
    return metrics, attempted, failed, errors, notes


def measure_traced(workload, work: Path, seed: int, seconds: float, name: str):
    """The same work untraced and traced, alternating, then a tracemalloc pass.

    Each traced set-up or unit runs right after its untraced twin, so both
    see the same machine state and their time ratio is the tracing overhead.
    """
    from tracer import Tracer, step_shares
    tracer = Tracer()
    t0 = time.perf_counter()
    plain_state = workload.setup(fresh_dir(work / "plain"), seed)
    plain_time = time.perf_counter() - t0
    tracer.phase = "setup"
    with tracer.installed():
        t0 = time.perf_counter()
        state = workload.setup(fresh_dir(work / "traced"), seed)
        traced_time = time.perf_counter() - t0

    tracer.phase = "run"
    plain, traced = [], []
    plain_loop = 0.0
    while keep_going(plain_loop, len(plain), seconds):
        t0 = time.perf_counter()
        plain.append(workload.unit(plain_state, len(plain)))
        plain_loop += time.perf_counter() - t0
        tracer.unit = len(traced)
        with tracer.installed():
            t0 = time.perf_counter()
            traced.append(workload.unit(state, len(traced)))
            traced_time += time.perf_counter() - t0
    plain_time += plain_loop

    memory = Tracer(memory=True)
    with memory.installed():
        tracemalloc.start()
        try:
            workload.memory_unit(state)
        finally:
            tracemalloc.stop()

    counted = plain + traced + workload.checks(plain + traced)
    errors = [e for o in counted for e in o.errors]
    failed = sum(o.failed for o in counted)
    attempted = sum(o.attempted for o in counted)
    if workload.passive_outputs(plain_state, plain) != workload.passive_outputs(state, traced):
        errors.append("traced outputs differ from untraced outputs: tracing is not passive")
        failed += 1
    metrics = tracer.metrics(traced_time / plain_time - 1.0, memory.peaks)
    spans_file = ROOT / ".bench_out" / f"trace-{name}-{seed}.jsonl"
    spans_file.parent.mkdir(exist_ok=True)
    tracer.write(spans_file)
    notes = {"units": len(plain), "absent_layers": tracer.absent(),
             "hook_errors": dict(tracer.hook_errors), "ratio_bases": tracer.bases(),
             "run_shares": step_shares(tracer),
             "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, attempted, failed, errors, notes


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Measure one workload; returns the result object and the notes."""
    from workloads import make_workloads
    workloads = make_workloads(smoke)
    if name not in workloads:
        die(f"unknown workload {name!r}; expected one of {sorted(workloads)}")
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    try:
        if trace:
            metrics, attempted, failed, errors, notes = measure_traced(
                workloads[name], work, seed, seconds, name)
        else:
            metrics, attempted, failed, errors, notes = measure(
                workloads[name], work, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from tracer import per_layer_units
    units = per_layer_units() if trace else E2E_UNITS
    declared = declared_units(trace)
    if declared != units:
        errors.append(f"metric names or units differ from BENCHMARK.json: "
                      f"{sorted(set(declared.items()) ^ set(units.items()))}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    if not trace:
        notes["fail_frac"] = failed / attempted
    return result, errors, notes


def report(result, errors, notes):
    print("env " + json.dumps(environment(), sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for k, m in result["metrics"].items():
        print(f"metric {k} = {m['value']!r} {m['unit']}")
    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps(result))


def smoke() -> int:
    """Every workload at tiny size, untraced and traced; names must match."""
    ok = True
    for name in ("train_desk", "train_timit", "segment_long"):
        for trace in (False, True):
            result, errors, _ = run(name, seed=0, seconds=0.5, trace=trace, smoke=True)
            good = result["correct"]
            ok &= good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} attempted, {result['failed']} failed)")
            for e in errors:
                print(f"  {e}", file=sys.stderr)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check metric names")
    args = parser.parse_args(argv)
    import_package()
    if args.smoke:
        return smoke()
    if not args.workload:
        die("--workload is required unless --smoke is given")
    result, errors, notes = run(args.workload, args.seed, args.seconds,
                                bool(args.trace), smoke=False)
    report(result, errors, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
