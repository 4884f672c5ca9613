"""Passive tracing of the segfeat layers from outside the package.

The package imports its collaborators with `from .x import y`, so a layer is
traced by replacing the name in the module that *calls* it (for example
`segfeat.train.dp_segment`, not `segfeat.decode.dp_segment`). Every wrapper
calls the original with the same arguments and returns its result
unchanged; it only records a span (name, start, end, parent, unit) and, for
a few layers, counts taken from the call's arguments and return value.
Spans stay in memory until the run ends.

A patch point that no longer exists is skipped, and a layer with no patch
point left is reported as absent rather than failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

MIB = 2.0 ** 20

# span name -> "module:attribute" places where the callee is looked up
LAYERS = (
    ("nn.bilstm_encode", ("segfeat.model:bilstm_encode",)),
    ("model.build_context", ("segfeat.train:build_context", "segfeat.cli:build_context")),
    ("model.score_segmentation", ("segfeat.losses:score_segmentation",
                                  "segfeat.decode:score_segmentation")),
    ("model.load", ("segfeat.model:SegmentalModel.load",)),
    ("autodiff.backward", ("segfeat.autodiff:Tape.backward",)),
    ("decode.dp_two_best", ("segfeat.losses:dp_two_best",)),
    ("decode.dp_segment", ("segfeat.train:dp_segment", "segfeat.cli:dp_segment")),
    ("losses.hinge_loss", ("segfeat.train:hinge_loss",)),
    ("losses.aux", ("segfeat.train:phn_loss", "segfeat.train:bin_loss")),
    ("optim.clip_grad_norm", ("segfeat.train:clip_grad_norm",)),
    ("optim.adam_step", ("segfeat.train:adam_step",)),
    ("train.validate_model", ("segfeat.train:validate_model",)),
    ("train.fit", ("segfeat.train:fit",)),
    ("metrics.evaluate", ("segfeat.train:evaluate_corpus", "segfeat.metrics:evaluate_times")),
    ("features.assemble_features", ("segfeat.data:assemble_features",
                                    "segfeat.cli:assemble_features")),
    ("audio.read_wav", ("segfeat.data:read_wav", "segfeat.cli:read_wav")),
    ("data.write_boundaries_csv", ("segfeat.cli:write_boundaries_csv",)),
    ("cli.segment", ("segfeat.cli:cmd_segment",)),
)

# spans whose tracemalloc peak is recorded in the memory pass
MEMORY_SPANS = {"autodiff.backward": "autodiff.backward.peak_mib",
                "decode.dp_two_best": "decode.peak_mib",
                "decode.dp_segment": "decode.peak_mib"}

# derived per-layer metrics: name -> unit
COUNTERS = (
    ("nn.frames", "count"),
    ("autodiff.backward.peak_mib", "MiB"),
    ("decode.spans_scored", "count"),
    ("decode.table_mib_computed", "MiB"),
    ("decode.peak_mib", "MiB"),
    ("decode.argmax_is_gold_frac", "fraction"),
    ("losses.hinge_active_frac", "fraction"),
    ("optim.clip_frac", "fraction"),
    ("optim.grad_norm_p50", "norm"),
    ("trace.overhead_frac", "fraction"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _ in LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(COUNTERS)
    return units


def spans_scored(n_frames: int, cap) -> int:
    """Spans an exact DP examines: sum over t of min(t, cap)."""
    cap = n_frames if cap is None else max(1, min(int(cap), n_frames))
    return cap * (cap + 1) // 2 + (n_frames - cap) * cap


class Patches:
    """Attribute replacements that are undone by `restore`."""

    def __init__(self):
        self._saved = []

    def replace(self, point: str, make_wrapper) -> bool:
        modname, _, dotted = point.partition(":")
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return False
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = vars(owner).get(attr)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make_wrapper(raw.__func__))
        elif callable(raw):
            new = make_wrapper(raw)
        else:
            return False
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)
        return True

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    """In-memory spans plus the counts the per-layer metrics need."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []  # [name, start, end, parent index, child seconds, unit, phase]
        self.unit = 0
        self.phase = "run"
        self._stack = []
        self.counts = defaultdict(float)
        self.norms = []
        self.peaks = defaultdict(float)
        self.present = set()
        self.hook_errors = defaultdict(int)

    # ----- spans -------------------------------------------------------------

    def _enter(self, name, arguments):
        parent = self._stack[-1][0] if self._stack else -1
        base = None
        if self.memory and name in MEMORY_SPANS:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        self.spans.append([name, time.perf_counter(), None, parent, 0.0, self.unit,
                           self.phase])
        self._stack.append((len(self.spans) - 1, arguments))
        return base

    def _exit(self, name, base):
        idx, _ = self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]
        if base is not None:
            key = MEMORY_SPANS[name]
            peak = (tracemalloc.get_traced_memory()[1] - base) / MIB
            self.peaks[key] = max(self.peaks[key], peak)

    def open_arguments(self, name):
        """Bound arguments of the innermost open span with this name."""
        for idx, arguments in reversed(self._stack):
            if self.spans[idx][0] == name:
                return arguments
        return None

    def wrap(self, name, fn, hook=None):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = None
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                except TypeError:
                    tracer.hook_errors[name] += 1
                else:
                    bound.apply_defaults()
                    arguments = bound.arguments
            base = tracer._enter(name, arguments)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(name, base)
            if arguments is not None:
                try:
                    hook(tracer, arguments, out)
                except (AttributeError, TypeError, KeyError, IndexError, ValueError):
                    tracer.hook_errors[name] += 1
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer that still exists for the duration of the block."""
        patches = Patches()
        try:
            for name, points in LAYERS:
                hook = HOOKS.get(name)
                for point in points:
                    if patches.replace(point, lambda fn, n=name, h=hook: self.wrap(n, fn, h)):
                        self.present.add(name)
            yield
        finally:
            patches.restore()

    def absent(self):
        return [name for name, _ in LAYERS if name not in self.present]

    # ----- results -----------------------------------------------------------

    def self_times(self):
        totals = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, _, child, _, _ in self.spans:
            totals[name] += (end - start) - child
            calls[name] += 1
        return totals, calls

    def metrics(self, overhead_frac: float, memory_peaks: dict) -> dict:
        totals, calls = self.self_times()
        out = {}
        for name, _ in LAYERS:
            out[f"{name}.self_s"] = totals.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        c = self.counts
        steps = c["hinge_steps"]
        clips = c["clip_calls"]
        out["nn.frames"] = int(c["frames"])
        out["autodiff.backward.peak_mib"] = memory_peaks.get("autodiff.backward.peak_mib", 0.0)
        out["decode.spans_scored"] = int(c["spans_scored"])
        out["decode.table_mib_computed"] = c["table_mib"]
        out["decode.peak_mib"] = memory_peaks.get("decode.peak_mib", 0.0)
        out["decode.argmax_is_gold_frac"] = c["argmax_is_gold"] / steps if steps else 0.0
        out["losses.hinge_active_frac"] = c["hinge_active"] / steps if steps else 0.0
        out["optim.clip_frac"] = c["clipped"] / clips if clips else 0.0
        out["optim.grad_norm_p50"] = statistics.median(self.norms) if self.norms else 0.0
        out["trace.overhead_frac"] = overhead_frac
        return out

    def bases(self) -> dict:
        """The denominators behind the per-layer ratios."""
        return {"training_steps": int(self.counts["hinge_steps"]),
                "clip_calls": int(self.counts["clip_calls"]),
                "dp_calls": int(self.counts["dp_calls"])}

    def write(self, path):
        with open(path, "w", encoding="ascii") as f:
            for i, (name, start, end, parent, _, unit, phase) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "unit": unit, "phase": phase}) + "\n")


def step_shares(tracer: Tracer, skip="train.validate_model") -> dict:
    """Each layer's share of the run phase's traced time, validation excluded.

    For the training workloads this is the share of step time; for
    `segment_long` it is the share of the decode calls.
    """
    spans = tracer.spans
    skipped = [False] * len(spans)
    for i, (name, _, _, parent, _, _, _) in enumerate(spans):
        skipped[i] = name == skip or (parent >= 0 and skipped[parent])
    totals = defaultdict(float)
    wall = 0.0
    for i, (name, start, end, parent, child, _, phase) in enumerate(spans):
        if phase != "run" or skipped[i]:
            continue
        totals[name] += (end - start) - child
        if parent < 0:
            wall += end - start
    for i, (name, start, end, parent, _, _, phase) in enumerate(spans):
        if phase == "run" and name == skip and (parent < 0 or not skipped[parent]):
            wall -= end - start  # validation nested in a root span
    if wall <= 0:
        return {}
    return {name: round(t / wall, 4) for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}


class StepProbe:
    """Timestamps at each optimizer step's end and around each validation.

    This is what the untraced run needs for per-step times; it costs one
    clock read per call and records no spans.
    """

    POINTS = (("step", "segfeat.train:adam_step"),
              ("validate", "segfeat.train:validate_model"))

    def __init__(self):
        self.marks = []

    def install(self, patches: Patches):
        for kind, point in self.POINTS:
            if not patches.replace(point, lambda fn, k=kind: self._wrap(k, fn)):
                raise RuntimeError(f"step probe point {point} no longer exists")

    def _wrap(self, kind, fn):
        marks = self.marks
        clock = time.perf_counter

        if kind == "step":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                marks.append(("step", clock()))
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                marks.append(("val_in", clock()))
                out = fn(*args, **kwargs)
                marks.append(("val_out", clock()))
                return out
        return wrapper


# ----- counts taken from arguments and return values -------------------------

def _encode(tracer, args, out):
    tracer.counts["frames"] += args["x"].value.shape[0]


def _dp(tracer, args, out):
    ctx = args["ctx"]
    n_frames = ctx.n_frames
    spans = spans_scored(n_frames, args["max_seg_frames"])
    tracer.counts["dp_calls"] += 1
    tracer.counts["spans_scored"] += spans
    # span-sum matrix an all-spans edge table materializes: spans x 2H float64
    table = spans * ctx.hidden_np.shape[1] * 8 / MIB
    tracer.counts["table_mib"] = max(tracer.counts["table_mib"], table)


def _dp_two_best(tracer, args, out):
    _dp(tracer, args, out)
    hinge = tracer.open_arguments("losses.hinge_loss")
    if hinge is not None and out and out[0][0] == hinge["gold"]:
        tracer.counts["argmax_is_gold"] += 1


def _hinge(tracer, args, out):
    tracer.counts["hinge_steps"] += 1
    if out.item() > 0.0:
        tracer.counts["hinge_active"] += 1


def _clip(tracer, args, out):
    tracer.counts["clip_calls"] += 1
    tracer.norms.append(float(out))
    if args["max_norm"] > 0 and out > args["max_norm"]:
        tracer.counts["clipped"] += 1


HOOKS = {
    "nn.bilstm_encode": _encode,
    "decode.dp_segment": _dp,
    "decode.dp_two_best": _dp_two_best,
    "losses.hinge_loss": _hinge,
    "optim.clip_grad_norm": _clip,
}
