"""Segmental scoring model: boundary and segment heads over a BiLSTM encoder.

A segmentation is scored as the sum of a per-boundary score (the unary head
applied to the encoder output at each interior boundary) and a per-segment
score (the bigram head applied to the sum of encoder outputs across the
segment). Prefix sums over the hidden sequence make any segment sum an O(1)
lookup. The bigram head's first layer is linear, so it is applied to the
prefix sums once: with Q = P @ W1, a segment [s, e) enters the head's tanh
as Q[e] - Q[s] + b1, and no span ever materializes its 2H-wide sum.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import ParameterSet, Tape, Tensor, _acc
from .features import FeatureConfig, FeatureStats, FrameMatrix
from .nn import bilstm_encode, bilstm_encode_many, init_affine, init_lstm, mlp2

MODEL_MAGIC = b"SEGFEAT\x00"
MODEL_VERSION = 1

# Padded frames (utterances x longest) that one batched encoder scan may
# hold, which bounds its caches; chosen from a measured sweep of batch
# encoding time. An utterance longer than this scans alone.
_SCAN_FRAMES = 2048


@dataclass(frozen=True)
class Segmentation:
    """Interior boundary frame indices of one utterance, strictly increasing."""

    boundaries: tuple
    n_frames: int

    def __post_init__(self):
        object.__setattr__(self, "boundaries", tuple(int(b) for b in self.boundaries))
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        prev = 0
        for b in self.boundaries:
            if not (1 <= b <= self.n_frames - 1):
                raise ValueError(f"boundary {b} outside [1, {self.n_frames - 1}]")
            if b <= prev:
                raise ValueError("boundaries must be strictly increasing")
            prev = b

    @property
    def n_segments(self) -> int:
        return len(self.boundaries) + 1

    def spans(self):
        """Consecutive (start, end) frame spans including the implicit 0 and T."""
        edges = (0,) + self.boundaries + (self.n_frames,)
        return list(zip(edges[:-1], edges[1:]))

    def times(self, frame_shift: float):
        """Interior boundaries in seconds."""
        return [b * frame_shift for b in self.boundaries]


@dataclass
class ModelConfig:
    input_dim: int = 43
    hidden_size: int = 64
    num_layers: int = 2
    shared_head: bool = False
    mean_bigram: bool = False
    include_end_spans: bool = True
    forget_bias: float = 1.0
    seed: int = 0
    inventory: tuple = ()        # phoneme symbols; non-empty iff the PHN head exists
    with_bin: bool = False
    sample_rate: int = 16000

    def __post_init__(self):
        self.inventory = tuple(self.inventory)
        if self.hidden_size < 1 or self.num_layers < 1:
            raise ValueError("hidden_size and num_layers must be >= 1")
        if not math.isfinite(self.forget_bias):
            raise ValueError("forget_bias must be finite")


class SegmentalModel:
    """All trainable parameters plus the configuration that shaped them."""

    def __init__(self, cfg: ModelConfig, feature_cfg: FeatureConfig,
                 stats: FeatureStats | None = None):
        self.cfg = cfg
        self.feature_cfg = feature_cfg
        self.stats = stats
        self.params = ParameterSet()
        rng = np.random.default_rng(cfg.seed)

        self.layers = []
        in_dim = cfg.input_dim
        for layer in range(cfg.num_layers):
            fw = init_lstm(self.params, f"enc.l{layer}.f", in_dim, cfg.hidden_size,
                           rng, cfg.forget_bias)
            bw = init_lstm(self.params, f"enc.l{layer}.b", in_dim, cfg.hidden_size,
                           rng, cfg.forget_bias)
            self.layers.append((fw, bw))
            in_dim = 2 * cfg.hidden_size

        enc_out = 2 * cfg.hidden_size
        if cfg.shared_head:
            self.head_unary = self._init_head("head", enc_out, rng)
            self.head_bigram = self.head_unary
        else:
            self.head_unary = self._init_head("unary", enc_out, rng)
            self.head_bigram = self._init_head("bigram", enc_out, rng)

        self.head_phn = None
        if cfg.inventory:
            self.head_phn = init_affine(self.params, "phn", enc_out, len(cfg.inventory), rng)
        self.head_bin = None
        if cfg.with_bin:
            self.head_bin = init_affine(self.params, "bin", enc_out, 1, rng)

    def _init_head(self, prefix, in_dim, rng):
        hidden = self.cfg.hidden_size
        w1, b1 = init_affine(self.params, f"{prefix}.1", in_dim, hidden, rng)
        w2, b2 = init_affine(self.params, f"{prefix}.2", hidden, 1, rng)
        return (w1, b1, w2, b2)

    @property
    def phoneme_index(self) -> dict:
        return {sym: i for i, sym in enumerate(self.cfg.inventory)}

    # ----- serialization ----------------------------------------------------

    def save(self, path):
        manifest = [{"name": n, "shape": list(t.value.shape)} for n, t in self.params.items()]
        stats_present = self.stats is not None
        if stats_present:
            manifest.append({"name": "featstats.mean", "shape": [int(self.stats.mean.size)]})
            manifest.append({"name": "featstats.std", "shape": [int(self.stats.std.size)]})
        header = {  # json writes the tuple fields as arrays
            "format_version": MODEL_VERSION,
            "model": asdict(self.cfg),
            "features": asdict(self.feature_cfg),
            "params": manifest,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        with open(path, "wb") as f:
            f.write(MODEL_MAGIC)
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(self.params.values.astype("<f8").tobytes())  # every block, in name order
            if stats_present:
                f.write(np.ascontiguousarray(self.stats.mean, dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(self.stats.std, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SegmentalModel":
        with open(path, "rb") as f:
            magic = f.read(len(MODEL_MAGIC))
            if magic != MODEL_MAGIC:
                raise ValueError(f"not a model file: {path}")
            raw = f.read(4)
            if len(raw) != 4:
                raise ValueError(f"truncated model file: {path}")
            (hlen,) = struct.unpack("<I", raw)
            raw = f.read(hlen)
            if len(raw) != hlen:
                raise ValueError(f"truncated model file: {path}")
            try:
                header = json.loads(raw.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise ValueError(f"model file header is not UTF-8 JSON ({exc}): {path}") from None
            if not isinstance(header, dict) or header.get("format_version") != MODEL_VERSION:
                raise ValueError(f"unsupported model format version in {path}")
            for key in ("model", "features", "params"):
                if key not in header:
                    raise ValueError(f"model file header lacks {key!r}: {path}")
            blocks = {}
            for name, shape in _param_entries(header, path):
                count = int(np.prod(shape)) if shape else 1
                raw = f.read(8 * count)
                if len(raw) != 8 * count:
                    raise ValueError(f"truncated model file: {path}")
                blocks[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
                if not np.isfinite(blocks[name]).all():
                    raise ValueError(f"non-finite value in block {name!r} of model file: {path}")
            if f.read(1):
                raise ValueError(f"unexpected bytes after the last block of model file: {path}")

        feature_cfg = FeatureConfig(**_header_section(header, "features", FeatureConfig, path))
        cfg = ModelConfig(**_header_section(header, "model", ModelConfig, path))
        feature_cfg.check_rate(cfg.sample_rate)
        stats = None
        if "featstats.mean" in blocks:
            stats = FeatureStats(blocks.pop("featstats.mean"), blocks.pop("featstats.std"))
        model = cls(cfg, feature_cfg, stats)
        if set(blocks) != set(model.params.names()):
            mismatched = sorted(set(blocks) ^ set(model.params.names()))
            raise ValueError(f"parameter blocks do not match the model header "
                             f"({', '.join(mismatched)}): {path}")
        model.params.set_values(blocks)
        return model


def _param_entries(header: dict, path):
    """(name, shape) of every params header entry; a malformed one raises ValueError."""
    entries = header["params"]
    if not isinstance(entries, list):
        raise ValueError(f"'params' header section is not a list: {path}")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"params entry {i} is not an object: {path}")
        name, shape = entry.get("name"), entry.get("shape")
        if not isinstance(name, str):
            raise ValueError(f"params entry {i} lacks a string 'name': {path}")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValueError(f"params entry {i} lacks a 'shape' of sizes: {path}")
        out.append((name, tuple(shape)))
    return out


def _header_value_ok(value, default) -> bool:
    """Whether a JSON header value fits a config field with this default: a
    bool for a bool, a list for a tuple, an int for an int (or null where the
    default is None), any number for a float."""
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, tuple):
        return isinstance(value, list)
    if default is None and value is None:
        return True
    return isinstance(value, (int, float) if isinstance(default, float) else int)


def _header_section(header: dict, section: str, config_cls, path) -> dict:
    """A copy of one config section of a model file header, with exactly the
    keys config_cls defines; a missing, unknown or mistyped key raises ValueError."""
    values = header[section]
    if not isinstance(values, dict):
        raise ValueError(f"{section!r} header section is not an object: {path}")
    expected = {f.name for f in fields(config_cls)}
    unknown = sorted(set(values) - expected)
    missing = sorted(expected - set(values))
    if unknown:
        raise ValueError(f"unknown {section} header key(s) {', '.join(unknown)}: {path}")
    if missing:
        raise ValueError(f"missing {section} header key(s) {', '.join(missing)}: {path}")
    mistyped = sorted(f.name for f in fields(config_cls)
                      if not _header_value_ok(values[f.name], f.default))
    if mistyped:
        raise ValueError(f"{section} header key(s) {', '.join(mistyped)} "
                         f"of the wrong type: {path}")
    return dict(values)


@dataclass
class ScoreContext:
    """Per-utterance cache: hidden states, unary scores, projected prefix sums.

    Immutable after construction; the tape it was built on is kept so that
    the hinge can record its node there, whose backward reaches unary and q.
    """

    tape: Tape
    hidden: Tensor   # T x 2H
    unary: Tensor    # T x 1
    q: Tensor        # (T+1) x H, the hidden prefix sums @ W1 of the bigram head

    @property
    def n_frames(self) -> int:
        return self.hidden.value.shape[0]

    @property
    def hidden_np(self) -> np.ndarray:
        return self.hidden.value

    @property
    def unary_np(self) -> np.ndarray:
        return self.unary.value[:, 0]

    @property
    def q_np(self) -> np.ndarray:
        return self.q.value


def context_from_hidden(tape: Tape, model: SegmentalModel, hidden: Tensor) -> ScoreContext:
    unary = mlp2(tape, hidden, *model.head_unary)
    q = tape.matmul(tape.prefix_sum(hidden), model.head_bigram[0])
    return ScoreContext(tape=tape, hidden=hidden, unary=unary, q=q)


def _feature_array(model: SegmentalModel, features) -> np.ndarray:
    data = features.data if isinstance(features, FrameMatrix) else np.asarray(features)
    if data.ndim != 2 or data.shape[1] != model.cfg.input_dim:
        raise ValueError(f"expected T x {model.cfg.input_dim} features, got {data.shape}")
    return data


def build_context(model: SegmentalModel, features, tape: Tape | None = None) -> ScoreContext:
    """Encode an utterance and cache everything segment scoring needs."""
    data = _feature_array(model, features)
    tape = tape if tape is not None else Tape()
    hidden = bilstm_encode(tape, tape.tensor(data), model.layers)
    return context_from_hidden(tape, model, hidden)


def scan_groups(lengths, budget: int) -> list:
    """Indices into `lengths`, grouped in ascending length order so that a
    group's padded frames (its size times its longest length) stay within
    `budget`; an utterance longer than the budget forms a group alone."""
    groups = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__):
        if groups and (len(groups[-1]) + 1) * lengths[i] <= budget:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def build_contexts(model: SegmentalModel, items):
    """Yield (item, context) for each (item, features) pair, in input order.

    Each context equals `build_context(model, features)`'s byte for byte,
    but the encoder runs batched: consecutive utterances are taken in
    windows of up to `_SCAN_FRAMES` frames (or one longer utterance), and
    each window is encoded in `scan_groups`, one `bilstm_scan` per group and
    layer. So a scan's caches stay within the budget, and only one window's
    features and hidden states are held at a time. The contexts carry no
    gradients back into the encoder.
    """
    window, frames = [], 0
    for item, features in items:
        data = _feature_array(model, features)
        if window and frames + data.shape[0] > _SCAN_FRAMES:
            yield from _encode_window(model, window)
            window, frames = [], 0
        window.append((item, data))
        frames += data.shape[0]
    yield from _encode_window(model, window)


def _encode_window(model: SegmentalModel, window):
    hidden = [None] * len(window)
    for group in scan_groups([data.shape[0] for _, data in window], _SCAN_FRAMES):
        outs = bilstm_encode_many([window[i][1] for i in group], model.layers)
        for i, h in zip(group, outs):
            hidden[i] = h
    for (item, _), h in zip(window, hidden):
        tape = Tape()
        yield item, context_from_hidden(tape, model, tape.tensor(h))


def _bigram_hidden(ctx: ScoreContext, model: SegmentalModel, starts, ends) -> np.ndarray:
    """The bigram head's tanh layer over (start, end) pairs, n x H.

    `ends` may be a scalar, which broadcasts over `starts` (one DP column).
    This is the one forward that the scores and their gradient share.
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    # in place on the one n x H buffer the gather allocates: a DP sweep calls
    # this once per column, and fresh temporaries per op cost a third more time
    x = ctx.q_np[starts]
    np.subtract(ctx.q_np[ends], x, out=x)
    if model.cfg.mean_bigram:
        x *= (1.0 / (ends - starts))[:, None]
    x += model.head_bigram[1].value
    np.tanh(x, out=x)
    return x


def bigram_scores_np(ctx: ScoreContext, model: SegmentalModel,
                     starts, ends) -> np.ndarray:
    """Batched gradient-free bigram head evaluation over (start, end) pairs.

    `ends` may be a scalar, which broadcasts over `starts` (one DP column).
    """
    _, _, w2, b2 = model.head_bigram
    return (_bigram_hidden(ctx, model, starts, ends) @ w2.value + b2.value)[:, 0]


def _score_terms(ctx: ScoreContext, model: SegmentalModel, seg: Segmentation):
    """Interior boundaries, and the starts and ends of the spans a score counts
    (without end spans, only those between two interior boundaries)."""
    if seg.n_frames != ctx.n_frames:
        raise ValueError(f"segmentation is for T={seg.n_frames}, context has T={ctx.n_frames}")
    bounds = np.array(seg.boundaries, dtype=np.intp)
    edges = bounds
    if model.cfg.include_end_spans:
        edges = np.array((0,) + seg.boundaries + (seg.n_frames,), dtype=np.intp)
    return bounds, edges[:-1], edges[1:]


def score_segmentation(ctx: ScoreContext, model: SegmentalModel, seg: Segmentation) -> float:
    """Sum of unary scores at interior boundaries plus bigram scores per span."""
    bounds, starts, ends = _score_terms(ctx, model, seg)
    total = float(ctx.unary_np[bounds].sum()) if bounds.size else 0.0
    if starts.size:
        total += float(bigram_scores_np(ctx, model, starts, ends).sum())
    return total


def score_segmentation_grad(ctx: ScoreContext, model: SegmentalModel, seg: Segmentation,
                            g) -> None:
    """Add g times the gradient of score_segmentation into the grads of
    ctx.unary, ctx.q and the bigram head's b1, w2 and b2.

    The float operations and their order are those of the scorer composed
    from generic tape ops (row gathers, sub, mul, add, tanh, affine, sum),
    which the tests keep as the reference, so the gradients equal its bytes.
    """
    bounds, starts, ends = _score_terms(ctx, model, seg)
    if starts.size:
        _, b1, w2, b2 = model.head_bigram
        x = _bigram_hidden(ctx, model, starts, ends)
        gy = np.full((starts.size, 1), g)
        gz = (gy @ w2.value.T) * (1.0 - x * x)
        _acc(w2, x.T @ gy)
        _acc(b2, gy.sum(axis=0, keepdims=True))
        _acc(b1, gz.sum(axis=0, keepdims=True))
        if model.cfg.mean_bigram:
            gz *= (1.0 / (ends - starts))[:, None]
        _acc_rows(ctx.q, starts, -gz)
        _acc_rows(ctx.q, ends, gz)
    if bounds.size:
        _acc_rows(ctx.unary, bounds, np.full((bounds.size, 1), g))


def _acc_rows(t: Tensor, idx: np.ndarray, g: np.ndarray):
    """Add g into the rows idx of t's grad through a zero-filled full-size
    array, as a row gather's backward does (so signed zeros match it too)."""
    full = np.zeros_like(t.value)
    np.add.at(full, idx, g)
    _acc(t, full)


def phoneme_logits(ctx: ScoreContext, model: SegmentalModel) -> Tensor:
    """Per-frame unnormalized phoneme class scores, T x |inventory|."""
    if model.head_phn is None:
        raise ValueError("model has no phoneme head (empty inventory)")
    return ctx.tape.affine(ctx.hidden, *model.head_phn)


def boundary_logits(ctx: ScoreContext, model: SegmentalModel) -> Tensor:
    """Per-frame boundary logit, T x 1."""
    if model.head_bin is None:
        raise ValueError("model has no boundary head")
    return ctx.tape.affine(ctx.hidden, *model.head_bin)
