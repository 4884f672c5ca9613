import json
import struct
import wave

import numpy as np
import pytest

from segfeat.autodiff import Tape
from segfeat.features import FeatureConfig
from segfeat.model import MODEL_MAGIC, ModelConfig, SegmentalModel, context_from_hidden


def small_model(input_dim=8, hidden=4, layers=2, seed=3, inventory=(), with_bin=False,
                **kwargs):
    cfg = ModelConfig(input_dim=input_dim, hidden_size=hidden, num_layers=layers,
                      seed=seed, inventory=inventory, with_bin=with_bin, **kwargs)
    return SegmentalModel(cfg, FeatureConfig())


def mlp2_np(x: np.ndarray, w1, b1, w2, b2) -> np.ndarray:
    """Numpy twin of nn.mlp2: the unfactored reference for the bigram scoring path."""
    return np.tanh(x @ w1.value + b1.value) @ w2.value + b2.value


def prefix_sums(ctx):
    """(T+1) x 2H prefix sums of the hidden states, built as Tape.prefix_sum does."""
    hidden = ctx.hidden_np
    return np.vstack([np.zeros((1, hidden.shape[1])), np.cumsum(hidden, axis=0)])


def random_context(model, n_frames, rng, scale=2.0, tape_cls=Tape):
    """Context with injected random hidden states: a random score instance."""
    hidden = rng.normal(size=(n_frames, 2 * model.cfg.hidden_size)) * scale
    tape = tape_cls()
    return context_from_hidden(tape, model, tape.tensor(hidden))


@pytest.fixture
def toy_model():
    """Hand-crafted scorer: u(t) = 1 everywhere; with hidden rows fixed at
    (1, 0), bigram spans of length 1 score 0 and the length-2 span scores 0.5."""
    model = small_model(input_dim=2, hidden=1, layers=1, seed=0)
    params = model.params
    for name in params.names():
        params[name].value[:] = 0.0
    params["unary.2.b"].value[:] = 1.0
    w = 0.5 / (np.tanh(2.0) - np.tanh(1.0))
    params["bigram.1.w"].value[:] = np.array([[1.0], [0.0]])
    params["bigram.2.w"].value[:] = np.array([[w]])
    params["bigram.2.b"].value[:] = -w * np.tanh(1.0)
    return model


def toy_context(model, n_frames=2):
    tape = Tape()
    hidden = tape.tensor(np.tile([1.0, 0.0], (n_frames, 1)))
    return context_from_hidden(tape, model, hidden)


def edit_model_header(src, dst, edit):
    """Copy model file src to dst with edit(header_dict) applied to its header."""
    data = src.read_bytes()
    off = len(MODEL_MAGIC)
    (hlen,) = struct.unpack("<I", data[off:off + 4])
    header = json.loads(data[off + 4:off + 4 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(MODEL_MAGIC + struct.pack("<I", len(blob)) + blob + data[off + 4 + hlen:])


def write_cut_wav(path, n_channels, data_bytes):
    """A PCM-16 WAV whose header promises 100 frames but whose file ends
    after data_bytes bytes of the data chunk."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(n_channels)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(bytes(200 * n_channels))
    blob = path.read_bytes()
    path.write_bytes(blob[:blob.index(b"data") + 8 + data_bytes])
