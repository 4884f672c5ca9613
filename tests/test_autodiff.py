import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segfeat
from segfeat import autodiff
from segfeat.autodiff import ParameterSet, Tape, Tensor, grad_check
from segfeat.nn import LstmParams, bilstm_encode, bilstm_encode_many, init_lstm, mlp2

from per_frame_lstm import PerFrameTape
from reference_tape import ReferenceTape


@pytest.fixture
def reference_grad_check(monkeypatch):
    """grad_check recording on ReferenceTape, whose test-only ops
    (sum, mul, rows, ...) the loss builders use."""
    monkeypatch.setattr(autodiff, "Tape", ReferenceTape)
    return grad_check


def test_affine_identity():
    t = Tape()
    x = t.tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    w = t.tensor(np.eye(2))
    b = t.tensor(np.zeros((1, 2)))
    assert np.array_equal(t.affine(x, w, b).value, x.value)


def test_affine_zero_input_broadcasts_bias():
    t = Tape()
    y = t.affine(t.tensor(np.zeros((3, 2))), t.tensor(np.ones((2, 4))),
                 t.tensor(np.array([[1.0, 2.0, 3.0, 4.0]])))
    assert np.array_equal(y.value, np.tile([1.0, 2.0, 3.0, 4.0], (3, 1)))


def test_affine_hand_arithmetic():
    t = Tape()
    y = t.affine(t.tensor(np.array([[1.0, 2.0]])), t.tensor(np.array([[3.0], [4.0]])),
                 t.tensor(np.array([[5.0]])))
    assert y.value.item() == 16.0


def test_affine_shape_mismatch():
    t = Tape()
    with pytest.raises(ValueError):
        t.affine(t.tensor(np.zeros((2, 3))), t.tensor(np.zeros((2, 3))),
                 t.tensor(np.zeros((1, 3))))


def test_backward_sum_gives_ones():
    params = ParameterSet()
    w = params.add("w", np.arange(6.0).reshape(2, 3))
    t = ReferenceTape()
    t.backward(t.sum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_squared_norm():
    params = ParameterSet()
    x = params.add("x", np.array([[3.0]]))
    t = ReferenceTape()
    t.backward(t.sum(t.mul(x, x)))
    assert x.grad.item() == 6.0


def test_backward_twice_is_error():
    t = ReferenceTape()
    x = t.tensor(np.ones((1, 1)))
    loss = t.sum(x)
    t.backward(loss)
    with pytest.raises(RuntimeError):
        t.backward(loss)


def test_backward_needs_scalar_and_nonempty_tape():
    t = Tape()
    y = t.add(t.tensor(np.ones((2, 2))), t.tensor(np.ones((2, 2))))
    with pytest.raises(ValueError):
        t.backward(y)
    with pytest.raises(ValueError):
        Tape().backward(Tape().tensor(np.zeros(())))


def test_grad_check_quadratic_and_constant(reference_grad_check):
    params = ParameterSet()
    params.add("w", np.array([[3.0]]))

    def quadratic(tape):
        w = params["w"]
        return tape.sum(tape.mul(w, w))

    assert reference_grad_check(quadratic, params) < 1e-9

    def constant(tape):
        return tape.sum(tape.tensor(np.ones((1, 1))))

    assert reference_grad_check(constant, params) == 0.0


def _primitive_cases(rng):
    """(name, params builder, loss builder) for every tape primitive."""
    cases = []

    def case(name, shapes, fn):
        params = ParameterSet()
        for pname, shape in shapes.items():
            params.add(pname, rng.normal(size=shape))
        cases.append((name, params, fn))

    case("matmul", {"a": (3, 4), "b": (4, 2)},
         lambda t, p: t.sum(t.matmul(p["a"], p["b"])))
    case("affine", {"x": (3, 4), "w": (4, 2), "b": (1, 2)},
         lambda t, p: t.sum(t.tanh(t.affine(p["x"], p["w"], p["b"]))))
    case("add", {"a": (3, 2), "b": (3, 2)},
         lambda t, p: t.sum(t.tanh(t.add(p["a"], p["b"]))))
    case("add_row", {"a": (3, 2), "b": (1, 2)},
         lambda t, p: t.sum(t.tanh(t.add_row(p["a"], p["b"]))))
    case("sub", {"a": (2, 3), "b": (2, 3)},
         lambda t, p: t.sum(t.tanh(t.sub(p["a"], p["b"]))))
    case("mul", {"a": (2, 3), "b": (2, 3)},
         lambda t, p: t.sum(t.mul(p["a"], p["b"])))
    case("scale", {"a": (2, 3)}, lambda t, p: t.sum(t.scale(p["a"], -2.5)))
    case("add_const", {"a": (2, 3)},
         lambda t, p: t.sum(t.tanh(t.add_const(p["a"], 0.7))))
    case("tanh", {"a": (3, 3)}, lambda t, p: t.sum(t.tanh(p["a"])))
    case("relu", {"a": (3, 3)}, lambda t, p: t.sum(t.relu(p["a"])))
    case("rows", {"a": (5, 3)},
         lambda t, p: t.sum(t.tanh(t.rows(p["a"], [0, 2, 2, 4]))))
    # hstack lives only in the per-frame oracle, not on grad_check's ReferenceTape
    case("hstack", {"a": (3, 2), "b": (3, 4)},
         lambda t, p: t.sum(t.tanh(PerFrameTape.hstack(t, p["a"], p["b"]))))
    case("prefix_sum", {"a": (5, 3)},
         lambda t, p: t.sum(t.tanh(t.prefix_sum(p["a"]))))
    bilstm_shapes = {"x": (4, 3), "f.wx": (3, 8), "f.wh": (2, 8), "f.b": (1, 8),
                     "b.wx": (3, 8), "b.wh": (2, 8), "b.b": (1, 8)}
    case("bilstm", bilstm_shapes,
         lambda t, p: t.sum(t.tanh(t.bilstm(p["x"], (p["f.wx"], p["f.wh"], p["f.b"]),
                                            (p["b.wx"], p["b.wh"], p["b.b"])))))
    case("softmax_nll", {"z": (5, 4)},
         lambda t, p: t.softmax_nll(p["z"], np.array([0, 3, 1, 2, 2])))
    case("bce_logits", {"z": (6, 1)},
         lambda t, p: t.bce_logits(p["z"], np.array([[1.0], [0], [0], [1], [0], [1]])))
    return cases


def test_every_primitive_matches_finite_differences(reference_grad_check):
    rng = np.random.default_rng(42)
    for name, params, fn in _primitive_cases(rng):
        err = reference_grad_check(lambda tape: fn(tape, params), params)
        assert err < 1e-6, f"{name}: max relative error {err}"


def _bilstm(tape, x, fw, bw=None):
    """One layer; without `bw` the backward direction runs on a copy of `fw`."""
    if bw is None:
        bw = [tape.tensor(p.value.copy()) for p in fw]
    return tape.bilstm(tape.tensor(x), fw, bw)


def test_lstm_step_zero_params_zero_state():
    params = ParameterSet()
    rng = np.random.default_rng(0)
    lp = init_lstm(params, "l", 3, 4, rng, forget_bias=0.0)
    for tensor in params.tensors():
        tensor.value[:] = 0.0
    for tsteps in (1, 5):
        h = _bilstm(Tape(), np.ones((tsteps, 3)), lp)
        assert np.array_equal(h.value, np.zeros((tsteps, 8)))


def test_lstm_step_forget_bias_limit():
    # with a huge forget bias the second cell keeps the first cell's state:
    # c2 ~= c1 + i2*g2 within sigmoid(50) of the exact identity, and c1 = i1*g1
    # from the zero initial state (forward half of the layer)
    rng = np.random.default_rng(1)
    params = ParameterSet()
    lp = init_lstm(params, "l", 2, 3, rng, forget_bias=50.0)
    x = rng.normal(size=(2, 2))
    h = _bilstm(Tape(), x, lp).value[:, :3]

    def gates(pre):
        sig = 0.5 * (np.tanh(0.5 * pre) + 1)
        return sig[:, :3], np.tanh(pre[:, 6:9]), sig[:, 9:]

    i1, g1, o1 = gates(x[:1] @ lp.wx.value + lp.b.value)
    i2, g2, o2 = gates(x[1:] @ lp.wx.value + h[:1] @ lp.wh.value + lp.b.value)
    assert np.allclose(h[:1], o1 * np.tanh(i1 * g1), atol=1e-12)
    assert np.allclose(h[1:], o2 * np.tanh(i1 * g1 + i2 * g2), atol=1e-12)


def test_lstm_step_outputs_bounded():
    rng = np.random.default_rng(2)
    params = ParameterSet()
    lp = init_lstm(params, "l", 4, 5, rng)
    h = _bilstm(Tape(), rng.normal(size=(1, 4)) * 10, lp)
    assert np.all(np.abs(h.value) < 1.0)


def test_lstm_run_matches_repeated_steps():
    rng = np.random.default_rng(3)
    params = ParameterSet()
    fw = init_lstm(params, "f", 3, 4, rng)
    bw = init_lstm(params, "b", 3, 4, rng)
    x = rng.normal(size=(6, 3))
    hs = _bilstm(Tape(), x, fw, bw).value
    for lp, half, order in ((fw, slice(0, 4), range(6)), (bw, slice(4, 8), range(5, -1, -1))):
        t2 = PerFrameTape()
        xpre = t2.affine(t2.tensor(x), lp.wx, lp.b)
        h = t2.tensor(np.zeros((1, 4)))
        c = t2.tensor(np.zeros((1, 4)))
        for i in order:
            h, c = t2.lstm_step(t2.rows(xpre, [i]), (h, c), lp.wh)
            assert np.array_equal(hs[i:i + 1, half], h.value)


def test_lstm_rejects_mismatched_shapes():
    params = ParameterSet()
    rng = np.random.default_rng(0)
    lp = init_lstm(params, "l", 3, 2, rng)
    other = init_lstm(params, "o", 3, 2, rng)
    wide = init_lstm(params, "w", 3, 3, rng)
    t = Tape()
    x = t.tensor(np.zeros((4, 3)))
    for args in ((t.tensor(np.zeros((4, 2))), lp, other),
                 (x, LstmParams(lp.wx, lp.wx, lp.b), other),
                 (x, lp, LstmParams(other.wx, other.wh, t.tensor(np.zeros((1, 4)))))):
        with pytest.raises(ValueError):
            t.bilstm(*args)
    with pytest.raises(ValueError, match="differ in hidden size"):
        t.bilstm(x, lp, wide)


def test_bilstm_gives_loose_tensors_the_grads_of_a_parameter_set():
    # loose Tensors start with no grad; each of wx, wh and b must get one
    # equal to that of the same values held in a ParameterSet
    rng = np.random.default_rng(6)
    params = ParameterSet()
    held = (init_lstm(params, "f", 3, 4, rng), init_lstm(params, "b", 3, 4, rng))
    loose = tuple([Tensor(p.value.copy()) for p in lp] for lp in held)
    x = rng.normal(size=(5, 3))
    weights = rng.normal(size=(5, 8))
    for fw, bw in (held, loose):
        t = ReferenceTape()
        t.backward(t.sum(t.mul(t.bilstm(t.tensor(x), fw, bw), t.tensor(weights))))
    for want, got in zip([*held[0], *held[1]], [*loose[0], *loose[1]]):
        assert got.grad.tobytes() == want.grad.tobytes()


@pytest.mark.parametrize("shared", ["triple", "wh"])
def test_bilstm_rejects_tensors_shared_between_directions(shared):
    # no model ties the two directions: a tensor serving both is a wiring
    # mistake, so the op refuses it
    params = ParameterSet()
    rng = np.random.default_rng(4)
    fw = init_lstm(params, "f", 3, 2, rng)
    other = init_lstm(params, "b", 3, 2, rng)
    bw = fw if shared == "triple" else LstmParams(other.wx, fw.wh, other.b)
    t = Tape()
    with pytest.raises(ValueError, match="must not share a tensor"):
        t.bilstm(t.tensor(rng.normal(size=(4, 3))), fw, bw)


def _make_layers(params, rng, input_dim, hidden, layers):
    out = []
    dim = input_dim
    for i in range(layers):
        fw = init_lstm(params, f"l{i}.f", dim, hidden, rng)
        bw = init_lstm(params, f"l{i}.b", dim, hidden, rng)
        out.append((fw, bw))
        dim = 2 * hidden
    return out


def test_bilstm_shapes():
    rng = np.random.default_rng(4)
    params = ParameterSet()
    layers = _make_layers(params, rng, 43, 64, 2)
    t = Tape()
    out = bilstm_encode(t, t.tensor(rng.normal(size=(3, 43))), layers)
    assert out.value.shape == (3, 128)
    t = Tape()
    out1 = bilstm_encode(t, t.tensor(rng.normal(size=(1, 43))), layers)
    assert out1.value.shape == (1, 128)


def _swap_gate_input_halves(wx, hidden):
    # layer >= 1 consumes [fw | bw] halves; mirroring swaps the input halves
    swapped = wx.copy()
    swapped[:hidden], swapped[hidden:] = wx[hidden:].copy(), wx[:hidden].copy()
    return swapped


def test_bilstm_time_reversal_mirror():
    rng = np.random.default_rng(5)
    hidden = 3
    params = ParameterSet()
    layers = _make_layers(params, rng, 4, hidden, 2)
    x = rng.normal(size=(7, 4))

    mirror_params = ParameterSet()
    mirrored = []
    for i, (fw, bw) in enumerate(layers):
        def clone(prefix, src, swap_inputs):
            wx = src.wx.value.copy()
            if swap_inputs:
                wx = _swap_gate_input_halves(wx, hidden)
            return LstmParams(mirror_params.add(f"{prefix}.wx", wx),
                              mirror_params.add(f"{prefix}.wh", src.wh.value.copy()),
                              mirror_params.add(f"{prefix}.b", src.b.value.copy()))

        swap = i > 0
        mirrored.append((clone(f"m{i}.f", bw, swap), clone(f"m{i}.b", fw, swap)))

    t = Tape()
    out = bilstm_encode(t, t.tensor(x), layers)
    t2 = Tape()
    out_mirror = bilstm_encode(t2, t2.tensor(x[::-1].copy()), mirrored)
    # reversed rows with the forward/backward column halves exchanged
    expected = np.hstack([out.value[::-1, hidden:], out.value[::-1, :hidden]])
    assert np.allclose(out_mirror.value, expected, atol=1e-10)


class _StepKeepingPerFrameTape(PerFrameTape):
    """The per-frame tape, keeping every step's (h_prev, wh, h_prev @ wh) nodes."""

    def __init__(self):
        super().__init__()
        self.steps = []

    def matmul(self, a, b):
        out = super().matmul(a, b)
        self.steps.append((a, b, out))
        return out


def _assert_bilstm_bytes_match_per_frame_tape(tsteps, hidden, in_dim, n_layers, seed):
    """Output, input grad and every wx and b grad equal the per-frame tape's
    byte for byte (so also in the sign of zeros, which np.array_equal
    ignores), after two accumulated backward passes (grads start non-zero,
    as with batch_size > 1).

    Each wh grad sums the same n = 2·tsteps terms h_prev ⊗ gpre as the
    per-frame tape's outer products, but as one h_prev.T @ G product per
    direction and pass, so in another order. Any order of a sum of n terms
    is within γ_n·Σ|terms| of the exact sum (γ_n = n·u / (1 − n·u), u the
    unit roundoff; Higham, Accuracy and Stability of Numerical Algorithms,
    §3.1), so the two wh grads differ by at most 2·γ_n·Σ|h_prev| ⊗ |gpre|,
    with the terms read off the per-frame tape's step nodes."""
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    layers = _make_layers(params, rng, in_dim, hidden, n_layers)
    x = rng.normal(size=(tsteps, in_dim))
    weights = rng.normal(size=(tsteps, 2 * hidden))
    runs = []
    passes = 2
    abs_terms = {}  # id(wh) -> Σ|h_prev| ⊗ |gpre| over the per-frame tape's steps
    for tape_cls in (ReferenceTape, _StepKeepingPerFrameTape):
        params.zero_grad()
        for _ in range(passes):
            tape = tape_cls()
            xt = tape.tensor(x)
            out = bilstm_encode(tape, xt, layers)
            tape.backward(tape.sum(tape.mul(out, tape.tensor(weights))))
            for h, wh, pre in getattr(tape, "steps", ()):
                term = np.abs(h.value).T @ np.abs(pre.grad)
                abs_terms[id(wh)] = abs_terms.get(id(wh), 0.0) + term
        runs.append([out.value, xt.grad] + [t.grad.copy() for t in params.tensors()])
    n_terms = passes * tsteps
    unit_roundoff = np.finfo(np.float64).eps / 2
    gamma = n_terms * unit_roundoff / (1 - n_terms * unit_roundoff)
    names = ["output", "x.grad"] + [f"{n}.grad" for n in params.names()]
    for name, t, got, want in zip(names, [None, None, *params.tensors()], *runs):
        if name.endswith(".wh.grad"):
            assert np.all(np.abs(got - want) <= 2 * gamma * abs_terms[id(t)]), name
        else:
            assert got.tobytes() == want.tobytes(), name


@settings(max_examples=60, deadline=None)
@given(tsteps=st.integers(1, 12), hidden=st.integers(1, 6), in_dim=st.integers(1, 5),
       n_layers=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_property_bilstm_is_bit_identical_to_per_frame_tape(tsteps, hidden, in_dim,
                                                            n_layers, seed):
    _assert_bilstm_bytes_match_per_frame_tape(tsteps, hidden, in_dim, n_layers, seed)


@pytest.mark.parametrize("tsteps,hidden", [(300, 64), (40, 16)])
def test_bilstm_is_bit_identical_to_per_frame_tape_at_workload_shapes(tsteps, hidden):
    # the benchmark's TIMIT-like and desk shapes: larger products than the
    # property draws, which BLAS may route through other kernels
    _assert_bilstm_bytes_match_per_frame_tape(tsteps, hidden, 43, 2, seed=7)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=6), equal=st.booleans(),
       hidden=st.integers(1, 6), in_dim=st.integers(1, 5), n_layers=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
@example(lengths=[1, 1, 1], equal=False, hidden=2, in_dim=3, n_layers=2, seed=0)
@example(lengths=[7, 7, 7, 7], equal=False, hidden=3, in_dim=2, n_layers=2, seed=1)
@example(lengths=[1, 12, 5, 1, 9, 3], equal=False, hidden=6, in_dim=5, n_layers=2, seed=2)
def test_property_batched_scan_is_bit_identical_to_one_scan_per_sequence(
        lengths, equal, hidden, in_dim, n_layers, seed):
    """Every output of one scan over B sequences (mixed, equal or one-frame
    lengths, padded at the end) equals, byte for byte, the per-frame tape's
    and the kernel's B=1 output for that sequence alone."""
    if equal:
        lengths = [lengths[0]] * len(lengths)
    rng = np.random.default_rng(seed)
    layers = _make_layers(ParameterSet(), rng, in_dim, hidden, n_layers)
    xs = [rng.normal(size=(n, in_dim)) for n in lengths]
    batched = bilstm_encode_many(xs, layers)
    assert len(batched) == len(xs)
    for x, got in zip(xs, batched):
        tape = PerFrameTape()
        want = bilstm_encode(tape, tape.tensor(x), layers).value
        assert got.shape == want.shape == (x.shape[0], 2 * hidden)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == bilstm_encode_many([x], layers)[0].tobytes()


def test_batched_scan_rejects_an_empty_sequence():
    layers = _make_layers(ParameterSet(), np.random.default_rng(0), 3, 2, 1)
    with pytest.raises(ValueError, match="at least one frame"):
        bilstm_encode_many([np.ones((4, 3)), np.ones((0, 3))], layers)


def test_parameter_set_basics():
    params = ParameterSet()
    params.add("a", np.ones((2, 2)))
    with pytest.raises(ValueError):
        params.add("a", np.zeros(1))
    assert params.names() == ["a"]
    params["a"].grad += 3.0
    assert params.grad_norm() == pytest.approx(6.0)
    params.zero_grad()
    assert params.grad_norm() == 0.0
    snap = params.copy_values()
    params["a"].value[:] = 9.0
    params.set_values(snap)
    assert np.array_equal(params["a"].value, np.ones((2, 2)))


def test_mlp2_zero_weights_is_bias():
    params = ParameterSet()
    w1 = params.add("w1", np.zeros((4, 3)))
    b1 = params.add("b1", np.zeros((1, 3)))
    w2 = params.add("w2", np.zeros((3, 1)))
    b2 = params.add("b2", np.full((1, 1), 0.25))
    t = Tape()
    y = mlp2(t, t.tensor(np.random.default_rng(0).normal(size=(5, 4))), w1, b1, w2, b2)
    assert np.allclose(y.value, 0.25)


class _AttributeCalls(ast.NodeVisitor):
    """Names of the attributes called as `x.name(...)`, outside class Tape."""

    def __init__(self):
        self.names = set()

    def visit_ClassDef(self, node):
        if node.name != "Tape":
            self.generic_visit(node)

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute):
            self.names.add(node.func.attr)
        self.generic_visit(node)


def test_every_public_tape_method_has_a_call_site_in_the_package():
    """The tape holds only ops the model uses: an op that only tests call
    belongs on ReferenceTape. Call sites are matched by method name."""
    calls = _AttributeCalls()
    for path in sorted(Path(segfeat.__file__).parent.glob("*.py")):
        calls.visit(ast.parse(path.read_text(encoding="utf-8")))
    public = {name for name, value in vars(Tape).items()
              if callable(value) and not name.startswith("_")}
    assert public - {"backward", "tensor"} - calls.names == set()


class _AttributeAssignments(ast.NodeVisitor):
    """(enclosing class or function, attribute) for each `x.value = ...` or
    `x.grad = ...`, tuple targets included. `+=` on an array is in place and
    keeps the array, so augmented assignments are not collected."""

    def __init__(self):
        self.scope = []
        self.found = set()

    def _visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _visit_scope

    def _targets(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._targets(elt)
        elif isinstance(target, ast.Starred):
            yield from self._targets(target.value)
        else:
            yield target

    def visit_Assign(self, node):
        for target in node.targets:
            for t in self._targets(target):
                if isinstance(t, ast.Attribute) and t.attr in ("value", "grad"):
                    self.found.add((".".join(self.scope), t.attr))
        self.generic_visit(node)


def test_only_tensor_and_parameter_set_rebind_value_and_grad():
    """A parameter's value and grad are views of ParameterSet's buffers, so
    code that changes one writes into it; a rebinding would detach the view
    and the optimizer would silently stop updating that parameter. Only
    Tensor.__init__ and ParameterSet bind them, and only the gradient sinks
    of non-parameters (`_acc` on a tensor without a grad, the loss seed in
    Tape.backward) bind a grad."""
    found = _AttributeAssignments()
    for path in sorted(Path(segfeat.__file__).parent.glob("*.py")):
        found.visit(ast.parse(path.read_text(encoding="utf-8")))
    allowed = {("Tensor.__init__", "value"), ("Tensor.__init__", "grad"),
               ("ParameterSet.add", "value"), ("ParameterSet.add", "grad"),
               ("_acc", "grad"), ("Tape.backward", "grad")}
    assert found.found - allowed == set()
    assert ("ParameterSet.add", "value") in found.found  # the scan sees the binding sites


def test_add_rejects_mismatched_shapes():
    t = Tape()
    with pytest.raises(ValueError, match="add shape mismatch"):
        t.add(t.tensor(np.ones((3, 2))), t.tensor(np.ones((1, 2))))
