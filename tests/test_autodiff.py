import numpy as np
import pytest

from segfeat.autodiff import ParameterSet, Tape, grad_check
from segfeat.nn import LstmParams, bilstm_encode, init_lstm, lstm_run, lstm_step, mlp2


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
    t = Tape()
    t.backward(t.sum(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_squared_norm():
    params = ParameterSet()
    x = params.add("x", np.array([[3.0]]))
    t = Tape()
    t.backward(t.sum(t.mul(x, x)))
    assert x.grad.item() == 6.0


def test_backward_twice_is_error():
    t = Tape()
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


def test_grad_check_quadratic_and_constant():
    params = ParameterSet()
    params.add("w", np.array([[3.0]]))

    def quadratic(tape):
        w = params["w"]
        return tape.sum(tape.mul(w, w))

    assert grad_check(quadratic, params) < 1e-9

    def constant(tape):
        return tape.sum(tape.tensor(np.ones((1, 1))))

    assert grad_check(constant, params) == 0.0


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
    case("add_bias", {"a": (3, 2), "b": (1, 2)},
         lambda t, p: t.sum(t.tanh(t.add(p["a"], p["b"]))))
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
    case("hstack", {"a": (3, 2), "b": (3, 4)},
         lambda t, p: t.sum(t.tanh(t.hstack(p["a"], p["b"]))))
    case("vstack", {"a": (1, 3), "b": (1, 3), "c": (1, 3)},
         lambda t, p: t.sum(t.tanh(t.vstack([p["a"], p["b"], p["c"]]))))
    case("prefix_sum", {"a": (5, 3)},
         lambda t, p: t.sum(t.tanh(t.prefix_sum(p["a"]))))
    case("lstm_gates", {"pre": (1, 8), "c": (1, 2)},
         lambda t, p: t.sum(t.hstack(*t.lstm_gates(p["pre"], p["c"]))))
    case("softmax_nll", {"z": (5, 4)},
         lambda t, p: t.softmax_nll(p["z"], np.array([0, 3, 1, 2, 2])))
    case("bce_logits", {"z": (6, 1)},
         lambda t, p: t.bce_logits(p["z"], np.array([[1.0], [0], [0], [1], [0], [1]])))
    return cases


def test_every_primitive_matches_finite_differences():
    rng = np.random.default_rng(42)
    for name, params, fn in _primitive_cases(rng):
        err = grad_check(lambda tape: fn(tape, params), params)
        assert err < 1e-6, f"{name}: max relative error {err}"


def test_lstm_step_zero_params_zero_state():
    params = ParameterSet()
    rng = np.random.default_rng(0)
    lp = init_lstm(params, "l", 3, 4, rng, forget_bias=0.0)
    for tensor in params.tensors():
        tensor.value[:] = 0.0
    t = Tape()
    h, c = lstm_step(t, t.tensor(np.ones((1, 3))),
                     (t.tensor(np.zeros((1, 4))), t.tensor(np.zeros((1, 4)))), lp)
    assert np.array_equal(h.value, np.zeros((1, 4)))
    assert np.array_equal(c.value, np.zeros((1, 4)))


def test_lstm_step_forget_bias_limit():
    # with a huge forget bias and zeroed input/output gates pushed open,
    # c' ~= c + i*g within sigmoid(50) of the exact identity
    rng = np.random.default_rng(1)
    params = ParameterSet()
    lp = init_lstm(params, "l", 2, 3, rng, forget_bias=50.0)
    t = Tape()
    x = t.tensor(rng.normal(size=(1, 2)))
    h0 = t.tensor(rng.normal(size=(1, 3)) * 0.1)
    c0 = t.tensor(rng.normal(size=(1, 3)))
    h, c = lstm_step(t, x, (h0, c0), lp)
    pre = x.value @ lp.wx.value + h0.value @ lp.wh.value + lp.b.value
    i = 0.5 * (np.tanh(0.5 * pre[:, :3]) + 1)
    g = np.tanh(pre[:, 6:9])
    assert np.allclose(c.value, c0.value + i * g, atol=1e-12)


def test_lstm_step_outputs_bounded():
    rng = np.random.default_rng(2)
    params = ParameterSet()
    lp = init_lstm(params, "l", 4, 5, rng)
    t = Tape()
    h, c = lstm_step(t, t.tensor(rng.normal(size=(1, 4)) * 10),
                     (t.tensor(rng.normal(size=(1, 5))), t.tensor(rng.normal(size=(1, 5)))), lp)
    assert np.all(np.abs(h.value) < 1.0)


def test_lstm_run_matches_repeated_steps():
    rng = np.random.default_rng(3)
    params = ParameterSet()
    lp = init_lstm(params, "l", 3, 4, rng)
    x = rng.normal(size=(6, 3))
    t = Tape()
    hs = lstm_run(t, t.tensor(x), lp)
    t2 = Tape()
    h = t2.tensor(np.zeros((1, 4)))
    c = t2.tensor(np.zeros((1, 4)))
    for i in range(6):
        h, c = lstm_step(t2, t2.tensor(x[i:i + 1]), (h, c), lp)
        assert np.allclose(hs[i].value, h.value, atol=1e-12)


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
