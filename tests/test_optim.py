import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat.autodiff import ParameterSet
from segfeat.optim import AdamState, adam_step, clip_grad_norm


def test_zero_gradients_leave_params_unchanged():
    params = ParameterSet()
    w = params.add("w", np.array([[1.0, -2.0]]))
    state = AdamState(params)
    before = w.value.copy()
    adam_step(params, state, lr=0.1)
    assert np.array_equal(w.value, before)
    assert state.step == 1
    assert np.all(state.m == 0.0)
    assert np.all(state.v == 0.0)


def test_first_step_magnitude_with_unit_gradient():
    params = ParameterSet()
    w = params.add("w", np.array([[0.0]]))
    state = AdamState(params)
    w.grad[:] = 1.0
    lr = 1e-3
    eps = 1e-8
    adam_step(params, state, lr=lr, eps=eps)
    # bias-corrected m-hat = v-hat = 1 at t=1, so the update is lr/(1+eps)
    assert w.value.item() == pytest.approx(-lr / (1.0 + eps), rel=1e-12)


def test_large_t_constant_gradient_is_scale_invariant():
    # iterate the recurrence: with a constant gradient the step magnitude
    # approaches lr regardless of the gradient scale
    def settled_update(g, steps=400, lr=0.01):
        params = ParameterSet()
        w = params.add("w", np.array([[0.0]]))
        state = AdamState(params)
        prev = 0.0
        for _ in range(steps):
            prev = w.value.item()
            w.grad[:] = g
            adam_step(params, state, lr=lr)
        return prev - w.value.item()

    small = settled_update(1.0)
    large = settled_update(100.0)
    assert small == pytest.approx(0.01, rel=1e-3)
    assert large == pytest.approx(0.01, rel=1e-3)
    assert small == pytest.approx(large, rel=1e-6)


def test_misaligned_state_rejected():
    params = ParameterSet()
    params.add("w", np.zeros(3))
    state = AdamState(params)
    other = ParameterSet()
    other.add("q", np.zeros(3))
    with pytest.raises(ValueError):
        adam_step(other, state, lr=0.1)


def test_adam_decreases_quadratic():
    params = ParameterSet()
    w = params.add("w", np.array([3.0, -2.0]))
    state = AdamState(params)
    for _ in range(2000):
        w.grad[:] = 2.0 * w.value
        adam_step(params, state, lr=0.01)
    assert np.all(np.abs(w.value) < 0.05)


def test_clip_grad_norm():
    params = ParameterSet()
    a = params.add("a", np.zeros(3))
    b = params.add("b", np.zeros(4))
    a.grad[:] = 3.0
    b.grad[:] = 4.0
    norm = float(np.sqrt(3 * 9.0 + 4 * 16.0))
    got = clip_grad_norm(params, 5.0)
    assert got == pytest.approx(norm)
    assert params.grad_norm() == pytest.approx(5.0)
    # below the threshold nothing changes
    got2 = clip_grad_norm(params, 50.0)
    assert got2 == pytest.approx(5.0)
    assert params.grad_norm() == pytest.approx(5.0)
    # zero disables clipping
    a.grad[:] = 100.0
    clip_grad_norm(params, 0.0)
    assert np.all(a.grad == 100.0)


def test_copy_values_snapshot_survives_a_later_step():
    params = ParameterSet()
    w = params.add("w", np.array([[1.0, -2.0]]))
    params.add("b", np.array([0.5]))
    snap = params.copy_values()
    before = {k: v.copy() for k, v in snap.items()}
    params.grads[:] = 1.0
    adam_step(params, AdamState(params), lr=0.1)
    assert not np.array_equal(w.value, before["w"])
    for k, v in snap.items():
        assert np.array_equal(v, before[k])
        assert not np.shares_memory(v, params.values)


# ----- the per-tensor loops that the buffer operations replaced ---------------

class ReferenceAdamState:
    def __init__(self, values):
        self.m = [np.zeros_like(x) for x in values]
        self.v = [np.zeros_like(x) for x in values]
        self.step = 0


def reference_adam_step(values, grads, state, lr, beta1, beta2, eps):
    """Adam one separate array at a time, each expression as written here."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(values, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def reference_clip_grad_norm(grads, max_norm):
    total = 0.0
    for g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for g in grads:
            g *= factor
    return norm


def _flat(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays]).tobytes()


@settings(max_examples=80, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(1, 5), max_size=2).map(tuple),
                       min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 4),
       max_norm=st.sampled_from([0.0, 1e-3, 0.5, 5.0, 1e4]),
       lr=st.floats(1e-5, 1.0), beta1=st.floats(0.0, 0.99),
       beta2=st.floats(0.0, 0.9999), eps=st.floats(1e-12, 1e-3))
def test_property_buffer_optimizer_matches_per_tensor_reference(
        shapes, seed, steps, max_norm, lr, beta1, beta2, eps):
    """Clip and Adam over the flat buffers give the bytes of the per-tensor
    loops: the norm, the clipped grads, both moments and the values."""
    rng = np.random.default_rng(seed)
    params = ParameterSet()
    values = []
    for k, shape in enumerate(shapes):
        init = np.array(rng.normal(size=shape))
        params.add(f"p{k}", init)
        values.append(init.copy())
    state = AdamState(params)
    ref = ReferenceAdamState(values)
    for _ in range(steps):
        grads = [np.array(rng.normal(size=s) * 10.0 ** rng.integers(-3, 3)) for s in shapes]
        for t, g in zip(params.tensors(), grads):
            t.grad[...] = g
        norm = clip_grad_norm(params, max_norm)
        assert norm == reference_clip_grad_norm(grads, max_norm)
        assert params.grads.tobytes() == _flat(grads)
        adam_step(params, state, lr, beta1, beta2, eps)
        reference_adam_step(values, grads, ref, lr, beta1, beta2, eps)
        params.zero_grad()
    assert params.values.tobytes() == _flat(values)
    assert state.m.tobytes() == _flat(ref.m)
    assert state.v.tobytes() == _flat(ref.v)
