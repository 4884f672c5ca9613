import gc
import weakref
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segfeat.autodiff import Tape, grad_check
from segfeat.losses import bin_loss, frame_labels_from, hinge_loss, phn_loss
from segfeat.model import Segmentation, boundary_logits, build_context, phoneme_logits

from conftest import random_context, small_model, toy_context
from reference_tape import ReferenceTape, composed_hinge_loss


def test_hinge_toy_gold_empty(toy_model):
    ctx = toy_context(toy_model, 2)
    loss = hinge_loss(ctx, toy_model, Segmentation((), 2))
    # competitor {1} scores 1.0, gold scores 0.5
    assert loss.item() == pytest.approx(1.5)


def test_hinge_toy_gold_is_argmax(toy_model):
    ctx = toy_context(toy_model, 2)
    loss = hinge_loss(ctx, toy_model, Segmentation((1,), 2))
    # argmax equals gold; competitor {} scores 0.5
    assert loss.item() == pytest.approx(0.5)


def test_hinge_zero_when_gold_wins_by_margin(toy_model):
    toy_model.params["unary.2.b"].value[:] = -2.0
    ctx = toy_context(toy_model, 2)
    loss = hinge_loss(ctx, toy_model, Segmentation((), 2))
    assert loss.item() == 0.0
    ctx.tape.backward(loss)
    assert toy_model.params.grad_norm() == 0.0


def test_hinge_gradient_direction(toy_model):
    # active hinge: gradient must not vanish
    ctx = toy_context(toy_model, 2)
    loss = hinge_loss(ctx, toy_model, Segmentation((), 2))
    ctx.tape.backward(loss)
    assert toy_model.params.grad_norm() > 0


def test_hinge_single_candidate_is_zero():
    model = small_model()
    ctx = random_context(model, 1, np.random.default_rng(0))
    loss = hinge_loss(ctx, model, Segmentation((), 1))
    assert loss.item() == 0.0


def test_hinge_step_frees_its_tape_without_the_cycle_collector():
    # the hinge node's backward holds its context, which holds the tape; left
    # to the cyclic collector, spent tapes raised the peak RSS of a T=300, H=64
    # training run from 98 to 338 MiB
    model = small_model()
    gc.disable()
    try:
        ctx = random_context(model, 6, np.random.default_rng(3))
        loss = hinge_loss(ctx, model, Segmentation((2,), 6))
        ctx.tape.backward(loss)
        tape = weakref.ref(ctx.tape)
        del ctx, loss
        assert tape() is None
    finally:
        gc.enable()


def test_hinge_mismatched_length():
    model = small_model()
    ctx = random_context(model, 4, np.random.default_rng(1))
    with pytest.raises(ValueError):
        hinge_loss(ctx, model, Segmentation((), 5))


def test_hinge_nonnegative_random():
    model = small_model()
    rng = np.random.default_rng(2)
    for _ in range(20):
        t_total = int(rng.integers(2, 9))
        ctx = random_context(model, t_total, rng)
        bounds = tuple(sorted(rng.choice(np.arange(1, t_total), size=rng.integers(0, t_total - 1),
                                         replace=False).tolist()))
        loss = hinge_loss(ctx, model, Segmentation(bounds, t_total))
        assert loss.item() >= 0.0


def test_frame_labels_examples():
    assert frame_labels_from(Segmentation((2, 4), 5), [7, 8, 9]).tolist() == [7, 7, 8, 8, 9]
    assert frame_labels_from(Segmentation((), 4), [3]).tolist() == [3, 3, 3, 3]
    assert frame_labels_from(Segmentation((1,), 2), [0, 1]).tolist() == [0, 1]
    with pytest.raises(ValueError):
        frame_labels_from(Segmentation((2,), 5), [1, 2, 3])


def test_frame_labels_cover_each_segment():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t_total = int(rng.integers(1, 20))
        pool = np.arange(1, t_total)
        bounds = tuple(sorted(rng.choice(pool, size=rng.integers(0, min(4, t_total - 1) + 1)
                                         if t_total > 1 else 0, replace=False).tolist()))
        seg = Segmentation(bounds, t_total)
        labels = frame_labels_from(seg, list(range(seg.n_segments)))
        assert labels.size == t_total
        for i, (s, e) in enumerate(seg.spans()):
            assert np.all(labels[s:e] == i)


def test_phn_loss_uniform_logits():
    tape = Tape()
    logits = tape.tensor(np.zeros((6, 4)))
    loss = phn_loss(tape, logits, np.array([0, 1, 2, 3, 0, 1]))
    assert loss.item() == pytest.approx(np.log(4.0))


def test_phn_loss_confident_limit_and_nonnegative():
    tape = Tape()
    z = np.full((5, 3), -50.0)
    labels = np.array([0, 2, 1, 1, 0])
    z[np.arange(5), labels] = 50.0
    assert phn_loss(tape, tape.tensor(z), labels).item() == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(10):
        tape = Tape()
        logits = tape.tensor(rng.normal(size=(7, 5)))
        assert phn_loss(tape, logits, rng.integers(0, 5, size=7)).item() >= 0.0


def test_phn_loss_label_out_of_range():
    tape = Tape()
    with pytest.raises(ValueError):
        phn_loss(tape, tape.tensor(np.zeros((3, 2))), np.array([0, 2, 1]))


def test_bin_loss_zero_logits():
    tape = Tape()
    logits = tape.tensor(np.zeros((8, 1)))
    loss = bin_loss(tape, logits, Segmentation((3, 5), 8))
    assert loss.item() == pytest.approx(np.log(2.0))


def test_bin_loss_confident_limit_and_nonnegative():
    tape = Tape()
    z = np.full((6, 1), -50.0)
    z[[2, 4]] = 50.0
    loss = bin_loss(tape, tape.tensor(z), Segmentation((2, 4), 6))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        tape = Tape()
        logits = tape.tensor(rng.normal(size=(9, 1)))
        assert bin_loss(tape, logits, Segmentation((1, 7), 9)).item() >= 0.0


def test_full_objective_matches_finite_differences():
    from segfeat.autodiff import grad_check
    from segfeat.model import build_context

    model = small_model(input_dim=8, hidden=4, inventory=("a", "b", "c", "d", "e"),
                        with_bin=True, seed=3)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(6, 8))
    gold = Segmentation((2, 4), 6)
    labels = frame_labels_from(gold, [0, 1, 2])

    def build_loss(tape):
        ctx = build_context(model, feats, tape)
        loss = hinge_loss(ctx, model, gold)
        loss = tape.add(loss, phn_loss(tape, phoneme_logits(ctx, model), labels))
        return tape.add(loss, bin_loss(tape, boundary_logits(ctx, model), gold))

    assert grad_check(build_loss, model.params) < 1e-4


def _objective_bytes(model, feats, gold, labels, cap, tape_cls, hinge):
    """One backward of hinge + 0.5 phn + 0.25 bin on a fresh tape_cls tape;
    returns the bytes of the hinge and of the total loss."""
    tape = tape_cls()
    ctx = build_context(model, feats, tape)
    total = hinge(ctx, model, gold, cap)
    hinge_bytes = total.value.tobytes()
    total = tape.add(total, tape.scale(phn_loss(tape, phoneme_logits(ctx, model), labels), 0.5))
    total = tape.add(total, tape.scale(bin_loss(tape, boundary_logits(ctx, model), gold), 0.25))
    tape.backward(total)
    return hinge_bytes + total.value.tobytes()


def _hinge_and_reference_runs(model, feats, gold, cap, rng):
    """(loss bytes, parameter grads) after two accumulated backward passes
    (grads start non-zero, as with batch_size > 1), for the one-node hinge
    and for the hinge composed from generic ops."""
    labels = frame_labels_from(gold, rng.integers(0, len(model.cfg.inventory),
                                                  size=gold.n_segments))
    runs = []
    for tape_cls, hinge in ((Tape, hinge_loss), (ReferenceTape, composed_hinge_loss)):
        model.params.zero_grad()
        losses = [_objective_bytes(model, feats, gold, labels, cap, tape_cls, hinge)
                  for _ in range(2)]
        runs.append((losses, [t.grad.copy() for t in model.params.tensors()]))
    return runs


def _hinge_model(flags, hidden, seed):
    return small_model(input_dim=3, hidden=hidden, layers=1, seed=seed,
                       inventory=("a", "b", "c"), with_bin=True, **flags)


MODEL_FLAGS = st.fixed_dictionaries({"include_end_spans": st.booleans(),
                                     "mean_bigram": st.booleans(),
                                     "shared_head": st.booleans()})


@settings(max_examples=80, deadline=None)
@given(flags=MODEL_FLAGS, t_total=st.integers(2, 29), hidden=st.integers(1, 6),
       cap=st.sampled_from([None, 3]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_property_hinge_is_bit_identical_to_composed_reference(flags, t_total, hidden, cap,
                                                              seed, data):
    model = _hinge_model(flags, hidden, seed % 1000)
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(t_total, 3))
    gold = Segmentation(sorted(data.draw(st.sets(st.integers(1, t_total - 1)))), t_total)
    (losses, grads), (want_losses, want_grads) = _hinge_and_reference_runs(
        model, feats, gold, cap, rng)
    assert losses == want_losses
    for name, got, want in zip(model.params.names(), grads, want_grads):
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("t_total,hidden", [(300, 64), (40, 16)])
def test_hinge_is_bit_identical_to_composed_reference_at_workload_shapes(t_total, hidden):
    # the benchmark's TIMIT-like and desk shapes, with its training cap: more
    # spans per score than the property draws, so longer sums
    model = small_model(input_dim=43, hidden=hidden, layers=2, seed=7,
                        inventory=("a", "b", "c"), with_bin=True)
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(t_total, 43))
    gold = Segmentation(sorted(rng.choice(np.arange(1, t_total), size=t_total // 8,
                                          replace=False).tolist()), t_total)
    (losses, grads), (want_losses, want_grads) = _hinge_and_reference_runs(
        model, feats, gold, 50, rng)
    assert losses == want_losses
    for name, got, want in zip(model.params.names(), grads, want_grads):
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("include_end_spans, mean_bigram, shared_head",
                         list(product((False, True), repeat=3)))
def test_inactive_hinge_matches_composed_reference(include_end_spans, mean_bigram,
                                                   shared_head):
    # a boundary costs 1000, so the single-segment gold wins by far more than 1
    model = _hinge_model(dict(include_end_spans=include_end_spans, mean_bigram=mean_bigram,
                              shared_head=shared_head), 3, 5)
    model.head_unary[3].value[:] = -1000.0
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(9, 3))
    gold = Segmentation((), 9)
    assert hinge_loss(build_context(model, feats), model, gold).item() == 0.0
    (losses, grads), (want_losses, want_grads) = _hinge_and_reference_runs(
        model, feats, gold, None, rng)
    assert losses == want_losses
    for name, got, want in zip(model.params.names(), grads, want_grads):
        assert np.array_equal(got, want), name


def test_hinge_gradient_with_shared_head_mean_bigram_and_no_end_spans():
    model = small_model(input_dim=4, hidden=3, layers=1, seed=11, shared_head=True,
                        mean_bigram=True, include_end_spans=False)
    feats = np.random.default_rng(12).normal(size=(7, 4))
    gold = Segmentation((2, 4, 5), 7)

    def build_loss(tape):
        return hinge_loss(build_context(model, feats, tape), model, gold)

    assert build_loss(Tape()).item() > 0.0
    assert grad_check(build_loss, model.params) < 1e-4
