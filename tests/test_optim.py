import numpy as np
import pytest

from factrank.errors import UsageError
from factrank.numerics import Tape, parameter
from factrank.optim import clip_gradients, global_grad_norm, make_optimizer, step


def test_step_moves_by_lr_and_clears_gradient():
    # a gradient far above eps makes Adam's first step lr to the last ulps
    w = parameter(np.array([1.0]))
    w.grad[...] = 1e8
    step({"w": w}, make_optimizer(lr=0.1))
    assert w.values[0] == pytest.approx(0.9, abs=1e-15)
    assert w.grad[0] == 0.0  # cleared after the update


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the first update ~lr regardless of gradient scale
    for scale in (1e-4, 1.0, 1e4):
        w = parameter(np.array([0.0]))
        w.grad[...] = scale
        step({"w": w}, make_optimizer(lr=0.01))
        assert abs(w.values[0]) == pytest.approx(0.01, rel=1e-3)


def test_weight_decay_shrinks_weight_matrices():
    w = parameter(np.full((2, 2), 2.0))
    b = parameter(np.full(2, 2.0))
    before_w = np.linalg.norm(w.values)
    before_b = np.linalg.norm(b.values)
    step({"w": w, "b": b}, make_optimizer(lr=0.1, weight_decay=0.5))
    assert np.linalg.norm(w.values) < before_w
    assert np.linalg.norm(b.values) == before_b  # biases are never decayed


def test_step_requires_gradients():
    w = parameter(np.ones(2))
    w.grad = None
    with pytest.raises(UsageError):
        step({"w": w}, make_optimizer(lr=0.1))


def test_clip_gradients_scales_to_max_norm():
    a = parameter(np.array([3.0]))
    b = parameter(np.array([4.0]))
    a.grad[...] = 3.0
    b.grad[...] = 4.0
    params = {"a": a, "b": b}
    before = clip_gradients(params, max_norm=1.0)
    assert before == pytest.approx(5.0)
    assert global_grad_norm(params) == pytest.approx(1.0)


def test_clip_noop_under_threshold():
    a = parameter(np.array([0.3]))
    a.grad[...] = 0.3
    clip_gradients({"a": a}, max_norm=5.0)
    assert a.grad[0] == pytest.approx(0.3)


def test_adam_converges_on_quadratic():
    w = parameter(np.array([5.0]))
    opt = make_optimizer(lr=0.1)
    for _ in range(300):
        t = Tape()
        loss = t.tensor_sum(t.mul(w, w))
        t.backward(loss)
        step({"w": w}, opt)
    assert abs(w.values[0]) < 1e-2
