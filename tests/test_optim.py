import tracemalloc

import numpy as np
import pytest

from simtlab.autodiff import Tensor
from simtlab.errors import ContractError, NumericError
from simtlab.optim import BETA1, BETA2, CHUNK, EPS, AdamState, adam_step


def test_zero_grad_leaves_params_and_moments_untouched():
    p = Tensor(np.arange(4.0), requires_grad=True)
    state = AdamState([("p", p)], lr=0.0004)
    p.grad = np.zeros(4)
    adam_step(state)
    assert np.array_equal(p.data, np.arange(4.0))
    assert np.all(state.m["p"] == 0.0) and np.all(state.v["p"] == 0.0)
    assert state.step_count == 1


def test_first_step_moves_by_learning_rate():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=8), requires_grad=True)
    before = p.data.copy()
    state = AdamState([("p", p)], lr=0.0004)
    p.grad = rng.normal(size=8) * 3.0
    adam_step(state)
    delta = np.abs(p.data - before)
    # bias correction makes the first update lr * g / (|g| + eps')
    assert np.all(np.abs(delta - 0.0004) <= 1e-8)


def test_second_step_never_larger_than_first():
    p = Tensor(np.zeros(5), requires_grad=True)
    state = AdamState([("p", p)], lr=0.0004)
    g = np.full(5, 0.7)
    p.grad = g.copy()
    adam_step(state)
    first = np.abs(p.data)
    prev = p.data.copy()
    p.grad = g.copy()
    adam_step(state)
    second = np.abs(p.data - prev)
    assert np.all(second <= first + 1e-9)


def test_nan_gradient_rejected_with_diagnostic():
    p = Tensor(np.zeros(3), requires_grad=True)
    state = AdamState([("badparam", p)], lr=0.01)
    p.grad = np.array([0.0, np.nan, 0.0])
    with pytest.raises(NumericError, match="badparam"):
        adam_step(state)
    # rejected update leaves everything untouched
    assert state.step_count == 0
    assert np.all(p.data == 0.0)


def test_none_grad_treated_as_zero():
    p = Tensor(np.ones(2), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    state = AdamState([("p", p), ("q", q)], lr=0.1)
    p.grad = np.ones(2)
    q.grad = None
    adam_step(state)
    assert np.all(q.data == 1.0)
    assert np.all(p.data < 1.0)


def _adam_whole_array(data, m, v, g, t, lr):
    """Reference: one bias-corrected Adam step over whole arrays, in adam_step's op order."""
    m *= BETA1
    m += g * (1.0 - BETA1)
    v *= BETA2
    v += (g * g) * (1.0 - BETA2)
    s = np.sqrt(v / (1.0 - BETA2 ** t)) + EPS
    data -= (m / s) * (lr / (1.0 - BETA1 ** t))


def test_chunked_update_equals_whole_array_update_bit_for_bit():
    rng = np.random.default_rng(3)
    shape = (3, CHUNK // 2 + 17)  # two full chunks and a ragged last one
    p = Tensor(rng.normal(size=shape), requires_grad=True)
    data, m, v = p.data.copy(), np.zeros(shape), np.zeros(shape)
    state = AdamState([("p", p)], lr=0.01)
    for t in range(1, 4):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
        p.grad = g.copy()
        adam_step(state)
        _adam_whole_array(data, m, v, g, t, 0.01)
        assert np.array_equal(p.data, data)
        assert np.array_equal(state.m["p"], m) and np.array_equal(state.v["p"], v)


def test_first_step_allocates_no_parameter_sized_scratch():
    n = 1 << 20  # 8 MB of float64
    p = Tensor(np.zeros(n), requires_grad=True)
    p.grad = np.full(n, 0.5)
    state = AdamState([("p", p)], lr=0.01)
    tracemalloc.start()
    try:
        adam_step(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert np.all(np.abs(p.data + 0.01) <= 1e-9)


def test_non_contiguous_parameter_rejected_before_any_update():
    q = Tensor(np.ones(4), requires_grad=True)
    p = Tensor(np.ones((4, 3)), requires_grad=True)
    p.data = np.ones((4, 6))[:, ::2]  # a strided view; a flat copy of it would drop the update
    state = AdamState([("q", q), ("strided", p)], lr=0.1)
    q.grad, p.grad = np.ones(4), np.ones((4, 3))
    with pytest.raises(ContractError, match="strided"):
        adam_step(state)
    assert state.step_count == 0
    assert np.all(q.data == 1.0) and np.all(p.data == 1.0)
