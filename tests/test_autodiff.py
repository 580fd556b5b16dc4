import math

import numpy as np
import pytest

from simtlab import autodiff as ad
from simtlab.errors import ContractError, ShapeError

from gradcheck import assert_grads_close, finite_diff_grads, max_rel_err


def _params(rng, input_dim=3, hidden_dim=4):
    return ad.GRUParams.create(input_dim, hidden_dim, rng)


def test_gru_zero_fixed_point():
    rng = np.random.default_rng(0)
    p = _params(rng)
    for t in p.tensors():
        t.data[...] = 0.0
    out = ad.gru_cell(None, ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)), p)
    assert np.all(out.data == 0.0)


def test_gru_saturated_update_gate_keeps_state():
    rng = np.random.default_rng(1)
    p = _params(rng)
    p.b.data[4:8] = -20.0  # the z slice of the fused bias
    x = ad.Tensor(rng.normal(size=3))
    h = ad.Tensor(rng.normal(size=4))
    out = ad.gru_cell(None, x, h, p)
    assert np.max(np.abs(out.data - h.data)) <= 1e-6


def test_gru_batch_matches_single_rows():
    rng = np.random.default_rng(2)
    p = _params(rng)
    xs = rng.normal(size=(5, 3))
    hs = rng.normal(size=(5, 4))
    batch = ad.gru_cell(None, ad.Tensor(xs), ad.Tensor(hs), p)
    for i in range(5):
        single = ad.gru_cell(None, ad.Tensor(xs[i]), ad.Tensor(hs[i]), p)
        # GEMM vs GEMV reduction order may differ in the last bits
        assert np.allclose(batch.data[i], single.data, atol=1e-12, rtol=0)


def test_gru_shape_error():
    rng = np.random.default_rng(3)
    p = _params(rng)
    with pytest.raises(ShapeError):
        ad.gru_cell(None, ad.Tensor(np.zeros(5)), ad.Tensor(np.zeros(4)), p)


def test_gru_gradcheck_random_cell():
    rng = np.random.default_rng(4)
    p = _params(rng, 4, 4)
    x = ad.Tensor(rng.normal(size=4), requires_grad=True)
    h = ad.Tensor(rng.normal(size=4), requires_grad=True)
    leaves = [x, h] + p.tensors()

    def forward():
        out = ad.gru_cell(None, x, h, p)
        return float(out.data.sum())

    tape = ad.Tape()
    out = ad.gru_cell(tape, x, h, p)
    loss = ad.weighted_sum(tape, out, np.ones(4))
    ad.backward(tape, loss)
    assert_grads_close(forward, leaves, [t.grad for t in leaves])


def test_gru_create_concatenates_per_gate_draws():
    # the fused tensors hold the blocks drawn one gate at a time, r z n
    p = ad.GRUParams.create(3, 4, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    blocks = [rng.uniform(-0.08, 0.08, size=shape)
              for _ in range(3) for shape in ((3, 4), (4, 4), (4,))]
    assert np.array_equal(p.w_x.data, np.concatenate(blocks[0::3], axis=1))
    assert np.array_equal(p.w_h.data, np.concatenate(blocks[1::3], axis=1))
    assert np.array_equal(p.b.data, np.concatenate(blocks[2::3]))


def test_gru_sequence_equals_chained_cells():
    rng = np.random.default_rng(20)
    p = ad.GRUParams.create(5, 6, rng, scale=0.5)
    xs = rng.normal(size=(3, 7, 5))
    h0 = rng.normal(size=(3, 6))
    seq = ad.gru_sequence(None, ad.Tensor(xs), ad.Tensor(h0), p).data
    h = ad.Tensor(h0)
    for t in range(7):
        h = ad.gru_cell(None, ad.Tensor(xs[:, t]), h, p)
        assert np.allclose(seq[:, t], h.data, rtol=0, atol=1e-12)


def test_gru_sequence_gradcheck():
    rng = np.random.default_rng(21)
    p = ad.GRUParams.create(3, 4, rng, scale=0.5)
    xs = ad.Tensor(rng.normal(size=(2, 3, 3)), requires_grad=True)
    h0 = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    wc = rng.normal(size=(2, 3, 4))
    leaves = [xs, h0] + p.tensors()

    def forward():
        return float((ad.gru_sequence(None, xs, h0, p).data * wc).sum())

    tape = ad.Tape()
    out = ad.gru_sequence(tape, xs, h0, p)
    assert len(tape) == 1
    out.grad = wc.copy()
    ad.backward(tape, ad.Tensor(0.0))
    assert_grads_close(forward, leaves, [t.grad for t in leaves])


def test_gru_sequence_shape_errors():
    p = _params(np.random.default_rng(22))
    with pytest.raises(ShapeError):
        ad.gru_sequence(None, ad.Tensor(np.zeros((2, 3, 5))), ad.Tensor(np.zeros((2, 4))), p)
    with pytest.raises(ShapeError):
        ad.gru_sequence(None, ad.Tensor(np.zeros((2, 3, 3))), ad.Tensor(np.zeros((3, 4))), p)


# dot-product and keyed attention: batched_attention on one batch row

def test_dot_attention_single_key():
    kv = ad.Tensor([[[1.0, 2.0, 3.0]]])
    ctx, w = ad.batched_attention(None, kv, kv, ad.Tensor([[0.5, -0.5, 1.0]]))
    assert np.array_equal(w.data, [[1.0]])
    assert np.array_equal(ctx.data, [[1.0, 2.0, 3.0]])


def test_dot_attention_identical_rows_symmetry():
    kv = ad.Tensor([[[1.0, 2.0], [1.0, 2.0]]])
    _, w = ad.batched_attention(None, kv, kv, ad.Tensor([[3.0, -1.0]]))
    assert np.allclose(w.data, [[0.5, 0.5]], atol=1e-15)


def test_dot_attention_hand_softmax():
    kv = ad.Tensor(np.eye(2)[None])
    ctx, w = ad.batched_attention(None, kv, kv, ad.Tensor([[10.0, 0.0]]))
    expect = math.exp(10) / (math.exp(10) + 1)
    assert abs(w.data[0, 0] - expect) <= 1e-12
    assert abs(w.data[0, 0] - 0.99995) <= 5e-6
    assert abs(w.data[0, 1] - 0.00005) <= 5e-6
    assert np.allclose(ctx.data, w.data)


def test_dot_attention_empty_keys():
    kv = ad.Tensor(np.zeros((1, 0, 3)))
    with pytest.raises(ContractError):
        ad.batched_attention(None, kv, kv, ad.Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeError):
        ad.batched_attention(None, ad.Tensor(np.zeros((1, 2, 3))), ad.Tensor(np.zeros((1, 3, 3))),
                             ad.Tensor(np.zeros((1, 3))))


def test_attention_gradcheck_context_and_weights():
    rng = np.random.default_rng(5)
    kv = ad.Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
    q = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    wc = rng.normal(size=3)
    ww = rng.normal(size=4)

    def forward():
        ctx, w = ad.batched_attention(None, kv, kv, q)
        return float(ctx.data[0] @ wc + w.data[0] @ ww)

    tape = ad.Tape()
    ctx, w = ad.batched_attention(tape, kv, kv, q)
    ctx.grad, w.grad = wc[None].copy(), ww[None].copy()
    ad.backward(tape, ad.Tensor(0.0))
    assert_grads_close(forward, [kv, q], [kv.grad, q.grad])


def test_keyed_attention_gradcheck():
    rng = np.random.default_rng(6)
    keys = ad.Tensor(rng.normal(size=(1, 5, 3)), requires_grad=True)
    values = ad.Tensor(rng.normal(size=(1, 5, 2)), requires_grad=True)
    q = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    wc = rng.normal(size=2)

    def forward():
        ctx, _ = ad.batched_attention(None, keys, values, q)
        return float(ctx.data[0] @ wc)

    tape = ad.Tape()
    ctx, _ = ad.batched_attention(tape, keys, values, q)
    ctx.grad = wc[None].copy()
    ad.backward(tape, ad.Tensor(0.0))
    assert_grads_close(forward, [keys, values, q], [keys.grad, values.grad, q.grad])


def test_batched_attention_masked_gradcheck():
    rng = np.random.default_rng(7)
    keys = ad.Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    q = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    mask = np.array([[True, True, False, False],
                     [True, True, True, False],
                     [True, True, True, True]])
    wc = rng.normal(size=(3, 2))

    def forward():
        ctx, _ = ad.batched_attention(None, keys, keys, q, mask)
        return float((ctx.data * wc).sum())

    tape = ad.Tape()
    ctx, _ = ad.batched_attention(tape, keys, keys, q, mask)
    parts = [ad.weighted_sum(tape, ad.pick_rows(tape, ctx, [j] * 3), wc[:, j])
             for j in range(2)]
    loss = ad.sum_scalars(tape, parts)
    ad.backward(tape, loss)
    assert_grads_close(forward, [keys, q], [keys.grad, q.grad])
    # masked rows never receive weight
    _, w = ad.batched_attention(None, keys, keys, q, mask)
    assert np.all(w.data[~mask] == 0.0)


def test_batched_attention_many_queries():
    # (B, T, dk) queries equal T calls with (B, dk) queries, and gradcheck
    rng = np.random.default_rng(18)
    keys = ad.Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
    values = ad.Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
    q = ad.Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    mask = np.array([[True, True, False, False], [True, True, True, True]])
    wc = rng.normal(size=(2, 5, 2))
    ww = rng.normal(size=(2, 5, 4))

    ctx, w = ad.batched_attention(None, keys, values, q, mask)
    for t in range(5):
        ctx_t, w_t = ad.batched_attention(None, keys, values, ad.Tensor(q.data[:, t]), mask)
        assert np.allclose(ctx.data[:, t], ctx_t.data, rtol=0, atol=1e-14)
        assert np.allclose(w.data[:, t], w_t.data, rtol=0, atol=1e-14)

    def forward():
        ctx, w = ad.batched_attention(None, keys, values, q, mask)
        return float((ctx.data * wc).sum() + (w.data * ww).sum())

    tape = ad.Tape()
    ctx, w = ad.batched_attention(tape, keys, values, q, mask)
    ctx.grad, w.grad = wc.copy(), ww.copy()
    ad.backward(tape, ad.Tensor(0.0))
    assert_grads_close(forward, [keys, values, q], [keys.grad, values.grad, q.grad])


def _row_ce(tape, logits, targets):
    return ad.softmax_cross_entropy_rows(tape, logits, targets, np.ones(len(targets)))


def test_softmax_cross_entropy_uniform():
    loss = _row_ce(None, ad.Tensor(np.zeros((1, 4))), [2])
    assert abs(float(loss.data) - math.log(4)) <= 1e-12


def test_softmax_cross_entropy_saturated():
    logits = np.zeros((1, 5))
    logits[0, 3] = 50.0
    loss = _row_ce(None, ad.Tensor(logits), [3])
    assert float(loss.data) <= 1e-12


def test_softmax_cross_entropy_hand_value():
    loss = _row_ce(None, ad.Tensor([[1.0, 2.0, 3.0]]), [0])
    expect = -1.0 + math.log(math.e + math.e ** 2 + math.e ** 3)
    assert abs(float(loss.data) - expect) <= 1e-12
    assert abs(float(loss.data) - 2.4076) <= 1e-4


def test_softmax_cross_entropy_bad_target():
    with pytest.raises(IndexError):
        _row_ce(None, ad.Tensor(np.zeros((1, 3))), [3])
    with pytest.raises(IndexError):
        _row_ce(None, ad.Tensor(np.zeros((2, 3))), [0, -1])


def test_softmax_cross_entropy_gradcheck():
    rng = np.random.default_rng(8)
    logits = ad.Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    targets = [2, 0, 5]

    def forward():
        return float(_row_ce(None, logits, targets).data)

    tape = ad.Tape()
    loss = _row_ce(tape, logits, targets)
    ad.backward(tape, loss)
    assert_grads_close(forward, [logits], [logits.grad])
    # gradient is softmax minus one-hot, over the row count
    p = ad.softmax(logits.data)
    p[[0, 1, 2], targets] -= 1.0
    assert np.allclose(logits.grad, p / 3, atol=1e-12)


def test_backward_identity():
    x = ad.Tensor(3.5, requires_grad=True)
    ad.backward(ad.Tape(), x)
    assert x.grad == 1.0


def test_backward_product_rule():
    tape = ad.Tape()
    x = ad.Tensor([2.0], requires_grad=True)
    y = ad.Tensor([[3.0]], requires_grad=True)
    ad.backward(tape, ad.weighted_sum(tape, ad.matmul(tape, x, y), [1.0]))
    assert x.grad.tolist() == [3.0] and y.grad.tolist() == [[2.0]]


def test_backward_fanout_accumulates():
    tape = ad.Tape()
    x = ad.Tensor([2.0], requires_grad=True)
    w = ad.Tensor([[2.0]])
    loss = ad.sum_scalars(tape, [ad.weighted_sum(tape, ad.matmul(tape, x, w), [1.0]),
                                 ad.weighted_sum(tape, x, [3.0])])
    ad.backward(tape, loss)
    assert x.grad.tolist() == [2.0 + 3.0]  # d(2x + 3x)/dx, x feeding two ops

    # add hands one gradient to both inputs; a later contribution to one of
    # them must not reach the other
    tape = ad.Tape()
    a = ad.Tensor([1.0], requires_grad=True)
    b = ad.Tensor([1.0], requires_grad=True)
    y = ad.matmul(tape, b, w)
    loss = ad.sum_scalars(tape, [ad.weighted_sum(tape, y, [1.0]),
                                 ad.weighted_sum(tape, ad.add(tape, a, b), [1.0])])
    ad.backward(tape, loss)
    assert a.grad.tolist() == [1.0] and b.grad.tolist() == [1.0 + 2.0]


def test_backward_rejects_non_scalar():
    tape = ad.Tape()
    x = ad.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        ad.backward(tape, x)


def test_composed_graph_gradcheck():
    # gru -> attention -> cross entropy, which is one environment step
    rng = np.random.default_rng(9)
    p = _params(rng, 3, 4)
    kv = ad.Tensor(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w_out = ad.Tensor(rng.normal(size=(4, 6)) * 0.3, requires_grad=True)
    x = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    h = ad.Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    leaves = [x, h, kv, w_out] + p.tensors()

    def run(tape):
        q = ad.gru_cell(tape, x, h, p)
        ctx, _ = ad.batched_attention(tape, kv, kv, q)
        logits = ad.matmul(tape, ctx, w_out)
        return ad.softmax_cross_entropy_rows(tape, logits, [1, 4], [1.0, 1.0])

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), leaves,
                       [t.grad for t in leaves])


@pytest.mark.parametrize("seed", range(12))
def test_elementwise_ops_gradcheck(seed):
    # add, add_bias, concat, matmul and the masked cross-entropy over (B, T, .) blocks
    rng = np.random.default_rng(100 + seed)
    a = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    bias = ad.Tensor(rng.normal(size=4), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=(2, 3))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def run(tape):
        m = ad.add_bias(tape, ad.add(tape, a, b), bias)
        logits = ad.matmul(tape, ad.concat(tape, [m, a], axis=2), w)
        return ad.softmax_cross_entropy_rows(tape, logits, targets, mask)

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [a, b, bias, w],
                       [a.grad, b.grad, bias.grad, w.grad])
    # the masked position reaches neither input through the loss path
    assert np.all(b.grad[0, 2] == 0.0)


def test_embedding_gradcheck_and_bounds():
    rng = np.random.default_rng(11)
    table = ad.Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    ids = np.array([1, 4, 1])
    wc = rng.normal(size=(3, 3))

    def run(tape):
        rows = ad.embedding(tape, table, ids)
        cols = [ad.weighted_sum(tape, ad.pick_rows(tape, rows, [j] * 3), wc[:, j])
                for j in range(3)]
        return ad.sum_scalars(tape, cols)

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [table], [table.grad])
    with pytest.raises(IndexError):
        ad.embedding(None, table, [7])


def test_log_softmax_pick_entropy_gradcheck():
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    idx = np.array([0, 1, 1, 0])
    wp = rng.normal(size=4)
    we = rng.normal(size=4)

    def run(tape):
        ls = ad.log_softmax_rows(tape, x)
        picked = ad.pick_rows(tape, ls, idx)
        ent = ad.rows_entropy(tape, ls)
        return ad.sum_scalars(tape, [ad.weighted_sum(tape, picked, wp),
                                     ad.weighted_sum(tape, ent, we)])

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [x], [x.grad])


def test_masked_cross_entropy_rows_gradcheck():
    rng = np.random.default_rng(13)
    logits = ad.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    targets = np.array([0, 3, 2, 1, 0])
    mask = np.array([1.0, 1.0, 0.0, 1.0, 0.0])

    def run(tape):
        return ad.softmax_cross_entropy_rows(tape, logits, targets, mask)

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [logits], [logits.grad])
    # masked rows contribute nothing
    assert np.all(logits.grad[2] == 0.0) and np.all(logits.grad[4] == 0.0)


def test_masked_sq_error_gradcheck():
    rng = np.random.default_rng(14)
    v = ad.Tensor(rng.normal(size=6), requires_grad=True)
    targets = rng.normal(size=6)
    mask = np.array([1, 1, 0, 1, 0, 1], dtype=float)

    def run(tape):
        return ad.masked_sq_error(tape, v, targets, mask, denom=4.0)

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [v], [v.grad])


def test_concat_gradcheck():
    rng = np.random.default_rng(15)
    a = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    wc = rng.normal(size=(2, 5))

    tape = ad.Tape()
    cat = ad.concat(tape, [a, b], axis=1)
    cols = [ad.weighted_sum(tape, ad.pick_rows(tape, cat, [j] * 2), wc[:, j])
            for j in range(5)]
    loss = ad.sum_scalars(tape, cols)
    ad.backward(tape, loss)

    def fwd():
        cat = np.concatenate([a.data, b.data], axis=1)
        return float((cat * wc).sum())

    assert_grads_close(fwd, [a, b], [a.grad, b.grad])


def test_linear_rows3_gradcheck():
    rng = np.random.default_rng(16)
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    feats = rng.normal(size=(2, 4, 3))
    score = rng.normal(size=(2, 4, 2))

    def forward():
        return float((np.einsum("brd,dk->brk", feats, w.data) * score).sum())

    tape = ad.Tape()
    proj = ad.linear_rows3(tape, feats, w)
    proj.grad = score.copy()
    for fn in reversed(tape._records):
        fn()
    assert max_rel_err(w.grad, finite_diff_grads(forward, [w])[0]) <= 1e-4


def test_softmax_properties_many_seeds():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        p = ad.softmax(rng.normal(scale=5.0, size=rng.integers(1, 9)))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0.0)


def test_forward_and_grad_determinism():
    def run(seed):
        rng = np.random.default_rng(seed)
        p = _params(rng, 4, 4)
        x = ad.Tensor(rng.normal(size=4), requires_grad=True)
        h = ad.Tensor(rng.normal(size=4), requires_grad=True)
        tape = ad.Tape()
        out = ad.gru_cell(tape, x, h, p)
        loss = ad.weighted_sum(tape, out, np.arange(4.0))
        ad.backward(tape, loss)
        return out.data.copy(), x.grad.copy(), p.w_x.grad.copy()

    a = run(42)
    b = run(42)
    for left, right in zip(a, b):
        assert np.array_equal(left, right)


def test_validate_finite_detects_nan():
    t = ad.Tensor([1.0, float("nan")])
    with pytest.raises(Exception):
        ad.validate_finite([("t", t)])
