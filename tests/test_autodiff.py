import math

import numpy as np
import pytest

from simtlab import autodiff as ad
from simtlab.errors import ContractError, ShapeError

import gru_reference
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


RAGGED = [3, 1, 5, 0, 5, 2]  # includes 1 and T = 5, a tie, and an empty row


def _ragged_sequence(seed):
    rng = np.random.default_rng(seed)
    p = ad.GRUParams.create(3, 4, rng, scale=0.5)
    xs = ad.Tensor(rng.normal(size=(len(RAGGED), 5, 3)), requires_grad=True)
    h0 = ad.Tensor(rng.normal(size=(len(RAGGED), 4)), requires_grad=True)
    return p, xs, h0, rng.normal(size=(len(RAGGED), 5, 4))


def test_gru_sequence_ragged_gradcheck():
    p, xs, h0, wc = _ragged_sequence(23)
    leaves = [xs, h0] + p.tensors()

    def forward():
        return float((ad.gru_sequence(None, xs, h0, p, RAGGED).data * wc).sum())

    tape = ad.Tape()
    out = ad.gru_sequence(tape, xs, h0, p, RAGGED)
    out.grad = wc.copy()
    ad.backward(tape, ad.Tensor(0.0))
    assert_grads_close(forward, leaves, [t.grad for t in leaves])


def test_gru_sequence_is_zero_past_each_length():
    p, xs, h0, wc = _ragged_sequence(24)
    tape = ad.Tape()
    out = ad.gru_sequence(tape, xs, h0, p, RAGGED)
    out.grad = wc.copy()
    ad.backward(tape, ad.Tensor(0.0))
    for b, n in enumerate(RAGGED):
        assert np.all(out.data[b, n:] == 0.0) and np.all(xs.grad[b, n:] == 0.0)
        assert np.all(out.data[b, :n] != 0.0) and np.all(xs.grad[b, :n] != 0.0)
    assert np.all(h0.grad[RAGGED.index(0)] == 0.0)


def test_gru_sequence_rows_equal_rows_run_alone():
    p, xs, h0, _ = _ragged_sequence(25)
    out = ad.gru_sequence(None, xs, h0, p, np.array(RAGGED)).data
    for b, n in enumerate(RAGGED):
        alone = ad.gru_sequence(None, ad.Tensor(xs.data[b:b + 1, :n]),
                                ad.Tensor(h0.data[b:b + 1]), p).data
        assert np.allclose(out[b, :n], alone[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("lengths, error", [
    ([3, 1, 5], ShapeError), ([[3, 1, 5, 0, 5, 2]], ShapeError),
    ([3.0, 1, 5, 0, 5, 2], ShapeError), ([3, 1, 6, 0, 5, 2], ContractError),
    ([3, 1, 5, -1, 5, 2], ContractError)])
def test_gru_sequence_rejects_bad_lengths(lengths, error):
    p, xs, h0, _ = _ragged_sequence(26)
    with pytest.raises(error, match="lengths"):
        ad.gru_sequence(None, xs, h0, p, lengths)


# the GRU against gru_reference, which shares no code with autodiff

def _reference_case(lanes, seed=30, steps=6, input_dim=5, hidden_dim=7):
    """Params, (lanes, steps, in) inputs, h0, an output gradient and ragged lengths.

    Thirty lanes hold a zero-length row and a full-length one; one lane runs
    every step.
    """
    rng = np.random.default_rng(seed)
    p = ad.GRUParams.create(input_dim, hidden_dim, rng, scale=0.5)
    xs = rng.normal(size=(lanes, steps, input_dim))
    h0 = rng.normal(size=(lanes, hidden_dim))
    lengths = np.concatenate([[steps, 0], rng.integers(0, steps + 1, size=lanes)])[:lanes]
    return p, xs, h0, rng.normal(size=(lanes, steps, hidden_dim)), lengths


@pytest.mark.parametrize("lanes", [1, 30])
@pytest.mark.parametrize("taped", [False, True])
def test_gru_outputs_equal_the_reference(lanes, taped):
    p, xs, h0, _, lengths = _reference_case(lanes)
    want = gru_reference.sequence(xs, h0, p, lengths)
    tape = ad.Tape() if taped else None
    got = ad.gru_sequence(tape, ad.Tensor(xs, requires_grad=taped), ad.Tensor(h0), p, lengths)
    assert not taped or len(tape) == 1
    assert np.max(np.abs(got.data - want)) <= 1e-12
    one = np.array([gru_reference.step(x, h, p)[0] for x, h in zip(xs[:, 0], h0)])
    assert np.max(np.abs(ad.gru_step(xs[:, 0], h0, p) - one)) <= 1e-12
    cell = ad.gru_cell(tape, ad.Tensor(xs[:, 0], requires_grad=taped), ad.Tensor(h0), p)
    assert np.max(np.abs(cell.data - one)) <= 1e-12
    vector = ad.gru_cell(tape, ad.Tensor(xs[0, 0], requires_grad=taped), ad.Tensor(h0[0]), p)
    assert np.max(np.abs(vector.data - one[0])) <= 1e-12


def _assert_relative_to_largest(got, want, tol):
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("lanes", [1, 30])
def test_gru_sequence_gradients_equal_the_reference(lanes):
    p, xs, h0, g, lengths = _reference_case(lanes, seed=31)
    x_t, h_t = ad.Tensor(xs, requires_grad=True), ad.Tensor(h0, requires_grad=True)
    tape = ad.Tape()
    out = ad.gru_sequence(tape, x_t, h_t, p, lengths)
    out.grad = g.copy()
    ad.backward(tape, ad.Tensor(0.0))
    dxs, dh0, dweights = gru_reference.sequence_grads(xs, h0, p, lengths, g)
    for got, want in zip([x_t.grad, h_t.grad, *(t.grad for t in p.tensors())],
                         [dxs, dh0, *dweights]):
        _assert_relative_to_largest(got, want, 1e-10)


@pytest.mark.parametrize("shape", [(4,), (3, 4)])
def test_gru_cell_gradients_equal_the_reference(shape):
    rng = np.random.default_rng(32)
    p = ad.GRUParams.create(4, 4, rng, scale=0.5)
    x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    h = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    g = rng.normal(size=shape)
    tape = ad.Tape()
    out = ad.gru_cell(tape, x, h, p)
    out.grad = g.copy()
    ad.backward(tape, ad.Tensor(0.0))
    rows = np.atleast_2d
    dxs, dh0, dweights = gru_reference.sequence_grads(
        rows(x.data)[:, None], rows(h.data), p, [1] * len(rows(x.data)), rows(g)[:, None])
    for got, want in zip([rows(x.grad), rows(h.grad), *(t.grad for t in p.tensors())],
                         [dxs[:, 0], dh0, *dweights]):
        _assert_relative_to_largest(got, want, 1e-10)


def test_gru_saturated_preactivations_equal_the_reference():
    # every pre-activation is +40 or -40: the gates sit at 0 or 1 and stay finite
    rng = np.random.default_rng(33)
    p = ad.GRUParams.create(3, 4, rng)
    p.w_x.data[...] = 0.0
    p.w_h.data[...] = 0.0
    p.b.data[...] = np.where(np.arange(12) % 2, 40.0, -40.0)
    xs, h0, g = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 4)), rng.normal(size=(2, 3, 4))
    want = gru_reference.sequence(xs, h0, p, [3, 3])
    step = ad.gru_step(xs[:, 0], h0, p)
    assert np.all(np.isfinite(step)) and np.max(np.abs(step - want[:, 0])) <= 1e-15
    x_t, h_t = ad.Tensor(xs, requires_grad=True), ad.Tensor(h0, requires_grad=True)
    tape = ad.Tape()
    out = ad.gru_sequence(tape, x_t, h_t, p)
    assert np.all(np.isfinite(out.data)) and np.max(np.abs(out.data - want)) <= 1e-15
    out.grad = g.copy()
    ad.backward(tape, ad.Tensor(0.0))
    dxs, dh0, dweights = gru_reference.sequence_grads(xs, h0, p, [3, 3], g)
    for got, ref in zip([x_t.grad, h_t.grad, *(t.grad for t in p.tensors())],
                        [dxs, dh0, *dweights]):
        assert np.all(np.isfinite(got)) and np.max(np.abs(got - ref)) <= 1e-15


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
    # the context is differentiated; the weights are a constant, also on a tape
    rng = np.random.default_rng(5)
    kv = ad.Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
    q = ad.Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    wc = rng.normal(size=3)

    def forward():
        ctx, _ = ad.batched_attention(None, kv, kv, q)
        return float(ctx.data[0] @ wc)

    tape = ad.Tape()
    ctx, w = ad.batched_attention(tape, kv, kv, q)
    assert ctx.requires_grad and not w.requires_grad
    ctx.grad = wc[None].copy()
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

    ctx, w = ad.batched_attention(None, keys, values, q, mask)
    for t in range(5):
        ctx_t, w_t = ad.batched_attention(None, keys, values, ad.Tensor(q.data[:, t]), mask)
        assert np.allclose(ctx.data[:, t], ctx_t.data, rtol=0, atol=1e-14)
        assert np.allclose(w.data[:, t], w_t.data, rtol=0, atol=1e-14)

    def forward():
        ctx, _ = ad.batched_attention(None, keys, values, q, mask)
        return float((ctx.data * wc).sum())

    tape = ad.Tape()
    ctx, w = ad.batched_attention(tape, keys, values, q, mask)
    assert not w.requires_grad
    ctx.grad = wc.copy()
    ad.backward(tape, ad.Tensor(0.0))
    assert_grads_close(forward, [keys, values, q], [keys.grad, values.grad, q.grad])


# row b attends over block index[b]: rows share blocks, groups may be uneven, blocks may be
# read out of order or by no row, and [1, 0] gives each row its own block but not block b
INDEXES = {"even": [0, 0, 1, 1, 2, 2], "uneven": [0, 1, 0, 0, 2, 1, 0], "permuted": [1, 0, 1],
           "swapped": [1, 0], "unused-block": [2, 0, 2]}


def _indexed_inputs(index, steps, seed=21):
    """Keys (U, 4, 3) and values (U, 4, 2) for index's blocks, queries and an output weighting."""
    rng = np.random.default_rng(seed)
    blocks = max(index) + 1
    keys = ad.Tensor(rng.normal(size=(blocks, 4, 3)), requires_grad=True)
    values = ad.Tensor(rng.normal(size=(blocks, 4, 2)), requires_grad=True)
    q = ad.Tensor(rng.normal(size=(len(index), *steps, 3)), requires_grad=True)
    return keys, values, q, rng.normal(size=(len(index), *steps, 2))


def _attention_and_grads(attend, wc, *tensors):
    """Context, weights and the gradients of (context * wc).sum() for ``tensors``."""
    tape = ad.Tape()
    ctx, w = attend(tape)
    ctx.grad = wc.copy()
    ad.backward(tape, ad.Tensor(0.0))
    grads = [t.grad for t in tensors]
    ad.zero_grads(tensors)
    return ctx.data, w.data, grads


@pytest.mark.parametrize("steps", [(), (3,)])
@pytest.mark.parametrize("case", sorted(INDEXES))
def test_indexed_attention_equals_attention_over_gathered_blocks(case, steps):
    index = np.array(INDEXES[case])
    keys, values, q, wc = _indexed_inputs(index, steps)
    got = _attention_and_grads(
        lambda tape: ad.batched_attention(tape, keys, values, q, index=index), wc, keys, values, q)
    want = _attention_and_grads(
        lambda tape: ad.batched_attention(tape, ad.embedding(tape, keys, index),
                                          ad.embedding(tape, values, index), q),
        wc, keys, values, q)
    assert got[0].shape == want[0].shape and got[1].shape == want[1].shape
    for g, w in zip([*got[:2], *got[2]], [*want[:2], *want[2]]):
        assert np.allclose(g, w, rtol=0, atol=1e-12)
    if case == "unused-block":
        assert not got[2][0][1].any() and not got[2][1][1].any()


@pytest.mark.parametrize("case", sorted(INDEXES))
def test_indexed_attention_gradcheck(case):
    index = np.array(INDEXES[case])
    keys, values, q, wc = _indexed_inputs(index, (2,), seed=22)

    def forward():
        ctx, _ = ad.batched_attention(None, keys, values, q, index=index)
        return float((ctx.data * wc).sum())

    _, _, grads = _attention_and_grads(
        lambda tape: ad.batched_attention(tape, keys, values, q, index=index), wc, keys, values, q)
    assert_grads_close(forward, [keys, values, q], grads)


def test_swapped_index_attends_to_the_named_blocks():
    # [1, 0]: as many rows as blocks, yet row 0 reads block 1, not block 0
    keys, values, q, _ = _indexed_inputs([1, 0], ())
    ctx, w = ad.batched_attention(None, keys, values, q, index=np.array([1, 0]))
    for row, block in enumerate([1, 0]):
        alone, w_alone = ad.batched_attention(None, ad.Tensor(keys.data[block:block + 1]),
                                              ad.Tensor(values.data[block:block + 1]),
                                              ad.Tensor(q.data[row:row + 1]))
        assert np.array_equal(ctx.data[row], alone.data[0])
        assert np.array_equal(w.data[row], w_alone.data[0])
    plain, _ = ad.batched_attention(None, keys, values, q)
    assert not np.allclose(ctx.data, plain.data)


def test_indexed_attention_contracts():
    keys, values, q, _ = _indexed_inputs([0, 1], ())
    with pytest.raises(ContractError, match="index takes no mask"):
        ad.batched_attention(None, keys, values, q, np.ones((2, 4), dtype=bool),
                             index=np.array([0, 1]))
    with pytest.raises(ShapeError, match="index"):
        ad.batched_attention(None, keys, values, q, index=np.array([0, 1, 1]))
    with pytest.raises(ShapeError, match="index"):
        ad.batched_attention(None, keys, values, q, index=np.array([0.0, 1.0]))
    with pytest.raises(IndexError, match="index out of range"):
        ad.batched_attention(None, keys, values, q, index=np.array([0, 2]))


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


def test_backward_replays_in_reverse_and_skips_ops_without_output_gradients():
    x, z, loss = (ad.Tensor(0.0) for _ in range(3))
    calls = []
    tape = ad.Tape()
    tape.record(x, lambda gx: calls.append(("x", gx)))
    tape.record(z, lambda gz: calls.append(("z", gz)))  # z never reaches the loss

    def loss_bwd(g):
        calls.append(("loss", float(g)))
        x.grad = np.float64(5.0)
    tape.record(loss, loss_bwd)
    ad.backward(tape, loss)
    assert calls == [("loss", 1.0), ("x", 5.0)]


def _every_op(tape, requires_grad):
    """Call each of the 15 ops once on inputs that do or do not require a gradient."""
    rng = np.random.default_rng(17)

    def t(*shape):
        return ad.Tensor(rng.normal(size=shape), requires_grad=requires_grad)

    p = _params(rng)
    for tensor in p.tensors():
        tensor.requires_grad = requires_grad
    m, s = t(2, 3), t()
    rows = np.ones(2)
    return [ad.add(tape, m, t(2, 3)), ad.matmul(tape, m, t(3, 4)), ad.add_bias(tape, m, t(3)),
            ad.concat(tape, [m, t(2, 1)]), ad.embedding(tape, t(5, 3), [0, 4]),
            ad.gru_cell(tape, m, t(2, 4), p), ad.gru_sequence(tape, t(2, 5, 3), t(2, 4), p),
            ad.batched_attention(tape, t(2, 4, 3), t(2, 4, 5), m)[0],
            ad.softmax_cross_entropy_rows(tape, m, [0, 2], rows),
            ad.log_softmax_rows(tape, m), ad.pick_rows(tape, m, [1, 2]),
            ad.rows_entropy(tape, m), ad.weighted_sum(tape, m, np.ones((2, 3))),
            ad.sum_scalars(tape, [s, t()]), ad.masked_sq_error(tape, m, np.zeros((2, 3)),
                                                               rows[:, None], 2.0)]


def test_ops_record_only_on_a_tape_with_inputs_that_need_gradients():
    tape = ad.Tape()
    for outs in (_every_op(None, True), _every_op(tape, False)):
        assert len(tape) == 0
        assert not any(out.requires_grad for out in outs)
    outs = _every_op(tape, True)
    assert len(tape) == 15
    assert all(out.requires_grad for out in outs)


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
        logits = ad.matmul(tape, ad.concat(tape, [m, a]), w)
        return ad.softmax_cross_entropy_rows(tape, logits, targets, mask)

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [a, b, bias, w],
                       [a.grad, b.grad, bias.grad, w.grad])
    # the masked position reaches neither input through the loss path
    assert np.all(b.grad[0, 2] == 0.0)


@pytest.mark.parametrize("ids_shape, table_shape", [((30,), (6, 4, 5)), ((8, 9), (5, 3)),
                                                   ((0,), (3, 2))])
@pytest.mark.parametrize("start", ["none", "accumulated"])
def test_embedding_backward_equals_add_at_bit_for_bit(ids_shape, table_shape, start):
    # repeated ids in a shuffled order: each row's terms must be added in index order
    rng = np.random.default_rng(5)
    table = ad.Tensor(rng.normal(size=table_shape), requires_grad=True)
    ids = rng.integers(0, table_shape[0], size=ids_shape)
    assert ids.size == 0 or len(np.unique(ids)) < ids.size
    g = rng.normal(size=ids_shape + table_shape[1:]) * 10.0 ** rng.integers(-8, 8, ids_shape)[
        (...,) + (None,) * (len(table_shape) - 1)]
    want = np.zeros(table_shape) if start == "none" else rng.normal(size=table_shape)
    table.grad = None if start == "none" else want.copy()
    np.add.at(want, ids, g)
    tape = ad.Tape()
    out = ad.embedding(tape, table, ids)
    ad.backward(tape, ad.weighted_sum(tape, out, g))
    assert table.grad.tobytes() == want.tobytes()


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


def test_row_ops_act_on_the_last_axis_of_blocks():
    rng = np.random.default_rng(17)
    x = ad.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    idx = np.array([[0, 3, 1], [2, 2, 0]])
    wp = rng.normal(size=(2, 3))
    we = rng.normal(size=(2, 3))

    ls = ad.log_softmax_rows(None, x)
    rows = ad.log_softmax_rows(None, ad.Tensor(x.data.reshape(6, 4)))
    assert np.allclose(ls.data.reshape(6, 4), rows.data, rtol=0, atol=1e-15)
    assert np.array_equal(ad.pick_rows(None, ls, idx).data.reshape(6),
                          ad.pick_rows(None, rows, idx.reshape(6)).data)
    assert np.array_equal(ad.rows_entropy(None, ls).data.reshape(6),
                          ad.rows_entropy(None, rows).data)

    def run(tape):
        ls = ad.log_softmax_rows(tape, x)
        return ad.sum_scalars(tape, [
            ad.weighted_sum(tape, ad.pick_rows(tape, ls, idx), wp),
            ad.weighted_sum(tape, ad.rows_entropy(tape, ls), we)])

    tape = ad.Tape()
    ad.backward(tape, run(tape))
    assert_grads_close(lambda: float(run(None).data), [x], [x.grad])
    with pytest.raises(ShapeError):
        ad.pick_rows(None, x, idx[0])


@pytest.mark.parametrize("shape", [(3, 3), (2, 5), (2, 3, 4)])
def test_weighted_sum_of_blocks_is_a_scalar(shape):
    rng = np.random.default_rng(18)
    v = ad.Tensor(rng.normal(size=shape), requires_grad=True)
    w = rng.normal(size=shape)
    tape = ad.Tape()
    out = ad.weighted_sum(tape, v, w)
    assert out.data.shape == ()
    assert abs(float(out.data) - float((v.data * w).sum())) <= 1e-12
    ad.backward(tape, out)
    assert_grads_close(lambda: float(ad.weighted_sum(None, v, w).data), [v], [v.grad])


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
    cat = ad.concat(tape, [a, b])
    cols = [ad.weighted_sum(tape, ad.pick_rows(tape, cat, [j] * 2), wc[:, j])
            for j in range(5)]
    loss = ad.sum_scalars(tape, cols)
    ad.backward(tape, loss)

    def fwd():
        cat = np.concatenate([a.data, b.data], axis=1)
        return float((cat * wc).sum())

    assert_grads_close(fwd, [a, b], [a.grad, b.grad])


def test_linear_rows3_gradcheck():
    # a constant (B, R, D) feature block projected by a (D, K) matrix through matmul
    rng = np.random.default_rng(16)
    w = ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    feats = rng.normal(size=(2, 4, 3))
    score = rng.normal(size=(2, 4, 2))

    def forward():
        return float((np.einsum("brd,dk->brk", feats, w.data) * score).sum())

    tape = ad.Tape()
    proj = ad.matmul(tape, ad.Tensor(feats), w)
    proj.grad = score.copy()
    for output, bwd in reversed(tape._records):
        bwd(output.grad)
    assert max_rel_err(w.grad, finite_diff_grads(forward, [w])[0]) <= 1e-4


def _scaled_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _per_sample_linear_rows3(feats, w, g):
    """Forward and weight gradient of a (B, R, D) block times w, one feats[b] @ w at a time."""
    out = np.stack([feats[b] @ w for b in range(feats.shape[0])])
    grad = sum(feats[b].T @ g[b] for b in range(feats.shape[0]))
    return out, grad


@pytest.mark.parametrize("k", [64, 96])
@pytest.mark.parametrize("layout", ["contiguous", "sliced", "transposed"])
def test_linear_rows3_matches_per_sample_products(k, layout):
    rng = np.random.default_rng(k)
    feats = {"contiguous": lambda: rng.normal(size=(30, 72, 100)),
             "sliced": lambda: rng.normal(size=(30, 144, 100))[:, ::2],
             "transposed": lambda: rng.normal(size=(100, 72, 30)).transpose(2, 1, 0)}[layout]()
    assert feats.shape == (30, 72, 100)
    assert feats.flags["C_CONTIGUOUS"] == (layout == "contiguous")
    w = ad.Tensor(rng.normal(size=(100, k)), requires_grad=True)
    g = rng.normal(size=(30, 72, k))
    want_out, want_grad = _per_sample_linear_rows3(feats, w.data, g)

    tape = ad.Tape()
    proj = ad.matmul(tape, ad.Tensor(feats), w)
    proj.grad = g.copy()
    for output, bwd in reversed(tape._records):
        bwd(output.grad)
    assert proj.shape == (30, 72, k)
    assert _scaled_err(proj.data, want_out) <= 1e-12
    assert _scaled_err(w.grad, want_grad) <= 1e-12


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
