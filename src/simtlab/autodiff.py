"""Reverse-mode automatic differentiation on a recorded tape.

The engine is deliberately small: dense float64 tensors, explicit tapes,
and a fixed set of fused operations sufficient for GRU sequence models
with dot-product attention. Every op takes the tape as its first argument;
passing ``tape=None`` runs the same numerics without recording, which is
how frozen models are evaluated during reinforcement learning.

Each op is its shape checks, its forward, and a ``bwd(g)`` that holds only
the gradient arithmetic: given the gradient of the op's one output, it
accumulates into the inputs. ``_op``, the only recorder, wraps the
forward's result and records it with ``bwd`` when a tape is given and some
input requires a gradient; ``backward`` replays the records in reverse and
skips an op whose output got no gradient, since nothing that reached the
loss read it. ``batched_attention`` also returns its weights, as a
constant: no model differentiates through them.

``backward`` consumes its tape: it drops each record, its ``bwd`` and the
arrays that closure saved as well as its output, right after replaying
it, so the forward's memory is freed while the gradients are built. The
tape still counts its records; a second ``backward`` on it raises
``ContractError``.

There is no implicit gradient zeroing: callers own the accumulate/zero
cycle (see ``zero_grads``).
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of ops; ``backward`` replays it in reverse.

    A record is an op's output tensor and its ``bwd``, which takes that
    output's gradient; ``_op`` makes every record. Replay skips a record
    whose output got no gradient.

    A tape is single-threaded. Parallel workers each own their own tape.
    ``len`` counts the records made, also after ``backward`` consumed them.
    """

    def __init__(self):
        self._records = []
        self._consumed = False

    def record(self, output, bwd):
        self._records.append((output, bwd))

    def __len__(self):
        return len(self._records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss.

    Consumes ``tape``: each record is dropped once replayed, and a second
    call on the same tape raises ``ContractError``.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if tape._consumed:
        raise ContractError("backward: this tape was consumed by an earlier backward")
    if loss.grad is None:
        loss.grad = np.zeros(())
    loss.grad = loss.grad + 1.0
    tape._consumed = True
    records = tape._records
    for i in range(len(records) - 1, -1, -1):
        output, bwd = records[i]
        records[i] = None
        if output.grad is not None:
            bwd(output.grad)


def _accum(t: Tensor, g) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, since ops may pass one gradient array to several inputs
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _op(tape, data, inputs, bwd) -> Tensor:
    """The output tensor of an op; records ``bwd`` when some input requires a gradient."""
    out = Tensor(data)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(out, bwd)
    return out


def zero_grads(tensors) -> None:
    """Drop accumulated gradients; the next backward starts from zero."""
    for t in tensors:
        t.grad = None


def validate_finite(named_tensors) -> None:
    """Raise NumericError on the first NaN/Inf in data or grad."""
    for name, t in named_tensors:
        if not np.all(np.isfinite(t.data)):
            raise NumericError(f"non-finite values in data of '{name}'")
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            raise NumericError(f"non-finite values in grad of '{name}'")


def uniform_tensor(shape, rng, scale: float = 0.08) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def softmax(x):
    """Plain numpy softmax over the last axis (no tape involvement)."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Elementwise and linear-algebra primitives
# ---------------------------------------------------------------------------

def add(tape, a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        _accum(a, g)
        _accum(b, g)
    return _op(tape, a.data + b.data, (a, b), bwd)


def matmul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Product of a (k,), (m, k) or (B, T, k) operand with a (k, n) matrix.

    Leading axes are flattened into the rows of one matrix product.
    """
    ad, bd = a.data, b.data
    if bd.ndim != 2 or not 1 <= ad.ndim <= 3 or ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} @ {bd.shape}")
    a2 = ad.reshape(-1, bd.shape[0])

    def bwd(g):
        g2 = g.reshape(-1, bd.shape[1])
        if a.requires_grad:
            _accum(a, (g2 @ bd.T).reshape(ad.shape))
        if b.requires_grad:
            _accum(b, a2.T @ g2)
    return _op(tape, (a2 @ bd).reshape(ad.shape[:-1] + bd.shape[1:]), (a, b), bwd)


def add_bias(tape, m: Tensor, bias: Tensor) -> Tensor:
    """Add a vector bias along the last axis of a vector, matrix or (B, T, n) block."""
    if bias.data.shape != m.data.shape[-1:]:
        raise ShapeError(f"add_bias: {m.data.shape} + {bias.data.shape}")

    def bwd(g):
        _accum(m, g)
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
    return _op(tape, m.data + bias.data, (m, bias), bwd)


def concat(tape, parts) -> Tensor:
    """Concatenate tensors along the last axis; backward splits the gradient."""
    datas = [p.data for p in parts]

    def bwd(g):
        offsets = np.cumsum([0] + [d.shape[-1] for d in datas])
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[..., lo:hi])
    return _op(tape, np.concatenate(datas, axis=-1), parts, bwd)


def embedding(tape, table: Tensor, ids) -> Tensor:
    """Gather table rows; backward scatter-adds into the table with one ``np.add.at``.

    A table with no gradient yet gets a zero one first.
    """
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"embedding ids out of range [0, {table.data.shape[0]})")

    def bwd(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx.reshape(-1), g.reshape((idx.size,) + table.data.shape[1:]))
    return _op(tape, table.data[idx], (table,), bwd)


# ---------------------------------------------------------------------------
# GRU (fused gates)
# ---------------------------------------------------------------------------

class GRUParams:
    """Fused gate weights and biases for one GRU cell.

    A step from state h and input x, in the order it is evaluated, with the
    bias folded into the input projection a = x w_x + b:
    [r z] = sigmoid(a[:2h] + h w_h[:, :2h]), n = tanh(a[2h:] + (r * h) w_h[:, 2h:]),
    h' = h + z * (n - h). Reset gate r and update gate z: z near 0 keeps the
    old state. ``w_x`` (in, 3h), ``w_h`` (h, 3h) and ``b`` (3h,) hold the r,
    z and n gates side by side, in that order.
    """

    FIELDS = ("w_x", "w_h", "b")

    def __init__(self, w_x, w_h, b):
        self.w_x, self.w_h, self.b = w_x, w_h, b

    @classmethod
    def create(cls, input_dim: int, hidden_dim: int, rng, scale: float = 0.08) -> "GRUParams":
        # Draw the blocks one gate at a time, (x, h, bias) for r, then z, then
        # n, and concatenate them: a seed gives the weights of per-gate draws.
        blocks = [rng.uniform(-scale, scale, size=shape)
                  for _ in range(3)
                  for shape in ((input_dim, hidden_dim), (hidden_dim, hidden_dim), (hidden_dim,))]
        return cls(Tensor(np.concatenate(blocks[0::3], axis=1), requires_grad=True),
                   Tensor(np.concatenate(blocks[1::3], axis=1), requires_grad=True),
                   Tensor(np.concatenate(blocks[2::3]), requires_grad=True))

    @property
    def input_dim(self) -> int:
        return self.w_x.data.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_h.data.shape[0]

    def named_tensors(self, prefix: str = ""):
        return [(prefix + name, getattr(self, name)) for name in self.FIELDS]

    def tensors(self):
        return [getattr(self, name) for name in self.FIELDS]


def _input_projection(x, p: GRUParams):
    """-(x w_x + b) for gates r and z (exact, and saves sigmoid a pass), x w_x + b for n."""
    k, w, b = p.hidden_dim, p.w_x.data, p.b.data
    neg_rz, a_n = x @ w[:, :2 * k], x @ w[:, 2 * k:]
    np.subtract(-b[:2 * k], neg_rz, out=neg_rz)
    a_n += b[2 * k:]
    return neg_rz, a_n


def _gru_step(neg_rz, a_n, h, w_h, out):
    """One GRU step in place in its ``_input_projection`` buffers, in evaluation order.

    The bias is folded into the input projection:
    [r z] = 1 / (1 + exp(neg_rz - h w_h[:, :2h])), n = tanh(a_n + (r * h) w_h[:, 2h:]),
    h' = h + z * (n - h). The gates replace their buffers; h' goes to
    ``out``, which must not overlap ``h``. Returns ``out``.
    """
    k = h.shape[-1]
    neg_rz -= h @ w_h[:, :2 * k]
    np.minimum(neg_rz, 60.0, out=neg_rz)  # keeps exp from overflowing
    np.exp(neg_rz, out=neg_rz)
    neg_rz += 1.0
    rz = np.divide(1.0, neg_rz, out=neg_rz)
    np.multiply(rz[..., :k], h, out=out)
    a_n += out @ w_h[:, 2 * k:]
    np.tanh(a_n, out=a_n)
    np.subtract(a_n, h, out=out)
    out *= rz[..., k:]
    out += h
    return out


def _gru_backward(p: GRUParams, x2, g, hp, rz, n, blocks):
    """Accumulate the weight gradients of packed steps; return da (N, 3h) and dh of block 0.

    Row i of the inputs ``x2``, the output gradient ``g`` (consumed), the
    previous state ``hp`` and the gates ``rz`` and ``n`` is one position;
    ``blocks`` slice the steps in time order. The factors that do not depend
    on the incoming gradient are made once, gate-major, so each step is one
    multiply for the z and n pre-activations, one for r, the dh update and
    GEMMs, all on contiguous rows.
    """
    k, w_h = hp.shape[1], p.w_h.data
    r, z = rz[:, :k], rz[:, k:]
    one_minus_z = 1.0 - z
    f_zn = np.empty((2, len(hp), k))  # d pre_z and d pre_n per unit dh'
    np.multiply(np.subtract(n, hp, out=f_zn[0]), z * one_minus_z, out=f_zn[0])
    np.multiply(z, 1.0 - n * n, out=f_zn[1])
    rh = r * hp
    f_r = rh * (1.0 - r)  # d pre_r per unit d(r h)
    r = np.ascontiguousarray(r)
    w_r_t, w_z_t, w_n_t = (np.ascontiguousarray(w_h[:, i * k:(i + 1) * k].T) for i in range(3))
    da = np.empty((3, len(hp), k))
    dh = np.zeros((0, k))
    for blk in reversed(blocks):
        go = g[blk]
        go[:len(dh)] += dh
        np.multiply(go, f_zn[:, blk], out=da[1:, blk])
        drh = da[2, blk] @ w_n_t
        np.multiply(drh, f_r[blk], out=da[0, blk])
        dh = da[0, blk] @ w_r_t
        dh += da[1, blk] @ w_z_t
        drh *= r[blk]
        dh += drh
        go *= one_minus_z[blk]
        dh += go
    da = np.concatenate(da, axis=1)
    _accum(p.w_h, np.concatenate([hp.T @ da[:, :2 * k], rh.T @ da[:, 2 * k:]], axis=1))
    _accum(p.w_x, x2.T @ da)
    _accum(p.b, da.sum(axis=0))
    return da, dh


def gru_step(x, h, params: GRUParams) -> np.ndarray:
    """One GRU step on plain (B, in) and (B, h) arrays, without a tape.

    The arithmetic of ``gru_cell`` without its tensor bookkeeping; the
    frozen environment's per-step path.
    """
    return _gru_step(*_input_projection(x, params), h, params.w_h.data, np.empty_like(h))


def _check_gru_dims(name, xd, hd, params: GRUParams) -> None:
    if xd.shape[-1] != params.input_dim or hd.shape[-1] != params.hidden_dim:
        raise ShapeError(
            f"{name}: expected input {params.input_dim} / hidden {params.hidden_dim}, "
            f"got {xd.shape[-1]} / {hd.shape[-1]}")


def gru_cell(tape, x: Tensor, h_prev: Tensor, params: GRUParams) -> Tensor:
    """One GRU step for a single vector or a (B, dim) batch."""
    xd, hd = x.data, h_prev.data
    if xd.ndim != hd.ndim or xd.ndim not in (1, 2) or xd.shape[:-1] != hd.shape[:-1]:
        raise ShapeError(f"gru_cell: x {xd.shape} vs h {hd.shape}")
    _check_gru_dims("gru_cell", xd, hd, params)

    p = params
    rz, n = _input_projection(xd, p)
    new = _gru_step(rz, n, hd, p.w_h.data, np.empty_like(hd))

    def bwd(g):
        da, dh = _gru_backward(p, np.atleast_2d(xd), np.array(g, ndmin=2), np.atleast_2d(hd),
                               np.atleast_2d(rz), np.atleast_2d(n), [slice(None)])
        if x.requires_grad:
            _accum(x, (da @ p.w_x.data.T).reshape(xd.shape))
        if h_prev.requires_grad:
            _accum(h_prev, dh.reshape(hd.shape))
    return _op(tape, new, (x, h_prev, *p.tensors()), bwd)


def _packing(lengths, bsz: int, steps: int):
    """Time-major packing of the live positions of a (B, T) block.

    Rows are sorted by length, longest first (stable), so the rows live at
    step t are a prefix of that order. Returns the sorted row order, the
    live-row count of each step that has one, and the flat index
    row * steps + step of each packed position: step 0's rows first, then
    step 1's, and so on.
    """
    if lengths is None:
        lengths = np.full(bsz, steps)
    lengths = np.asarray(lengths)
    if lengths.shape != (bsz,) or lengths.dtype.kind not in "iu":
        raise ShapeError(f"gru_sequence: lengths {lengths.shape} {lengths.dtype} "
                         f"for {bsz} rows")
    if bsz and (lengths.min() < 0 or lengths.max() > steps):
        raise ContractError(f"gru_sequence: lengths must lie in [0, {steps}]")
    order = np.argsort(-lengths.astype(np.int64), kind="stable")
    live = lengths[order][None, :] > np.arange(steps)[:, None]  # (T, B), prefix per step
    ts, js = np.nonzero(live)
    counts = live.sum(axis=1)
    return order, counts[counts > 0], order[js] * steps + ts


def gru_sequence(tape, xs: Tensor, h0: Tensor, params: GRUParams, lengths=None) -> Tensor:
    """Run a GRU over (B, T, in) inputs from (B, h) initial states.

    Row b runs its first ``lengths[b]`` steps only (all T when ``lengths``
    is None); the returned (B, T, h) states are zero past each length. The
    live positions are packed time-major, so step t is one contiguous
    block: the input projection, and in backward the weight and input
    gradients, are one GEMM each over the live rows, and only the
    h-dependent products stay inside the time loop. Each step computes its
    gates in place in its rows of the packed input projection, which
    backward reads when the op is recorded; nothing else is kept for it.
    """
    xd, hd = xs.data, h0.data
    if xd.ndim != 3 or hd.ndim != 2 or xd.shape[0] != hd.shape[0]:
        raise ShapeError(f"gru_sequence: xs {xd.shape} vs h0 {hd.shape}")
    _check_gru_dims("gru_sequence", xd, hd, params)

    p = params
    bsz, steps, k = xd.shape[0], xd.shape[1], p.hidden_dim
    order, counts, at = _packing(lengths, bsz, steps)
    blocks = [slice(end - c, end) for c, end in zip(counts, np.cumsum(counts))]
    x2 = xd.reshape(-1, xd.shape[2])
    rz, n = _input_projection(x2.take(at, axis=0), p)
    hs_p = np.empty((len(at), k))
    h = hd[order]
    for c, blk in zip(counts, blocks):
        h = _gru_step(rz[blk], n[blk], h[:c], p.w_h.data, hs_p[blk])
    hs = np.zeros((bsz, steps, k))
    hs.reshape(-1, k)[at] = hs_p

    def bwd(g):
        # the state each step started from: h0 at step 0, else the output one step back
        hp = np.where((at % steps == 0)[:, None], hd[at // steps], hs.reshape(-1, k)[at - 1])
        da, dh = _gru_backward(p, x2.take(at, axis=0), g.reshape(-1, k).take(at, axis=0), hp,
                               rz, n, blocks)
        if xs.requires_grad:
            dx = np.zeros(xd.shape)
            dx.reshape(x2.shape)[at] = da @ p.w_x.data.T
            _accum(xs, dx)
        if h0.requires_grad:
            dh0 = np.zeros(hd.shape)
            dh0[order[:len(dh)]] = dh
            _accum(h0, dh0)
    return _op(tape, hs, (xs, h0, *p.tensors()), bwd)


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def _query_groups(index, blocks: int, rows: int):
    """Each row's (block, slot) in a stacking of the rows by their block, and the widest group.

    Row b goes to slot s of block ``index[b]``, the rows of a block taking
    slots 0, 1, ... in row order.
    """
    index = np.asarray(index)
    if index.shape != (rows,) or index.dtype.kind not in "iu":
        raise ShapeError(f"batched_attention: index {index.shape} {index.dtype} for {rows} rows")
    if rows and (index.min() < 0 or index.max() >= blocks):
        raise IndexError(f"batched_attention: index out of range [0, {blocks})")
    counts = np.bincount(index, minlength=blocks)
    slot = np.empty(rows, dtype=np.int64)
    slot[np.argsort(index, kind="stable")] = np.arange(rows) - np.repeat(
        np.cumsum(counts) - counts, counts)
    return (index, slot), int(counts.max(initial=0))


def batched_attention(tape, keys: Tensor, values: Tensor, query: Tensor, mask=None, index=None):
    """Attention of (B, dk) or (B, T, dk) queries over key and value blocks.

    Without ``index`` row b attends over block b of the (B, S, dk) keys and
    (B, S, dv) values, and ``mask``, a (B, S) boolean array, may mark each
    row's valid keys. With a (B,) ``index``, row b attends over block
    ``index[b]`` of U shared blocks (U, S, ·). The query rows of each block
    are stacked into one (U, c T, dk) product, c its largest group, and the
    rows of smaller groups are zero queries, whose gradient is zero: key and
    value gradients land in the U blocks, with no gather and no scatter-add.
    ``index`` takes no ``mask``. Returns context (B, dv) and weights (B, S),
    or (B, T, dv) and (B, T, S) for (B, T, dk) queries. Only the context is
    recorded; the weights are a constant tensor.
    """
    kd, vd, qd = keys.data, values.data, query.data
    if kd.ndim != 3 or vd.ndim != 3 or qd.ndim not in (2, 3):
        raise ShapeError("batched_attention expects (B,S,dk), (B,S,dv), (B,[T,]dk)")
    if kd.shape[1] == 0:
        raise ContractError("attention requires at least one key row")
    if kd.shape[1] != vd.shape[1]:
        raise ShapeError(f"attention: {kd.shape[1]} keys vs {vd.shape[1]} values")
    single = qd.ndim == 2
    q3 = qd[:, None, :] if single else qd
    if index is not None:
        if mask is not None:
            raise ContractError("batched_attention: an index takes no mask")
        at, widest = _query_groups(index, len(kd), len(qd))

    def grouped(x):
        """(B, T, ·) rows stacked per block to (U, c T, ·), zero where a group is short."""
        if index is None:
            return x
        out = np.zeros((len(kd), widest) + x.shape[1:])
        out[at] = x
        return out.reshape(len(kd), widest * x.shape[1], x.shape[2])

    def per_row(x):
        """The (B, T, ·) rows of a (U, c T, ·) block ``grouped`` stacked."""
        return x if index is None else x.reshape(len(kd), widest, q3.shape[1], x.shape[2])[at]

    qg = grouped(q3)
    scores = qg @ kd.transpose(0, 2, 1)
    if mask is not None:
        if not mask.any(axis=1).all():
            raise ContractError("batched_attention: a batch row has no valid keys")
        scores = np.where(mask[:, None, :], scores, -np.inf)
    w = softmax(scores)
    ctx, w_rows = per_row(w @ vd), per_row(w)

    def bwd(gc):
        gc3 = grouped(gc[:, None, :] if single else gc)
        dw = gc3 @ vd.transpose(0, 2, 1)
        if values.requires_grad:
            _accum(values, w.transpose(0, 2, 1) @ gc3)
        ds = w * (dw - (w * dw).sum(axis=2, keepdims=True))
        if query.requires_grad:
            _accum(query, per_row(ds @ kd).reshape(qd.shape))
        if keys.requires_grad:
            _accum(keys, ds.transpose(0, 2, 1) @ qg)
    return (_op(tape, ctx[:, 0] if single else ctx, (keys, values, query), bwd),
            Tensor(w_rows[:, 0] if single else w_rows))


# ---------------------------------------------------------------------------
# Losses and policy-head pieces
# ---------------------------------------------------------------------------

def softmax_cross_entropy_rows(tape, logits: Tensor, targets, mask, denom=None) -> Tensor:
    """Masked cross-entropy over (B, K) or (B, T, K) rows, divided by ``denom``.

    targets and mask have the logits' leading shape. With the default denom
    the result is the mean over unmasked rows; a fixed denom gives, say, a
    per-token mean across a whole batch.
    """
    ld = logits.data
    idx = np.asarray(targets, dtype=np.int64)
    m = np.asarray(mask, dtype=np.float64)
    if ld.ndim not in (2, 3) or idx.shape != ld.shape[:-1] or m.shape != ld.shape[:-1]:
        raise ShapeError("softmax_cross_entropy_rows: inconsistent shapes")
    if idx.size and (idx.min() < 0 or idx.max() >= ld.shape[-1]):
        raise IndexError("softmax_cross_entropy_rows: target out of range")
    count = m.sum() if denom is None else float(denom)
    if count == 0:
        raise ContractError("softmax_cross_entropy_rows: empty mask")
    l2, idx, m = ld.reshape(-1, ld.shape[-1]), idx.reshape(-1), m.reshape(-1)
    shifted = l2 - l2.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(l2.shape[0])
    losses = logz - shifted[rows, idx]

    def bwd(g):
        d = np.exp(shifted - logz[:, None]) * m[:, None]
        d[rows, idx] -= m
        _accum(logits, ((g / count) * d).reshape(ld.shape))
    return _op(tape, np.float64((losses * m).sum() / count), (logits,), bwd)


def log_softmax_rows(tape, x: Tensor) -> Tensor:
    """Log-softmax over the last axis of a (B, K) or (B, T, K) array."""
    xd = x.data
    shifted = xd - xd.max(axis=-1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def bwd(g):
        _accum(x, g - np.exp(ls) * g.sum(axis=-1, keepdims=True))
    return _op(tape, ls, (x,), bwd)


def pick_rows(tape, x: Tensor, indices) -> Tensor:
    """Entry ``indices[...]`` of each last-axis row: (B, K) -> (B,), (B, T, K) -> (B, T)."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != x.data.shape[:-1]:
        raise ShapeError(f"pick_rows: indices {idx.shape} for rows of {x.data.shape}")
    idx = idx[..., None]

    def bwd(g):
        d = np.zeros_like(x.data)
        np.put_along_axis(d, idx, g[..., None], axis=-1)
        _accum(x, d)
    return _op(tape, np.take_along_axis(x.data, idx, axis=-1)[..., 0], (x,), bwd)


def rows_entropy(tape, log_probs: Tensor) -> Tensor:
    """Shannon entropy of each last-axis row of log-probabilities."""
    ls = log_probs.data
    p = np.exp(ls)

    def bwd(g):
        _accum(log_probs, -g[..., None] * p * (ls + 1.0))
    return _op(tape, -(p * ls).sum(axis=-1), (log_probs,), bwd)


def weighted_sum(tape, v: Tensor, weights) -> Tensor:
    """Sum of all entries of v times same-shaped constant weights, as a scalar tensor."""
    w = np.asarray(weights, dtype=np.float64)
    if v.data.shape != w.shape:
        raise ShapeError(f"weighted_sum: {v.data.shape} vs {w.shape}")

    def bwd(g):
        _accum(v, g * w)
    return _op(tape, np.float64(np.vdot(v.data, w)), (v,), bwd)


def sum_scalars(tape, scalars) -> Tensor:
    def bwd(g):
        for s in scalars:
            _accum(s, g)
    return _op(tape, np.float64(sum(float(s.data) for s in scalars)), scalars, bwd)


def masked_sq_error(tape, v: Tensor, targets, mask, denom: float) -> Tensor:
    """Sum of masked squared errors divided by a fixed denominator."""
    t = np.asarray(targets, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    diff = (v.data - t) * m

    def bwd(g):
        _accum(v, g * 2.0 * diff / denom)
    return _op(tape, np.float64((diff * diff).sum() / denom), (v,), bwd)
