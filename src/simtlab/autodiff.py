"""Reverse-mode automatic differentiation on a recorded tape.

The engine is deliberately small: dense float64 tensors, explicit tapes,
and a fixed set of fused operations sufficient for GRU sequence models
with dot-product attention. Every op takes the tape as its first argument;
passing ``tape=None`` runs the same numerics without recording, which is
how frozen models are evaluated during reinforcement learning.

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
    """Ordered record of operations; backward replays it in reverse.

    A tape is single-threaded. Parallel workers each own their own tape.
    """

    def __init__(self):
        self._records = []

    def record(self, backward_fn):
        self._records.append(backward_fn)

    def __len__(self):
        return len(self._records)


def backward(tape: Tape, loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss."""
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.grad is None:
        loss.grad = np.zeros(())
    loss.grad = loss.grad + 1.0
    if tape is None:
        return
    for fn in reversed(tape._records):
        fn()


def _accum(t: Tensor, g) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, since ops may pass one gradient array to several inputs
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _track(tape, *tensors) -> bool:
    return tape is not None and any(t.requires_grad for t in tensors)


def _out(tape, data, tracked: bool) -> Tensor:
    t = Tensor(data)
    t.requires_grad = tracked
    return t


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


def uniform_tensor(shape, rng, scale: float = 0.08, requires_grad: bool = True) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=requires_grad)


def _sigmoid(x):
    """1 / (1 + exp(-x)), computed in one buffer."""
    # sigmoid saturates to 0/1 in float64 beyond |x| ~ 37, so clipping is exact;
    # maximum then minimum is np.clip without its Python wrappers
    t = np.maximum(x, -60.0)
    np.minimum(t, 60.0, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


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
    tracked = _track(tape, a, b)
    out = _out(tape, a.data + b.data, tracked)
    if tracked:
        def bwd():
            if out.grad is None:
                return
            _accum(a, out.grad)
            _accum(b, out.grad)
        tape.record(bwd)
    return out


def matmul(tape, a: Tensor, b: Tensor) -> Tensor:
    """Product of a (k,), (m, k) or (B, T, k) operand with a (k, n) matrix.

    Leading axes are flattened into the rows of one matrix product.
    """
    ad, bd = a.data, b.data
    if bd.ndim != 2 or not 1 <= ad.ndim <= 3 or ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: {ad.shape} @ {bd.shape}")
    a2 = ad.reshape(-1, bd.shape[0])
    tracked = _track(tape, a, b)
    out = _out(tape, (a2 @ bd).reshape(ad.shape[:-1] + bd.shape[1:]), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            g2 = g.reshape(-1, bd.shape[1])
            _accum(a, (g2 @ bd.T).reshape(ad.shape))
            _accum(b, a2.T @ g2)
        tape.record(bwd)
    return out


def add_bias(tape, m: Tensor, bias: Tensor) -> Tensor:
    """Add a vector bias along the last axis of a vector, matrix or (B, T, n) block."""
    if bias.data.shape != m.data.shape[-1:]:
        raise ShapeError(f"add_bias: {m.data.shape} + {bias.data.shape}")
    tracked = _track(tape, m, bias)
    out = _out(tape, m.data + bias.data, tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            _accum(m, g)
            _accum(bias, g.reshape(-1, g.shape[-1]).sum(axis=0))
        tape.record(bwd)
    return out


def concat(tape, parts, axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis; backward splits the gradient."""
    datas = [p.data for p in parts]
    out_data = np.concatenate(datas, axis=axis)
    tracked = _track(tape, *parts)
    out = _out(tape, out_data, tracked)
    if tracked:
        sizes = [d.shape[axis] for d in datas]
        offsets = np.cumsum([0] + sizes)

        def bwd():
            g = out.grad
            if g is None:
                return
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _accum(p, np.take(g, range(lo, hi), axis=axis))
        tape.record(bwd)
    return out


def embedding(tape, table: Tensor, ids) -> Tensor:
    """Gather embedding rows; backward scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(f"embedding ids out of range [0, {table.data.shape[0]})")
    tracked = _track(tape, table)
    out = _out(tape, table.data[idx], tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)
        tape.record(bwd)
    return out


def linear_rows3(tape, feats, w: Tensor) -> Tensor:
    """Project a constant (B, R, D) feature block by a (D, K) matrix."""
    f = np.asarray(feats, dtype=np.float64)
    if f.ndim != 3 or f.shape[2] != w.data.shape[0]:
        raise ShapeError(f"linear_rows3: {f.shape} x {w.data.shape}")
    tracked = _track(tape, w)
    out = _out(tape, np.einsum("brd,dk->brk", f, w.data), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            _accum(w, np.einsum("brd,brk->dk", f, g))
        tape.record(bwd)
    return out


# ---------------------------------------------------------------------------
# GRU (fused gates)
# ---------------------------------------------------------------------------

class GRUParams:
    """Fused gate weights and biases for one GRU cell.

    Update rule: h' = (1 - z) * h + z * tanh(x Wxn + (r * h) Whn + bn)
    with reset gate r and update gate z, so z near 0 keeps the old state.
    ``w_x`` (in, 3h), ``w_h`` (h, 3h) and ``b`` (3h,) hold the r, z and n
    gates side by side, in that order.
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


def _gru_step(xw, hd, w_h, b):
    """Gate equations for one step from the input projection ``xw = x @ w_x``.

    Each pre-activation is summed as x-part + h-part + bias. Returns
    (h', [r z], n, r * h).
    """
    k = hd.shape[-1]
    rz = _sigmoid(xw[..., :2 * k] + hd @ w_h[:, :2 * k] + b[:2 * k])
    r, z = rz[..., :k], rz[..., k:]
    rh = r * hd
    n = np.tanh(xw[..., 2 * k:] + rh @ w_h[:, 2 * k:] + b[2 * k:])
    return (1.0 - z) * hd + z * n, rz, n, rh


def _gru_step_bwd(go, hd, rz, n, w_h):
    """Gradients of one step: (pre-activations (B, 3h), h_prev (B, h))."""
    k = hd.shape[1]
    r, z = rz[:, :k], rz[:, k:]
    da = np.empty((hd.shape[0], 3 * k))
    da[:, 2 * k:] = dan = go * z * (1.0 - n * n)
    drh = dan @ w_h[:, 2 * k:].T
    da[:, k:2 * k] = go * (n - hd) * z * (1.0 - z)
    da[:, :k] = drh * hd * r * (1.0 - r)
    dh = go * (1.0 - z) + drh * r + da[:, :2 * k] @ w_h[:, :2 * k].T
    return da, dh


def _gru_weight_grads(p: GRUParams, x2, hp2, rh2, da2) -> None:
    """Accumulate weight gradients over all rows of (rows, ·) matrices at once."""
    k = p.hidden_dim
    dw_h = np.empty_like(p.w_h.data)
    dw_h[:, :2 * k] = hp2.T @ da2[:, :2 * k]
    dw_h[:, 2 * k:] = rh2.T @ da2[:, 2 * k:]
    _accum(p.w_x, x2.T @ da2)
    _accum(p.w_h, dw_h)
    _accum(p.b, da2.sum(axis=0))


def gru_step(x, h, params: GRUParams) -> np.ndarray:
    """One GRU step on plain (B, in) and (B, h) arrays, without a tape.

    The arithmetic of ``gru_cell`` without its tensor bookkeeping; the
    frozen environment's per-step path.
    """
    return _gru_step(x @ params.w_x.data, h, params.w_h.data, params.b.data)[0]


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
    new, rz, n, rh = _gru_step(xd @ p.w_x.data, hd, p.w_h.data, p.b.data)
    tracked = _track(tape, x, h_prev, *p.tensors())
    out = _out(tape, new, tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            g2, x2, h2, rz2, n2, rh2 = map(np.atleast_2d, (g, xd, hd, rz, n, rh))
            da, dh = _gru_step_bwd(g2, h2, rz2, n2, p.w_h.data)
            _gru_weight_grads(p, x2, h2, rh2, da)
            _accum(x, (da @ p.w_x.data.T).reshape(xd.shape))
            _accum(h_prev, dh.reshape(hd.shape))
        tape.record(bwd)
    return out


def gru_sequence(tape, xs: Tensor, h0: Tensor, params: GRUParams) -> Tensor:
    """Run a GRU over (B, T, in) inputs from (B, h) initial states.

    Returns the (B, T, h) states. The input projections of all steps are one
    matmul before the time loop, and backward computes the weight and input
    gradients as single matmuls over all B*T rows after it; only the
    h-dependent products stay inside the loop.
    """
    xd, hd = xs.data, h0.data
    if xd.ndim != 3 or hd.ndim != 2 or xd.shape[0] != hd.shape[0]:
        raise ShapeError(f"gru_sequence: xs {xd.shape} vs h0 {hd.shape}")
    _check_gru_dims("gru_sequence", xd, hd, params)

    p = params
    bsz, steps, k = xd.shape[0], xd.shape[1], p.hidden_dim
    x2 = xd.reshape(bsz * steps, -1)
    xw = (x2 @ p.w_x.data).reshape(bsz, steps, 3 * k)
    hs = np.empty((bsz, steps, k))
    rzs = np.empty((bsz, steps, 2 * k))
    ns = np.empty((bsz, steps, k))
    h = hd
    for t in range(steps):
        h, rzs[:, t], ns[:, t], _ = _gru_step(xw[:, t], h, p.w_h.data, p.b.data)
        hs[:, t] = h

    tracked = _track(tape, xs, h0, *p.tensors())
    out = _out(tape, hs, tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            # the state each step started from, and r * h, rebuilt rather than kept
            hp = np.concatenate([hd[:, None], hs[:, :-1]], axis=1)
            da = np.empty((bsz, steps, 3 * k))
            dh = np.zeros((bsz, k))
            for t in range(steps - 1, -1, -1):
                da[:, t], dh = _gru_step_bwd(g[:, t] + dh, hp[:, t], rzs[:, t], ns[:, t],
                                             p.w_h.data)
            hp2, da2 = hp.reshape(bsz * steps, k), da.reshape(bsz * steps, 3 * k)
            _gru_weight_grads(p, x2, hp2, rzs[..., :k].reshape(bsz * steps, k) * hp2, da2)
            if xs.requires_grad:
                _accum(xs, (da2 @ p.w_x.data.T).reshape(xd.shape))
            _accum(h0, dh)
        tape.record(bwd)
    return out


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def _sum_outer(a, b):
    """sum over t of the outer products a[:, t] x b[:, t], for (B, T, S) and (B, T, D)."""
    if a.shape[1] == 1:  # einsum's outer product is faster than a matmul over one term
        return np.einsum("bs,bd->bsd", a[:, 0], b[:, 0])
    return a.transpose(0, 2, 1) @ b


def batched_attention(tape, keys: Tensor, values: Tensor, query: Tensor, mask=None):
    """Row-masked attention over (B, S, dk) keys and (B, S, dv) values.

    query is (B, dk), or (B, T, dk) for T queries per batch row; mask is a
    (B, S) boolean array marking valid rows. Returns context (B, dv) and
    weights (B, S), or (B, T, dv) and (B, T, S) for (B, T, dk) queries.
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
    scores = q3 @ kd.transpose(0, 2, 1)
    if mask is not None:
        if not mask.any(axis=1).all():
            raise ContractError("batched_attention: a batch row has no valid keys")
        scores = np.where(mask[:, None, :], scores, -np.inf)
    w = softmax(scores)
    ctx_data = w @ vd
    tracked = _track(tape, keys, values, query)
    ctx = _out(tape, ctx_data[:, 0] if single else ctx_data, tracked)
    weights = _out(tape, w[:, 0] if single else w, tracked)
    if tracked:
        def bwd():
            gc = ctx.grad
            gw = weights.grad
            if gc is None and gw is None:
                return
            dw = np.zeros_like(w)
            if gc is not None:
                gc3 = gc[:, None, :] if single else gc
                dw += gc3 @ vd.transpose(0, 2, 1)
                _accum(values, _sum_outer(w, gc3))
            if gw is not None:
                dw += gw[:, None, :] if single else gw
            ds = w * (dw - (w * dw).sum(axis=2, keepdims=True))
            _accum(query, (ds @ kd).reshape(qd.shape))
            _accum(keys, _sum_outer(ds, q3))
        tape.record(bwd)
    return ctx, weights


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
    tracked = _track(tape, logits)
    out = _out(tape, np.float64((losses * m).sum() / count), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            d = np.exp(shifted - logz[:, None]) * m[:, None]
            d[rows, idx] -= m
            _accum(logits, ((g / count) * d).reshape(ld.shape))
        tape.record(bwd)
    return out


def log_softmax_rows(tape, x: Tensor) -> Tensor:
    xd = x.data
    shifted = xd - xd.max(axis=1, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    tracked = _track(tape, x)
    out = _out(tape, ls, tracked)
    if tracked:
        p = np.exp(ls)

        def bwd():
            g = out.grad
            if g is None:
                return
            _accum(x, g - p * g.sum(axis=1, keepdims=True))
        tape.record(bwd)
    return out


def pick_rows(tape, x: Tensor, indices) -> Tensor:
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    tracked = _track(tape, x)
    out = _out(tape, x.data[rows, idx], tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            d = np.zeros_like(x.data)
            d[rows, idx] = g
            _accum(x, d)
        tape.record(bwd)
    return out


def rows_entropy(tape, log_probs: Tensor) -> Tensor:
    """Shannon entropy per row of a log-probability matrix."""
    ls = log_probs.data
    p = np.exp(ls)
    tracked = _track(tape, log_probs)
    out = _out(tape, -(p * ls).sum(axis=1), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            _accum(log_probs, -g[:, None] * p * (ls + 1.0))
        tape.record(bwd)
    return out


def weighted_sum(tape, v: Tensor, weights) -> Tensor:
    """Dot product of a vector with constant weights, as a scalar tensor."""
    w = np.asarray(weights, dtype=np.float64)
    if v.data.shape != w.shape:
        raise ShapeError(f"weighted_sum: {v.data.shape} vs {w.shape}")
    tracked = _track(tape, v)
    out = _out(tape, np.float64(v.data @ w), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            _accum(v, g * w)
        tape.record(bwd)
    return out


def sum_scalars(tape, scalars) -> Tensor:
    tracked = _track(tape, *scalars)
    out = _out(tape, np.float64(sum(float(s.data) for s in scalars)), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            for s in scalars:
                _accum(s, g)
        tape.record(bwd)
    return out


def masked_sq_error(tape, v: Tensor, targets, mask, denom: float) -> Tensor:
    """Sum of masked squared errors divided by a fixed denominator."""
    t = np.asarray(targets, dtype=np.float64)
    m = np.asarray(mask, dtype=np.float64)
    diff = (v.data - t) * m
    tracked = _track(tape, v)
    out = _out(tape, np.float64((diff * diff).sum() / denom), tracked)
    if tracked:
        def bwd():
            g = out.grad
            if g is None:
                return
            _accum(v, g * 2.0 * diff / denom)
        tape.record(bwd)
    return out
