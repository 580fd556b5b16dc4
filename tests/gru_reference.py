"""A GRU written one row and one time step at a time, in plain float64.

It shares no code with ``autodiff``: each gate has its own weight blocks,
every pre-activation is summed as x-part + h-part + bias, and the update is
h' = (1 - z) * h + z * n. The backward is the textbook chain rule through
the same steps, so an error that ``gru_cell`` and ``gru_sequence`` share
shows up against it.
"""

import numpy as np


def _blocks(params):
    """(W_x, W_h, b) of gates r, z and n, in that order."""
    k = params.hidden_dim
    w_x, w_h, b = params.w_x.data, params.w_h.data, params.b.data
    return [(w_x[:, i * k:(i + 1) * k], w_h[:, i * k:(i + 1) * k], b[i * k:(i + 1) * k])
            for i in range(3)]


def _sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def step(x, h, params):
    """One step for one row: h' and the gates (r, z, n)."""
    (wxr, whr, br), (wxz, whz, bz), (wxn, whn, bn) = _blocks(params)
    r = _sigmoid(x @ wxr + h @ whr + br)
    z = _sigmoid(x @ wxz + h @ whz + bz)
    n = np.tanh(x @ wxn + (r * h) @ whn + bn)
    return (1.0 - z) * h + z * n, (r, z, n)


def sequence(xs, h0, params, lengths):
    """(B, T, h) states of each row's first ``lengths[b]`` steps, zero past them."""
    bsz, steps, _ = xs.shape
    out = np.zeros((bsz, steps, params.hidden_dim))
    for b in range(bsz):
        h = h0[b]
        for t in range(lengths[b]):
            h, _ = step(xs[b, t], h, params)
            out[b, t] = h
    return out


def sequence_grads(xs, h0, params, lengths, g):
    """Gradients of sum(g * sequence(...)) for xs, h0 and (w_x, w_h, b)."""
    (wxr, whr, _), (wxz, whz, _), (wxn, whn, _) = _blocks(params)
    k = params.hidden_dim
    dxs, dh0 = np.zeros(xs.shape), np.zeros(h0.shape)
    dw_x, dw_h = np.zeros(params.w_x.data.shape), np.zeros(params.w_h.data.shape)
    db = np.zeros(params.b.data.shape)
    for b in range(xs.shape[0]):
        hs, gates = [h0[b]], []
        for t in range(lengths[b]):
            h, gate = step(xs[b, t], hs[-1], params)
            hs.append(h)
            gates.append(gate)
        dh = np.zeros(k)
        for t in reversed(range(lengths[b])):
            x, h_prev, (r, z, n) = xs[b, t], hs[t], gates[t]
            dh = dh + g[b, t]
            da_n = dh * z * (1.0 - n * n)
            da_z = dh * (n - h_prev) * z * (1.0 - z)
            d_rh = da_n @ whn.T
            da_r = d_rh * h_prev * r * (1.0 - r)
            for i, (da, h_in) in enumerate(((da_r, h_prev), (da_z, h_prev), (da_n, r * h_prev))):
                dw_x[:, i * k:(i + 1) * k] += np.outer(x, da)
                dw_h[:, i * k:(i + 1) * k] += np.outer(h_in, da)
                db[i * k:(i + 1) * k] += da
            dxs[b, t] = da_r @ wxr.T + da_z @ wxz.T + da_n @ wxn.T
            dh = dh * (1.0 - z) + d_rh * r + da_r @ whr.T + da_z @ whz.T
        dh0[b] = dh
    return dxs, dh0, (dw_x, dw_h, db)
