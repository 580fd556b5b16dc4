"""Adam optimizer with bias correction over named parameter lists."""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError, ShapeError

# the optimizer's published constants
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
CHUNK = 1 << 15  # elements per pass: 256 KB of float64, so each chunk's operands stay in cache


class AdamState:
    """Per-parameter moment buffers plus the step counter.

    ``params`` holds (name, tensor) pairs; the learning rate is the one
    setting.
    """

    def __init__(self, params, lr: float = 0.0004):
        self.lr = float(lr)
        self.step_count = 0
        self.params = list(params)
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.scratch = np.empty(CHUNK)


def adam_step(state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    Gradients are read from each parameter's ``grad`` buffer (None counts
    as zero). A NaN/Inf gradient rejects the whole update before any
    parameter moves. Each flattened parameter is updated ``CHUNK`` elements
    at a time through one shared chunk-sized scratch buffer; the update is
    elementwise, so the result is the same to the bit as one pass over the
    whole parameter. Parameters and moments are updated through flat views,
    so they must be C-contiguous.
    """
    resolved = []
    for name, p in state.params:
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} vs param '{name}' {p.data.shape}")
        m, v = state.m[name], state.v[name]
        if not (p.data.flags.c_contiguous and m.flags.c_contiguous and v.flags.c_contiguous):
            raise ContractError(f"adam_step: param '{name}' or its moments are not C-contiguous")
        if not np.all(np.isfinite(g)):
            raise NumericError(f"adam_step: non-finite gradient for '{name}'; update rejected")
        resolved.append((p.data.reshape(-1), m.reshape(-1), v.reshape(-1), g.reshape(-1)))

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for w_all, m_all, v_all, g_all in resolved:
        for lo in range(0, w_all.size, CHUNK):
            w, m, v, g = (a[lo:lo + CHUNK] for a in (w_all, m_all, v_all, g_all))
            s = state.scratch[:w.size]
            np.multiply(m, BETA1, out=m)
            np.multiply(g, 1.0 - BETA1, out=s)
            np.add(m, s, out=m)
            np.multiply(v, BETA2, out=v)
            np.multiply(g, g, out=s)
            np.multiply(s, 1.0 - BETA2, out=s)
            np.add(v, s, out=v)
            np.divide(v, bc2, out=s)
            np.sqrt(s, out=s)
            np.add(s, EPS, out=s)
            np.divide(m, s, out=s)
            np.multiply(s, state.lr / bc1, out=s)
            np.subtract(w, s, out=w)
