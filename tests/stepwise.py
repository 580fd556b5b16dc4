"""Per-step reference for teacher-forced training, for parity tests.

The time loop of the layer-by-layer ``environment.teacher_forced_loss``
written one step at a time from ``gru_cell``: each step embeds its column,
runs both encoder layers, and each decoder step attends, projects and adds
its masked cross-entropy to the per-token loss.
"""

import numpy as np

from simtlab import autodiff as ad
from simtlab.environment import _pad_batch
from simtlab.vocab import BOS, EOS


def _stack_steps(tape, mats):
    """Stack S tensors of shape (B, h) into a (B, S, h) tensor."""
    out = ad.Tensor(np.stack([m.data for m in mats], axis=1))
    if tape is not None:
        out.requires_grad = True

        def bwd(g):
            for s, m in enumerate(mats):
                if m.requires_grad:
                    m.grad = g[:, s].copy() if m.grad is None else m.grad + g[:, s]
        tape.record(out, bwd)
    return out


def teacher_forced_loss_stepwise(model, batch, tape, feats3=None):
    src_ids, tgt_ids = batch
    src_mat, src_mask = _pad_batch(src_ids)
    bsz = src_mat.shape[0]
    zeros = np.zeros((bsz, model.cfg.hid_dim))

    h1, h2 = ad.Tensor(zeros), ad.Tensor(zeros)
    rows = []
    for t in range(src_mat.shape[1]):
        x = ad.embedding(tape, model.src_emb, src_mat[:, t])
        h1 = ad.gru_cell(tape, x, h1, model.enc1)
        h2 = ad.gru_cell(tape, h1, h2, model.enc2)
        rows.append(h2)
    h_all = _stack_steps(tape, rows)
    v_all = ad.matmul(tape, ad.Tensor(feats3), model.w_vis) if model.multimodal else None

    in_mat, _ = _pad_batch([[BOS] + ids for ids in tgt_ids])
    out_mat, out_mask = _pad_batch([ids + [EOS] for ids in tgt_ids])
    total_tokens = float(out_mask.sum())

    g1, g2 = ad.Tensor(zeros), ad.Tensor(zeros)
    losses = []
    for t in range(out_mat.shape[1]):
        x = ad.embedding(tape, model.tgt_emb, in_mat[:, t])
        g1 = ad.gru_cell(tape, x, g1, model.dec1)
        ctx, _ = ad.batched_attention(tape, h_all, h_all, g1, src_mask)
        if v_all is not None:
            vctx, _ = ad.batched_attention(tape, v_all, v_all, g1)
            ctx = ad.add(tape, ctx, vctx)
        g2 = ad.gru_cell(tape, ctx, g2, model.dec2)
        feat = ad.concat(tape, [x, ctx, g2])
        logits = ad.add_bias(tape, ad.matmul(tape, feat, model.w_out), model.b_out)
        losses.append(ad.softmax_cross_entropy_rows(
            tape, logits, out_mat[:, t], out_mask[:, t], denom=total_tokens))
    return ad.sum_scalars(tape, losses)
