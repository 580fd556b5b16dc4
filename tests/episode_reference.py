"""Per-episode reference for the lane-batched episode engine, for parity tests.

The one-episode loop that ``policies.simulate`` and ``translate_full`` ran
before the environment gained a lane axis: 1-D encoder and decoder states,
one proposal per step, and the READ/WRITE rules, rewards and override
counting written out inline.
"""

from dataclasses import dataclass

import numpy as np

from simtlab import autodiff as ad
from simtlab.environment import output_cap
from simtlab.metrics import PrefixBleu, average_proportion, latency_reward
from simtlab.policies import READ, WRITE, StepContext
from simtlab.vocab import BOS, EOS


def _gru(x, h, params):
    return ad.gru_cell(None, ad.Tensor(x), ad.Tensor(h), params).data


def _attend(keys_values, query):
    w = ad.softmax(keys_values @ query)
    return keys_values.T @ w


def encode_next(state, token_id, model):
    """state is (h1, h2, rows); appends one row."""
    h1, h2, rows = state
    h1 = _gru(model.src_emb.data[token_id], h1, model.enc1)
    h2 = _gru(h1, h2, model.enc2)
    return h1, h2, rows + [h2]


def propose_next(dec, rows, model, projected=None):
    """dec is (g1, g2, last_token); returns (token, text_ctx, g1, g2)."""
    g1_h, g2_h, last = dec
    prev_emb = model.tgt_emb.data[last]
    g1 = _gru(prev_emb, g1_h, model.dec1)
    text_ctx = _attend(np.stack(rows), g1)
    ctx = text_ctx if projected is None else text_ctx + _attend(projected, g1)
    g2 = _gru(ctx, g2_h, model.dec2)
    logits = np.concatenate([prev_emb, ctx, g2]) @ model.w_out.data + model.b_out.data
    return int(ad.softmax(logits).argmax()), text_ctx, g1, g2


@dataclass
class Episode:
    actions: str
    hyp: list
    delays: list
    rewards: list
    forced_overrides: int


def simulate(policy, model, src_tokens, features=None, ref_tokens=None, reward_config=None):
    src_ids = model.src_vocab.encode(src_tokens)
    projected = features.matrix @ model.w_vis.data if model.multimodal else None
    policy.start_episode(list(src_tokens), features)
    h = model.cfg.hid_dim
    enc = (np.zeros(h), np.zeros(h), [])
    dec = (np.zeros(h), np.zeros(h), BOS)
    cap = output_cap(len(src_ids))
    actions, hyp_ids, delays, rewards = [], [], [], []
    n_read = overrides = cw = 0
    quality = PrefixBleu(ref_tokens) if ref_tokens is not None else None
    eos_row_added = False
    while True:
        exhausted = n_read == len(src_ids)
        if exhausted and not eos_row_added:
            enc = encode_next(enc, EOS, model)
            eos_row_added = True
        proposal = propose_next(dec, enc[2], model, projected) if enc[2] else None
        if proposal is None:
            action = READ
        else:
            ctx = StepContext(src_len=len(src_ids), n_read=n_read, n_written=len(hyp_ids),
                              source_exhausted=exhausted, token=proposal[0],
                              text_ctx=proposal[1], forced_action=WRITE if exhausted else None)
            action = policy.decide(ctx)
            if exhausted and action != WRITE:
                overrides += 1
                action = WRITE
        actions.append(action)
        terminal = False
        quality_delta = 0.0
        if action == READ:
            enc = encode_next(enc, src_ids[n_read], model)
            n_read += 1
            cw += 1
        else:
            token, _, g1, g2 = proposal
            dec = (g1, g2, token)
            hyp_ids.append(token)
            cw = 0
            if token != EOS:
                delays.append(n_read)
                if quality is not None:
                    quality_delta = quality.append(model.tgt_vocab.token(token))
            terminal = token == EOS or len(hyp_ids) >= cap
        if reward_config is not None:
            d_t = 0.0
            if (terminal or reward_config.running_avp) and delays:
                d_t = average_proportion(delays, len(src_ids), len(delays))
            rewards.append(quality_delta +
                           latency_reward(cw, d_t, reward_config, is_terminal=terminal))
        if terminal:
            break
    return Episode("".join(actions), model.tgt_vocab.decode(hyp_ids, strip_reserved=False),
                   delays, rewards, overrides)


def translate_full(model, src_tokens, features=None):
    """Greedy consecutive decode: the whole source and its EOS row first."""
    ids = model.src_vocab.encode(src_tokens)
    if not ids:
        return []
    h = model.cfg.hid_dim
    enc = (np.zeros(h), np.zeros(h), [])
    for token_id in ids + [EOS]:
        enc = encode_next(enc, token_id, model)
    projected = features.matrix @ model.w_vis.data if model.multimodal else None
    dec = (np.zeros(h), np.zeros(h), BOS)
    out = []
    while len(out) < output_cap(len(ids)):
        token, _, g1, g2 = propose_next(dec, enc[2], model, projected)
        dec = (g1, g2, token)
        out.append(token)
        if token == EOS:
            break
    return model.tgt_vocab.decode(out)
