"""Per-episode reference for the lane-batched episode engine, for parity tests.

The one-episode loop that ``policies.simulate`` and ``translate_full`` ran
before the environment gained a lane axis: 1-D encoder and decoder states,
one proposal per step, and the READ/WRITE rules, rewards and override
counting written out inline. Policies see each step through ``LaneView``,
the one-lane stepper interface they are written against.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from simtlab import autodiff as ad
from simtlab.environment import output_cap
from simtlab.metrics import average_proportion, latency_reward
from simtlab.policies import READ, WRITE
from simtlab.vocab import BOS, EOS

from recount import smoothed_sentence_bleu


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


class LaneView:
    """One reference step as a one-lane ``EpisodeStepper`` shows it to a policy."""

    n = 1

    def __init__(self, n_read, n_written, exhausted, proposal):
        self.n_read = np.array([n_read])
        self.n_written = np.array([n_written])
        self.forced = np.array([exhausted])
        token, text_ctx = proposal[:2]
        self._proposal = SimpleNamespace(token=np.array([token]), text_ctx=text_ctx[None])

    def proposal(self):
        return self._proposal


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
    policy.start_episode([list(src_tokens)], [features])
    h = model.cfg.hid_dim
    enc = (np.zeros(h), np.zeros(h), [])
    dec = (np.zeros(h), np.zeros(h), BOS)
    cap = output_cap(len(src_ids))
    actions, hyp_ids, delays, rewards = [], [], [], []
    n_read = overrides = cw = 0
    score = 0.0  # smoothed BLEU of the content committed so far
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
            view = LaneView(n_read, len(hyp_ids), exhausted, proposal)
            action = WRITE if policy.decide(view)[0] else READ
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
                if ref_tokens is not None:
                    before, score = score, smoothed_sentence_bleu(
                        model.tgt_vocab.decode(hyp_ids, strip_reserved=False), ref_tokens)
                    quality_delta = score - before
            terminal = token == EOS or len(hyp_ids) >= cap
        if reward_config is not None:
            d_t = 0.0
            if terminal and delays:
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
