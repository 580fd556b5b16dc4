"""The pre-trained encoder-decoder translation system.

During reinforcement learning this model is the frozen environment: it is
stepped incrementally (one source token per READ, one proposal per step)
and never receives gradients. Its states carry a leading lane axis, so
``EpisodeStepper`` runs n episodes in lockstep under one set of rules. The
same model trained and decoded with the full source is the consecutive
baseline.

Architecture: 2-layer unidirectional GRU encoder, first decoder GRU
producing attention queries, dot-product attention over emitted encoder
states (plus an optional visual attention whose context is summed in),
second decoder GRU, and a linear output layer over the concatenation of
previous embedding, context, and second-GRU state.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GRUParams, Tensor
from .checkpoint import (load_into, read_metadata, save_checkpoint, write_metadata)
from .errors import ConfigError, ContractError, DataError, NumericError
from .features import FeatureSet
from .metrics import (PrefixBleu, RewardConfig, average_proportion, corpus_bleu,
                      latency_reward)
from .vocab import BOS, EOS, PAD, RESERVED, Vocabulary

log = logging.getLogger(__name__)


@dataclass
class EnvConfig:
    """Model dimensions and the multimodal switch."""

    emb_dim: int = 200
    hid_dim: int = 320
    multimodal: bool = False
    feature_rows: int = 0
    feature_dim: int = 0
    init_scale: float = 0.08

    def __post_init__(self):
        if self.multimodal and (self.feature_rows < 1 or self.feature_dim < 1):
            raise ConfigError("multimodal environment needs feature_rows and feature_dim")


class EnvModel:
    """Frozen-at-inference encoder-decoder with optional visual attention."""

    def __init__(self, src_vocab: Vocabulary, tgt_vocab: Vocabulary,
                 cfg: EnvConfig, rng):
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.cfg = cfg
        e, h = cfg.emb_dim, cfg.hid_dim
        self.src_emb = ad.uniform_tensor((len(src_vocab), e), rng, cfg.init_scale)
        self.tgt_emb = ad.uniform_tensor((len(tgt_vocab), e), rng, cfg.init_scale)
        self.enc1 = GRUParams.create(e, h, rng, cfg.init_scale)
        self.enc2 = GRUParams.create(h, h, rng, cfg.init_scale)
        self.dec1 = GRUParams.create(e, h, rng, cfg.init_scale)
        self.dec2 = GRUParams.create(h, h, rng, cfg.init_scale)
        self.w_out = ad.uniform_tensor((e + 2 * h, len(tgt_vocab)), rng, cfg.init_scale)
        self.b_out = Tensor(np.zeros(len(tgt_vocab)), requires_grad=True)
        self.w_vis = (ad.uniform_tensor((cfg.feature_dim, h), rng, cfg.init_scale)
                      if cfg.multimodal else None)

    @property
    def multimodal(self) -> bool:
        return self.cfg.multimodal

    def named_tensors(self):
        out = [("src_emb", self.src_emb), ("tgt_emb", self.tgt_emb)]
        for prefix, params in (("enc1.", self.enc1), ("enc2.", self.enc2),
                               ("dec1.", self.dec1), ("dec2.", self.dec2)):
            out.extend(params.named_tensors(prefix))
        out.extend([("w_out", self.w_out), ("b_out", self.b_out)])
        if self.w_vis is not None:
            out.append(("w_vis", self.w_vis))
        return out

    def snapshot(self):
        return {name: t.data.copy() for name, t in self.named_tensors()}

    def restore(self, snapshot) -> None:
        for name, t in self.named_tensors():
            t.data = snapshot[name].copy()

    def project_features(self, features) -> np.ndarray:
        """Map raw feature rows into the decoder space with w_vis.

        One FeatureSet gives (R, h); a list of n gives (n, R, h).
        """
        if not self.multimodal:
            raise ConfigError("project_features on a unimodal environment")
        lanes = isinstance(features, (list, tuple))
        projected = []
        for f in features if lanes else [features]:
            if f is None:
                raise ConfigError("multimodal environment requires visual features")
            if f.dim != self.cfg.feature_dim or f.rows != self.cfg.feature_rows:
                raise ConfigError(
                    f"feature geometry {f.matrix.shape} does not match configured "
                    f"({self.cfg.feature_rows}, {self.cfg.feature_dim})")
            projected.append(f.matrix @ self.w_vis.data)
        return np.stack(projected) if lanes else projected[0]

    def initial_decoder_state(self) -> "DecoderState":
        return DecoderState.initial(self, 1)

    def save(self, prefix) -> None:
        prefix = Path(prefix)
        save_checkpoint(prefix.with_suffix(".ckpt"), self.named_tensors())
        write_metadata(prefix.with_suffix(".meta"), {
            "kind": "environment",
            "emb_dim": self.cfg.emb_dim,
            "hid_dim": self.cfg.hid_dim,
            "multimodal": self.cfg.multimodal,
            "feature_rows": self.cfg.feature_rows,
            "feature_dim": self.cfg.feature_dim,
            "src_vocab": list(self.src_vocab.tokens[len(RESERVED):]),
            "tgt_vocab": list(self.tgt_vocab.tokens[len(RESERVED):]),
        })

    @classmethod
    def load(cls, prefix) -> "EnvModel":
        prefix = Path(prefix)
        meta = read_metadata(prefix.with_suffix(".meta"))
        if meta.get("kind") != "environment":
            raise ConfigError(f"{prefix}: not an environment checkpoint")
        cfg = EnvConfig(
            emb_dim=int(meta["emb_dim"]),
            hid_dim=int(meta["hid_dim"]),
            multimodal=meta["multimodal"] == "true",
            feature_rows=int(meta["feature_rows"]),
            feature_dim=int(meta["feature_dim"]),
        )
        src_vocab = Vocabulary(meta["src_vocab"].split() if meta["src_vocab"] else [])
        tgt_vocab = Vocabulary(meta["tgt_vocab"].split() if meta["tgt_vocab"] else [])
        model = cls(src_vocab, tgt_vocab, cfg, np.random.default_rng(0))
        load_into(prefix.with_suffix(".ckpt"), model.named_tensors())
        return model


class EncoderState:
    """Emitted top-layer encoder states of n lanes.

    ``rows`` (n, W, h) holds each lane's states in the order they were
    emitted; row j of lane i is valid while j < consumed[i]. A state is
    never changed once made: ``encode_next`` writes into a copy.
    """

    __slots__ = ("h1", "h2", "rows", "consumed", "_keys")

    def __init__(self, h1, h2, rows, consumed):
        self.h1 = h1
        self.h2 = h2
        self.rows = rows
        self.consumed = consumed
        self._keys = None

    @classmethod
    def initial(cls, model: EnvModel, n: int = 1, width: int = 0) -> "EncoderState":
        h = model.cfg.hid_dim
        return cls(np.zeros((n, h)), np.zeros((n, h)), np.zeros((n, width, h)),
                   np.zeros(n, dtype=np.int64))

    def keys(self):
        """Rows up to the longest lane, and the valid-row mask.

        The mask is None when every lane has read as many rows.
        """
        if self._keys is None:
            fewest, most = int(self.consumed.min()), int(self.consumed.max())
            if fewest == 0:
                raise ContractError("encoder state is empty; READ before attending")
            mask = None if fewest == most else np.arange(most) < self.consumed[:, None]
            self._keys = self.rows[:, :most], mask
        return self._keys


@dataclass
class DecoderState:
    """Committed-prefix decoder state of n lanes; a lane advances only on commit."""

    g1_h: np.ndarray         # (n, h)
    g2_h: np.ndarray         # (n, h)
    last_token: np.ndarray   # (n,)
    committed: np.ndarray    # (n,)
    terminal: np.ndarray     # (n,) bool: EOS committed

    @classmethod
    def initial(cls, model: EnvModel, n: int = 1) -> "DecoderState":
        h = model.cfg.hid_dim
        return cls(np.zeros((n, h)), np.zeros((n, h)), np.full(n, BOS, dtype=np.int64),
                   np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))


@dataclass
class Proposal:
    """A candidate next token per lane plus everything needed to adopt it."""

    token: np.ndarray          # (n,)
    logits: np.ndarray         # (n, V)
    text_ctx: np.ndarray       # (n, h)
    visual_ctx: np.ndarray     # (n, h), or None on a unimodal environment
    text_weights: np.ndarray   # (n, rows attended)
    g1_next: np.ndarray
    g2_next: np.ndarray
    dec: DecoderState          # the states the proposal was produced from
    enc: EncoderState


def _attend(keys, query, mask=None):
    """(context, weights) of dot-product attention with keys as values."""
    kv = Tensor(keys)
    ctx, weights = ad.batched_attention(None, kv, kv, Tensor(query), mask)
    return ctx.data, weights.data


def _merge(old, new, lanes):
    """``new`` on every lane when ``lanes`` is None, else ``old`` with ``lanes`` replaced."""
    if lanes is None:
        return new
    out = old.copy()
    out[lanes] = new
    return out


def encode_next(state: EncoderState, token_ids, model: EnvModel, lanes=None) -> EncoderState:
    """Consume one more source token on each of ``lanes`` (every lane when None).

    ``token_ids`` holds one id per advanced lane (a single int for a
    one-lane state); each advanced lane gains exactly one row.
    """
    ids = [token_ids] if np.ndim(token_ids) == 0 else list(token_ids)
    if not all(0 <= t < len(model.src_vocab) for t in ids):
        raise DataError(f"source token ids {ids} out of vocabulary range")
    pick = slice(None) if lanes is None else lanes
    h1 = ad.gru_step(model.src_emb.data[ids], state.h1[pick], model.enc1)
    h2 = ad.gru_step(h1, state.h2[pick], model.enc2)
    at = state.consumed[pick]
    n, width, h = state.rows.shape
    grow = int(at.max()) + 1 - width
    rows = (np.concatenate([state.rows, np.zeros((n, grow, h))], axis=1) if grow > 0
            else state.rows.copy())
    rows[np.arange(n) if lanes is None else lanes, at] = h2
    return EncoderState(_merge(state.h1, h1, lanes), _merge(state.h2, h2, lanes), rows,
                        _merge(state.consumed, at + 1, lanes))


def encode_sequence(model: EnvModel, token_ids) -> EncoderState:
    state = EncoderState.initial(model, 1, len(token_ids))
    for token_id in token_ids:
        state = encode_next(state, token_id, model)
    return state


def propose_next(dec: DecoderState, enc: EncoderState, model: EnvModel,
                 projected=None) -> Proposal:
    """Greedy candidate for the next target token on every lane; mutates nothing.

    ``projected`` is ``project_features`` output: (R, h) shared by every
    lane or (n, R, h); a multimodal environment needs it.
    """
    if dec.terminal.all():
        raise ContractError("propose_next after EOS was committed")
    keys, mask = enc.keys()
    prev_emb = model.tgt_emb.data[dec.last_token]
    g1 = ad.gru_step(prev_emb, dec.g1_h, model.dec1)
    text_ctx, weights = _attend(keys, g1, mask)
    ctx = text_ctx
    visual_ctx = None
    if model.multimodal:
        visual_ctx, _ = _attend(projected if projected.ndim == 3 else projected[None], g1)
        ctx = ctx + visual_ctx
    g2 = ad.gru_step(ctx, dec.g2_h, model.dec2)
    logits = np.concatenate([prev_emb, ctx, g2], axis=1) @ model.w_out.data + model.b_out.data
    return Proposal(
        token=logits.argmax(axis=1),
        logits=logits,
        text_ctx=text_ctx,
        visual_ctx=visual_ctx,
        text_weights=weights,
        g1_next=g1,
        g2_next=g2,
        dec=dec,
        enc=enc,
    )


def commit(dec: DecoderState, proposal: Proposal, enc: EncoderState = None,
           lanes=None) -> DecoderState:
    """Adopt the proposal on each of ``lanes`` (every lane when None).

    Adopting lanes advance their decoder states and committed counts. The
    proposal must have been produced from ``dec`` and, when given, ``enc``.
    """
    pick = slice(None) if lanes is None else lanes
    if dec.terminal[pick].any():
        raise ContractError("commit after EOS was already committed")
    if proposal.dec is not dec:
        raise ContractError("commit: proposal was produced against a different decoder state")
    if enc is not None and proposal.enc is not enc:
        raise ContractError("commit: proposal was produced against a different encoder state")
    token = proposal.token[pick]
    return DecoderState(
        g1_h=_merge(dec.g1_h, proposal.g1_next[pick], lanes),
        g2_h=_merge(dec.g2_h, proposal.g2_next[pick], lanes),
        last_token=_merge(dec.last_token, token, lanes),
        committed=_merge(dec.committed, dec.committed[pick] + 1, lanes),
        terminal=_merge(dec.terminal, token == EOS, lanes),
    )


def output_cap(src_len: int) -> int:
    """Hard bound on committed tokens; prevents non-terminating WRITE loops."""
    return 2 * src_len + 5


READ, WRITE = "R", "W"


class EpisodeStepper:
    """READ/WRITE episodes on n lanes of one environment, stepped in lockstep.

    The rules of the game (Gu et al. 2017) live here. The first action is a
    forced READ, since the decoder cannot attend to an empty prefix. Once a
    lane has read its whole source, its EOS row is encoded and WRITE is
    forced. A lane ends on an EOS commit or at ``output_cap`` committed
    tokens. Per lane the stepper keeps the consecutive wait (CW), the
    delays, the hypothesis ids, the action string and, with a
    ``reward_config``, each step's reward: the BLEU gain of the commit
    against the reference (when ``refs`` are given) plus the CW/AP latency
    reward, with the delay proportion running or terminal as configured.

    The constructor takes the first READ; callers then alternate
    ``propose()`` and ``apply()`` while any lane is ``live``.
    """

    def __init__(self, model: EnvModel, sources, features=None, *, refs=None,
                 reward_config: RewardConfig = None):
        self.model = model
        self.src_ids = [model.src_vocab.encode(s) for s in sources]
        if not all(self.src_ids):
            raise ContractError("episode: empty source")
        n = self.n = len(self.src_ids)
        self.projected = model.project_features(features) if model.multimodal else None
        self.enc = EncoderState.initial(model, n, max(map(len, self.src_ids)) + 1)
        self.dec = DecoderState.initial(model, n)
        self.live = np.ones(n, dtype=bool)
        self._running = list(range(n))   # the live lanes
        self.n_read = [0] * n
        self.cw = [0] * n
        self.hyp_ids = [[] for _ in range(n)]
        self.delays = [[] for _ in range(n)]
        self.actions = [[] for _ in range(n)]
        self.rewards = [[] for _ in range(n)]
        self.quality = None if refs is None else [PrefixBleu(r) for r in refs]
        self.reward_config = reward_config
        self._cap = [output_cap(len(s)) for s in self.src_ids]
        self._eos_row = [False] * n
        self._proposal = None
        self._forced = np.zeros(n, dtype=bool)
        self.apply(self._forced)

    def _lanes(self, idx):
        return None if len(idx) == self.n else np.array(idx)

    def propose(self):
        """Propose the next token on every lane.

        A lane that has read its whole source first gets its EOS row: the
        terminal marker row, not an agent READ. Returns the proposal and
        the forced-WRITE mask.
        """
        forced = [r == len(s) for r, s in zip(self.n_read, self.src_ids)]
        eos = [i for i in self._running if forced[i] and not self._eos_row[i]]
        if eos:
            self.enc = encode_next(self.enc, [EOS] * len(eos), self.model, self._lanes(eos))
            for i in eos:
                self._eos_row[i] = True
        self._proposal = propose_next(self.dec, self.enc, self.model, self.projected)
        self._forced = np.array(forced)
        return self._proposal, self._forced

    def apply(self, write_mask) -> np.ndarray:
        """Take one action on every live lane: WRITE where ``write_mask`` or
        forced, READ elsewhere.

        Returns each lane's step reward (0.0 without a reward config and on
        lanes that had ended).
        """
        if self._forced is None:
            raise ContractError("apply: propose() the next step first")
        live = self._running
        wrote = [bool(write_mask[i] or self._forced[i]) for i in live]
        writes = [i for i, w in zip(live, wrote) if w]
        reads = [i for i, w in zip(live, wrote) if not w]
        self._forced = None
        if writes:
            self.dec = commit(self.dec, self._proposal, self.enc, self._lanes(writes))
        if reads:
            self.enc = encode_next(self.enc, [self.src_ids[i][self.n_read[i]] for i in reads],
                                   self.model, self._lanes(reads))
        cfg = self.reward_config
        step_rewards = np.zeros(self.n)
        for i, w in zip(live, wrote):
            terminal = False
            quality = 0.0
            if w:
                token = int(self._proposal.token[i])
                self.hyp_ids[i].append(token)
                self.cw[i] = 0
                if token != EOS:
                    self.delays[i].append(self.n_read[i])
                    if self.quality is not None:
                        quality = self.quality[i].append(self.model.tgt_vocab.token(token))
                terminal = token == EOS or len(self.hyp_ids[i]) >= self._cap[i]
            else:
                self.n_read[i] += 1
                self.cw[i] += 1
            self.actions[i].append(WRITE if w else READ)
            if cfg is not None:
                delays = self.delays[i]
                d_t = 0.0
                if (terminal or cfg.running_avp) and delays:
                    d_t = average_proportion(delays, len(self.src_ids[i]), len(delays))
                step_rewards[i] = quality + latency_reward(self.cw[i], d_t, cfg,
                                                           is_terminal=terminal)
                self.rewards[i].append(float(step_rewards[i]))
            if terminal:
                self.live[i] = False
        self._running = [i for i in live if self.live[i]]
        return step_rewards


def _decode_consecutive(model: EnvModel, sources, features=None):
    """Greedy consecutive decodes, one lane per non-empty source; an empty source gives []."""
    lanes = [i for i, src in enumerate(sources) if src]
    hyps = [[] for _ in sources]
    if lanes:
        episode = EpisodeStepper(model, [sources[i] for i in lanes],
                                 None if features is None else [features[i] for i in lanes])
        while episode.live.any():
            _, forced = episode.propose()
            episode.apply(forced)
        for i, ids in zip(lanes, episode.hyp_ids):
            hyps[i] = model.tgt_vocab.decode(ids)
    return hyps


def translate_full(model: EnvModel, src_tokens, features: FeatureSet = None):
    """Greedy consecutive decode with the whole source read first."""
    return _decode_consecutive(model, [list(src_tokens)],
                               None if features is None else [features])[0]


# ---------------------------------------------------------------------------
# Consecutive (teacher-forced) training
# ---------------------------------------------------------------------------

@dataclass
class EnvTrainConfig:
    """Hyperparameters for pretraining the environment."""

    batch_size: int = 64
    lr: float = 0.0004
    max_epochs: int = 40
    patience: int = 10
    seed: int = 0
    emb_dim: int = 200
    hid_dim: int = 320
    init_scale: float = 0.08
    val_cap: int = 0    # 0 = use the whole validation split
    stop_bleu: float = 0.0  # stop once validation BLEU reaches this (0 = off)


def _pad_batch(seqs, pad_value=PAD):
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), pad_value, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
        mask[i, :len(s)] = True
    return out, mask


def teacher_forced_loss(model: EnvModel, batch, tape, feats3=None):
    """Cross-entropy per target token for one padded batch.

    ``batch`` holds (src_ids, tgt_ids) with EOS appended to sources by the
    caller. Each layer runs over the whole (B, T) batch in turn; padded
    positions are computed and masked out of attention and loss. Returns
    the scalar loss tensor.
    """
    if model.multimodal and feats3 is None:
        raise ConfigError("multimodal training requires features")
    src_ids, tgt_ids = batch
    src_mat, src_mask = _pad_batch(src_ids)
    zeros = Tensor(np.zeros((src_mat.shape[0], model.cfg.hid_dim)))

    xs = ad.embedding(tape, model.src_emb, src_mat)
    h_all = ad.gru_sequence(tape, ad.gru_sequence(tape, xs, zeros, model.enc1),
                            zeros, model.enc2)

    tgt_in = [[BOS] + ids for ids in tgt_ids]
    tgt_out = [ids + [EOS] for ids in tgt_ids]
    in_mat, _ = _pad_batch(tgt_in)
    out_mat, out_mask = _pad_batch(tgt_out)

    ys = ad.embedding(tape, model.tgt_emb, in_mat)
    g1 = ad.gru_sequence(tape, ys, zeros, model.dec1)
    ctx, _ = ad.batched_attention(tape, h_all, h_all, g1, src_mask)
    if model.multimodal:
        v_all = ad.linear_rows3(tape, feats3, model.w_vis)
        vctx, _ = ad.batched_attention(tape, v_all, v_all, g1)
        ctx = ad.add(tape, ctx, vctx)
    g2 = ad.gru_sequence(tape, ctx, zeros, model.dec2)
    feat = ad.concat(tape, [ys, ctx, g2], axis=2)
    logits = ad.add_bias(tape, ad.matmul(tape, feat, model.w_out), model.b_out)
    return ad.softmax_cross_entropy_rows(tape, logits, out_mat, out_mask,
                                         denom=float(out_mask.sum()))


def validation_bleu(model: EnvModel, pairs, features=None, cap: int = 0):
    """Corpus BLEU of greedy consecutive decodes, all pairs stepped as lanes at once."""
    if cap:
        pairs = pairs[:cap]
        features = features[:cap] if features is not None else None
    hyps = _decode_consecutive(model, [src for src, _ in pairs], features)
    return corpus_bleu(hyps, [list(tgt) for _, tgt in pairs])


def train_consecutive(train_pairs, valid_pairs, cfg: EnvTrainConfig,
                      features_train=None, features_valid=None):
    """Teacher-forced training with BLEU-based early stopping.

    Returns (model, history); the model carries the best-validation-BLEU
    parameters. History rows: epoch, train_loss, val_bleu.
    """
    if not train_pairs or not valid_pairs:
        raise DataError("train_consecutive: empty train or validation split")
    if features_train is not None and len(features_train) != len(train_pairs):
        raise DataError("train_consecutive: features misaligned with training corpus")

    src_vocab = Vocabulary.from_corpus(s for s, _ in train_pairs)
    tgt_vocab = Vocabulary.from_corpus(t for _, t in train_pairs)
    rng = np.random.default_rng(cfg.seed)
    multimodal = features_train is not None
    env_cfg = EnvConfig(
        emb_dim=cfg.emb_dim, hid_dim=cfg.hid_dim, multimodal=multimodal,
        feature_rows=features_train[0].rows if multimodal else 0,
        feature_dim=features_train[0].dim if multimodal else 0,
        init_scale=cfg.init_scale)
    model = EnvModel(src_vocab, tgt_vocab, env_cfg, rng)

    from .optim import AdamState, adam_step
    opt = AdamState(model.named_tensors(), lr=cfg.lr)

    src_ids = [src_vocab.encode(s) + [EOS] for s, _ in train_pairs]
    tgt_ids = [tgt_vocab.encode(t) for _, t in train_pairs]

    history = []
    best_bleu = -1.0
    best_snapshot = None
    best_epoch = -1
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(perm), cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch = ([src_ids[i] for i in idx], [tgt_ids[i] for i in idx])
            feats3 = (np.stack([features_train[i].matrix for i in idx])
                      if multimodal else None)
            tape = ad.Tape()
            loss = teacher_forced_loss(model, batch, tape, feats3)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError(f"training diverged at epoch {epoch}: loss={value}")
            ad.backward(tape, loss)
            adam_step(opt)
            ad.zero_grads(t for _, t in model.named_tensors())
            epoch_loss += value
            n_batches += 1

        bleu = validation_bleu(model, valid_pairs, features_valid, cfg.val_cap)
        history.append({"epoch": epoch, "train_loss": epoch_loss / max(n_batches, 1),
                        "val_bleu": bleu})
        log.info("pretrain epoch %d: loss %.4f, val BLEU %.2f",
                 epoch, history[-1]["train_loss"], bleu)
        if bleu > best_bleu:
            best_bleu = bleu
            best_snapshot = model.snapshot()
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            break
        if cfg.stop_bleu and best_bleu >= cfg.stop_bleu:
            break

    if best_snapshot is not None:
        model.restore(best_snapshot)
    return model, history
