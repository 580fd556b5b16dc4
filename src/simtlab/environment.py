"""The pre-trained encoder-decoder translation system.

During reinforcement learning this model is the frozen environment: it is
stepped incrementally (one source token per READ, one proposal per step)
and never receives gradients. The same model trained and decoded with the
full source is the consecutive baseline.

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
from .metrics import corpus_bleu
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

    def project_features(self, features: FeatureSet) -> np.ndarray:
        """Map raw feature rows into the decoder space with w_vis."""
        if not self.multimodal:
            raise ConfigError("project_features on a unimodal environment")
        if features.dim != self.cfg.feature_dim or features.rows != self.cfg.feature_rows:
            raise ConfigError(
                f"feature geometry {features.matrix.shape} does not match configured "
                f"({self.cfg.feature_rows}, {self.cfg.feature_dim})")
        return features.matrix @ self.w_vis.data

    def initial_decoder_state(self) -> "DecoderState":
        h = self.cfg.hid_dim
        return DecoderState(np.zeros(h), np.zeros(h), BOS, 0, False)

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
    """Emitted top-layer states for the source prefix read so far."""

    __slots__ = ("h1", "h2", "rows", "consumed", "_matrix")

    def __init__(self, h1, h2, rows, consumed):
        self.h1 = h1
        self.h2 = h2
        self.rows = rows
        self.consumed = consumed
        self._matrix = None

    @classmethod
    def initial(cls, model: EnvModel) -> "EncoderState":
        h = model.cfg.hid_dim
        return cls(np.zeros(h), np.zeros(h), (), 0)

    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            if not self.rows:
                raise ContractError("encoder state is empty; READ before attending")
            self._matrix = np.stack(self.rows)
        return self._matrix


@dataclass
class DecoderState:
    """Committed-prefix decoder state; advances only on commit."""

    g1_h: np.ndarray
    g2_h: np.ndarray
    last_token: int
    committed: int
    terminal: bool


@dataclass
class Proposal:
    """A candidate next token plus everything needed to adopt it."""

    token: int
    distribution: np.ndarray
    text_ctx: np.ndarray
    visual_ctx: np.ndarray
    text_weights: np.ndarray
    g1_next: np.ndarray
    g2_next: np.ndarray
    prev_token: int
    basis_consumed: int
    basis_committed: int


def _gru(x, h, params) -> np.ndarray:
    return ad.gru_cell(None, Tensor(x), Tensor(h), params).data


def encode_next(state: EncoderState, token_id: int, model: EnvModel) -> EncoderState:
    """Consume one more source token; appends exactly one row to H."""
    if not 0 <= token_id < len(model.src_vocab):
        raise DataError(f"source token id {token_id} out of vocabulary range")
    x = model.src_emb.data[token_id]
    h1 = _gru(x, state.h1, model.enc1)
    h2 = _gru(h1, state.h2, model.enc2)
    return EncoderState(h1, h2, state.rows + (h2,), state.consumed + 1)


def encode_sequence(model: EnvModel, token_ids) -> EncoderState:
    state = EncoderState.initial(model)
    for token_id in token_ids:
        state = encode_next(state, token_id, model)
    return state


def propose_next(dec: DecoderState, enc: EncoderState, model: EnvModel,
                 projected_visual=None) -> Proposal:
    """Greedy candidate for the next target token; mutates nothing."""
    if dec.terminal:
        raise ContractError("propose_next after EOS was committed")
    if enc.consumed == 0:
        raise ContractError("propose_next with empty encoder state; READ first")
    if model.multimodal and projected_visual is None:
        raise ConfigError("multimodal environment requires visual features")

    prev_emb = model.tgt_emb.data[dec.last_token]
    g1 = _gru(prev_emb, dec.g1_h, model.dec1)
    ctx_t, weights_t = ad.dot_attention(None, Tensor(enc.matrix()), Tensor(g1))
    ctx = ctx_t.data
    visual_ctx = None
    if model.multimodal:
        vctx_t, _ = ad.dot_attention(None, Tensor(projected_visual), Tensor(g1))
        visual_ctx = vctx_t.data
        ctx = ctx + visual_ctx
    g2 = _gru(ctx, dec.g2_h, model.dec2)
    logits = np.concatenate([prev_emb, ctx, g2]) @ model.w_out.data + model.b_out.data
    dist = ad.softmax(logits)
    return Proposal(
        token=int(dist.argmax()),
        distribution=dist,
        text_ctx=ctx_t.data,
        visual_ctx=visual_ctx,
        text_weights=weights_t.data,
        g1_next=g1,
        g2_next=g2,
        prev_token=dec.last_token,
        basis_consumed=enc.consumed,
        basis_committed=dec.committed,
    )


def commit(dec: DecoderState, proposal: Proposal, enc: EncoderState = None) -> DecoderState:
    """Adopt a proposal: decoder states advance, committed count grows."""
    if dec.terminal:
        raise ContractError("commit after EOS was already committed")
    if proposal.basis_committed != dec.committed or proposal.prev_token != dec.last_token:
        raise ContractError("commit: proposal was produced against a different decoder state")
    if enc is not None and proposal.basis_consumed != enc.consumed:
        raise ContractError("commit: proposal was produced against a different encoder state")
    return DecoderState(
        g1_h=proposal.g1_next,
        g2_h=proposal.g2_next,
        last_token=proposal.token,
        committed=dec.committed + 1,
        terminal=proposal.token == EOS,
    )


def output_cap(src_len: int) -> int:
    """Hard bound on committed tokens; prevents non-terminating WRITE loops."""
    return 2 * src_len + 5


def translate_full(model: EnvModel, src_tokens, features: FeatureSet = None):
    """Greedy consecutive decode with the whole source read first."""
    ids = model.src_vocab.encode(src_tokens)
    if not ids:
        return []
    enc = encode_sequence(model, ids + [EOS])
    projected = model.project_features(features) if model.multimodal else None
    dec = model.initial_decoder_state()
    out = []
    cap = output_cap(len(ids))
    while not dec.terminal and dec.committed < cap:
        proposal = propose_next(dec, enc, model, projected)
        dec = commit(dec, proposal, enc)
        if proposal.token != EOS:
            out.append(proposal.token)
    return model.tgt_vocab.decode(out)


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
    if cap:
        pairs = pairs[:cap]
        features = features[:cap] if features is not None else None
    hyps = []
    refs = []
    for i, (src, tgt) in enumerate(pairs):
        fs = features[i] if features is not None else None
        hyps.append(translate_full(model, src, fs))
        refs.append(list(tgt))
    return corpus_bleu(hyps, refs)


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
