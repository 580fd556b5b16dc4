"""The pre-trained encoder-decoder translation system.

During reinforcement learning this model is the frozen environment: it is
stepped incrementally (at most one proposal per step) and never receives
gradients. Its states carry a leading lane axis, so ``EpisodeStepper`` runs
n episodes in lockstep under one set of rules. The encoder is
unidirectional, so the stepper encodes every lane's whole source once, up
front, and a READ only makes one more of those rows visible. The stepper
computes a step's proposal only when something reads it (a policy that
looks at the proposed token, or a WRITE that adopts it), and is the only
writer of decoder state: a WRITE copies the proposal's rows into its own.
Its model states keep rows for the lanes still running only, so the
proposal is computed on those lanes alone. A step on which every lane READs
under a rule that reads only the counters runs no decoder work. The
stepper records each episode's actions, hypothesis, last action and
overridden READs and computes no reward: ``metrics.step_rewards`` scores
the finished transcript. The same model trained and decoded with the full
source is the consecutive baseline.

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
from .checkpoint import load_into, read_config, save_checkpoint, write_metadata
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError, check_field
from .features import check_feature_sets
from .metrics import corpus_bleu
from .optim import AdamState, adam_step
from .vocab import BOS, EOS, PAD, RESERVED, Vocabulary

log = logging.getLogger(__name__)

# the EnvConfig fields a checkpoint's metadata records
_META = {"emb_dim": int, "hid_dim": int, "feature_rows": int, "feature_dim": int}


def require_positive(cfg, *names) -> None:
    """Raise ``ConfigError`` naming the first of ``cfg``'s ``names`` that is below 1."""
    for name in names:
        check_field(cfg, name, getattr(cfg, name) >= 1, "at least 1")


@dataclass
class EnvConfig:
    """Model dimensions; a feature geometry (both 0 for text only) makes it ``multimodal``."""

    emb_dim: int = 200
    hid_dim: int = 320
    feature_rows: int = 0
    feature_dim: int = 0
    init_scale: float = 0.08

    def __post_init__(self):
        require_positive(self, "emb_dim", "hid_dim")
        check_field(self, "init_scale", 0 <= self.init_scale < np.inf, "finite and at least 0")
        geometry = (self.feature_rows, self.feature_dim)
        if not (geometry == (0, 0) or min(geometry) >= 1):
            raise ConfigError(f"EnvConfig.feature_rows and feature_dim must both be 0 or both "
                              f"at least 1, got {geometry}")

    @property
    def multimodal(self) -> bool:
        return min(self.feature_rows, self.feature_dim) >= 1


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

    def project_features(self, features):
        """Map raw feature rows into the decoder space with w_vis: (blocks, index).

        ``features`` is a list of n FeatureSets, one per lane, or a single
        FeatureSet, which is one lane. Each of the U distinct FeatureSet
        objects is one tapeless ``matmul``, the op teacher forcing records,
        into its (R, h) float64 block of ``blocks``, which lanes that share
        the set share: lane i reads block ``index[i]``, block i when every
        lane has its own set and ``index`` is None. A block equals its rows
        of one GEMM over all sets.
        """
        if not self.multimodal:
            raise ConfigError("project_features on a unimodal environment")
        sets = features if isinstance(features, (list, tuple)) else [features]
        check_feature_sets(sets, (self.cfg.feature_rows, self.cfg.feature_dim),
                           "multimodal environment")
        distinct, index = distinct_items(sets, id)
        projected = np.empty((len(distinct), self.cfg.feature_rows, self.cfg.hid_dim))
        for k, f in enumerate(distinct):
            projected[k] = ad.matmul(None, Tensor(f.matrix), self.w_vis).data
        return projected, index

    def initial_decoder_state(self) -> "DecoderState":
        return DecoderState.initial(self, 1)

    def save(self, prefix) -> None:
        prefix = Path(prefix)
        save_checkpoint(prefix.with_suffix(".ckpt"), self.named_tensors())
        write_metadata(prefix.with_suffix(".meta"), {
            "kind": "environment",
            **{key: getattr(self.cfg, key) for key in _META},
            "src_vocab": list(self.src_vocab.tokens[len(RESERVED):]),
            "tgt_vocab": list(self.tgt_vocab.tokens[len(RESERVED):]),
        })

    @classmethod
    def load(cls, prefix) -> "EnvModel":
        prefix = Path(prefix)
        values = read_config(prefix.with_suffix(".meta"), "environment",
                             {**_META, "src_vocab": list, "tgt_vocab": list})
        src_vocab = Vocabulary(values.pop("src_vocab"))
        tgt_vocab = Vocabulary(values.pop("tgt_vocab"))
        model = cls(src_vocab, tgt_vocab, EnvConfig(**values), np.random.default_rng(0))
        load_into(prefix.with_suffix(".ckpt"), model.named_tensors())
        return model


def distinct_items(items, key):
    """The first item of each ``key``, and every item's position among them.

    ``items`` and None when all keys differ.
    """
    firsts = {}
    index = np.array([firsts.setdefault(key(x), (len(firsts), x))[0] for x in items])
    if len(firsts) == len(items):
        return items, None
    return [x for _, x in firsts.values()], index


def _compact(block, keep):
    """The ``keep`` rows (ascending) of ``block`` moved down in place: a prefix view."""
    for row, k in enumerate(keep):  # row <= k
        if row != k:
            block[row] = block[k]
    return block[:len(keep)]


def _keep_lanes(shared, keep):
    """``shared`` = (*blocks, index) for the ``keep`` lanes (ascending) alone.

    Lane i reads row ``index[i]`` of every block, row i when ``index`` is
    None; then the rows are compacted with their lanes (``_compact``).
    Otherwise only the index is compacted, and a row is dropped, moving the
    rows after it down in place, only when its last lane ends. The returned
    index is None when each kept lane reads its own row, in order.
    """
    *blocks, index = shared
    if index is None:
        return (*[_compact(b, keep) for b in blocks], None)
    index = index[keep]
    used = np.bincount(index, minlength=len(blocks[0])) > 0
    if not used.all():
        blocks = [_compact(b, np.flatnonzero(used)) for b in blocks]
        index = (np.cumsum(used) - 1)[index]
    return (*blocks, None if np.array_equal(index, np.arange(len(index))) else index)


class EncoderState:
    """Top-layer encoder states of n lanes.

    ``rows`` (n, W, h) holds each lane's states in source order; row j of
    lane i is valid while j < consumed[i]. ``h1`` and ``h2`` are the
    recurrent states of a one-lane state that ``encode_next`` continues
    from, and ``encode_next`` appends its new row to a copy. An
    ``EpisodeStepper`` keeps the rows that ``encode`` built up front, and
    each proposal views them through a state whose ``consumed`` is
    ``n_read + forced`` of the running lanes.
    """

    __slots__ = ("h1", "h2", "rows", "consumed")

    def __init__(self, h1, h2, rows, consumed):
        self.h1 = h1
        self.h2 = h2
        self.rows = rows
        self.consumed = consumed

    @classmethod
    def initial(cls, model: EnvModel) -> "EncoderState":
        """An empty one-lane state."""
        h = model.cfg.hid_dim
        return cls(np.zeros((1, h)), np.zeros((1, h)), np.zeros((1, 0, h)),
                   np.zeros(1, dtype=np.int64))

    @classmethod
    def encode(cls, model: EnvModel, id_lists) -> "EncoderState":
        """Every row of n id lists, from one tapeless pass per layer, none read yet.

        Each distinct id list is encoded once; lanes that repeat it get a
        copy of its rows. Row j depends only on ids up to j, so it equals the
        row that j + 1 ``encode_next`` calls emit, up to the last bits: the
        input projection is one GEMM over the packed rows. Rows past a lane's
        length are zero. ``encode_next`` does not continue this state.
        """
        distinct, index = distinct_items(id_lists, tuple)
        padded, mask = _pad_batch(distinct)
        if padded.min() < 0 or padded.max() >= len(model.src_vocab):
            raise DataError(f"source token ids out of vocabulary range "
                            f"[0, {len(model.src_vocab)})")
        lengths = mask.sum(axis=1)
        zeros = Tensor(np.zeros((len(distinct), model.cfg.hid_dim)))
        h1 = ad.gru_sequence(None, Tensor(model.src_emb.data[padded]), zeros, model.enc1,
                             lengths)
        rows = ad.gru_sequence(None, h1, zeros, model.enc2, lengths).data
        return cls(None, None, rows if index is None else rows[index],
                   np.zeros(len(id_lists), dtype=np.int64))

    def keys(self):
        """Rows up to the longest lane, and the valid-row mask.

        The mask is None when every lane has read as many rows.
        """
        fewest, most = int(self.consumed.min()), int(self.consumed.max())
        if fewest == 0:
            raise ContractError("encoder state is empty; READ before attending")
        mask = None if fewest == most else np.arange(most) < self.consumed[:, None]
        return self.rows[:, :most], mask


@dataclass
class DecoderState:
    """Decoder state of n lanes after their written prefixes.

    ``EpisodeStepper`` owns the rows of its state and changes them in place
    when a lane WRITEs or lanes end; nothing else changes a state.
    """

    g1_h: np.ndarray         # (n, h)
    g2_h: np.ndarray         # (n, h)
    last_token: np.ndarray   # (n,)

    @classmethod
    def initial(cls, model: EnvModel, n: int = 1) -> "DecoderState":
        h = model.cfg.hid_dim
        return cls(np.zeros((n, h)), np.zeros((n, h)), np.full(n, BOS, dtype=np.int64))


@dataclass
class Proposal:
    """A candidate next token per lane, plus the decoder rows that adopting it gives."""

    token: np.ndarray          # (n,)
    logits: np.ndarray         # (n, V)
    text_ctx: np.ndarray       # (n, h)
    text_weights: np.ndarray   # (n, rows attended)
    g1_next: np.ndarray        # (n, h)
    g2_next: np.ndarray        # (n, h)


def _attend(keys, query, mask=None, index=None):
    """(context, weights) of dot-product attention with keys as values."""
    kv = Tensor(keys)
    ctx, weights = ad.batched_attention(None, kv, kv, Tensor(query), mask, index)
    return ctx.data, weights.data


def encode_next(state: EncoderState, token_id: int, model: EnvModel) -> EncoderState:
    """Consume one more source token on a one-lane state, which gains one row."""
    if state.h1 is None:
        raise ContractError("encode_next on a state encoded up front; it holds every row")
    if not 0 <= token_id < len(model.src_vocab):
        raise DataError(f"source token id {token_id} out of vocabulary range")
    h1 = ad.gru_step(model.src_emb.data[[token_id]], state.h1, model.enc1)
    h2 = ad.gru_step(h1, state.h2, model.enc2)
    return EncoderState(h1, h2, np.concatenate([state.rows, h2[:, None]], axis=1),
                        state.consumed + 1)


def encode_sequence(model: EnvModel, token_ids) -> EncoderState:
    state = EncoderState.initial(model)
    for token_id in token_ids:
        state = encode_next(state, token_id, model)
    return state


def propose_next(dec: DecoderState, enc: EncoderState, model: EnvModel,
                 projected=None) -> Proposal:
    """Greedy candidate for the next target token on every lane; mutates nothing.

    ``projected`` is ``project_features``' (blocks, index), which a
    multimodal environment needs: lane i attends over block ``index[i]``.
    """
    keys, mask = enc.keys()
    prev_emb = model.tgt_emb.data[dec.last_token]
    g1 = ad.gru_step(prev_emb, dec.g1_h, model.dec1)
    text_ctx, weights = _attend(keys, g1, mask)
    ctx = text_ctx
    if model.multimodal:
        blocks, index = projected
        lanes = len(blocks) if index is None else len(index)
        if lanes != len(g1):
            raise ShapeError(f"propose_next: projected feature blocks for {lanes} lanes, "
                             f"not {len(g1)}")
        ctx = ctx + _attend(blocks, g1, index=index)[0]
    g2 = ad.gru_step(ctx, dec.g2_h, model.dec2)
    logits = np.concatenate([prev_emb, ctx, g2], axis=1) @ model.w_out.data + model.b_out.data
    return Proposal(token=logits.argmax(axis=1), logits=logits, text_ctx=text_ctx,
                    text_weights=weights, g1_next=g1, g2_next=g2)


def output_cap(src_len: int) -> int:
    """Hard bound on committed tokens; prevents non-terminating WRITE loops."""
    return 2 * src_len + 5


READ, WRITE = "R", "W"


class EpisodeStepper:
    """READ/WRITE episodes on n lanes of one environment, stepped in lockstep.

    The rules of the game (Gu et al. 2017) live here. ``features`` has one
    entry per source, None on a text-only environment. The constructor
    encodes every lane's source plus EOS in one pass per encoder layer
    (``EncoderState.encode``) into ``enc_rows``; a READ then makes the
    lane's next row visible and runs no encoder. The first action is a
    forced READ, since the decoder cannot attend to an empty prefix. Once a
    lane has read its whole source, its EOS row becomes visible and WRITE
    is forced: a lane sees its first ``n_read + forced`` rows. A lane
    ends on an EOS commit or at ``output_cap`` committed tokens. Per lane
    the stepper keeps the hypothesis ids and the actions, the transcript
    that ``metrics.step_rewards`` scores once the episode is over, whether
    the last action was a WRITE (``wrote``) and how many READ answers it
    overrode (``forced_overrides``).

    The constructor takes the first READ and each ``apply()`` ends by
    starting the next step, so ``forced``, the step's forced-WRITE mask, is
    always current. ``proposal()`` computes the step's proposal on first
    call and caches it for the step; ``apply()`` asks for it only when some
    lane writes. ``running`` is the index array of the live lanes, in
    order. The decoder state ``dec`` and the encoder rows ``enc_rows`` hold
    one row per running lane, in ``running`` order, so the proposal does
    too; ``projected`` (``project_features``' blocks and index) holds the
    block of each distinct FeatureSet of the running lanes once. ``apply()``
    copies the proposal onto the decoder rows of the lanes that write, in
    place, and drops the rows of the lanes it ends, and a feature block when
    its last lane ends (``_keep_lanes``). These are blocks made for this
    stepper: dropping rows moves the kept rows down in place and keeps a
    prefix view, so no second block is allocated. The per-lane bookkeeping
    (the ``n_read`` and ``n_written`` counters, ``forced`` and the lists
    and arrays above) is indexed by lane.
    """

    def __init__(self, model: EnvModel, sources, features=None):
        self.model = model
        self.src_ids = [model.src_vocab.encode(s) for s in sources]
        if not self.src_ids:
            raise ContractError("episode: no sources")
        for lane, ids in enumerate(self.src_ids):
            if not ids:
                raise DataError(f"episode: empty source on lane {lane}")
        n = self.n = len(self.src_ids)
        if features is not None and (not isinstance(features, (list, tuple))
                                     or len(features) != n):
            raise DataError(f"episode: features must be a list with one entry per source "
                            f"({n} sources)")
        if not model.multimodal and any(f is not None for f in features or ()):
            raise ConfigError("episode: a text-only environment takes no visual features")
        self.projected = model.project_features(features) if model.multimodal else None
        self.enc_rows = EncoderState.encode(model, [ids + [EOS] for ids in self.src_ids]).rows
        self.dec = DecoderState.initial(model, n)
        self.running = np.arange(n)
        self.n_read = np.zeros(n, dtype=np.int64)
        self.n_written = np.zeros(n, dtype=np.int64)  # EOS included
        self.hyp_ids = [[] for _ in range(n)]
        self.actions = [[] for _ in range(n)]
        self.wrote = np.zeros(n, dtype=bool)
        self.forced_overrides = np.zeros(n, dtype=np.int64)
        self._src_len = np.array([len(s) for s in self.src_ids])
        self._cap = [output_cap(len(s)) for s in self.src_ids]
        self._proposal = None
        self.forced = np.zeros(n, dtype=bool)
        self.apply(self.forced)

    def proposal(self) -> Proposal:
        """The current step's proposal, one row per running lane, computed on first call."""
        if self._proposal is None:
            run = self.running
            if not len(run):
                raise ContractError("proposal: every lane has ended")
            enc = EncoderState(None, None, self.enc_rows, self.n_read[run] + self.forced[run])
            self._proposal = propose_next(self.dec, enc, self.model, self.projected)
        return self._proposal

    def apply(self, write_mask) -> None:
        """Take one action on every live lane, WRITE where ``write_mask`` or
        forced and READ elsewhere, then start the next step."""
        live = self.running
        answered = write_mask[live]
        wrote = answered | self.forced[live]
        self.wrote[live] = wrote
        self.forced_overrides[live] += wrote != answered
        writes = wrote.nonzero()[0]  # row positions
        proposal = self.proposal() if len(writes) else None
        if len(writes):
            rows, dec = slice(None) if wrote.all() else writes, self.dec
            dec.g1_h[rows] = proposal.g1_next[rows]
            dec.g2_h[rows] = proposal.g2_next[rows]
            dec.last_token[rows] = proposal.token[rows]
        ended = []  # row positions
        for k, (i, w) in enumerate(zip(live.tolist(), wrote.tolist())):
            self.actions[i].append(WRITE if w else READ)
            if not w:
                self.n_read[i] += 1
                continue
            token = int(proposal.token[k])
            self.hyp_ids[i].append(token)
            self.n_written[i] += 1
            if token == EOS or self.n_written[i] >= self._cap[i]:
                ended.append(k)
        if ended:
            keep = np.delete(np.arange(len(live)), ended)
            self.running, dec = live[keep], self.dec
            self.dec = DecoderState(*(_compact(a, keep) for a in (dec.g1_h, dec.g2_h,
                                                                  dec.last_token)))
            self.enc_rows = _compact(self.enc_rows, keep)
            if self.projected is not None:
                self.projected = _keep_lanes(self.projected, keep)
        # start the next step: a lane that has read its whole source sees EOS and writes
        self.forced = self.n_read == self._src_len
        self._proposal = None


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
    val_cap: int = 0    # 0 = use the whole validation split
    stop_bleu: float = 0.0  # stop once validation BLEU reaches this (0 = off)

    def __post_init__(self):
        require_positive(self, "batch_size", "max_epochs", "emb_dim", "hid_dim")
        check_field(self, "lr", np.isfinite(self.lr), "finite")
        check_field(self, "lr", self.lr > 0, "positive")
        for name in ("seed", "val_cap", "patience"):
            check_field(self, name, getattr(self, name) >= 0, "at least 0")
        check_field(self, "stop_bleu", 0.0 <= self.stop_bleu <= 100.0, "in [0, 100]")


def _pad_batch(seqs):
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
        mask[i, :len(s)] = True
    return out, mask


def teacher_forced_loss(model: EnvModel, batch, tape, feats3=None):
    """Cross-entropy per target token for one padded batch.

    ``batch`` holds (src_ids, tgt_ids) with EOS appended to sources by the
    caller. Each layer runs over the whole (B, T) batch in turn; the GRU
    layers run each sentence's own length only (zero states past it), and
    padded positions are masked out of attention and loss. ``feats3`` is
    None on a text-only environment. Returns the scalar loss tensor.
    """
    src_ids, tgt_ids = batch
    got = None if feats3 is None else np.shape(feats3)
    rows, dim = model.cfg.feature_rows, model.cfg.feature_dim
    want = (len(src_ids), rows, dim) if model.multimodal else None
    if got != want:
        raise ConfigError(f"teacher_forced_loss: expected a (B, rows, dim) = {want} feature "
                          f"block (None on a text-only environment), got {got}")
    src_mat, src_mask = _pad_batch(src_ids)
    zeros = Tensor(np.zeros((src_mat.shape[0], model.cfg.hid_dim)))

    src_len = src_mask.sum(axis=1)
    xs = ad.embedding(tape, model.src_emb, src_mat)
    h_all = ad.gru_sequence(tape, ad.gru_sequence(tape, xs, zeros, model.enc1, src_len),
                            zeros, model.enc2, src_len)

    tgt_in = [[BOS] + ids for ids in tgt_ids]
    tgt_out = [ids + [EOS] for ids in tgt_ids]
    in_mat, _ = _pad_batch(tgt_in)
    out_mat, out_mask = _pad_batch(tgt_out)
    tgt_len = out_mask.sum(axis=1)

    ys = ad.embedding(tape, model.tgt_emb, in_mat)
    g1 = ad.gru_sequence(tape, ys, zeros, model.dec1, tgt_len)
    ctx, _ = ad.batched_attention(tape, h_all, h_all, g1, src_mask)
    if model.multimodal:
        v_all = ad.matmul(tape, Tensor(feats3), model.w_vis)
        vctx, _ = ad.batched_attention(tape, v_all, v_all, g1)
        ctx = ad.add(tape, ctx, vctx)
    g2 = ad.gru_sequence(tape, ctx, zeros, model.dec2, tgt_len)
    feat = ad.concat(tape, [ys, ctx, g2])
    logits = ad.add_bias(tape, ad.matmul(tape, feat, model.w_out), model.b_out)
    return ad.softmax_cross_entropy_rows(tape, logits, out_mat, out_mask,
                                         denom=float(out_mask.sum()))


def validation_bleu(model: EnvModel, pairs, features=None, cap: int = 0):
    """Corpus BLEU of greedy consecutive decodes, all pairs stepped as lanes at once.

    A positive ``cap`` scores the first ``cap`` pairs only; 0 scores all. An
    empty source decodes to no tokens.
    """
    if cap < 0:
        raise ContractError(f"validation_bleu: cap must be at least 0, got {cap}")
    if features is not None and len(features) != len(pairs):
        raise DataError(f"validation_bleu: {len(features)} feature sets for {len(pairs)} pairs")
    if cap:
        pairs = pairs[:cap]
        features = features[:cap] if features is not None else None
    lanes = [i for i, (src, _) in enumerate(pairs) if src]
    hyps = [[] for _ in pairs]
    if lanes:
        episode = EpisodeStepper(model, [pairs[i][0] for i in lanes],
                                 None if features is None else [features[i] for i in lanes])
        while len(episode.running):
            episode.apply(episode.forced)  # proposes only when some lane writes
        for i, ids in zip(lanes, episode.hyp_ids):
            hyps[i] = model.tgt_vocab.decode(ids)
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
    if features_valid is not None and len(features_valid) != len(valid_pairs):
        raise DataError("train_consecutive: features misaligned with validation corpus")
    if (features_train is None) != (features_valid is None):
        raise ConfigError("train_consecutive: give features for both the training and the "
                          "validation split, or for neither")
    rows = dim = 0
    if features_train is not None:
        sets = [*features_train, *features_valid]
        if sets[0] is not None:
            rows, dim = sets[0].matrix.shape
        check_feature_sets(sets, (rows, dim), "train_consecutive")

    src_vocab = Vocabulary.from_corpus(s for s, _ in train_pairs)
    tgt_vocab = Vocabulary.from_corpus(t for _, t in train_pairs)
    rng = np.random.default_rng(cfg.seed)
    env_cfg = EnvConfig(emb_dim=cfg.emb_dim, hid_dim=cfg.hid_dim, feature_rows=rows,
                        feature_dim=dim)
    model = EnvModel(src_vocab, tgt_vocab, env_cfg, rng)
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
            feats3 = (np.stack([features_train[i].matrix for i in idx], dtype=np.float64)
                      if model.multimodal else None)
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
