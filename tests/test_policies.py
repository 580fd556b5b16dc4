import json

import numpy as np
import pytest

from simtlab import autodiff as ad
from simtlab.environment import (EncoderState, EnvConfig, EnvModel, EnvTrainConfig,
                                 EpisodeStepper, encode_next, encode_sequence, propose_next,
                                 teacher_forced_loss, validation_bleu)
from simtlab.errors import ConfigError, ContractError, DataError, NumericError
from simtlab.features import FeatureSet
from simtlab.metrics import RewardConfig, corpus_bleu, delays_from_actions
from simtlab.optim import AdamState, adam_step
from simtlab.policies import (ConsecutivePolicy, Policy, Transcript, WaitKPolicy,
                              read_transcripts, simulate, write_transcripts)
from simtlab.vocab import BOS, EOS, Vocabulary

from gradcheck import assert_grads_close
from memory import peak_bytes
from recount import quality_rewards_by_recount, smoothed_sentence_bleu, transcript_rewards
from stepwise import teacher_forced_loss_stepwise


class ScriptedPolicy(Policy):
    """Plays one action string on every lane, then writes."""

    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def start_episode(self, sources, features):
        self.pos = 0

    def decide(self, episode):
        if self.pos < len(self.script):
            action = self.script[self.pos]
        else:
            action = "W"
        self.pos += 1
        return np.full(episode.n, action == "W")


def translate_full(model, src_tokens, features=None):
    """Greedy consecutive decode of one non-empty source, read whole before any WRITE."""
    episode = EpisodeStepper(model, [list(src_tokens)], None if features is None else [features])
    while len(episode.running):
        episode.apply(episode.forced)
    return model.tgt_vocab.decode(episode.hyp_ids[0])


class AlwaysRead(Policy):
    def decide(self, episode):
        return np.zeros(episode.n, dtype=bool)


class RandomPolicy(Policy):
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def decide(self, episode):
        return self.rng.integers(0, 2, size=episode.n) == 1


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [("emb_dim", 0), ("hid_dim", -3)])
def test_env_config_rejects_non_positive_dims(field, value):
    with pytest.raises(ConfigError, match=rf"EnvConfig.{field} must be at least 1, got {value}"):
        EnvConfig(**{field: value})
    EnvConfig(emb_dim=1, hid_dim=1, init_scale=0.0)


@pytest.mark.parametrize("field, value, problem", [
    ("batch_size", 0, "at least 1, got 0"), ("max_epochs", -1, "at least 1, got -1"),
    ("lr", 0.0, "positive, got 0.0"), ("lr", -1, "positive, got -1")])
def test_env_train_config_rejects_non_positive_sizes(field, value, problem):
    with pytest.raises(ConfigError, match=rf"EnvTrainConfig.{field} must be {problem}"):
        EnvTrainConfig(**{field: value})
    EnvTrainConfig(batch_size=1, max_epochs=1, lr=1e-9)


def test_env_train_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="EnvTrainConfig.seed must be at least 0, got -1"):
        EnvTrainConfig(seed=-1)
    EnvTrainConfig(seed=0)


@pytest.mark.parametrize("field, value, problem", [
    ("val_cap", -5, r"at least 0, got -5"), ("stop_bleu", -1, r"in \[0, 100\], got -1"),
    ("stop_bleu", 100.5, r"in \[0, 100\], got 100.5")])
def test_env_train_config_rejects_negative_cap_and_out_of_range_stop(field, value, problem):
    with pytest.raises(ConfigError, match=rf"EnvTrainConfig.{field} must be {problem}"):
        EnvTrainConfig(**{field: value})
    EnvTrainConfig(val_cap=0, stop_bleu=0.0)
    EnvTrainConfig(val_cap=1, stop_bleu=100.0)


def test_validation_bleu_rejects_a_negative_cap(untrained_env):
    model, pairs = untrained_env
    with pytest.raises(ContractError, match="cap must be at least 0, got -5"):
        validation_bleu(model, pairs, cap=-5)


# ---------------------------------------------------------------------------
# encoder and proposal mechanics (weights irrelevant)
# ---------------------------------------------------------------------------

def test_encoder_appends_one_row(untrained_env):
    model, pairs = untrained_env
    state = EncoderState.initial(model)
    state = encode_next(state, 5, model)
    rows, mask = state.keys()
    assert state.consumed.tolist() == [1] and rows.shape == (1, 1, model.cfg.hid_dim)
    assert mask is None


def test_encoder_incremental_equals_full(untrained_env):
    model, pairs = untrained_env
    ids = model.src_vocab.encode(pairs[0][0])[:5]
    inc = EncoderState.initial(model)
    for t in ids:
        inc = encode_next(inc, t, model)
    full = encode_sequence(model, ids)
    assert np.array_equal(inc.keys()[0], full.keys()[0])


def test_encoder_prefix_rows_frozen(untrained_env):
    model, pairs = untrained_env
    rng = np.random.default_rng(1)
    ids = [int(rng.integers(4, len(model.src_vocab))) for _ in range(8)]
    prefix3 = encode_sequence(model, ids[:3])
    full = encode_sequence(model, ids)
    assert np.array_equal(full.keys()[0][0, 2], prefix3.keys()[0][0, 2])
    assert np.array_equal(full.keys()[0][:, :3], prefix3.keys()[0])


def test_encoder_rejects_bad_token(untrained_env):
    model, _ = untrained_env
    with pytest.raises(DataError):
        encode_next(EncoderState.initial(model), len(model.src_vocab), model)


def test_proposal_requires_read(untrained_env):
    model, _ = untrained_env
    with pytest.raises(ContractError):
        propose_next(model.initial_decoder_state(), EncoderState.initial(model), model)


def test_proposal_purity_and_basis(untrained_env):
    model, pairs = untrained_env
    enc = encode_sequence(model, model.src_vocab.encode(pairs[0][0]))
    dec = model.initial_decoder_state()
    rows = enc.rows.copy()
    p1 = propose_next(dec, enc, model)
    p2 = propose_next(dec, enc, model)
    assert p1.token == p2.token
    assert np.array_equal(p1.logits, p2.logits)
    assert p1.token == int(p1.logits.argmax())
    # neither state is touched
    assert dec.last_token == BOS and not dec.g1_h.any() and not dec.g2_h.any()
    assert np.array_equal(enc.rows, rows) and enc.consumed.tolist() == [len(pairs[0][0])]


def test_attention_weights_len_one_for_single_prefix(untrained_env):
    model, pairs = untrained_env
    enc = encode_sequence(model, model.src_vocab.encode(pairs[0][0])[:1])
    p = propose_next(model.initial_decoder_state(), enc, model)
    assert p.text_weights.shape == (1, 1)
    assert p.text_weights[0, 0] == 1.0


def test_multimodal_zero_projection_degenerates_to_unimodal():
    from simtlab.data import TaskSpec, generate_pairs
    from simtlab.features import FeatureSet

    rng = np.random.default_rng(2)
    pairs = generate_pairs(TaskSpec(task="copy", vocab_size=12), 10, rng)
    sv = Vocabulary.from_corpus(s for s, _ in pairs)
    tv = Vocabulary.from_corpus(t for _, t in pairs)
    mm = EnvModel(sv, tv, EnvConfig(emb_dim=12, hid_dim=16, feature_rows=5, feature_dim=7), rng)
    uni = EnvModel(sv, tv, EnvConfig(emb_dim=12, hid_dim=16), np.random.default_rng(9))
    shared = dict(mm.named_tensors())
    for name, t in uni.named_tensors():
        t.data = shared[name].data.copy()
    mm.w_vis.data[...] = 0.0

    feats = FeatureSet("grid", rng.normal(size=(5, 7)))
    src = pairs[0][0]
    out_mm = translate_full(mm, src, feats)
    out_uni = translate_full(uni, src)
    assert out_mm == out_uni

    enc = encode_sequence(mm, mm.src_vocab.encode(src))
    p_mm = propose_next(mm.initial_decoder_state(), enc, mm, mm.project_features(feats))
    p_uni = propose_next(uni.initial_decoder_state(), enc, uni)
    assert np.array_equal(p_mm.logits, p_uni.logits)


def _bench_sized_visual_env(untrained_env):
    text_env, _ = untrained_env
    return EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                    EnvConfig(emb_dim=20, hid_dim=96, feature_rows=72, feature_dim=100),
                    np.random.default_rng(4))


@pytest.mark.parametrize("n", [1, 30])
def test_project_features_equals_per_lane_products(untrained_env, n):
    env = _bench_sized_visual_env(untrained_env)
    rng = np.random.default_rng(n)
    feats = [FeatureSet("grid", rng.normal(size=(72, 100))) for _ in range(n)]
    got, index = env.project_features(feats)
    assert got.shape == (n, 72, 96) and index is None  # lane i reads block i
    for f, lane in zip(feats, got):
        want = f.matrix @ env.w_vis.data
        assert np.max(np.abs(lane - want)) <= 1e-12 * np.max(np.abs(want))
    single, index = env.project_features(feats[0])
    assert single.shape == (1, 72, 96) and index is None
    assert np.array_equal(single, got[:1])
    # 5 lanes per set share its block: the same blocks, and each lane's index
    shared, index = env.project_features([f for f in feats for _ in range(5)])
    assert np.array_equal(shared, got)
    assert np.array_equal(index, np.repeat(np.arange(n), 5))


def test_tapeless_encode_keeps_no_backward_buffers(untrained_env):
    # each tapeless layer call holds its (P, 3h) input projection, its (P, h) states and a
    # (P, h) gather of its input beside the (B, T, h) blocks; the gate arrays that only
    # backward reads, (P, 2h) and (P, h), would add 3 more (P, h) blocks
    env = _bench_sized_visual_env(untrained_env)
    rng = np.random.default_rng(13)
    ids = [[int(t) for t in rng.integers(4, len(env.src_vocab), size=rng.integers(3, 15))]
           + [EOS] for _ in range(200)]
    state, peak = peak_bytes(lambda: EncoderState.encode(env, ids))
    packed = sum(len(i) for i in ids) * env.cfg.hid_dim * 8
    assert peak <= 2 * state.rows.nbytes + 5 * packed


def _file_precision_features(rng, n):
    """n bench-sized feature sets at float32, as ``load_features`` gives them."""
    return [FeatureSet("concepts", rng.normal(size=(72, 100)).astype(np.float32))
            for _ in range(n)]


def test_project_features_peaks_at_its_output_plus_one_lane(untrained_env):
    env = _bench_sized_visual_env(untrained_env)
    feats = _file_precision_features(np.random.default_rng(9), 200)
    (got, index), peak = peak_bytes(lambda: env.project_features(feats))
    assert got.shape == (200, 72, 96) and got.dtype == np.float64 and index is None
    lane_temporaries = (72 * 100 + 72 * 96) * 8  # one lane at float64, and its product
    assert peak <= got.nbytes + 2 * lane_temporaries
    # equal, bit for bit, to one GEMM over the stacked float64 lanes
    stacked = np.stack([f.matrix for f in feats], dtype=np.float64)
    assert np.array_equal(got, ad.matmul(None, ad.Tensor(stacked), env.w_vis).data)
    # 200 lanes over 40 sets: 40 blocks, and no per-lane copy of them
    (shared, index), peak = peak_bytes(lambda: env.project_features(
        [feats[i // 5] for i in range(200)]))
    assert shared.shape == (40, 72, 96) and np.array_equal(shared, got[:40])
    assert peak <= shared.nbytes + index.nbytes + 2 * lane_temporaries


def _visual_training_batch(env, pairs, feats3_dtype):
    """A 32-pair teacher-forcing batch for ``env`` with bench-sized features."""
    src = [env.src_vocab.encode(s) + [EOS] for s, _ in pairs[:32]]
    tgt = [env.tgt_vocab.encode(t) for _, t in pairs[:32]]
    feats = _file_precision_features(np.random.default_rng(10), 32)
    return (src, tgt), np.stack([f.matrix for f in feats], dtype=feats3_dtype)


def test_float32_features_give_the_results_of_their_float64_values(untrained_env):
    env = _bench_sized_visual_env(untrained_env)
    feats = _file_precision_features(np.random.default_rng(11), 5)
    wide = [FeatureSet(f.variant, f.matrix.astype(np.float64)) for f in feats]
    assert wide[0].matrix.dtype == np.float64
    for narrow_sets, wide_sets in ((feats, wide), (feats[0], wide[0]),
                                   ([feats[i // 2] for i in range(10)],
                                    [wide[i // 2] for i in range(10)])):
        (got, got_index), (want, want_index) = (env.project_features(narrow_sets),
                                                env.project_features(wide_sets))
        assert np.array_equal(got, want) and np.array_equal(got_index, want_index)

    results = []
    for dtype in (np.float32, np.float64):
        batch, feats3 = _visual_training_batch(env, untrained_env[1], dtype)
        assert feats3.dtype == dtype
        results.append(_loss_and_grads(env, batch, feats3))
    (loss32, grads32), (loss64, grads64) = results
    assert loss32 == loss64
    for name, g in grads64.items():
        assert np.array_equal(grads32[name], g), name


def _replay_keeping_records(tape, loss):
    """Reverse replay that leaves every record on the tape, as backward once did."""
    loss.grad = np.ones(())
    for output, bwd in reversed(tape._records):
        if output.grad is not None:
            bwd(output.grad)


def test_visual_teacher_forced_backward_frees_the_tape_as_it_goes(untrained_env):
    env = _bench_sized_visual_env(untrained_env)
    batch, feats3 = _visual_training_batch(env, untrained_env[1], np.float64)

    def step(replay):
        tape = ad.Tape()
        loss = teacher_forced_loss(env, batch, tape, feats3)
        recorded = len(tape)
        replay(tape, loss)
        return tape, loss, recorded

    _, keeping = peak_bytes(lambda: step(_replay_keeping_records))
    want = {name: t.grad for name, t in env.named_tensors()}
    ad.zero_grads(t for _, t in env.named_tensors())
    (tape, loss, recorded), consuming = peak_bytes(lambda: step(ad.backward))
    for name, t in env.named_tensors():
        assert np.array_equal(t.grad, want[name]), name
    assert consuming < 0.85 * keeping
    assert len(tape) == recorded > 0
    with pytest.raises(ContractError, match="consumed"):
        ad.backward(tape, loss)


def test_project_features_rejects_missing_or_misshaped_features(untrained_env):
    env = _bench_sized_visual_env(untrained_env)
    good = FeatureSet("grid", np.ones((72, 100)))
    for bad in (None, [good, None], FeatureSet("grid", np.ones((72, 99))),
                [good, FeatureSet("grid", np.ones((71, 100)))]):
        with pytest.raises(ConfigError):
            env.project_features(bad)
    with pytest.raises(ConfigError, match="unimodal"):
        untrained_env[0].project_features(good)


# ---------------------------------------------------------------------------
# teacher-forced training loss
# ---------------------------------------------------------------------------

def _tiny_training_env(multimodal, emb_dim=3, hid_dim=4, seed=0):
    cfg = EnvConfig(emb_dim=emb_dim, hid_dim=hid_dim, feature_rows=2 if multimodal else 0,
                    feature_dim=3 if multimodal else 0, init_scale=0.5)
    model = EnvModel(Vocabulary(["a", "b", "c"]), Vocabulary(["x", "y", "z"]), cfg,
                     np.random.default_rng(seed))
    # sources (EOS appended) and targets of unequal lengths, so padding is covered
    batch = ([[4, 5, EOS], [6, EOS], [4, 4, 6, 5, EOS]], [[4], [5, 6, 4], [6, 6]])
    feats3 = np.random.default_rng(seed + 1).normal(size=(3, 2, 3)) if multimodal else None
    return model, batch, feats3


@pytest.mark.parametrize("multimodal", [False, True])
def test_teacher_forced_loss_gradcheck(multimodal):
    model, batch, feats3 = _tiny_training_env(multimodal)
    params = [t for _, t in model.named_tensors()]
    tape = ad.Tape()
    ad.backward(tape, teacher_forced_loss(model, batch, tape, feats3))
    assert_grads_close(lambda: float(teacher_forced_loss(model, batch, None, feats3).data),
                       params, [t.grad for t in params])


@pytest.mark.parametrize("multimodal", [False, True])
def test_teacher_forced_loss_matches_stepwise_reference(multimodal):
    model, batch, feats3 = _tiny_training_env(multimodal, emb_dim=6, hid_dim=8, seed=4)
    results = []
    for loss_fn in (teacher_forced_loss, teacher_forced_loss_stepwise):
        tape = ad.Tape()
        loss = loss_fn(model, batch, tape, feats3)
        ad.backward(tape, loss)
        results.append((float(loss.data), {n: t.grad for n, t in model.named_tensors()}))
        ad.zero_grads(t for _, t in model.named_tensors())
    (loss, grads), (ref_loss, ref_grads) = results
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for name, ref in ref_grads.items():
        err = np.max(np.abs(grads[name] - ref)) / np.max(np.abs(ref))
        assert err <= 1e-12, f"{name}: relative gradient error {err:.2e}"


def _loss_and_grads(model, batch, feats3):
    tape = ad.Tape()
    loss = teacher_forced_loss(model, batch, tape, feats3)
    ad.backward(tape, loss)
    grads = {n: t.grad for n, t in model.named_tensors()}
    ad.zero_grads(t for _, t in model.named_tensors())
    return float(loss.data), grads


@pytest.mark.parametrize("multimodal", [False, True])
def test_ragged_batch_loss_is_token_weighted_sum_of_single_sentences(multimodal):
    model, batch, feats3 = _tiny_training_env(multimodal, emb_dim=6, hid_dim=8, seed=5)
    loss, grads = _loss_and_grads(model, batch, feats3)
    tokens = [len(t) + 1 for t in batch[1]]  # with EOS
    want_loss, want_grads = 0.0, {n: np.zeros_like(g) for n, g in grads.items()}
    for i, n in enumerate(tokens):
        one = _loss_and_grads(model, ([batch[0][i]], [batch[1][i]]),
                              feats3[i:i + 1] if multimodal else None)
        want_loss += n / sum(tokens) * one[0]
        for name, g in one[1].items():
            if g is not None:
                want_grads[name] += n / sum(tokens) * g
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    for name, want in want_grads.items():
        err = np.max(np.abs(grads[name] - want)) / np.max(np.abs(want))
        assert err <= 1e-12, f"{name}: relative gradient error {err:.2e}"


# Losses of three Adam steps and the loss after them, recorded from the
# padded-loop teacher-forced loss; a change that alters the arithmetic of
# pretraining (beyond summation order) moves them.
GOLDEN_PRETRAIN_LOSSES = {
    False: [1.994000073513977, 1.6214266546304013, 1.4013625687527538, 1.296018993731957],
    True: [2.012162993875021, 1.5973820779060703, 1.3084113589218311, 1.149768101386455],
}


@pytest.mark.parametrize("multimodal", [False, True])
def test_pretrain_steps_match_recorded_losses(multimodal):
    cfg = EnvConfig(emb_dim=6, hid_dim=8, feature_rows=2 if multimodal else 0,
                    feature_dim=3 if multimodal else 0, init_scale=0.5)
    model = EnvModel(Vocabulary(["a", "b", "c"]), Vocabulary(["x", "y", "z"]), cfg,
                     np.random.default_rng(11))
    batch = ([[4, 5, EOS], [6, EOS], [4, 4, 6, 5, 6, 4, EOS], [5, EOS]],
             [[4], [5, 6, 4, 6, 5], [6, 6], [4, 5]])
    feats3 = np.random.default_rng(12).normal(size=(4, 2, 3)) if multimodal else None
    opt = AdamState(model.named_tensors(), lr=0.05)
    losses = []
    for _ in range(3):
        tape = ad.Tape()
        loss = teacher_forced_loss(model, batch, tape, feats3)
        ad.backward(tape, loss)
        adam_step(opt)
        ad.zero_grads(t for _, t in model.named_tensors())
        losses.append(float(loss.data))
    losses.append(float(teacher_forced_loss(model, batch, None, feats3).data))
    assert np.allclose(losses, GOLDEN_PRETRAIN_LOSSES[multimodal], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# simulate structure
# ---------------------------------------------------------------------------

def test_simulate_forced_action_safety(untrained_env):
    model, pairs = untrained_env
    for seed in range(10):
        t = simulate(RandomPolicy(seed), model, pairs[seed][0])
        t.validate()
    # a policy that always answers READ terminates via forced writes
    t = simulate(AlwaysRead(), model, pairs[0][0])
    t.validate()
    assert t.forced_overrides > 0
    assert t.actions.count("R") == len(pairs[0][0])


def test_simulate_determinism(untrained_env):
    model, pairs = untrained_env
    a = simulate(WaitKPolicy(2), model, pairs[1][0])
    b = simulate(WaitKPolicy(2), model, pairs[1][0])
    assert a.actions == b.actions and a.hyp == b.hyp
    assert (transcript_rewards(a, pairs[1][1], RewardConfig())
            == transcript_rewards(b, pairs[1][1], RewardConfig()))


def test_simulate_delay_reconstruction(untrained_env):
    model, pairs = untrained_env
    for seed in range(8):
        t = simulate(RandomPolicy(seed), model, pairs[seed][0])
        assert delays_from_actions(t.actions, t.ended_with_eos) == t.delays


def test_simulate_empty_source_rejected(untrained_env):
    model, _ = untrained_env
    with pytest.raises(DataError, match="empty source on lane 0"):
        simulate(ConsecutivePolicy(), model, [])


def test_wait_k_validation():
    with pytest.raises(ContractError):
        WaitKPolicy(0)


def test_simulate_quality_rewards_equal_recount(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    cfg = RewardConfig(alpha=0.0, beta=0.0)
    for s, (src, ref) in enumerate(test[:12]):
        for policy in (RandomPolicy(s), WaitKPolicy(1 + s % 3)):
            # a reversed reference makes some commits lose BLEU
            ref_used = list(ref) if s % 2 else list(ref)[::-1]
            t = simulate(policy, model, src)
            assert transcript_rewards(t, ref_used, cfg) == quality_rewards_by_recount(t, ref_used)


def test_quality_rewards_telescope_in_simulation(untrained_env):
    model, pairs = untrained_env
    src, ref = pairs[3]
    t = simulate(WaitKPolicy(1), model, src)
    # alpha=beta=0 isolates the quality part
    rewards = transcript_rewards(t, ref, RewardConfig(alpha=0.0, beta=0.0))
    assert abs(sum(rewards) - smoothed_sentence_bleu(t.content_hyp, ref)) <= 1e-9


# ---------------------------------------------------------------------------
# trained-model behaviour
# ---------------------------------------------------------------------------

def test_consecutive_trace_on_copy_model(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    src, tgt = next(p for p in test if len(p[0]) == 3)
    t = simulate(ConsecutivePolicy(), model, src)
    assert t.actions == "RRRWWWW"
    assert t.delays == [3, 3, 3]
    assert t.ended_with_eos
    assert t.content_hyp == list(tgt)


def test_wait2_trace_on_copy_model(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    src, tgt = next(p for p in test if len(p[0]) == 5)
    t = simulate(WaitKPolicy(2), model, src)
    assert t.actions == "RRWRWRWRWWW"
    assert t.delays == [2, 3, 4, 5, 5]
    assert t.content_hyp == list(tgt)


def test_wait_large_k_degenerates_to_consecutive(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    src, _ = test[0]
    a = simulate(WaitKPolicy(9 + len(src)), model, src)
    b = simulate(ConsecutivePolicy(), model, src)
    assert a.actions == b.actions and a.hyp == b.hyp


def test_translate_full_matches_consecutive_simulation(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    for src, _ in test[:20]:
        assert translate_full(model, src) == \
            simulate(ConsecutivePolicy(), model, src).content_hyp


def test_validation_bleu_decodes_an_empty_source_to_nothing(tiny_copy_env):
    model, _, _, test, _ = tiny_copy_env
    pairs = [([], list(test[0][1]))] + list(test[:5])
    hyps = [[]] + [translate_full(model, src) for src, _ in test[:5]]
    assert validation_bleu(model, pairs) == corpus_bleu(hyps, [list(tgt) for _, tgt in pairs])
    assert validation_bleu(model, pairs) < validation_bleu(model, pairs[1:])
    assert validation_bleu(model, pairs[:1]) == 0.0


def test_translate_full_respects_cap(untrained_env):
    model, pairs = untrained_env
    for src, _ in pairs[:10]:
        out = translate_full(model, src)
        assert len(out) <= 2 * len(src) + 5


def test_copy_model_identity_on_heldout(tiny_copy_env):
    model, train, valid, test, history = tiny_copy_env
    hits = sum(translate_full(model, src) == list(tgt) for src, tgt in test)
    assert hits >= 0.9 * len(test)


# ---------------------------------------------------------------------------
# transcript logs
# ---------------------------------------------------------------------------

def test_transcript_jsonl_round_trip(tmp_path, untrained_env):
    model, pairs = untrained_env
    ts = [simulate(RandomPolicy(s), model, pairs[s][0]) for s in range(5)]
    for s, t in enumerate(ts):
        t.rewards = transcript_rewards(t, pairs[s][1], RewardConfig())
    ts.append(simulate(AlwaysRead(), model, pairs[5][0]))
    assert ts[-1].forced_overrides > 0
    path = tmp_path / "episodes.jsonl"
    write_transcripts(path, ts)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    assert set(obj) == {"src", "hyp", "actions", "g", "rewards", "forced_overrides"}
    back = read_transcripts(path)
    assert len(back) == len(ts)
    for a, b in zip(ts, back):
        assert a.src == b.src and a.hyp == b.hyp and a.actions == b.actions
        assert a.delays == b.delays and a.ended_with_eos == b.ended_with_eos
        assert a.rewards == b.rewards and a.forced_overrides == b.forced_overrides
    del obj["forced_overrides"]
    assert Transcript.from_json_obj(obj).forced_overrides == 0


def _finite_then(bad):
    good = Transcript(src=["a"], hyp=["x"], actions="RW", delays=[1], rewards=[0.0, 1.5])
    return [good, Transcript(src=["a"], hyp=["x"], actions="RW", delays=[1],
                             rewards=[0.0, bad])]


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_write_transcripts_rejects_a_non_finite_reward_with_line(tmp_path, bad):
    path = tmp_path / "episodes.jsonl"
    with pytest.raises(NumericError, match=r"episodes.jsonl:2: transcript record is not finite"):
        write_transcripts(path, _finite_then(bad))
    assert not path.exists()  # the finite first record was not written either


def test_write_transcripts_leaves_an_existing_file_unchanged_on_a_bad_record(tmp_path):
    path = tmp_path / "episodes.jsonl"
    path.write_text("earlier log\n", encoding="utf-8")
    with pytest.raises(NumericError):
        write_transcripts(path, _finite_then(float("nan")))
    assert path.read_text(encoding="utf-8") == "earlier log\n"


@pytest.mark.parametrize("record, problem", [
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"src": ["a"], "hyp": ["x"], "actions": "RW", "g": 1}', "'g' is not a list"),
    ('{"src": ["a"], "hyp": ["x"], "actions": "RW", "g": "1"}', "'g' is not a list"),
    ('{"src": ["a"], "hyp": ["x"], "g": [1]}', "'actions'"),
    ('{"src": ["a"], ', "Expecting"),
    ('{"src": ["a"], "hyp": ["x"], "actions": "RRRW", "g": [5]}', "more READs than source"),
    ('{"src": ["a"], "hyp": ["x"], "actions": "RW", "g": [1], "rewards": [NaN, "x"]}',
     "'rewards' is not a list of finite numbers"),
    ('{"src": ["a"], "hyp": ["x"], "actions": "RW", "g": [1], "rewards": "ab"}',
     "'rewards' is not a list of finite numbers"),
    ('{"src": ["a"], "hyp": ["x"], "actions": "RW", "g": [1], "forced_overrides": -3}',
     "'forced_overrides' is not a non-negative int"),
    ('{"src": ["a"], "hyp": [], "actions": "RX", "g": []}',
     "actions must be a string of R and W, got 'RX'"),
    ('{"src": ["a", "b"], "hyp": ["x", "y"], "actions": "WRW", "g": [1, 1]}',
     r"delays \[1, 1\] vs \[0, 1\] from the actions"),
    ('{"src": ["a"], "hyp": ["x"], "actions": ["R", "W"], "g": [1]}',
     r"actions must be a string of R and W, got \['R', 'W'\]"),
], ids=["list", "int-g", "string-g", "no-actions", "bad-json", "inconsistent", "nan-rewards",
        "string-rewards", "negative-overrides", "unknown-action", "write-before-read",
        "action-list"])
def test_read_transcripts_rejects_bad_records_with_line(tmp_path, record, problem):
    good = json.dumps(Transcript(src=["a"], hyp=["x"], actions="RW", delays=[1]).to_json_obj())
    path = tmp_path / "episodes.jsonl"
    path.write_text(f"{good}\n\n{record}\n")
    with pytest.raises(DataError, match=rf"episodes.jsonl:3: bad transcript record: .*{problem}"):
        read_transcripts(path)


def test_transcript_validation_catches_bad_counts():
    t = Transcript(src=["a"], hyp=["a", "b"], actions="RW", delays=[1])
    with pytest.raises(ContractError):
        t.validate()


@pytest.mark.parametrize("hyp, ended", [([], False), (["x"], False), (["x", "<eos>"], True),
                                        (["<eos>"], True), (["<eos>", "x"], False)])
def test_transcript_ended_with_eos_follows_hyp(hyp, ended):
    t = Transcript(src=["a"], hyp=hyp, actions="R" + "W" * len(hyp), delays=[])
    assert t.ended_with_eos is ended
    assert Transcript.from_json_obj(t.to_json_obj()).ended_with_eos is ended
    t.hyp = hyp + ["<eos>"]
    assert t.ended_with_eos
    with pytest.raises(AttributeError):
        t.ended_with_eos = False
