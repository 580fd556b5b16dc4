import json

import numpy as np
import pytest

from simtlab import autodiff as ad
from simtlab.environment import (EncoderState, EnvConfig, EnvModel, commit,
                                 encode_next, encode_sequence, propose_next,
                                 teacher_forced_loss, translate_full)
from simtlab.errors import ContractError, DataError
from simtlab.metrics import RewardConfig, delays_from_actions, smoothed_sentence_bleu
from simtlab.policies import (ConsecutivePolicy, Policy, Transcript, WaitKPolicy,
                              read_transcripts, simulate, write_transcripts)
from simtlab.vocab import EOS, Vocabulary

from gradcheck import assert_grads_close
from recount import quality_rewards_by_recount
from stepwise import teacher_forced_loss_stepwise


class ScriptedPolicy(Policy):
    def __init__(self, script):
        self.script = list(script)
        self.pos = 0

    def start_episode(self, src_tokens, features=None):
        self.pos = 0

    def decide(self, ctx):
        if self.pos < len(self.script):
            action = self.script[self.pos]
        else:
            action = "W"
        self.pos += 1
        return action


class AlwaysRead(Policy):
    def decide(self, ctx):
        return "R"


class RandomPolicy(Policy):
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def decide(self, ctx):
        return "RW"[int(self.rng.integers(0, 2))]


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
    p1 = propose_next(dec, enc, model)
    p2 = propose_next(dec, enc, model)
    assert p1.token == p2.token
    assert np.array_equal(p1.logits, p2.logits)
    assert p1.token == int(p1.logits.argmax())

    dec2 = commit(dec, p1, enc)
    assert dec2.committed == 1 and dec2.last_token == p1.token
    assert dec.committed == 0  # the original state is untouched
    p3 = propose_next(dec2, enc, model)
    assert p3.dec is dec2 and p3.enc is enc
    # the proposal's prev-embedding input is the committed token's embedding
    assert np.array_equal(p3.dec.last_token, p1.token)
    with pytest.raises(ContractError):
        commit(dec2, p1, enc)  # stale proposal


def test_commit_eos_sets_terminal(untrained_env):
    model, pairs = untrained_env
    enc = encode_sequence(model, model.src_vocab.encode(pairs[0][0]))
    dec = model.initial_decoder_state()
    p = propose_next(dec, enc, model)
    forced_eos = type(p)(**{**p.__dict__, "token": np.array([EOS])})
    dec2 = commit(dec, forced_eos, enc)
    assert dec2.terminal
    with pytest.raises(ContractError):
        commit(dec2, p, enc)


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
    mm = EnvModel(sv, tv, EnvConfig(emb_dim=12, hid_dim=16, multimodal=True,
                                    feature_rows=5, feature_dim=7), rng)
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


# ---------------------------------------------------------------------------
# teacher-forced training loss
# ---------------------------------------------------------------------------

def _tiny_training_env(multimodal, emb_dim=3, hid_dim=4, seed=0):
    cfg = EnvConfig(emb_dim=emb_dim, hid_dim=hid_dim, multimodal=multimodal,
                    feature_rows=2 if multimodal else 0, feature_dim=3 if multimodal else 0,
                    init_scale=0.5)
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
    a = simulate(WaitKPolicy(2), model, pairs[1][0], ref_tokens=pairs[1][1],
                 reward_config=RewardConfig())
    b = simulate(WaitKPolicy(2), model, pairs[1][0], ref_tokens=pairs[1][1],
                 reward_config=RewardConfig())
    assert a.actions == b.actions and a.hyp == b.hyp and a.rewards == b.rewards


def test_simulate_delay_reconstruction(untrained_env):
    model, pairs = untrained_env
    for seed in range(8):
        t = simulate(RandomPolicy(seed), model, pairs[seed][0])
        assert delays_from_actions(t.actions, t.ended_with_eos) == t.delays


def test_simulate_empty_source_rejected(untrained_env):
    model, _ = untrained_env
    with pytest.raises(ContractError):
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
            t = simulate(policy, model, src, ref_tokens=ref_used, reward_config=cfg)
            assert t.rewards == quality_rewards_by_recount(t, ref_used)


def test_quality_rewards_telescope_in_simulation(untrained_env):
    model, pairs = untrained_env
    src, ref = pairs[3]
    t = simulate(WaitKPolicy(1), model, src, ref_tokens=ref,
                 reward_config=RewardConfig(alpha=0.0, beta=0.0))
    # alpha=beta=0 isolates the quality part
    assert abs(sum(t.rewards) - smoothed_sentence_bleu(t.content_hyp, ref)) <= 1e-9


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


def test_translate_full_empty_source(tiny_copy_env):
    model = tiny_copy_env[0]
    assert translate_full(model, []) == []


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
    ts = [simulate(RandomPolicy(s), model, pairs[s][0], ref_tokens=pairs[s][1],
                   reward_config=RewardConfig()) for s in range(5)]
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
        assert a.forced_overrides == b.forced_overrides
    del obj["forced_overrides"]
    assert Transcript.from_json_obj(obj).forced_overrides == 0


def test_transcript_validation_catches_bad_counts():
    t = Transcript(src=["a"], hyp=["a", "b"], actions="RW", delays=[1])
    with pytest.raises(ContractError):
        t.validate()
