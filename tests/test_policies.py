import json

import numpy as np
import pytest

from simtlab.environment import (EncoderState, EnvConfig, EnvModel, commit,
                                 encode_next, encode_sequence, propose_next,
                                 translate_full)
from simtlab.errors import ContractError, DataError
from simtlab.metrics import RewardConfig, delays_from_actions, smoothed_sentence_bleu
from simtlab.policies import (Policy, Transcript, consecutive_policy,
                              read_transcripts, simulate, wait_k_policy,
                              write_transcripts)
from simtlab.vocab import EOS, Vocabulary

from recount import quality_rewards_by_recount


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
    assert state.consumed == 1 and len(state.rows) == 1


def test_encoder_incremental_equals_full(untrained_env):
    model, pairs = untrained_env
    ids = model.src_vocab.encode(pairs[0][0])[:5]
    inc = EncoderState.initial(model)
    for t in ids:
        inc = encode_next(inc, t, model)
    full = encode_sequence(model, ids)
    assert np.array_equal(inc.matrix(), full.matrix())


def test_encoder_prefix_rows_frozen(untrained_env):
    model, pairs = untrained_env
    rng = np.random.default_rng(1)
    ids = [int(rng.integers(4, len(model.src_vocab))) for _ in range(8)]
    prefix3 = encode_sequence(model, ids[:3])
    full = encode_sequence(model, ids)
    assert np.array_equal(full.matrix()[2], prefix3.matrix()[2])
    assert np.array_equal(full.matrix()[:3], prefix3.matrix())


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
    assert np.array_equal(p1.distribution, p2.distribution)
    assert abs(p1.distribution.sum() - 1.0) <= 1e-12
    assert p1.token == int(p1.distribution.argmax())

    dec2 = commit(dec, p1, enc)
    assert dec2.committed == 1 and dec2.last_token == p1.token
    assert dec.committed == 0  # the original state is untouched
    p3 = propose_next(dec2, enc, model)
    assert p3.prev_token == p1.token
    # the proposal's prev-embedding input is the committed token's embedding
    assert np.array_equal(model.tgt_emb.data[p3.prev_token],
                          model.tgt_emb.data[p1.token])
    with pytest.raises(ContractError):
        commit(dec2, p1, enc)  # stale proposal


def test_commit_eos_sets_terminal(untrained_env):
    model, pairs = untrained_env
    enc = encode_sequence(model, model.src_vocab.encode(pairs[0][0]))
    dec = model.initial_decoder_state()
    p = propose_next(dec, enc, model)
    forced_eos = type(p)(**{**p.__dict__, "token": EOS})
    dec2 = commit(dec, forced_eos, enc)
    assert dec2.terminal
    with pytest.raises(ContractError):
        commit(dec2, p, enc)


def test_attention_weights_len_one_for_single_prefix(untrained_env):
    model, pairs = untrained_env
    enc = encode_sequence(model, model.src_vocab.encode(pairs[0][0])[:1])
    p = propose_next(model.initial_decoder_state(), enc, model)
    assert p.text_weights.shape == (1,)
    assert p.text_weights[0] == 1.0


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
    assert np.array_equal(p_mm.distribution, p_uni.distribution)


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
    a = simulate(wait_k_policy(2), model, pairs[1][0], ref_tokens=pairs[1][1],
                 reward_config=RewardConfig())
    b = simulate(wait_k_policy(2), model, pairs[1][0], ref_tokens=pairs[1][1],
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
        simulate(consecutive_policy(), model, [])


def test_wait_k_validation():
    with pytest.raises(ContractError):
        wait_k_policy(0)


def test_simulate_quality_rewards_equal_recount(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    cfg = RewardConfig(alpha=0.0, beta=0.0)
    for s, (src, ref) in enumerate(test[:12]):
        for policy in (RandomPolicy(s), wait_k_policy(1 + s % 3)):
            # a reversed reference makes some commits lose BLEU
            ref_used = list(ref) if s % 2 else list(ref)[::-1]
            t = simulate(policy, model, src, ref_tokens=ref_used, reward_config=cfg)
            assert t.rewards == quality_rewards_by_recount(t, ref_used)


def test_quality_rewards_telescope_in_simulation(untrained_env):
    model, pairs = untrained_env
    src, ref = pairs[3]
    t = simulate(wait_k_policy(1), model, src, ref_tokens=ref,
                 reward_config=RewardConfig(alpha=0.0, beta=0.0))
    # alpha=beta=0 isolates the quality part
    assert abs(sum(t.rewards) - smoothed_sentence_bleu(t.content_hyp, ref)) <= 1e-9


# ---------------------------------------------------------------------------
# trained-model behaviour
# ---------------------------------------------------------------------------

def test_consecutive_trace_on_copy_model(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    src, tgt = next(p for p in test if len(p[0]) == 3)
    t = simulate(consecutive_policy(), model, src)
    assert t.actions == "RRRWWWW"
    assert t.delays == [3, 3, 3]
    assert t.ended_with_eos
    assert t.content_hyp == list(tgt)


def test_wait2_trace_on_copy_model(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    src, tgt = next(p for p in test if len(p[0]) == 5)
    t = simulate(wait_k_policy(2), model, src)
    assert t.actions == "RRWRWRWRWWW"
    assert t.delays == [2, 3, 4, 5, 5]
    assert t.content_hyp == list(tgt)


def test_wait_large_k_degenerates_to_consecutive(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    src, _ = test[0]
    a = simulate(wait_k_policy(9 + len(src)), model, src)
    b = simulate(consecutive_policy(), model, src)
    assert a.actions == b.actions and a.hyp == b.hyp


def test_translate_full_matches_consecutive_simulation(tiny_copy_env):
    model, train, valid, test, _ = tiny_copy_env
    for src, _ in test[:20]:
        assert translate_full(model, src) == \
            simulate(consecutive_policy(), model, src).content_hyp


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
