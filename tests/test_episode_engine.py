"""The lane-batched episode engine against the per-episode reference."""

import numpy as np
import pytest

from simtlab import environment
from simtlab.agent import (AgentConfig, AgentNetwork, BaselineNetwork, RLTrainConfig,
                           collect_trajectories)
from simtlab.environment import (EnvConfig, EnvModel, EpisodeStepper, translate_full,
                                 validation_bleu)
from simtlab.errors import ConfigError, ContractError
from simtlab.features import FeatureSet
from simtlab.metrics import RewardConfig, corpus_bleu
from simtlab.policies import ConsecutivePolicy, Policy, WaitKPolicy, simulate

import episode_reference as ref
from test_policies import AlwaysRead, RandomPolicy, ScriptedPolicy

ROWS, DIM = 3, 5


@pytest.fixture(scope="module")
def visual_env(untrained_env):
    """A multimodal environment over the untrained environment's vocabularies."""
    text_env, pairs = untrained_env
    env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                   EnvConfig(emb_dim=20, hid_dim=28, multimodal=True, feature_rows=ROWS,
                             feature_dim=DIM, init_scale=0.3), np.random.default_rng(6))
    rng = np.random.default_rng(8)
    feats = [FeatureSet("grid", rng.normal(size=(ROWS, DIM))) for _ in pairs]
    return env, pairs, feats


def _policies():
    """Fresh policy factories: Random, AlwaysRead, scripted and wait-k."""
    return [lambda s: RandomPolicy(s), lambda s: AlwaysRead(),
            lambda s: ScriptedPolicy("RRWRWWRRRWRW"[s % 4:]), lambda s: WaitKPolicy(1 + s % 3)]


@pytest.mark.parametrize("running_avp", [False, True])
@pytest.mark.parametrize("c_star", [1, 2])
@pytest.mark.parametrize("multimodal", [False, True])
def test_simulate_matches_per_episode_reference(untrained_env, visual_env, multimodal,
                                                c_star, running_avp):
    env, pairs, feats = visual_env if multimodal else (*untrained_env, None)
    reward = RewardConfig(c_star=c_star, running_avp=running_avp)
    for s, (src, tgt) in enumerate(pairs[:10]):
        fs = feats[s] if multimodal else None
        for make in _policies():
            got = simulate(make(s), env, src, fs, ref_tokens=tgt, reward_config=reward)
            want = ref.simulate(make(s), env, src, fs, ref_tokens=tgt, reward_config=reward)
            assert (got.actions, got.hyp, got.delays) == (want.actions, want.hyp, want.delays)
            assert got.forced_overrides == want.forced_overrides
            assert np.allclose(got.rewards, want.rewards, rtol=0, atol=1e-12)


def test_trained_simulate_matches_per_episode_reference(tiny_copy_env):
    env, _, _, test, _ = tiny_copy_env
    for s, (src, tgt) in enumerate(test[:12]):
        for make in _policies():
            got = simulate(make(s), env, src, ref_tokens=tgt, reward_config=RewardConfig())
            want = ref.simulate(make(s), env, src, ref_tokens=tgt, reward_config=RewardConfig())
            assert (got.actions, got.hyp, got.delays) == (want.actions, want.hyp, want.delays)
            assert np.allclose(got.rewards, want.rewards, rtol=0, atol=1e-12)


@pytest.mark.parametrize("multimodal", [False, True])
def test_validation_decodes_match_reference_translate_full(untrained_env, visual_env,
                                                           tiny_copy_env, multimodal,
                                                           monkeypatch):
    if multimodal:
        env, pairs, feats = visual_env
    else:
        env, _, _, pairs, _ = tiny_copy_env
        feats = None
    pairs = [([], ["w00"])] + list(pairs[:30])  # an empty source decodes to nothing
    feats = None if feats is None else [feats[0]] + list(feats[:30])
    want = [ref.translate_full(env, src, None if feats is None else feats[i])
            for i, (src, _) in enumerate(pairs)]
    got = [translate_full(env, src, None if feats is None else feats[i])
           for i, (src, _) in enumerate(pairs)]
    assert got == want
    assert any(want)
    refs = [list(tgt) for _, tgt in pairs]
    assert validation_bleu(env, pairs, feats) == corpus_bleu(want, refs)
    # the hypotheses validation_bleu scores, all pairs decoded as lanes of one stepper
    scored = []
    monkeypatch.setattr(environment, "corpus_bleu", lambda hyps, _: scored.append(hyps))
    validation_bleu(env, pairs, feats)
    validation_bleu(env, pairs, feats, cap=9)
    assert scored == [want, want[:9]]


def test_multimodal_entry_points_need_features(visual_env):
    env, pairs, _ = visual_env
    src, tgt = pairs[0]
    with pytest.raises(ConfigError, match="requires visual features"):
        simulate(ConsecutivePolicy(), env, src)
    with pytest.raises(ConfigError, match="requires visual features"):
        translate_full(env, src)
    cfg = AgentConfig(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, hidden_dim=8,
                      key_dim=env.cfg.emb_dim)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="requires visual features"):
        collect_trajectories(AgentNetwork(cfg, rng), BaselineNetwork(cfg, rng), env,
                             [(src, tgt, None)], RLTrainConfig(), global_seed=0)


def test_stepper_lanes_equal_single_lane_episodes(visual_env):
    # lanes of unequal lengths finish at different steps; each matches its own run
    env, pairs, feats = visual_env
    episode = EpisodeStepper(env, [src for src, _ in pairs[:6]], feats[:6],
                             refs=[tgt for _, tgt in pairs[:6]], reward_config=RewardConfig())
    step = 0
    while episode.live.any():
        episode.propose()
        episode.apply(np.array([(step + i) % 3 == 0 for i in range(6)]))
        step += 1
    for i in range(6):
        lane = "".join(episode.actions[i])
        alone = simulate(ScriptedPolicy(lane[1:]), env, pairs[i][0], feats[i],
                         ref_tokens=pairs[i][1], reward_config=RewardConfig())
        assert alone.actions == lane
        assert alone.hyp == env.tgt_vocab.decode(episode.hyp_ids[i], strip_reserved=False)
        assert np.allclose(alone.rewards, episode.rewards[i], rtol=0, atol=1e-12)


def test_stepper_contracts(untrained_env):
    env, pairs = untrained_env
    with pytest.raises(ContractError, match="empty source"):
        EpisodeStepper(env, [pairs[0][0], []])
    episode = EpisodeStepper(env, [pairs[0][0]])
    episode.propose()
    episode.apply([False])
    with pytest.raises(ContractError, match="propose"):
        episode.apply([False])


class _Unknown(Policy):
    def decide(self, ctx):
        return "X"


def test_simulate_rejects_unknown_action(untrained_env):
    env, pairs = untrained_env
    with pytest.raises(ContractError, match="unknown action"):
        simulate(_Unknown(), env, pairs[0][0])
