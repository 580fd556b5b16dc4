import numpy as np
import pytest

from simtlab.agent import (AgentConfig, AgentNetwork, BaselineNetwork, RLTrainConfig,
                           collect_trajectories, reinforce_update)
from simtlab.environment import EnvConfig, EnvModel
from simtlab.errors import ConfigError
from simtlab.features import FeatureSet
from simtlab.metrics import RewardConfig
from simtlab.optim import AdamState
from simtlab.policies import Policy, simulate

from recount import quality_rewards_by_recount


def _agent_pair(env, hidden_dim, seed=0):
    cfg = AgentConfig(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim,
                      hidden_dim=hidden_dim, key_dim=env.cfg.emb_dim)
    rng = np.random.default_rng(seed)
    return AgentNetwork(cfg, rng), BaselineNetwork(cfg, rng)


def test_agent_config_rejects_key_dim_mismatch():
    with pytest.raises(ConfigError, match="key_dim"):
        AgentConfig(text_dim=8, emb_dim=6, hidden_dim=8, key_dim=5, use_att=True,
                    feature_rows=3, feature_dim=4)
    AgentConfig(text_dim=8, emb_dim=6, hidden_dim=8, key_dim=5)  # unused without attention


def test_collect_and_update_with_agent_hidden_unlike_env(untrained_env):
    env, pairs = untrained_env
    assert env.cfg.hid_dim != 16
    agent, baseline = _agent_pair(env, hidden_dim=16)
    cfg = RLTrainConfig()
    episodes = [(src, ref, None) for src, ref in pairs[:4]]
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=0,
                                 record_transcripts=True)
    assert len(batch.entries) == 4
    stats = reinforce_update(batch, agent, baseline, cfg,
                             AdamState(agent.named_tensors(), lr=cfg.lr),
                             AdamState(baseline.named_tensors(), lr=cfg.lr))
    assert all(np.isfinite(v) for v in stats.values())


def test_collector_quality_rewards_equal_recount(tiny_copy_env):
    env, train, valid, test, _ = tiny_copy_env
    agent, baseline = _agent_pair(env, hidden_dim=env.cfg.hid_dim, seed=1)
    cfg = RLTrainConfig(reward=RewardConfig(alpha=0.0, beta=0.0))
    # a reversed reference makes some commits lose BLEU
    episodes = [(src, list(ref) if k % 2 else list(ref)[::-1], None)
                for k, (src, ref) in enumerate(train[:12])]
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=3,
                                 record_transcripts=True)
    for (_, ref, _), entry in zip(episodes, batch.entries):
        expected = quality_rewards_by_recount(entry.transcript, ref)
        assert entry.transcript.rewards == expected
        # the initial forced READ is not an agent step
        assert entry.rewards.tolist() == expected[1:]


class ReplayPolicy(Policy):
    """Answers with a recorded action string, after its initial forced READ."""

    def __init__(self, actions):
        self.actions = actions

    def start_episode(self, src_tokens, features=None):
        self.pos = 1

    def decide(self, ctx):
        self.pos += 1
        return self.actions[self.pos - 1]


@pytest.mark.parametrize("variant", ["none", "init", "att"])
@pytest.mark.parametrize("c_star", [1, 2])
def test_collector_rewards_equal_simulate_replay(untrained_env, variant, c_star):
    text_env, pairs = untrained_env
    rows, dim = 3, 5
    env = text_env
    if variant != "none":
        env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                       EnvConfig(emb_dim=20, hid_dim=28, multimodal=True, feature_rows=rows,
                                 feature_dim=dim), np.random.default_rng(6))
    cfg = AgentConfig(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, hidden_dim=12,
                      key_dim=env.cfg.emb_dim, use_init=variant == "init",
                      use_att=variant == "att", feature_rows=rows, feature_dim=dim,
                      init_scale=0.5)
    rng = np.random.default_rng(c_star)
    agent, baseline = AgentNetwork(cfg, rng), BaselineNetwork(cfg, rng)
    feats = [FeatureSet("grid", rng.normal(size=(rows, dim))) for _ in range(8)]
    episodes = [(src, ref, feats[k] if variant != "none" else None)
                for k, (src, ref) in enumerate(pairs[:8])]
    reward = RewardConfig(c_star=c_star)
    batch = collect_trajectories(agent, baseline, env, episodes,
                                 RLTrainConfig(reward=reward), global_seed=5,
                                 record_transcripts=True)
    assert {"R", "W"} <= set("".join(e.transcript.actions[1:] for e in batch.entries))
    for (src, ref, fs), entry in zip(episodes, batch.entries):
        got = entry.transcript
        replay = simulate(ReplayPolicy(got.actions), env, src,
                          fs if env.multimodal else None,
                          ref_tokens=ref, reward_config=reward)
        assert replay.forced_overrides == 0
        assert (replay.actions, replay.hyp) == (got.actions, got.hyp)
        assert replay.rewards == got.rewards


def _visual_setup(text_env, pairs, variant, n_episodes, seed=0):
    """Environment, agent, baseline and episodes for one agent variant."""
    env = text_env
    if variant != "none":
        env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                       EnvConfig(emb_dim=20, hid_dim=28, multimodal=True, feature_rows=3,
                                 feature_dim=5), np.random.default_rng(6))
    cfg = AgentConfig(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, hidden_dim=12,
                      key_dim=env.cfg.emb_dim, use_init=variant == "init",
                      use_att=variant == "att", feature_rows=3, feature_dim=5,
                      init_scale=0.5)
    rng = np.random.default_rng(seed)
    agent, baseline = AgentNetwork(cfg, rng), BaselineNetwork(cfg, rng)
    episodes = [(src, ref, FeatureSet("grid", rng.normal(size=(3, 5)))
                 if variant != "none" else None)
                for src, ref in (pairs * 2)[:n_episodes]]
    return env, agent, baseline, episodes


@pytest.mark.parametrize("variant", ["none", "att"])
def test_collection_does_not_depend_on_batching(untrained_env, variant):
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 30)
    cfg = RLTrainConfig()
    whole = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=9,
                                 record_transcripts=True).entries
    parts = (collect_trajectories(agent, baseline, env, episodes[:7], cfg, global_seed=9,
                                  record_transcripts=True).entries
             + collect_trajectories(agent, baseline, env, episodes[7:], cfg, global_seed=9,
                                    start_index=7, record_transcripts=True).entries)
    assert {"R", "W"} <= set("".join(e.transcript.actions[1:] for e in whole))
    for a, b in zip(whole, parts, strict=True):
        assert (a.transcript.actions, a.transcript.hyp) == (b.transcript.actions,
                                                            b.transcript.hyp)
        assert np.array_equal(a.actions, b.actions) and np.array_equal(a.forced, b.forced)
        for name in ("log_probs", "rewards", "obs_text", "obs_emb", "obs_prev",
                     "entropies", "baseline_values"):
            assert np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-12), name
        if variant == "att":
            assert np.allclose(a.visual_ctx, b.visual_ctx, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["none", "init", "att"])
def test_replayed_agent_loss_equals_recorded_log_probs(untrained_env, variant):
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 12, seed=4)
    cfg = RLTrainConfig()
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=2)
    stats = reinforce_update(batch, agent, baseline, cfg, apply=False)
    # -1/n sum over unforced steps of (R - b) log pi(a|o) + w * entropy
    recorded = -sum(float(np.sum(~e.forced * ((e.returns - e.baseline_values) * e.log_probs
                                              + cfg.entropy_weight * e.entropies)))
                    for e in batch.entries) / len(batch.entries)
    assert abs(stats["agent_loss"] - recorded) <= 1e-12 * abs(recorded)
