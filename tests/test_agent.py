import numpy as np
import pytest

from simtlab.agent import (AgentConfig, AgentNetwork, BaselineNetwork, RLTrainConfig,
                           collect_trajectories, reinforce_update)
from simtlab.errors import ConfigError
from simtlab.metrics import RewardConfig
from simtlab.optim import AdamState

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
