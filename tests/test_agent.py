from dataclasses import replace

import numpy as np
import pytest

from simtlab import agent as agent_module
from simtlab import autodiff as ad
from simtlab import environment
from simtlab.agent import (ACT_READ, ACT_WRITE, AgentConfig, AgentGreedyPolicy, AgentNetwork,
                           BaselineNetwork, RLTrainConfig, TrajectoryBatch, TrajectoryEntry,
                           collect_trajectories, compute_returns, gumbel_max_sample,
                           patience_exceeded, reinforce_update, select_model)
from simtlab.environment import EncoderState, EnvConfig, EnvModel, EpisodeStepper
from simtlab.errors import ConfigError, ContractError, DataError
from simtlab.features import FeatureSet
from simtlab.metrics import RewardConfig
from simtlab.optim import AdamState
from simtlab.policies import Policy, simulate

from agent_reference import ReferenceGreedyPolicy, ReferenceSamplingPolicy, replay_losses
from gradcheck import assert_grads_close
from memory import peak_bytes
from recount import quality_rewards_by_recount, transcript_rewards


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


@pytest.mark.parametrize("field", ["text_dim", "emb_dim", "hidden_dim", "key_dim"])
def test_agent_config_rejects_non_positive_dims(field):
    with pytest.raises(ConfigError, match=rf"AgentConfig.{field} must be at least 1, got 0"):
        AgentConfig(**{field: 0})
    with pytest.raises(ConfigError, match=rf"AgentConfig.{field} must be at least 1, got -2"):
        AgentConfig(**{field: -2})
    AgentConfig(text_dim=1, emb_dim=1, hidden_dim=1, key_dim=1, init_scale=0.0)


@pytest.mark.parametrize("field, value", [("batch_size", 0), ("trajectories_per_pair", -1),
                                          ("lr", 0.0), ("seed", -1)])
def test_rl_train_config_error_names_the_field(field, value):
    with pytest.raises(ConfigError, match=rf"RLTrainConfig.{field} must .*, got {value}"):
        RLTrainConfig(**{field: value})
    RLTrainConfig(batch_size=1, trajectories_per_pair=1, lr=1e-9)


def test_rl_train_config_rejects_a_negative_val_cap():
    with pytest.raises(ConfigError, match=r"RLTrainConfig.val_cap must be at least 0, got -3"):
        RLTrainConfig(val_cap=-3)
    RLTrainConfig(val_cap=0)


def test_collect_trajectories_rejects_a_negative_seed_before_any_episode(untrained_env,
                                                                        monkeypatch):
    env, pairs = untrained_env
    agent, baseline = _agent_pair(env, hidden_dim=8)

    def no_episodes(*args, **kwargs):
        raise AssertionError("ran an episode before checking the seed")

    monkeypatch.setattr("simtlab.agent.run_episodes", no_episodes)
    with pytest.raises(ConfigError, match=r"global_seed must be at least 0, got -1"):
        collect_trajectories(agent, baseline, env, [(src, ref, None) for src, ref in pairs[:2]],
                             RLTrainConfig(), global_seed=-1)


def test_collect_trajectories_rejects_a_string_reference_before_any_step(untrained_env,
                                                                          monkeypatch):
    env, pairs = untrained_env
    agent, baseline = _agent_pair(env, hidden_dim=8)
    steps = []
    apply = EpisodeStepper.apply

    def counted(self, write_mask):
        steps.append(1)
        return apply(self, write_mask)

    monkeypatch.setattr(EpisodeStepper, "apply", counted)
    episodes = [(src, ref, None) for src, ref in pairs[:30]]
    episodes[17] = (episodes[17][0], " ".join(episodes[17][1]), None)
    with pytest.raises(DataError, match=r"reference must be a list of tokens \(episode 17"):
        collect_trajectories(agent, baseline, env, episodes, RLTrainConfig(), global_seed=0)
    assert steps == []


def test_select_model_picks_the_best_bleu_to_avp_ratio():
    history = [{"bleu": 20.0, "avp": 0.8}, {"bleu": 30.0, "avp": 0.6},
               {"bleu": 40.0, "avp": 1.0}]  # ratios 25, 50, 40: not the best BLEU
    assert select_model(history) == 1
    # equal ratios select the first
    assert select_model([{"bleu": 10.0, "avp": 0.5}, {"bleu": 20.0, "avp": 1.0},
                         {"bleu": 5.0, "avp": 0.25}]) == 0
    with pytest.raises(ContractError, match="empty history"):
        select_model([])
    # an avp of 0 (no content token written) ranks with ratio 0, below any positive ratio
    silent = {"bleu": 0.0, "avp": 0.0}
    assert select_model([silent, {"bleu": 1.0, "avp": 1.0}]) == 1
    assert select_model([silent, {"bleu": 0.0, "avp": 0.5}]) == 0
    assert patience_exceeded([{"bleu": 30.0, "avp": 0.5}, silent, silent], patience=2)
    assert not patience_exceeded([silent, silent, {"bleu": 1.0, "avp": 1.0}], patience=2)


def test_patience_is_exceeded_once_the_best_is_patience_evaluations_old():
    best, worse = {"bleu": 30.0, "avp": 0.5}, {"bleu": 30.0, "avp": 0.6}
    assert not patience_exceeded([], patience=2)
    assert not patience_exceeded([best], patience=2)
    assert not patience_exceeded([best, worse], patience=2)
    assert patience_exceeded([best, worse, worse], patience=2)
    assert not patience_exceeded([worse, best, worse], patience=2)
    # a later equal ratio does not renew the best
    assert patience_exceeded([best, worse, dict(best)], patience=2)
    assert not patience_exceeded([best] + [worse] * 4)
    assert patience_exceeded([best] + [worse] * 5)


@pytest.mark.parametrize("discount", [0.95, 1.0])
def test_compute_returns_is_discounted_reward_to_go(discount):
    rewards = np.array([0.5, -1.0, 0.0, 2.0, 0.25, -0.125])
    want = [sum(discount ** (k - t) * rewards[k] for k in range(t, len(rewards)))
            for t in range(len(rewards))]
    got = compute_returns(rewards, RLTrainConfig(discount=discount))
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    if discount == 1.0:
        assert np.allclose(got, np.cumsum(rewards[::-1])[::-1], rtol=0, atol=1e-12)


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


def test_visual_baseline_reads_features_on_a_text_env(untrained_env):
    """A text agent's collector keeps the features for a visual baseline's update."""
    env, pairs = untrained_env
    kw = dict(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, key_dim=env.cfg.emb_dim)
    agent = _tiny_agent_pair("none", **kw)[0]
    baseline = _tiny_agent_pair("att", **kw)[1]
    feats = [FeatureSet("grid", np.full((2, 3), i)) for i in range(2)]
    episodes = [(src, ref, f) for (src, ref), f in zip(pairs[:2], feats)]
    batch = collect_trajectories(agent, baseline, env, episodes, RLTrainConfig(), global_seed=0)
    assert [e.features for e in batch.entries] == feats
    stats = reinforce_update(batch, agent, baseline, RLTrainConfig())
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

    def start_episode(self, sources, features):
        self.pos = 1

    def decide(self, episode):
        self.pos += 1
        return np.array([self.actions[self.pos - 1] == "W"])


@pytest.mark.parametrize("variant", ["none", "init", "att"])
@pytest.mark.parametrize("c_star", [1, 2])
def test_collector_rewards_equal_simulate_replay(untrained_env, variant, c_star):
    text_env, pairs = untrained_env
    rows, dim = 3, 5
    env = text_env
    if variant != "none":
        env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                       EnvConfig(emb_dim=20, hid_dim=28, feature_rows=rows,
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
                          fs if env.multimodal else None)
        assert replay.forced_overrides == 0
        assert (replay.actions, replay.hyp) == (got.actions, got.hyp)
        assert transcript_rewards(replay, ref, reward) == got.rewards


def _visual_setup(text_env, pairs, variant, n_episodes, seed=0):
    """Environment, agent, baseline and episodes for one agent variant."""
    env = text_env
    if variant != "none":
        env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                       EnvConfig(emb_dim=20, hid_dim=28, feature_rows=3,
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
        for name in ("log_probs", "rewards", "obs_text", "obs_emb", "entropies"):
            assert np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-12), name


@pytest.mark.parametrize("variant", ["init", "att"])
def test_shared_sources_collect_as_distinct_equal_copies(untrained_env, variant):
    # 6 sources x 5 samples sharing one FeatureSet object each, against an equal copy per sample
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 6, seed=7)
    shared = [e for e in episodes for _ in range(5)]
    copies = [(list(src), list(ref), FeatureSet(fs.variant, fs.matrix.copy()))
              for src, ref, fs in shared]
    cfg = RLTrainConfig()
    got, want = (collect_trajectories(agent, baseline, env, eps, cfg, global_seed=4,
                                      record_transcripts=True).entries
                 for eps in (shared, copies))
    assert {"R", "W"} <= set("".join(e.transcript.actions[1:] for e in got))
    for a, b in zip(got, want, strict=True):
        assert (a.transcript.actions, a.transcript.hyp) == (b.transcript.actions,
                                                            b.transcript.hyp)
        assert np.allclose(a.transcript.rewards, b.transcript.rewards, rtol=0, atol=1e-12)
        assert np.array_equal(a.actions, b.actions) and np.array_equal(a.forced, b.forced)
        for name in ("log_probs", "rewards", "obs_text", "obs_emb"):
            assert np.allclose(getattr(a, name), getattr(b, name), rtol=0, atol=1e-12), name


def test_collection_does_each_distinct_source_once(untrained_env, monkeypatch):
    # counts, not seconds: one encoder pass over the 6 distinct sources, one projection per
    # FeatureSet, one agent key/value projection over the 6 distinct ones, one step per decision
    env, agent, baseline, episodes = _visual_setup(*untrained_env, "att", 6, seed=7)
    episodes = [e for e in episodes for _ in range(5)]
    encodes, sequences, products, steps, decisions = [], [], [], [], []
    real_encode, real_sequence = EncoderState.encode.__func__, ad.gru_sequence
    real_matmul, projections = ad.matmul, {id(env.w_vis), id(agent.key_proj), id(agent.val_proj)}
    real_step, real_decide = agent_module._LaneState.step, agent_module._SamplingPolicy.decide

    def encode(cls, model, id_lists):
        encodes.append(len(id_lists))
        return real_encode(cls, model, id_lists)

    def gru_sequence(tape, xs, h0, params, lengths=None):
        sequences.append((id(params), len(xs.data)))
        return real_sequence(tape, xs, h0, params, lengths)

    def matmul(tape, a, w):
        if id(w) in projections:
            products.append((id(w), a.shape))
        return real_matmul(tape, a, w)

    def step(self, *args):
        steps.append(len(decisions))
        return real_step(self, *args)

    def decide(self, episode):
        decisions.append(len(episode.running))
        return real_decide(self, episode)

    monkeypatch.setattr(EncoderState, "encode", classmethod(encode))
    monkeypatch.setattr(ad, "gru_sequence", gru_sequence)
    monkeypatch.setattr(ad, "matmul", matmul)
    monkeypatch.setattr(agent_module._LaneState, "step", step)
    monkeypatch.setattr(agent_module._SamplingPolicy, "decide", decide)
    batch = collect_trajectories(agent, baseline, env, episodes, RLTrainConfig(), global_seed=1)
    assert encodes == [30]
    assert sequences == [(id(env.enc1), 6), (id(env.enc2), 6)]
    rows = (env.cfg.feature_rows, env.cfg.feature_dim)
    assert products == [(id(env.w_vis), rows)] * 6 + [(id(agent.key_proj), (6, *rows)),
                                                      (id(agent.val_proj), (6, *rows))]
    assert steps == list(range(1, len(decisions) + 1))
    assert len(decisions) == max(len(e) for e in batch.entries) and decisions[0] == 30


def test_replay_does_each_distinct_source_once_and_the_agent_to_its_last_decision(
        untrained_env, monkeypatch):
    # counts, not seconds: one key and one value projection per network over the 6
    # distinct FeatureSets; the baseline's GRU runs every step, the agent's to its last decision
    env, agent, baseline, episodes = _visual_setup(*untrained_env, "att", 6, seed=7)
    episodes = [e for e in episodes for _ in range(5)]
    cfg = RLTrainConfig()
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=1)
    sequences, products = [], []
    real_sequence, real_matmul = ad.gru_sequence, ad.matmul
    projections = {id(w) for net in (agent, baseline) for w in (net.key_proj, net.val_proj)}

    def gru_sequence(tape, xs, h0, params, lengths=None):
        sequences.append((id(params), xs.data.shape[1], list(lengths)))
        return real_sequence(tape, xs, h0, params, lengths)

    def matmul(tape, a, w):
        if id(w) in projections:
            products.append((id(w), len(a.data)))
        return real_matmul(tape, a, w)

    monkeypatch.setattr(ad, "gru_sequence", gru_sequence)
    monkeypatch.setattr(ad, "matmul", matmul)
    reinforce_update(batch, agent, baseline, cfg)
    assert products == [(id(baseline.key_proj), 6), (id(baseline.val_proj), 6),
                        (id(agent.key_proj), 6), (id(agent.val_proj), 6)]
    full = [len(e) for e in batch.entries]
    decided = [int(np.flatnonzero(~e.forced)[-1]) + 1 if (~e.forced).any() else 0
               for e in batch.entries]  # each episode's last unforced step + 1
    assert sequences == [(id(baseline.gru), max(full), full),
                         (id(agent.gru), max(decided), decided)]
    assert sum(decided) < sum(full) and max(decided) < max(full)


def test_visual_attention_reads_each_distinct_feature_set_once(untrained_env, monkeypatch):
    # counts, not seconds: over a 6 x 5 att collection and its update, every visual attention
    # gets one key/value block per distinct FeatureSet its lanes or episodes read, and no key
    # or value projection is gathered to one block per episode
    env, agent, baseline, episodes = _visual_setup(*untrained_env, "att", 6, seed=7)
    episodes = [e for e in episodes for _ in range(5)]
    feats = [fs for _, _, fs in episodes]
    running, gathers, agent_calls, env_calls = [None], [], [], []
    real_embedding, real_attention = ad.embedding, ad.batched_attention
    real_decide, real_propose = agent_module._SamplingPolicy.decide, environment.propose_next

    def distinct_sets():
        return len({id(feats[i]) for i in running[0]})

    def embedding(tape, table, ids):
        gathers.append(table.shape)
        return real_embedding(tape, table, ids)

    def batched_attention(tape, keys, values, query, mask=None, index=None):
        if keys is not values:  # the agent's and baseline's visual attention
            agent_calls.append((len(keys.data), len(values.data), distinct_sets(), len(query.data)))
        return real_attention(tape, keys, values, query, mask, index)

    def decide(self, episode):
        running[0] = episode.running
        return real_decide(self, episode)

    def propose_next(dec, enc, model, projected=None):
        env_calls.append((len(projected[0]), distinct_sets()))
        return real_propose(dec, enc, model, projected)

    monkeypatch.setattr(ad, "embedding", embedding)
    monkeypatch.setattr(ad, "batched_attention", batched_attention)
    monkeypatch.setattr(agent_module._SamplingPolicy, "decide", decide)
    monkeypatch.setattr(environment, "propose_next", propose_next)
    cfg = RLTrainConfig()
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=1)
    collected = len(agent_calls)
    running[0] = np.arange(30)
    reinforce_update(batch, agent, baseline, cfg)
    assert gathers == []
    assert collected == len(env_calls) > 3 and len(agent_calls) == collected + 2
    assert all(keys == values == sets for keys, values, sets, _ in agent_calls)
    assert all(blocks == sets for blocks, sets in env_calls)
    assert agent_calls[0] == (6, 6, 6, 30) and agent_calls[-2:] == [(6, 6, 6, 30)] * 2
    assert min(sets for *_, sets, _ in agent_calls) < 6  # some set's last lane ended


def test_visual_start_holds_no_per_episode_block(untrained_env):
    # 30 episodes over 6 bench-sized feature sets: the att variant's keys and values take
    # one block per set, on a tape or not; a per-episode (30, R, text_dim) block would not fit
    text_env, pairs = untrained_env
    env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                   EnvConfig(emb_dim=20, hid_dim=96, feature_rows=72, feature_dim=100),
                   np.random.default_rng(4))
    cfg = AgentConfig(text_dim=96, emb_dim=20, hidden_dim=12, key_dim=20, use_att=True,
                      feature_rows=72, feature_dim=100)
    agent = AgentNetwork(cfg, np.random.default_rng(3))
    rng = np.random.default_rng(5)
    sets = [FeatureSet("grid", rng.normal(size=(72, 100))) for _ in range(6)]
    features = agent_module._feature_block([f for f in sets for _ in range(5)], agent)
    per_set = 6 * 72 * (100 + 20 + 96) * 8  # the stacked sets, their keys and their values
    for tape in (None, ad.Tape()):
        (h0, (keys, values, index)), peak = peak_bytes(lambda: agent.start(tape, features, 30))
        assert keys.shape == (6, 72, 20) and values.shape == (6, 72, 96) and len(h0.data) == 30
        assert np.array_equal(index, np.repeat(np.arange(6), 5))
        assert peak <= per_set + 30 * 12 * 8 + 4096 < 30 * 72 * 96 * 8


def test_an_all_forced_batch_updates_and_leaves_the_agent_a_zero_gradient(untrained_env):
    # one-token sources: the initial READ reads the whole source, so every agent step is forced
    env, agent, baseline, episodes = _visual_setup(*untrained_env, "att", 4, seed=2)
    episodes = [(src[:1], ref, fs) for src, ref, fs in episodes]
    cfg = RLTrainConfig()
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=0)
    assert all(len(e) and e.forced.all() for e in batch.entries)
    stats = reinforce_update(batch, agent, baseline, cfg)
    assert stats["agent_loss"] == 0.0 and stats["agent_grad_norm"] == 0.0
    assert all(p.grad is None or not p.grad.any() for _, p in agent.named_tensors())
    assert stats["baseline_loss"] > 0.0 and stats["baseline_grad_norm"] > 0.0
    ad.zero_grads([p for _, p in baseline.named_tensors()])
    agent_before, baseline_before = agent.snapshot(), baseline.snapshot()
    reinforce_update(batch, agent, baseline, cfg, AdamState(agent.named_tensors(), lr=cfg.lr),
                     AdamState(baseline.named_tensors(), lr=cfg.lr))
    assert all(np.array_equal(v, agent.snapshot()[k]) for k, v in agent_before.items())
    assert any(not np.array_equal(v, baseline.snapshot()[k])
               for k, v in baseline_before.items())


@pytest.mark.parametrize("variant", ["none", "init", "att"])
def test_collector_equals_per_episode_reference(untrained_env, variant):
    # one 1-token episode among longer ones, so most steps run on fewer lanes than the batch
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 10, seed=3)
    src, ref, fs = episodes[4]
    episodes[4] = (src[:1], ref[:1], fs)
    cfg = RLTrainConfig()
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=6,
                                 start_index=2)
    lengths = [len(e) for e in batch.entries]
    assert lengths[4] == min(lengths) and 3 * lengths[4] <= max(lengths)
    for k, ((src, _, fs), entry) in enumerate(zip(episodes, batch.entries)):
        rng = np.random.default_rng(np.random.SeedSequence((6, 2 + k)))
        reference = ReferenceSamplingPolicy(agent, baseline, env, rng)
        simulate(reference, env, src, fs)
        assert entry.actions.tolist() == reference.record["actions"]
        assert np.allclose(entry.log_probs, reference.record["log_probs"], rtol=0, atol=1e-12)
    assert {0, 1} <= {a for e in batch.entries for a in e.actions[~e.forced]}


@pytest.mark.parametrize("variant", ["none", "init", "att"])
def test_replayed_agent_loss_equals_recorded_log_probs(untrained_env, variant):
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 12, seed=4)
    cfg = RLTrainConfig()
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=2)
    stats = reinforce_update(batch, agent, baseline, cfg)
    # -1/n sum over unforced steps of (R - b) log pi(a|o) + w * entropy, with b from
    # per-step 1-D baseline steps on each episode's observations
    recorded = 0.0
    for k, ((src, _, fs), e) in enumerate(zip(episodes, batch.entries)):
        reference = ReferenceSamplingPolicy(agent, baseline, env,
                                            np.random.default_rng(np.random.SeedSequence((2, k))))
        simulate(reference, env, src, fs)
        assert e.actions.tolist() == reference.record["actions"]
        values = np.array(reference.record["baseline_values"])
        recorded -= float(np.sum(~e.forced * ((e.returns - values) * e.log_probs
                                              + cfg.entropy_weight * e.entropies)))
    recorded /= len(batch.entries)
    assert abs(stats["agent_loss"] - recorded) <= 1e-12 * abs(recorded)


def test_gumbel_max_sample_draws_from_the_softmax():
    logits = np.array([0.7, -0.4, 1.5])
    m = 24000
    rng = np.random.default_rng(11)
    actions = gumbel_max_sample(np.tile(logits, (m, 1)), [rng] * m)
    p = np.exp(logits) / np.exp(logits).sum()
    freq = np.bincount(actions, minlength=3) / m
    assert np.all(np.abs(freq - p) <= 4 * np.sqrt(p * (1 - p) / m)), (freq, p)


def test_gumbel_max_sample_row_depends_only_on_its_own_rng():
    logits = np.random.default_rng(2).normal(scale=0.5, size=(40, 2))

    def rngs(ids):
        return [np.random.default_rng(np.random.SeedSequence((5, int(i)))) for i in ids]

    alone = gumbel_max_sample(logits, rngs(range(40)))
    assert 0 < alone.sum() < 40
    perm = np.random.default_rng(3).permutation(40)
    assert np.array_equal(gumbel_max_sample(logits[perm], rngs(perm)), alone[perm])
    more = np.concatenate([logits, np.random.default_rng(4).normal(size=(9, 2))])
    assert np.array_equal(gumbel_max_sample(more, rngs(range(49)))[:40], alone)
    assert np.array_equal(gumbel_max_sample(logits[5:17], rngs(range(5, 17))), alone[5:17])


def _every_path(run):
    """Every unforced decision sequence of one episode, found by depth-first search.

    ``run(script)`` runs the episode taking the decisions in ``script``, then
    READ, and returns all the decisions it took; each later READ branches
    to a WRITE.
    """
    paths, todo = [], [[]]
    while todo:
        script = todo.pop()
        decisions = run(script)
        paths.append(decisions)
        todo += [decisions[:j] + [ACT_WRITE] for j in range(len(script), len(decisions))]
    return paths


@pytest.mark.parametrize("n_tokens", [2, 3])
@pytest.mark.parametrize("variant", ["none", "att"])
def test_update_is_the_exact_policy_gradient(untrained_env, monkeypatch, variant, n_tokens):
    # with the action taken in the slot, a path's probability is the product of pi(a_t|o_t)
    # over its unforced steps, so summing over every path gives the exact expectation: at
    # discount 1 and no entropy bonus the expected update is the gradient of
    # J = sum P(path) R(path), and the learned baseline's term sums to zero
    env, pairs = untrained_env
    dims = dict(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, key_dim=env.cfg.emb_dim,
                hidden_dim=6)
    agent, baseline = _tiny_agent_pair(variant, seed=5, **dims)
    no_baseline = _tiny_agent_pair(variant, init_scale=0.0, **dims)[1]  # values 0
    src, ref = next((s, r) for s, r in pairs if len(s) >= n_tokens)
    fs = FeatureSet("grid", np.random.default_rng(1).normal(size=(2, 3)))
    episode = (src[:n_tokens], ref[:n_tokens], fs if variant == "att" else None)
    cfg = RLTrainConfig(discount=1.0, entropy_weight=0.0)
    script, taken = [], []

    def scripted(logits, rngs):
        for _ in rngs:
            taken.append(script[len(taken)] if len(taken) < len(script) else ACT_READ)
        return np.array(taken[len(taken) - len(rngs):], dtype=np.int64)

    monkeypatch.setattr(agent_module, "gumbel_max_sample", scripted)

    def collect(decisions):
        script[:], taken[:] = decisions, []
        (entry,) = collect_trajectories(agent, baseline, env, [episode], cfg,
                                        global_seed=0).entries
        assert entry.actions[~entry.forced].tolist() == taken
        return entry

    def decisions_taken(script):
        collect(script)
        return list(taken)

    paths = _every_path(decisions_taken)
    assert len({tuple(p) for p in paths}) == len(paths) > 2
    entries = [collect(p) for p in paths]
    assert sum(e.forced.any() for e in entries) > len(entries) // 2

    def probabilities(entries):
        # a forced step is no choice: probability 1, whatever the head says there
        return np.array([np.exp(e.log_probs[~e.forced].sum()) for e in entries])

    prob = probabilities(entries)
    assert abs(prob.sum() - 1.0) <= 1e-12
    # the head's probability of the forced WRITE would not do
    assert abs(sum(np.exp(e.log_probs.sum()) for e in entries) - 1.0) > 1e-3
    returns = np.array([e.returns[0] for e in entries])
    params = [p for _, p in agent.named_tensors()]

    def update(entry, base):
        # the agent parameters' step direction, minus the agent loss's gradient
        ad.zero_grads(params + [p for _, p in base.named_tensors()])
        reinforce_update(TrajectoryBatch([entry]), agent, base, cfg)
        return -np.concatenate([p.grad.ravel() for p in params])

    with_b = np.array([update(e, baseline) for e in entries])
    without_b = np.array([update(e, no_baseline) for e in entries])
    expected = prob @ with_b
    assert np.abs(with_b - without_b).max() > 1e-3  # the baseline moves each path's update
    assert np.abs(expected - prob @ without_b).max() <= 1e-10 * np.abs(expected).max()

    def objective(direction, eps):
        """J at the agent's parameters moved by ``eps * direction``."""
        saved = agent.snapshot()
        offsets = np.cumsum([p.data.size for p in params])[:-1]
        for p, d in zip(params, np.split(direction, offsets)):
            p.data = p.data + eps * d.reshape(p.data.shape)
        try:
            return probabilities([collect(p) for p in paths]) @ returns
        finally:
            agent.restore(saved)

    rng, eps = np.random.default_rng(8), 1e-4
    for _ in range(3):
        direction = rng.normal(size=expected.size)
        direction /= np.linalg.norm(direction)
        fd = (objective(direction, eps) - objective(direction, -eps)) / (2 * eps)
        assert abs(fd - expected @ direction) <= 1e-6 * abs(fd), (fd, expected @ direction)


def test_greedy_slot_holds_write_after_a_forced_step(untrained_env, monkeypatch):
    # a head that always answers READ: every WRITE is forced, and the slot after it must be
    # WRITE's one-hot, the slot that reinforce_update rebuilds from the actions taken
    env, pairs = untrained_env
    agent = _tiny_agent_pair("none", text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim,
                             key_dim=env.cfg.emb_dim)[0]
    agent.b_head.data = np.array([50.0, -50.0])
    slots, real_observation = [], agent_module._observation

    def observation(tape, visual, text_ctx, token_emb, prev_action):
        slots.append(prev_action[0].copy())
        return real_observation(tape, visual, text_ctx, token_emb, prev_action)

    monkeypatch.setattr(agent_module, "_observation", observation)
    for src, _ in pairs[:4]:
        slots.clear()
        got = simulate(AgentGreedyPolicy(agent, env), env, src)
        assert got.actions == "R" * len(src) + "W" * (len(got.actions) - len(src))
        assert got.forced_overrides == len(got.actions) - len(src) > 1
        # the slot of decision t is the one-hot of action t of the transcript, the initial
        # forced READ being action 0
        want = np.eye(2)[[int(a == "W") for a in got.actions[:len(slots)]]]
        assert len(slots) == len(got.actions) - 1 and np.array_equal(np.array(slots), want)


def _tiny_agent_pair(variant, seed=0, **overrides):
    """A tiny agent and baseline: text 3, emb 3, hidden 3, 2x3 features."""
    fields = dict(text_dim=3, emb_dim=3, hidden_dim=3, key_dim=3, use_init=variant == "init",
                  use_att=variant == "att", feature_rows=2, feature_dim=3, init_scale=0.5)
    cfg = AgentConfig(**{**fields, **overrides})
    rng = np.random.default_rng(seed)
    return AgentNetwork(cfg, rng), BaselineNetwork(cfg, rng)


def _random_batch(cfg, lengths, seed=0):
    """Hand-built episodes of the given lengths with random observations and returns."""
    rng = np.random.default_rng(seed)
    entries = []
    for t in lengths:
        features = FeatureSet("grid", rng.normal(size=(cfg.feature_rows, cfg.feature_dim)))
        entries.append(TrajectoryEntry(
            obs_text=rng.normal(size=(t, cfg.text_dim)),
            obs_emb=rng.normal(size=(t, cfg.emb_dim)),
            features=features if cfg.use_init or cfg.use_att else None,
            actions=rng.integers(0, 2, size=t),
            forced=rng.random(t) < 0.25,
            rewards=rng.normal(size=t), returns=rng.normal(size=t),
            log_probs=np.zeros(t), entropies=np.zeros(t)))
    return TrajectoryBatch(entries)


@pytest.mark.parametrize("variant", ["none", "init", "att"])
def test_reinforce_update_gradcheck(variant):
    # the advantage is a constant taken from the baseline's forward, so the agent's
    # gradients are checked against the agent loss and the baseline's against its own
    agent, baseline = _tiny_agent_pair(variant, seed=1)
    batch = _random_batch(agent.cfg, [2, 5, 3], seed=2)  # unequal lengths: padded steps
    cfg = RLTrainConfig(entropy_weight=0.3)
    params = {"agent_loss": [p for _, p in agent.named_tensors()],
              "baseline_loss": [p for _, p in baseline.named_tensors()]}
    ad.zero_grads(params["agent_loss"] + params["baseline_loss"])
    reinforce_update(batch, agent, baseline, cfg)
    analytic = {loss: [p.grad.copy() for p in tensors] for loss, tensors in params.items()}
    for loss, tensors in params.items():
        assert all(np.any(g != 0.0) for g in analytic[loss]), loss
        assert_grads_close(
            lambda loss=loss: reinforce_update(batch, agent, baseline, cfg)[loss],
            tensors, analytic[loss], tol=1e-7)


def _loss_and_grads(run, agent, baseline):
    params = agent.named_tensors() + baseline.named_tensors()
    ad.zero_grads([p for _, p in params])
    losses = run()
    return losses, {name + str(k): p.grad.copy() for k, net in enumerate((agent, baseline))
                    for name, p in net.named_tensors()}


@pytest.mark.parametrize("variant, short", [
    pytest.param("none", False, id="none"), pytest.param("init", False, id="init"),
    pytest.param("att", False, id="att"), pytest.param("att", True, id="att-short")])
def test_block_replay_equals_per_step_replay(untrained_env, variant, short):
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 12, seed=4)
    cfg = RLTrainConfig(entropy_weight=0.1)
    batch = collect_trajectories(agent, baseline, env, episodes, cfg, global_seed=2)
    assert len({len(e) for e in batch.entries}) > 1
    if short:  # one episode cut to its first two steps, far shorter than the rest
        e = batch.entries[5]
        batch.entries[5] = replace(e, **{name: getattr(e, name)[:2] for name in (
            "obs_text", "obs_emb", "actions", "forced", "rewards", "returns")})
        others = batch.entries[:5] + batch.entries[6:]
        assert min(len(e) for e in others) >= 4 * len(batch.entries[5])

    def block():
        stats = reinforce_update(batch, agent, baseline, cfg)
        return stats["agent_loss"], stats["baseline_loss"]

    got, got_grads = _loss_and_grads(block, agent, baseline)
    want, want_grads = _loss_and_grads(lambda: replay_losses(batch, agent, baseline, cfg),
                                       agent, baseline)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)
    assert got_grads.keys() == want_grads.keys()
    for name, w in want_grads.items():
        assert np.max(np.abs(got_grads[name] - w)) <= 1e-12 * np.max(np.abs(w)), name


@pytest.mark.parametrize("variant", ["init", "att"])
def test_replay_of_shared_sources_equals_replay_of_copies(untrained_env, variant):
    # 6 sources x 5 samples sharing one FeatureSet object each, against an equal copy per sample
    env, agent, baseline, episodes = _visual_setup(*untrained_env, variant, 6, seed=7)
    cfg = RLTrainConfig(entropy_weight=0.1)
    shared = collect_trajectories(agent, baseline, env, [e for e in episodes for _ in range(5)],
                                  cfg, global_seed=4)
    copies = TrajectoryBatch([replace(e, features=FeatureSet(e.features.variant,
                                                             e.features.matrix.copy()))
                              for e in shared.entries])

    def losses(batch):
        stats = reinforce_update(batch, agent, baseline, cfg)
        return stats["agent_loss"], stats["baseline_loss"]

    got, got_grads = _loss_and_grads(lambda: losses(shared), agent, baseline)
    want, want_grads = _loss_and_grads(lambda: losses(copies), agent, baseline)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * abs(w)
    for name, w in want_grads.items():
        assert np.max(np.abs(got_grads[name] - w)) <= 1e-12 * np.max(np.abs(w)), name


def test_replay_tape_does_not_grow_with_episode_length(monkeypatch):
    tapes = []

    class CountingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", CountingTape)
    agent, baseline = _tiny_agent_pair("att")
    cfg = RLTrainConfig()
    for lengths in ([3, 2, 3], [30, 27, 31]):
        reinforce_update(_random_batch(agent.cfg, lengths), agent, baseline, cfg)
    short, long = (len(t) for t in tapes)
    assert short == long


def test_reinforce_update_steps_the_optimizers_it_is_given():
    agent, baseline = _tiny_agent_pair("att", seed=3)
    batch, cfg = _random_batch(agent.cfg, [4, 2, 5], seed=3), RLTrainConfig()
    nets = (agent, baseline)
    for given in ((AdamState(agent.named_tensors()), None),
                  (None, AdamState(baseline.named_tensors()))):
        with pytest.raises(ConfigError, match="both optimizers or neither"):
            reinforce_update(batch, agent, baseline, cfg, *given)
    assert all(p.grad is None for net in nets for _, p in net.named_tensors())
    before = [net.snapshot() for net in nets]
    reinforce_update(batch, agent, baseline, cfg)  # neither: the gradients are the caller's
    assert all(p.grad.any() for net in nets for _, p in net.named_tensors())
    assert all(np.array_equal(v, net.snapshot()[k])
               for net, b in zip(nets, before) for k, v in b.items())
    ad.zero_grads([p for net in nets for _, p in net.named_tensors()])
    reinforce_update(batch, agent, baseline, cfg, *(AdamState(net.named_tensors())
                                                    for net in nets))
    assert all(p.grad is None for net in nets for _, p in net.named_tensors())
    assert all(not np.array_equal(v, net.snapshot()[k])
               for net, b in zip(nets, before) for k, v in b.items())


@pytest.mark.parametrize("variant", ["none", "init", "att"])
def test_greedy_policy_equals_per_step_reference(untrained_env, variant):
    env, agent, _, episodes = _visual_setup(*untrained_env, variant, 16, seed=4)
    transcripts = []
    for src, _, features in episodes:
        got = simulate(AgentGreedyPolicy(agent, env), env, src, features, record_attention=True)
        want = simulate(ReferenceGreedyPolicy(agent, env), env, src, features,
                        record_attention=True)
        assert (got.actions, got.hyp) == (want.actions, want.hyp)
        assert len(got.attention) == len(got.actions)
        for g, w in zip(got.attention, want.attention, strict=True):
            assert (g is None) == (w is None)
            if w is not None:
                assert np.allclose(g, w, rtol=0, atol=1e-12)
        transcripts.append((src, got))
    # the agent itself chose both a READ after the first and a WRITE before the source ran out
    assert any("R" in t.actions[1:] for _, t in transcripts)
    assert any(t.delays and t.delays[0] < len(src) for src, t in transcripts)
    recorded = [w for _, t in transcripts for w in t.attention[1:]]
    assert all((w is not None) == (variant == "att") for w in recorded)


def _enter(path, env, pairs, agent, baseline, features):
    """Run one of the agent's entry points on a single episode with ``features``."""
    src, ref = pairs[0]
    if path == "collect":
        collect_trajectories(agent, baseline, env, [(src, ref, features)], RLTrainConfig(),
                             global_seed=0)
    elif path == "update":
        batch = _random_batch(agent.cfg, [2, 3])
        for entry in batch.entries:
            entry.features = features
        reinforce_update(batch, agent, baseline, RLTrainConfig())
    else:
        simulate(AgentGreedyPolicy(agent, env), env, src, features)


@pytest.mark.parametrize("path", ["collect", "update", "greedy"])
@pytest.mark.parametrize("variant", ["init", "att"])
def test_visual_agent_rejects_missing_or_misshaped_features(untrained_env, path, variant):
    env, pairs = untrained_env
    agent, baseline = _tiny_agent_pair(variant, text_dim=env.cfg.hid_dim,
                                       emb_dim=env.cfg.emb_dim, key_dim=env.cfg.emb_dim)
    with pytest.raises(ConfigError, match="features"):
        _enter(path, env, pairs, agent, baseline, None)
    with pytest.raises(ConfigError, match="geometry"):
        _enter(path, env, pairs, agent, baseline, FeatureSet("grid", np.ones((3, 3))))


@pytest.mark.parametrize("path", ["collect", "greedy"])
@pytest.mark.parametrize("field", ["text_dim", "emb_dim"])
def test_agent_rejects_environment_dims(untrained_env, path, field):
    env, pairs = untrained_env
    dims = dict(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, key_dim=env.cfg.emb_dim)
    dims[field] += 1
    agent, baseline = _tiny_agent_pair("none", **dims)
    with pytest.raises(ConfigError, match="environment"):
        _enter(path, env, pairs, agent, baseline, None)
