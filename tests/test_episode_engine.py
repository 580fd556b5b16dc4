"""The lane-batched episode engine against the per-episode reference."""

import numpy as np
import pytest

from simtlab import autodiff as ad
from simtlab import environment
from simtlab.agent import (AgentConfig, AgentGreedyPolicy, AgentNetwork, BaselineNetwork,
                           RLTrainConfig, collect_trajectories)
from simtlab.environment import (READ, WRITE, DecoderState, EncoderState, EnvConfig, EnvModel,
                                 EnvTrainConfig, EpisodeStepper, encode_next, encode_sequence,
                                 propose_next, train_consecutive, validation_bleu)
from simtlab.errors import ConfigError, ContractError, DataError, ShapeError
from simtlab.features import FeatureSet
from simtlab.metrics import RewardConfig, corpus_bleu, delays_from_actions
from simtlab.policies import (ConsecutivePolicy, Policy, Transcript, WaitKPolicy, run_episodes,
                              simulate)
from simtlab.vocab import EOS

import episode_reference as ref
from recount import transcript_rewards
from test_agent import _visual_setup
from test_policies import AlwaysRead, RandomPolicy, ScriptedPolicy, translate_full

ROWS, DIM = 3, 5


@pytest.fixture(scope="module")
def visual_env(untrained_env):
    """A multimodal environment over the untrained environment's vocabularies."""
    text_env, pairs = untrained_env
    env = EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                   EnvConfig(emb_dim=20, hid_dim=28, feature_rows=ROWS,
                             feature_dim=DIM, init_scale=0.3), np.random.default_rng(6))
    rng = np.random.default_rng(8)
    feats = [FeatureSet("grid", rng.normal(size=(ROWS, DIM))) for _ in pairs]
    return env, pairs, feats


class PeekingPolicy(Policy):
    """Reads the proposal on every other decision and lets it pick the action."""

    def __init__(self, seed):
        self.seed = seed

    def start_episode(self, sources, features):
        self.step = self.seed

    def decide(self, episode):
        self.step += 1
        if self.step % 2:
            return episode.n_read > episode.n_written + 1
        proposal = episode.proposal()
        return (proposal.token + np.argmax(np.abs(proposal.text_ctx), axis=1)) % 2 == 1


def _policies():
    """Fresh policy factories: Random, AlwaysRead, scripted, wait-k, consecutive, peeking."""
    return [lambda s: RandomPolicy(s), lambda s: AlwaysRead(),
            lambda s: ScriptedPolicy("RRWRWWRRRWRW"[s % 4:]), lambda s: WaitKPolicy(1 + s % 3),
            lambda s: ConsecutivePolicy(), lambda s: PeekingPolicy(s)]


@pytest.mark.parametrize("reversed_ref", [False, True])
@pytest.mark.parametrize("c_star", [1, 2])
@pytest.mark.parametrize("multimodal", [False, True])
def test_simulate_matches_per_episode_reference(untrained_env, visual_env, multimodal,
                                                c_star, reversed_ref):
    # the rewards step_rewards reads from the transcript equal the reference's inline ones;
    # a reversed reference makes some commits lose BLEU
    env, pairs, feats = visual_env if multimodal else (*untrained_env, None)
    reward = RewardConfig(c_star=c_star)
    for s, (src, tgt) in enumerate(pairs[:10]):
        fs = feats[s] if multimodal else None
        tgt = list(tgt)[::-1] if reversed_ref else list(tgt)
        for make in _policies():
            got = simulate(make(s), env, src, fs)
            want = ref.simulate(make(s), env, src, fs, ref_tokens=tgt, reward_config=reward)
            assert (got.actions, got.hyp, got.delays) == (want.actions, want.hyp, want.delays)
            assert got.forced_overrides == want.forced_overrides
            assert np.allclose(transcript_rewards(got, tgt, reward), want.rewards,
                               rtol=0, atol=1e-12)


def test_trained_simulate_matches_per_episode_reference(tiny_copy_env):
    env, _, _, test, _ = tiny_copy_env
    for s, (src, tgt) in enumerate(test[:12]):
        for make in _policies():
            got = simulate(make(s), env, src)
            want = ref.simulate(make(s), env, src, ref_tokens=tgt, reward_config=RewardConfig())
            assert (got.actions, got.hyp, got.delays) == (want.actions, want.hyp, want.delays)
            assert np.allclose(transcript_rewards(got, tgt, RewardConfig()), want.rewards,
                               rtol=0, atol=1e-12)


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
           for i, (src, _) in enumerate(pairs) if src]
    assert want[0] == [] and got == want[1:]
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


def _visible(episode):
    """The encoder rows each running lane sees: ``n_read``, plus its EOS row once forced."""
    run = episode.running
    return episode.n_read[run] + episode.forced[run]


def _take(episode, lanes):
    """The encoder state of ``lanes`` (row positions) of a stepper's running lanes, copied."""
    return EncoderState(None, None, episode.enc_rows[lanes], _visible(episode)[lanes])


def _take_dec(dec, lanes):
    """The rows of ``lanes`` of a stepper's decoder state, copied."""
    return DecoderState(dec.g1_h[lanes], dec.g2_h[lanes], dec.last_token[lanes])


def _lane_blocks(episode):
    """Each running lane's projected feature block, through the stepper's index; copied."""
    blocks, index = episode.projected
    return blocks[np.arange(len(blocks)) if index is None else index]


def _check_rows_follow_running(episode, features=None):
    """The stepper's model states hold one row per running lane, in order, its projected
    features one block per distinct set of the running lanes (``features``, one per lane)
    and each lane's block, and a proposal on them attends to exactly the rows each lane sees."""
    m, run = len(episode.running), episode.running
    rows = [len(episode.dec.g1_h), len(episode.dec.g2_h), len(episode.dec.last_token),
            len(episode.enc_rows)]
    if episode.projected is not None:
        rows.append(len(_lane_blocks(episode)))
        blocks, index = episode.projected
        # a block lives while a running lane reads it; no index when each lane reads its own
        assert len(blocks) == len({id(features[i]) for i in run})
        assert index is None or not np.array_equal(index, np.arange(m))
        for block, i in zip(_lane_blocks(episode), run):  # its set's product, bit for bit
            assert np.array_equal(block, episode.model.project_features(features[i])[0][0])
    assert rows == [m] * len(rows)
    # a running lane sees n_read rows, plus its EOS row once a step forced it to write
    src_len = np.array([len(episode.src_ids[i]) for i in run])
    assert np.array_equal(episode.forced[run], episode.n_read[run] == src_len)
    if m:  # propose_next as imported here, which the tests' counters do not see
        visible = _visible(episode)
        weights = propose_next(episode.dec, _take(episode, np.arange(m)), episode.model,
                               episode.projected).text_weights
        assert np.array_equal(weights != 0, np.arange(visible.max()) < visible[:, None])


# lanes 0, 4 and 6 share one feature set, lanes 1 and 3 another, lanes 2 and 7 a third; as
# lanes end, the survivors come to read one set each, out of the sets' order
SHARED_SETS = (0, 1, 2, 1, 0, 3, 0, 2)


def test_stepper_lanes_equal_single_lane_episodes(visual_env):
    # lanes of unequal lengths finish at different steps; each matches its own run, with a
    # feature set per lane and with lanes sharing sets
    env, pairs, feats = visual_env
    for lane_feats in (feats[:6], [feats[k] for k in SHARED_SETS[:6]]):
        episode = EpisodeStepper(env, [src for src, _ in pairs[:6]], lane_feats)
        step = 0
        while len(episode.running):
            episode.proposal()
            episode.apply(np.array([(step + i) % 3 == 0 for i in range(6)]))
            _check_rows_follow_running(episode, lane_feats)
            # each lane's last action, which the agents read as their previous-action slot
            assert [bool(w) for w in episode.wrote] == [a[-1] == WRITE for a in episode.actions]
            step += 1
        for i, (src, tgt) in enumerate(pairs[:6]):
            hyp = env.tgt_vocab.decode(episode.hyp_ids[i], strip_reserved=False)
            actions = "".join(episode.actions[i])
            lane = Transcript(src, hyp, actions, delays_from_actions(actions, hyp[-1] == "<eos>"))
            alone = simulate(ScriptedPolicy(lane.actions[1:]), env, src, lane_feats[i])
            assert ((alone.actions, alone.hyp, alone.delays)
                    == (lane.actions, lane.hyp, lane.delays))
            assert np.allclose(transcript_rewards(alone, tgt, RewardConfig()),
                               transcript_rewards(lane, tgt, RewardConfig()), rtol=0, atol=1e-12)


def test_stepper_counts_the_read_answers_it_overrides(untrained_env):
    # always READ: every WRITE is forced, and each forced step of a running lane is one override
    env, pairs = untrained_env
    episode = EpisodeStepper(env, [src for src, _ in pairs[:5]])
    assert not episode.wrote.any() and not episode.forced_overrides.any()  # the first READ
    want = np.zeros(5, dtype=np.int64)
    while len(episode.running):
        want[episode.running] += episode.forced[episode.running]
        episode.apply(np.zeros(5, dtype=bool))
    assert np.array_equal(episode.forced_overrides, want)
    assert want.tolist() == [a.count(WRITE) for a in episode.actions] and want.all()


def _greedy_agent(env, variant):
    cfg = AgentConfig(text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim, hidden_dim=12,
                      key_dim=env.cfg.emb_dim, use_init=variant == "init",
                      use_att=variant == "att", feature_rows=ROWS, feature_dim=DIM,
                      init_scale=0.5)
    return AgentGreedyPolicy(AgentNetwork(cfg, np.random.default_rng(11)), env)


@pytest.mark.parametrize("policy", ["wait1", "wait2", "wait3", "wait4", "wait5", "consecutive",
                                    "agent-none", "agent-init", "agent-att"])
@pytest.mark.parametrize("multimodal", [False, True])
def test_lanes_equal_one_lane_simulate(untrained_env, visual_env, multimodal, policy):
    # 30 episodes of unequal lengths as lanes of one run; each equals its own one-lane run
    _, pairs, feats = visual_env
    env = visual_env[0] if multimodal else untrained_env[0]
    if policy.startswith("wait"):
        runner = WaitKPolicy(int(policy[4:]))
    elif policy == "consecutive":
        runner = ConsecutivePolicy()
    else:
        runner = _greedy_agent(env, policy[6:])  # start_episode resets its state
    reward = RewardConfig()
    sources, refs, feats = [s for s, _ in pairs[:30]], [t for _, t in pairs[:30]], feats[:30]
    if not (multimodal or runner.reads_features):
        feats = [None] * 30  # a text-only environment refuses features that nothing reads
    lanes = run_episodes(runner, env, sources, feats, record_attention=True)
    assert len(lanes) == 30
    for i, got in enumerate(lanes):
        alone = simulate(runner, env, sources[i], feats[i], record_attention=True)
        assert (got.actions, got.hyp, got.delays) == (alone.actions, alone.hyp, alone.delays)
        assert (transcript_rewards(got, refs[i], reward)
                == transcript_rewards(alone, refs[i], reward))
        assert got.forced_overrides == alone.forced_overrides
        assert got.attention == alone.attention
    if policy.startswith("agent"):
        assert any(t.delays and t.delays[0] < len(t.src) for t in lanes)
        assert any(READ in t.actions[1:] for t in lanes)
        assert any(w is not None for t in lanes for w in t.attention) == (policy == "agent-att")


def test_stepper_contracts(untrained_env):
    env, pairs = untrained_env
    with pytest.raises(DataError, match="empty source on lane 1"):
        EpisodeStepper(env, [pairs[0][0], []])
    episode = EpisodeStepper(env, [pairs[0][0], pairs[1][0][:1]])
    # construction takes the first READ and starts the next step; no other call is needed
    src_len = np.array([len(ids) for ids in episode.src_ids])
    assert np.array_equal(episode.forced, episode.n_read == src_len) and episode.forced[1]
    assert len(episode.proposal().token) == 2
    episode.apply(np.array([False, False]))
    assert episode.proposal() is episode.proposal()  # cached for the step


def test_proposal_after_every_lane_ended_raises_contract_error(untrained_env):
    env, pairs = untrained_env
    episode = EpisodeStepper(env, [src for src, _ in pairs[:3]])
    while len(episode.running):
        episode.apply(episode.forced)
    with pytest.raises(ContractError, match="proposal: every lane has ended"):
        episode.proposal()


def _ragged(untrained_env, visual_env, multimodal):
    """Environment, 8 ragged sources (lane 0 has one token) and their features or None."""
    env, pairs, feats = visual_env if multimodal else (*untrained_env, None)
    sources = [pairs[0][0][:1]] + [src for src, _ in pairs[1:8]]
    assert len({len(s) for s in sources}) > 3
    return env, sources, None if feats is None else feats[:8]


@pytest.mark.parametrize("multimodal", [False, True])
def test_encoder_pass_equals_one_lane_encode_next(untrained_env, visual_env, multimodal):
    env, sources, feats = _ragged(untrained_env, visual_env, multimodal)
    episode = EpisodeStepper(env, sources, feats)
    # the constructor's first READ; lane 0 has read its only token, so its EOS row shows
    assert _visible(episode).tolist() == [2] + [1] * 7
    for i, src in enumerate(sources):
        ids = env.src_vocab.encode(src) + [EOS]
        alone = encode_sequence(env, ids).rows[0]
        assert np.max(np.abs(episode.enc_rows[i, :len(ids)] - alone)) <= 1e-12
        assert not episode.enc_rows[i, len(ids):].any()


def test_stepper_drops_ended_lanes_from_projected_in_place(visual_env):
    # only the index follows the running lanes; a feature set's block is dropped, in place,
    # when its last lane ends, and each lane's block stays its own set's product bit for bit
    env, pairs, feats = visual_env
    for shared, lane_feats in enumerate((feats[:8], [feats[k] for k in SHARED_SETS])):
        episode = EpisodeStepper(env, [src for src, _ in pairs[:8]], lane_feats)
        block = episode.projected[0]
        assert len(block) == len({id(f) for f in lane_feats})
        products = [env.project_features(f)[0][0] for f in lane_feats]
        rng = np.random.default_rng(12)
        partial, dropped, reordered = 0, 0, 0
        while len(episode.running):
            before = len(episode.projected[0])
            episode.apply(rng.random(8) < 0.4)
            run, (blocks, index) = episode.running, episode.projected
            if len(run):
                assert np.shares_memory(blocks, block)
                assert len(blocks) == len({id(lane_feats[i]) for i in run})
                assert np.array_equal(_lane_blocks(episode), [products[i] for i in run])
                partial += len(run) < 8
                dropped += len(blocks) < before
                reordered += index is not None and len(index) == len(blocks)
        # with shared sets, steps where each lane reads a block of its own, but not block i
        assert partial > 3 and dropped > 1 and (reordered > 0) == shared


def test_keep_lanes_compacts_the_index_and_drops_a_block_with_its_last_lane():
    def shared(index):
        blocks = np.arange(4.0)[:, None] * np.ones((4, 2))  # row k holds k
        return blocks, -blocks, index

    # lanes 0 and 2 read row 0, lane 1 row 1, lane 3 row 3; row 2 is read by no lane
    for keep, rows, index in (([0, 1, 2, 3], [0, 1, 3], [0, 1, 0, 2]),
                              ([1, 2, 3], [0, 1, 3], [1, 0, 2]),  # as many rows, out of order
                              ([0, 3], [0, 3], None),
                              ([2], [0], None), ([], [], None)):
        before = shared(np.array([0, 1, 0, 3]))
        keys, values, got = environment._keep_lanes(before, np.array(keep, dtype=np.int64))
        assert np.array_equal(keys[:, 0], rows) and np.array_equal(values, -keys)
        assert not rows or np.shares_memory(keys, before[0]) and np.shares_memory(values,
                                                                                 before[1])
        assert got is None if index is None else np.array_equal(got, index)
    # [1, 0]: each lane reads a row of its own, but not its lane's row: the index stays
    keys, _, got = environment._keep_lanes(shared(np.array([3, 1, 2, 0])), np.array([1, 3]))
    assert np.array_equal(keys[:, 0], [0, 1]) and np.array_equal(got, [1, 0])
    # no index: lane i reads row i, and a row goes with its lane
    keys, _, got = environment._keep_lanes(shared(None), np.array([1, 3]))
    assert np.array_equal(keys[:, 0], [1, 3]) and got is None


def test_stepper_drops_ended_lanes_from_encoder_rows_in_place(visual_env):
    env, pairs, feats = visual_env
    sources = [src for src, _ in pairs[:8]]
    episode = EpisodeStepper(env, sources, feats[:8])
    block = episode.enc_rows
    lanes = EncoderState.encode(env, [env.src_vocab.encode(s) + [EOS] for s in sources]).rows
    rng = np.random.default_rng(12)
    partial = 0
    while len(episode.running):
        episode.apply(rng.random(8) < 0.4)
        run = episode.running
        if len(run):
            assert np.shares_memory(episode.enc_rows, block)
            assert np.array_equal(episode.enc_rows, lanes[run])
            partial += len(run) < 8
    assert partial > 3


@pytest.mark.parametrize("multimodal", [False, True])
def test_proposal_on_lanes_equals_all_lane_rows(untrained_env, visual_env, multimodal):
    # proposing on some of the stepper's rows alone gives those rows of its proposal
    env, sources, feats = _ragged(untrained_env, visual_env, multimodal)
    # with features: one set per lane, then lanes sharing sets
    layouts = [feats, [feats[k] for k in SHARED_SETS]] if multimodal else [None]
    for lane_feats in layouts:
        episode = EpisodeStepper(env, sources, lane_feats)
        rng = np.random.default_rng(5)
        ragged_steps = 0
        while len(episode.running):
            whole, m = episode.proposal(), len(episode.running)
            for idx in (np.arange(m), np.sort(rng.permutation(m)[:3]), np.array([m - 1])):
                projected = None
                if multimodal:  # the given lanes' rows of the stepper's blocks, all kept
                    blocks, index = episode.projected
                    projected = blocks, (np.arange(m) if index is None else index)[idx]
                got = propose_next(_take_dec(episode.dec, idx), _take(episode, idx), env,
                                   projected)
                assert np.array_equal(got.token, whole.token[idx])
                # BLAS may round a product's rows differently with another row count
                for name in ("logits", "text_ctx", "g1_next", "g2_next"):
                    assert np.allclose(getattr(got, name), getattr(whole, name)[idx],
                                       rtol=0, atol=1e-12), name
                # attention spans the longest of the given rows' prefixes
                width = got.text_weights.shape[1]
                assert np.allclose(got.text_weights, whole.text_weights[idx, :width],
                                   rtol=0, atol=1e-12)
                assert not whole.text_weights[idx, width:].any()
            ragged_steps += len(set(_visible(episode))) > 1
            episode.apply(rng.random(8) < 0.4)
            _check_rows_follow_running(episode, lane_feats)
        assert ragged_steps > 3
    if multimodal:
        fresh = EpisodeStepper(env, sources, feats)
        with pytest.raises(ShapeError, match="projected feature blocks"):
            propose_next(_take_dec(fresh.dec, [0, 1]), _take(fresh, [0, 1]), env,
                         fresh.projected)


@pytest.mark.parametrize("multimodal", [False, True])
def test_apply_copies_the_proposal_onto_writing_rows(untrained_env, visual_env, multimodal):
    # writing rows take the proposal's rows bit for bit; reading rows keep theirs
    env, sources, feats = _ragged(untrained_env, visual_env, multimodal)
    episode = EpisodeStepper(env, sources, feats)
    rng = np.random.default_rng(3)
    written = read = 0
    while len(episode.running):
        before, p = episode.running.tolist(), episode.proposal()
        rows = [a.copy() for a in (episode.dec.g1_h, episode.dec.g2_h, episode.dec.last_token)]
        episode.apply(rng.random(8) < 0.5)
        for k, i in enumerate(episode.running):
            was = before.index(i)
            if episode.actions[i][-1] == WRITE:
                want = (p.g1_next[was], p.g2_next[was], p.token[was])
                written += 1
            else:
                want = tuple(a[was] for a in rows)
                read += 1
            got = (episode.dec.g1_h[k], episode.dec.g2_h[k], episode.dec.last_token[k])
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert written > 3 and read > 3


def test_apply_keeps_no_reference_to_the_proposal(untrained_env):
    # after a step on which every row writes, the stepper's rows are its own
    env, pairs = untrained_env
    probe = EpisodeStepper(env, [src for src, _ in pairs[:20]])
    episode = EpisodeStepper(env, [pairs[i][0]
                                   for i in np.flatnonzero(probe.proposal().token != EOS)[:3]])
    p = episode.proposal()
    episode.apply(np.ones(3, dtype=bool))
    assert episode.running.tolist() == [0, 1, 2]  # no lane ended, so no row was gathered
    dec = episode.dec
    rows = [a.copy() for a in (dec.g1_h, dec.g2_h, dec.last_token)]
    p.g1_next[...], p.g2_next[...], p.token[...] = 7.0, 7.0, EOS
    assert all(np.array_equal(a, b) for a, b in zip((dec.g1_h, dec.g2_h, dec.last_token), rows))


def test_encode_next_rejects_a_state_encoded_up_front(untrained_env):
    env, pairs = untrained_env
    enc = EncoderState.encode(env, [env.src_vocab.encode(src) + [EOS] for src, _ in pairs[:3]])
    # a state encoded up front already holds every row
    with pytest.raises(ContractError, match="encoded up front"):
        encode_next(enc, 4, env)


def test_steps_run_no_encoder_gru_and_only_live_rows(untrained_env, monkeypatch):
    # a 2-token source among 10-token ones: the lane set shrinks step by step
    env, agent, baseline, episodes = _visual_setup(*untrained_env, "att", 6, seed=2)
    tokens = list(env.src_vocab.tokens[4:]) * 2
    sources = [tokens[:2]] + [tokens[k:k + 10] for k in range(1, 6)]
    episodes = [(src, ref, fs) for src, (_, ref, fs) in zip(sources, episodes)]
    calls = []  # every ad.gru_step call: (params, rows)
    steps = []  # per step: (live lanes, index of its first gru_step call)
    real_gru, real_apply = ad.gru_step, EpisodeStepper.apply

    def gru_step(x, h, params):
        calls.append((params, len(x)))
        return real_gru(x, h, params)

    def apply(self, write_mask):
        real_apply(self, write_mask)
        if len(self.running):  # apply ends by starting the next step
            steps.append((len(self.running), len(calls)))

    monkeypatch.setattr(ad, "gru_step", gru_step)
    monkeypatch.setattr(EpisodeStepper, "apply", apply)
    batch = collect_trajectories(agent, baseline, env, episodes, RLTrainConfig(), global_seed=1)
    assert steps[0][1] == 0  # construction, first READ included, steps no GRU
    # the baseline is not stepped during collection: its values come from the replay
    grus = {id(p) for p in (env.dec1, env.dec2, agent.gru)}
    for (live, first), (_, end) in zip(steps, steps[1:] + [(0, len(calls))]):
        step_calls = calls[first:end]
        assert len(step_calls) == 3 and {id(p) for p, _ in step_calls} == grus
        assert all(rows == live for _, rows in step_calls)
    lengths = [len(e) for e in batch.entries]
    assert [live for live, _ in steps] == [sum(t < k for k in lengths)
                                           for t in range(max(lengths))]
    assert 3 * lengths[0] < max(lengths)


@pytest.mark.parametrize("path", ["text", "visual", "collect-att"])
def test_no_sources_raise_contract_error(untrained_env, visual_env, path):
    with pytest.raises(ContractError, match="episode: no sources"):
        if path == "collect-att":
            env, agent, baseline, _ = _visual_setup(*untrained_env, "att", 1)
            collect_trajectories(agent, baseline, env, [], RLTrainConfig(), global_seed=0)
        else:
            env = untrained_env[0] if path == "text" else visual_env[0]
            run_episodes(WaitKPolicy(1), env, [])


class _Unknown(Policy):
    def decide(self, episode):
        return np.full(episode.n, "X")


def test_simulate_rejects_unknown_action(untrained_env):
    env, pairs = untrained_env
    with pytest.raises(ContractError, match="unknown action"):
        simulate(_Unknown(), env, pairs[0][0])


@pytest.fixture
def proposals(monkeypatch):
    """The decoder state of every ``environment.propose_next`` call."""
    calls = []
    real = environment.propose_next

    def counted(dec, enc, model, projected=None):
        calls.append(dec)
        return real(dec, enc, model, projected)

    monkeypatch.setattr(environment, "propose_next", counted)
    return calls


@pytest.mark.parametrize("make", [lambda: WaitKPolicy(1), lambda: WaitKPolicy(3),
                                  ConsecutivePolicy], ids=["wait1", "wait3", "consecutive"])
@pytest.mark.parametrize("multimodal", [False, True])
def test_rule_policies_propose_once_per_write(untrained_env, visual_env, proposals, make,
                                              multimodal):
    env, pairs, feats = visual_env if multimodal else (*untrained_env, None)
    skipped = 0
    for s, (src, _) in enumerate(pairs[:10]):
        proposals.clear()
        got = simulate(make(), env, src, feats[s] if multimodal else None)
        assert len(proposals) == got.actions.count(WRITE)
        skipped += got.actions.count(READ) - 1
    assert skipped > 0


@pytest.mark.parametrize("variant", ["none", "att"])
def test_greedy_agent_proposes_on_every_decision(untrained_env, proposals, variant):
    env, agent, _, episodes = _visual_setup(*untrained_env, variant, 8)
    policy = AgentGreedyPolicy(agent, env)
    actions = ""
    for src, _, fs in episodes:
        proposals.clear()
        got = simulate(policy, env, src, fs)
        assert len(proposals) == len(got.actions) - 1  # the first READ asks no policy
        actions += got.actions[1:]
    assert {READ, WRITE} <= set(actions)


def test_validation_proposes_only_on_steps_with_a_write(tiny_copy_env, proposals, monkeypatch):
    env, _, _, test, _ = tiny_copy_env
    steps = []  # (some live lane wrote, proposals made) per step
    real_apply = EpisodeStepper.apply

    def apply(self, write_mask):
        live, made = self.running, len(proposals)
        real_apply(self, write_mask)
        _check_rows_follow_running(self)
        steps.append((any(self.actions[i][-1] == WRITE for i in live), len(proposals) - made))

    monkeypatch.setattr(EpisodeStepper, "apply", apply)
    validation_bleu(env, test[:20])
    assert [made for _, made in steps] == [int(wrote) for wrote, _ in steps]
    assert not all(wrote for wrote, _ in steps[1:])


def test_collector_proposes_on_every_step(untrained_env, proposals):
    env, agent, baseline, episodes = _visual_setup(*untrained_env, "none", 6)
    batch = collect_trajectories(agent, baseline, env, episodes, RLTrainConfig(),
                                 global_seed=0)
    assert len(proposals) == max(len(e.actions) for e in batch.entries)


def test_stepper_rejects_one_feature_set_for_many_sources(visual_env):
    env, pairs, feats = visual_env
    with pytest.raises(DataError, match="features"):
        EpisodeStepper(env, [src for src, _ in pairs[:12]], feats[0])


@pytest.mark.parametrize("n_feats", [11, 13])
def test_validation_bleu_rejects_misaligned_features(visual_env, n_feats):
    env, pairs, feats = visual_env
    with pytest.raises(DataError, match="feature sets"):
        validation_bleu(env, pairs[:12], feats[:n_feats])


def test_train_consecutive_rejects_misaligned_validation_features(visual_env):
    _, pairs, feats = visual_env
    cfg = EnvTrainConfig(max_epochs=1, emb_dim=6, hid_dim=6)
    with pytest.raises(DataError, match="validation"):
        train_consecutive(pairs[:20], pairs[20:30], cfg, feats[:20], feats[20:29])


@pytest.mark.parametrize("split", ["train", "valid"])
def test_train_consecutive_rejects_mixed_feature_geometry_before_training(visual_env,
                                                                          monkeypatch, split):
    # one set in the split has a row more than the first training set, then is missing
    _, pairs, feats = visual_env

    def no_step(*args):
        raise AssertionError("trained before rejecting the features")
    monkeypatch.setattr(environment, "teacher_forced_loss", no_step)
    given = {"train": list(feats[:20]), "valid": list(feats[20:30])}
    given[split][3] = FeatureSet("grid", np.ones((ROWS + 1, DIM)))
    cfg = EnvTrainConfig(max_epochs=1, emb_dim=6, hid_dim=6)
    entry = {"train": 3, "valid": 23}[split]
    with pytest.raises(ConfigError, match=rf"train_consecutive: feature geometry \(4, 5\) "
                                          rf"of entry {entry} does not match the configured "
                                          rf"\(3, 5\)"):
        train_consecutive(pairs[:20], pairs[20:30], cfg, given["train"], given["valid"])
    given[split][3] = None
    with pytest.raises(ConfigError, match=f"train_consecutive requires visual features; "
                                          f"entry {entry} has none"):
        train_consecutive(pairs[:20], pairs[20:30], cfg, given["train"], given["valid"])


@pytest.mark.parametrize("given", ["train", "valid"])
def test_train_consecutive_rejects_features_for_one_split_before_training(visual_env,
                                                                          monkeypatch, given):
    _, pairs, feats = visual_env

    def no_step(*args):
        raise AssertionError("trained before rejecting the features")
    monkeypatch.setattr(environment, "teacher_forced_loss", no_step)
    cfg = EnvTrainConfig(max_epochs=1, emb_dim=6, hid_dim=6)
    split = {"train": (feats[:20], None), "valid": (None, feats[20:30])}[given]
    with pytest.raises(ConfigError, match="both the training and the validation split"):
        train_consecutive(pairs[:20], pairs[20:30], cfg, *split)
