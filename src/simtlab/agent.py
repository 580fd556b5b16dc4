"""Stochastic READ/WRITE agent, learned baseline, and REINFORCE training.

The agent is a single GRU over per-step observations
[text context; proposed-token embedding; one-hot of the previous action;
optional visual context] with a 2-way softmax head. The init variant
starts the GRU from a projection of the flattened visual features; the
att variant attends over projected feature rows from the proposed
token's embedding. The baseline network mirrors the agent's structure and
observation stream but ends in a scalar head; its regression loss never
reaches agent parameters.

One code path serves every caller. ``_RecurrentNet.start`` gives the
initial states and visual keys and values, projecting each distinct
FeatureSet once, ``_observation`` assembles the input rows, and
``_RecurrentNet.step_np`` steps without a tape. The att variant keeps one
key and value block per distinct FeatureSet, never a copy per lane or
episode: the samples of one source share its set, and an index points
each at its block, over which ``autodiff.batched_attention`` attends for
all of them in one product. Both agent policies step the running lanes of
an ``EpisodeStepper`` at once (the environment is frozen) on the rows of
its proposal, one per running lane, through the agent's ``_LaneState``,
and are driven by ``policies.run_episodes``: ``AgentGreedyPolicy`` writes
where the WRITE logit is the larger, and the collector's
``_SamplingPolicy`` samples Gumbel-max actions and records what the replay
needs. The previous-action slot holds the action taken, WRITE where forced.
Collection never steps the baseline. ``reinforce_update`` then replays the
recorded observations, the slot rebuilt from the actions, on a tape as one
block per network: a single attention call, one ``autodiff.gru_sequence``
that steps each episode over its own length only, and one head matmul, then
REINFORCE with the baseline's replayed values as control variates. The
baseline replays every step; the agent only up to each episode's last
unforced step, since later steps carry no loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GRUParams, Tensor
from .checkpoint import load_into, read_config, save_checkpoint, write_metadata
from .environment import (EnvModel, EpisodeStepper, _compact, _keep_lanes, distinct_items,
                          require_positive)
from .errors import ConfigError, ContractError
from .features import check_feature_sets
from .metrics import RewardConfig, check_references, step_rewards
from .optim import adam_step
from .policies import Policy, Transcript, run_episodes

ACT_READ, ACT_WRITE = 0, 1
_ONE_HOT = np.eye(2)  # row a: the previous-action slot after action a

# the AgentConfig fields a checkpoint's metadata records
_META = {"text_dim": int, "emb_dim": int, "hidden_dim": int, "key_dim": int,
         "use_init": bool, "use_att": bool, "feature_rows": int, "feature_dim": int}


@dataclass
class AgentConfig:
    """Geometry and multimodal switches for agent-side networks."""

    text_dim: int = 320
    emb_dim: int = 200
    hidden_dim: int = 320
    key_dim: int = 200
    use_init: bool = False
    use_att: bool = False
    feature_rows: int = 0
    feature_dim: int = 0
    init_scale: float = 0.08

    def __post_init__(self):
        require_positive(self, "text_dim", "emb_dim", "hidden_dim", "key_dim")
        if (self.use_init or self.use_att) and (self.feature_rows < 1 or self.feature_dim < 1):
            raise ConfigError("visual agent variants need feature_rows and feature_dim")
        if self.use_att and self.key_dim != self.emb_dim:
            # the attention query is the proposed token's embedding
            raise ConfigError(
                f"use_att needs key_dim == emb_dim ({self.key_dim} vs {self.emb_dim})")

    @property
    def obs_dim(self) -> int:
        base = self.text_dim + self.emb_dim + 2
        return base + (self.text_dim if self.use_att else 0)


class _RecurrentNet:
    """Shared recurrent body; subclasses fix the output head width."""

    head_dim = None

    def __init__(self, cfg: AgentConfig, rng):
        self.cfg = cfg
        self.gru = GRUParams.create(cfg.obs_dim, cfg.hidden_dim, rng, cfg.init_scale)
        self.w_head = ad.uniform_tensor((cfg.hidden_dim, self.head_dim), rng, cfg.init_scale)
        self.b_head = Tensor(np.zeros(self.head_dim), requires_grad=True)
        self.init_proj = None
        self.key_proj = None
        self.val_proj = None
        if cfg.use_init:
            flat = cfg.feature_rows * cfg.feature_dim
            self.init_proj = ad.uniform_tensor((flat, cfg.hidden_dim), rng, cfg.init_scale)
        if cfg.use_att:
            self.key_proj = ad.uniform_tensor((cfg.feature_dim, cfg.key_dim), rng,
                                              cfg.init_scale)
            self.val_proj = ad.uniform_tensor((cfg.feature_dim, cfg.text_dim), rng,
                                              cfg.init_scale)

    @property
    def visual(self) -> bool:
        """Whether the network reads visual features (its init or att variant)."""
        return self.cfg.use_init or self.cfg.use_att

    def named_tensors(self):
        out = list(self.gru.named_tensors("gru."))
        out += [("w_head", self.w_head), ("b_head", self.b_head)]
        for name in ("init_proj", "key_proj", "val_proj"):
            t = getattr(self, name)
            if t is not None:
                out.append((name, t))
        return out

    def snapshot(self):
        return {name: t.data.copy() for name, t in self.named_tensors()}

    def restore(self, snapshot) -> None:
        for name, t in self.named_tensors():
            t.data = snapshot[name].copy()

    def start(self, tape, features, n: int):
        """Initial states and visual attention inputs for n episodes.

        ``features`` is ``_feature_block``'s (block, index): each of the U
        distinct FeatureSets is projected once, and episode i reads row
        ``index[i]`` of the projections (row i when ``index`` is None).
        Returns the (n, hidden) initial state (for the init variant a
        projection of the flattened features, which ``autodiff.embedding``
        gathers per episode; zeros otherwise) and, for the att variant, the
        (U, R, key_dim) keys, the (U, R, text_dim) values and ``index``, else
        None. Episodes that share a set attend over its one block.
        """
        cfg, (block, index) = self.cfg, features
        if cfg.use_init:
            h0 = ad.matmul(tape, Tensor(block.reshape(len(block), -1)), self.init_proj)
            if index is not None:
                h0 = ad.embedding(tape, h0, index)
        else:
            h0 = Tensor(np.zeros((n, cfg.hidden_dim)))
        visual = None
        if cfg.use_att:
            visual = (ad.matmul(tape, Tensor(block), self.key_proj),
                      ad.matmul(tape, Tensor(block), self.val_proj), index)
        return h0, visual

    def step_np(self, obs, h):
        """One tapeless step on (n, obs_dim) rows; returns (new hidden, head output)."""
        h_new = ad.gru_step(obs, h, self.gru)
        return h_new, h_new @ self.w_head.data + self.b_head.data

    def sequence(self, tape, obs: Tensor, h0: Tensor, lengths) -> Tensor:
        """Head outputs (B, T, head_dim) over a (B, T, obs_dim) observation block.

        Row b's GRU runs its first ``lengths[b]`` steps; past them the
        output is the head's bias.
        """
        hs = ad.gru_sequence(tape, obs, h0, self.gru, lengths)
        return ad.add_bias(tape, ad.matmul(tape, hs, self.w_head), self.b_head)

    def save(self, prefix) -> None:
        prefix = Path(prefix)
        save_checkpoint(prefix.with_suffix(".ckpt"), self.named_tensors())
        write_metadata(prefix.with_suffix(".meta"), {
            "kind": self.kind, **{key: getattr(self.cfg, key) for key in _META}})

    @classmethod
    def load(cls, prefix) -> "_RecurrentNet":
        prefix = Path(prefix)
        cfg = AgentConfig(**read_config(prefix.with_suffix(".meta"), cls.kind, _META))
        net = cls(cfg, np.random.default_rng(0))
        load_into(prefix.with_suffix(".ckpt"), net.named_tensors())
        return net


class AgentNetwork(_RecurrentNet):
    """Policy network: GRU plus a 2-way action head."""

    head_dim = 2
    kind = "agent"


class BaselineNetwork(_RecurrentNet):
    """Control-variate network: agent structure with a scalar head."""

    head_dim = 1
    kind = "baseline"


def _check_env(env: EnvModel, *nets) -> None:
    """The observation's text context and token embedding come from ``env``."""
    for net in nets:
        cfg = net.cfg
        if (cfg.text_dim, cfg.emb_dim) != (env.cfg.hid_dim, env.cfg.emb_dim):
            raise ConfigError(
                f"{net.kind} text_dim/emb_dim ({cfg.text_dim}, {cfg.emb_dim}) != environment "
                f"hid_dim/emb_dim ({env.cfg.hid_dim}, {env.cfg.emb_dim})")


def _feature_block(features, *nets):
    """The distinct FeatureSet objects stacked to (u, R, D) float64, and each episode's row.

    Checked against each network. The rows are None when every episode has
    its own FeatureSet, and the block is None when there are no episodes or
    no network has a visual variant, which then ignores features.
    """
    visual = [net for net in nets if net.visual]
    if not (visual and features):
        return None, None
    for net in visual:
        check_feature_sets(features, (net.cfg.feature_rows, net.cfg.feature_dim),
                           f"visual {net.kind} network")
    distinct, index = distinct_items(features, id)
    return np.stack([f.matrix for f in distinct], dtype=np.float64), index


def _observation(tape, visual, text_ctx, token_emb, prev_action):
    """Agent input rows [text_ctx; token_emb; prev_action; visual context].

    The parts are (n, ·) lane rows or (B, T, ·) blocks. With an att
    network's ``visual`` (keys, values, index) the token embedding of row i
    attends over feature block ``index[i]``. Returns the observation and the
    attention's (context, weights), or None without ``visual``.
    """
    emb = Tensor(token_emb)
    parts = [Tensor(text_ctx), emb, Tensor(prev_action)]
    attention = None
    if visual is not None:
        keys, values, index = visual
        attention = ad.batched_attention(tape, keys, values, emb, index=index)
        parts.append(attention[0])
    return ad.concat(tape, parts), attention


class _LaneState:
    """The agent's tapeless state on the running lanes of one episode.

    ``h`` and the previous-action one-hot rows ``a_prev`` (READ at the
    start) hold one row per lane in ``lanes``. The att variant's ``visual``
    holds the keys and values of each distinct feature set once, and each
    lane's row of them (``_RecurrentNet.start``). Lanes only end: when the running set
    shrinks, ``h`` and ``a_prev`` are compacted to it in place, and of
    ``visual`` the index is, a set's keys and values being dropped in place
    only when its last lane ends. This state owns all of these. Each step
    replaces ``h``, and the policy replaces ``a_prev``, with a fresh array
    that nothing else holds, so compacting them in place is safe.
    """

    def __init__(self, net: _RecurrentNet, features, n: int):
        h0, self.visual = net.start(None, features, n)
        self.net, self.h, self.lanes = net, h0.data, np.arange(n)
        self.a_prev = _ONE_HOT[np.full(n, ACT_READ)]

    def step(self, running, text_ctx, token_emb):
        """Step the ``running`` lanes on their (m, ·) observation parts, in ``running`` order.

        The previous-action part is ``a_prev``. Returns the (m, head_dim)
        head outputs and the attention's (context, weights), or None
        without visual attention.
        """
        if len(running) != len(self.lanes):
            keep = np.searchsorted(self.lanes, running)  # both in ascending lane order
            self.h, self.a_prev = _compact(self.h, keep), _compact(self.a_prev, keep)
            if self.visual is not None:
                keys, values, index = self.visual
                keys, values, index = _keep_lanes((keys.data, values.data, index), keep)
                self.visual = Tensor(keys), Tensor(values), index
            self.lanes = running
        obs, attention = _observation(None, self.visual, text_ctx, token_emb, self.a_prev)
        self.h, out = self.net.step_np(obs.data, self.h)
        return out, attention


def on_lanes(n: int, lanes, rows) -> np.ndarray:
    """``rows`` placed on ``lanes`` of an (n, ...) array, zero elsewhere; ``rows`` when all n."""
    if len(lanes) == n:
        return rows
    out = np.zeros((n,) + rows.shape[1:], rows.dtype)
    out[lanes] = rows
    return out


def gumbel_max_sample(logits, rngs) -> np.ndarray:
    """One action per row of (m, K) logits, an exact sample from its softmax.

    Row i draws its K uniforms from ``rngs[i]``, so its action does not
    depend on the other rows; the action is the argmax of the logits plus
    Gumbel noise.
    """
    logits = np.asarray(logits, dtype=np.float64)
    u = np.array([rng.random(logits.shape[-1]) for rng in rngs]).reshape(logits.shape)
    np.clip(u, 1e-12, 1.0 - 1e-12, out=u)
    return np.argmax(logits - np.log(-np.log(u)), axis=-1)


# ---------------------------------------------------------------------------
# Trajectory collection (lockstep, tapeless)
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryEntry:
    """Everything recorded about one sampled episode.

    Arrays cover agent decision steps; the initial forced READ that
    happens before the first proposal exists is part of the transcript
    but not an agent step. ``reinforce_update`` computes the baseline values
    and the previous-action slots. A forced step's ``log_probs`` and
    ``entropies`` are recorded, but no loss reads them.
    """

    obs_text: np.ndarray      # (T, text_dim)
    obs_emb: np.ndarray       # (T, emb_dim)
    features: object          # FeatureSet or None
    actions: np.ndarray       # (T,) 0=READ 1=WRITE
    forced: np.ndarray        # (T,) bool
    rewards: np.ndarray       # (T,)
    returns: np.ndarray       # (T,)
    log_probs: np.ndarray     # (T,)
    entropies: np.ndarray     # (T,)
    transcript: Transcript = None

    def __len__(self):
        return len(self.actions)


@dataclass
class TrajectoryBatch:
    entries: list

    def mean_episode_reward(self) -> float:
        return float(np.mean([e.rewards.sum() for e in self.entries]))


@dataclass
class RLTrainConfig:
    """REINFORCE hyperparameters; defaults follow the reference regime.

    Nothing reads ``seed`` yet: ``collect_trajectories`` takes its own
    ``global_seed``. ROADMAP item 3's ``train_agent`` will pass it there.
    At ``discount`` < 1 the update uses discounted reward-to-go with no
    gamma^t weight: the conventional estimator, not the gradient of the
    discounted objective (Thomas 2014, ICML). At 1 it is the exact gradient.
    """

    lr: float = 0.0004
    batch_size: int = 6
    trajectories_per_pair: int = 5
    entropy_weight: float = 0.001
    discount: float = 0.95
    reward: RewardConfig = field(default_factory=RewardConfig)
    patience: int = 5
    updates_per_epoch: int = 150
    max_epochs: int = 30
    seed: int = 0
    val_cap: int = 120

    def __post_init__(self):
        require_positive(self, "batch_size", "trajectories_per_pair")
        if self.lr <= 0:
            raise ConfigError(f"RLTrainConfig.lr must be positive, got {self.lr}")
        if not 0 < self.discount <= 1.0:
            raise ConfigError("discount must be in (0, 1]")
        for name in ("val_cap", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"RLTrainConfig.{name} must be at least 0, "
                                  f"got {getattr(self, name)}")


def compute_returns(rewards: np.ndarray, cfg: RLTrainConfig) -> np.ndarray:
    """Discounted reward-to-go at each step."""
    out = np.zeros_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + cfg.discount * acc
        out[t] = acc
    return out


# what _SamplingPolicy records per step and lane, named as TrajectoryEntry's fields
_RECORDED = ("obs_text", "obs_emb", "actions", "forced", "log_probs", "entropies")


class _SamplingPolicy(Policy):
    """Gumbel-max sampled agent actions on the running lanes.

    Each lane owns an RNG, so the sampled noise does not depend on the
    batching. The agent reads the episodes' ``features`` here, the baseline
    later from the trajectory entries. ``steps`` gets one tuple of
    lane-indexed (n, ...) rows per decide, in ``_RECORDED`` order; a lane's
    rows are zero once it has ended.
    """

    def __init__(self, agent: AgentNetwork, baseline: BaselineNetwork, env: EnvModel,
                 rngs, features):
        self.agent, self.env, self.rngs = agent, env, rngs
        self.features = _feature_block(features, agent, baseline)
        self.reads_features = agent.visual or baseline.visual

    def start_episode(self, sources, features) -> None:
        self.agent_lanes = _LaneState(self.agent, self.features, len(sources))
        self.steps = []

    def decide(self, episode: EpisodeStepper) -> np.ndarray:
        run, proposal = episode.running, episode.proposal()
        forced = episode.forced[run]
        text_ctx = proposal.text_ctx
        y_emb = self.env.tgt_emb.data[proposal.token]

        logits_a, _ = self.agent_lanes.step(run, text_ctx, y_emb)

        ls = logits_a - logits_a.max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        m, free = len(run), np.flatnonzero(~forced)
        action = np.full(m, ACT_WRITE)
        action[free] = gumbel_max_sample(logits_a[free], [self.rngs[run[k]] for k in free])
        rows = (text_ctx, y_emb, action, forced, ls[np.arange(m), action],
                -(np.exp(ls) * ls).sum(axis=1))
        self.steps.append(tuple(on_lanes(episode.n, run, r) for r in rows))
        self.agent_lanes.a_prev = _ONE_HOT[action]
        return on_lanes(episode.n, run, action == ACT_WRITE)


def collect_trajectories(agent: AgentNetwork, baseline: BaselineNetwork,
                         env: EnvModel, episodes, cfg: RLTrainConfig,
                         global_seed: int, start_index: int = 0,
                         record_transcripts: bool = False) -> TrajectoryBatch:
    """Sample one lockstep batch of episodes with per-step rewards.

    ``episodes`` holds (src_tokens, ref_tokens, features) triples, each a
    lane of one ``run_episodes`` call under ``_SamplingPolicy``. The
    references are checked first; after the batch, one ``step_rewards``
    call fills every ``transcript.rewards``. Each
    episode owns an RNG seeded from (global_seed, episode_index), so the
    batch decomposition never changes the sampled noise. A repeated source
    is encoded, and a shared FeatureSet projected, once. Only the agent is
    stepped; ``baseline`` is only checked, before any episode runs.
    """
    if global_seed < 0:
        raise ConfigError(
            f"collect_trajectories: global_seed must be at least 0, got {global_seed}")
    _check_env(env, agent, baseline)
    refs = [e[1] for e in episodes]
    check_references(refs)
    feats = [e[2] for e in episodes]
    rngs = [np.random.default_rng(np.random.SeedSequence((global_seed, start_index + i)))
            for i in range(len(episodes))]
    policy = _SamplingPolicy(agent, baseline, env, rngs, feats)
    transcripts = run_episodes(policy, env, [e[0] for e in episodes], feats)
    blocks = {name: np.stack(rows, axis=1)  # (n, steps, ...)
              for name, rows in zip(_RECORDED, zip(*policy.steps))}
    for t, rewards in zip(transcripts, step_rewards(transcripts, refs, cfg.reward)):
        t.rewards = rewards
    entries = []
    for i, (f, t) in enumerate(zip(feats, transcripts)):
        rewards = np.array(t.rewards[1:])  # the initial forced READ is no agent step
        steps = {name: block[i, :len(rewards)] for name, block in blocks.items()}
        entries.append(TrajectoryEntry(
            **steps, features=f, rewards=rewards, returns=compute_returns(rewards, cfg),
            transcript=t if record_transcripts else None))
    return TrajectoryBatch(entries)


# ---------------------------------------------------------------------------
# REINFORCE update
# ---------------------------------------------------------------------------

def reinforce_update(batch: TrajectoryBatch, agent: AgentNetwork,
                     baseline: BaselineNetwork, cfg: RLTrainConfig,
                     agent_opt=None, baseline_opt=None) -> dict:
    """Replay the batch on a tape, and step the optimizers if given.

    Each network runs once over a padded block of recorded observations,
    its GRU stepping each episode over its own length only. Baseline loss:
    mean squared error of the replayed values b(o_t) vs realized returns
    R_t over every step. Agent loss: -sum log pi(a_t|o_t) (R_t - b(o_t)) -
    entropy bonus over unforced steps, averaged over episodes. The GRU is
    causal, so the agent replays each episode only up to its last unforced
    step; a batch with none replays no column, a zero loss. The advantage
    is a constant there, so the agent loss sends no gradient to the
    baseline. The two losses share a tape but no parameters. With both
    optimizers it steps them and zeroes the gradients; with neither it
    leaves the gradients to the caller.
    """
    if (agent_opt is None) != (baseline_opt is None):
        raise ConfigError("reinforce_update: give both optimizers or neither")
    entries = batch.entries
    if not entries:
        raise ContractError("reinforce_update: empty batch")
    n = len(entries)
    t_max = max(len(e) for e in entries)
    if t_max == 0:
        raise ContractError("reinforce_update: batch has no agent steps")
    features = _feature_block([e.features for e in entries], agent, baseline)

    def padded(name, dtype=np.float64):
        """Field ``name`` of each entry, zero-padded to (n, t_max, ...)."""
        out = np.zeros((n, t_max) + getattr(entries[0], name).shape[1:], dtype)
        for i, e in enumerate(entries):
            out[i, :len(e)] = getattr(e, name)
        return out

    obs_text, obs_emb, returns = map(padded, ("obs_text", "obs_emb", "returns"))
    actions, lengths = padded("actions", np.int64), np.array([len(e) for e in entries])
    obs_prev = _ONE_HOT[np.pad(actions[:, :-1], ((0, 0), (1, 0)))]  # READ before the first
    active = np.arange(t_max) < lengths[:, None]
    learn = active & ~padded("forced", bool)
    # each episode's last unforced step + 1, or 0
    decided = np.where(learn.any(axis=1), t_max - learn[:, ::-1].argmax(axis=1), 0)
    tape = ad.Tape()

    def head_outputs(net, steps, runs):
        """Head outputs over the first ``steps`` columns, row b's GRU running ``runs[b]``."""
        h0, visual = net.start(tape, features, n)
        obs, _ = _observation(tape, visual, obs_text[:, :steps], obs_emb[:, :steps],
                              obs_prev[:, :steps])
        return net.sequence(tape, obs, h0, runs)

    values = ad.pick_rows(tape, head_outputs(baseline, t_max, lengths), np.zeros_like(actions))
    baseline_loss = ad.masked_sq_error(tape, values, returns, active, float(lengths.sum()))
    t_dec = decided.max()
    learn = learn[:, :t_dec]
    advantages = (returns - values.data)[:, :t_dec]
    ls = ad.log_softmax_rows(tape, head_outputs(agent, t_dec, decided))
    agent_loss = ad.sum_scalars(tape, [
        ad.weighted_sum(tape, ad.pick_rows(tape, ls, actions[:, :t_dec]),
                        -(advantages * learn) / n),
        ad.weighted_sum(tape, ad.rows_entropy(tape, ls), -(cfg.entropy_weight * learn) / n)])
    ad.backward(tape, ad.sum_scalars(tape, [agent_loss, baseline_loss]))

    def grad_norm(net):
        total_sq = 0.0
        for _, p in net.named_tensors():
            if p.grad is not None:
                total_sq += float((p.grad * p.grad).sum())
        return float(np.sqrt(total_sq))

    stats = {
        "agent_loss": float(agent_loss.data),
        "baseline_loss": float(baseline_loss.data),
        "agent_grad_norm": grad_norm(agent),
        "baseline_grad_norm": grad_norm(baseline),
        "mean_reward": batch.mean_episode_reward(),
    }
    if agent_opt is not None:
        adam_step(agent_opt)
        adam_step(baseline_opt)
        ad.zero_grads([p for _, p in agent.named_tensors()])
        ad.zero_grads([p for _, p in baseline.named_tensors()])
    return stats


# ---------------------------------------------------------------------------
# Greedy inference policy and model selection
# ---------------------------------------------------------------------------

class AgentGreedyPolicy(Policy):
    """Deterministic policy head on the running lanes: argmax actions, no Gumbel noise.

    A lane writes where its WRITE logit is the larger; a tie reads. As in
    collection, the next slot holds the action taken, WRITE where forced.
    ``step_attention`` holds the att variant's (n, R) visual attention
    weights of the last decide, zero on lanes that had ended.
    """

    def __init__(self, agent: AgentNetwork, env: EnvModel):
        _check_env(env, agent)
        self.agent = agent
        self.env = env
        self.step_attention = None
        self.reads_features = agent.visual

    def start_episode(self, sources, features) -> None:
        n = len(sources)
        self._state = _LaneState(self.agent, _feature_block(features, self.agent), n)
        self.step_attention = None

    def decide(self, episode: EpisodeStepper) -> np.ndarray:
        run, proposal = episode.running, episode.proposal()
        logits, attention = self._state.step(run, proposal.text_ctx,
                                             self.env.tgt_emb.data[proposal.token])
        write = logits[:, ACT_WRITE] > logits[:, ACT_READ]
        self._state.a_prev = _ONE_HOT[np.where(write | episode.forced[run], ACT_WRITE, ACT_READ)]
        if attention is not None:
            self.step_attention = on_lanes(episode.n, run, attention[1].data)
        return on_lanes(episode.n, run, write)


def select_model(history) -> int:
    """Index of the evaluation with the best quality-to-latency ratio.

    An ``avp`` of 0 means no content token was written; such a row ranks
    with ratio 0.
    """
    if not history:
        raise ContractError("select_model: empty history")
    ratios = [h["bleu"] / h["avp"] if h["avp"] else 0.0 for h in history]
    return int(np.argmax(ratios))


def patience_exceeded(history, patience: int = 5) -> bool:
    """True once the best ratio is `patience` evaluations old."""
    if not history:
        return False
    return len(history) - 1 - select_model(history) >= patience
