"""Stochastic READ/WRITE agent, learned baseline, and REINFORCE training.

The agent is a single GRU over per-step observations
[text context; proposed-token embedding; previous-action probabilities;
optional visual context] with a 2-way softmax head. The baseline network
mirrors the agent's structure and observation stream but ends in a scalar
head; its regression loss never reaches agent parameters.

Training collects trajectories in lockstep batches without a tape (the
environment is frozen), then replays the agent and baseline forward on
the recorded stream with a tape to apply REINFORCE with control variates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import GRUParams, Tensor
from .checkpoint import load_into, read_metadata, save_checkpoint, write_metadata
from .environment import EnvModel
from .errors import ConfigError, ContractError, ShapeError
from .metrics import PrefixBleu, RewardConfig, average_proportion, latency_reward
from .policies import Policy, Transcript
from .vocab import BOS, EOS, PAD

log = logging.getLogger(__name__)

ACT_READ, ACT_WRITE = 0, 1


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


@dataclass
class Observation:
    """One agent input step; total dimensionality is checked at assembly."""

    text_ctx: np.ndarray
    token_emb: np.ndarray
    prev_action: np.ndarray
    visual_ctx: np.ndarray = None

    def vector(self, cfg: AgentConfig) -> np.ndarray:
        parts = [self.text_ctx, self.token_emb, self.prev_action]
        if cfg.use_att:
            if self.visual_ctx is None:
                raise ShapeError("observation missing visual context for an attention agent")
            parts.append(self.visual_ctx)
        vec = np.concatenate(parts)
        if vec.shape != (cfg.obs_dim,):
            raise ShapeError(f"observation dim {vec.shape[0]} != configured {cfg.obs_dim}")
        if abs(float(self.prev_action.sum()) - 1.0) > 1e-9 or self.prev_action.min() < 0:
            raise ShapeError("prev_action must be probability-valued")
        return vec


class _RecurrentNet:
    """Shared recurrent body; subclasses fix the output head width."""

    head_dim = None

    def __init__(self, cfg: AgentConfig, rng, key_init: np.ndarray = None):
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
            if key_init is not None:
                if key_init.shape != (cfg.feature_dim, cfg.key_dim):
                    raise ShapeError(f"key_init shape {key_init.shape} != "
                                     f"({cfg.feature_dim}, {cfg.key_dim})")
                self.key_proj = Tensor(key_init.copy(), requires_grad=True)
            else:
                self.key_proj = ad.uniform_tensor((cfg.feature_dim, cfg.key_dim), rng,
                                                  cfg.init_scale)
            self.val_proj = ad.uniform_tensor((cfg.feature_dim, cfg.text_dim), rng,
                                              cfg.init_scale)

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

    def step(self, tape, obs: Tensor, h: Tensor):
        """One recurrent step; returns (new_hidden, head_output)."""
        h_new = ad.gru_cell(tape, obs, h, self.gru)
        out = ad.add_bias(tape, ad.matmul(tape, h_new, self.w_head), self.b_head)
        return h_new, out

    def step_np(self, obs_vec, h_vec):
        h_new, out = self.step(None, Tensor(obs_vec), Tensor(h_vec))
        return h_new.data, out.data

    def save(self, prefix) -> None:
        prefix = Path(prefix)
        save_checkpoint(prefix.with_suffix(".ckpt"), self.named_tensors())
        write_metadata(prefix.with_suffix(".meta"), {
            "kind": self.kind,
            "text_dim": self.cfg.text_dim,
            "emb_dim": self.cfg.emb_dim,
            "hidden_dim": self.cfg.hidden_dim,
            "key_dim": self.cfg.key_dim,
            "use_init": self.cfg.use_init,
            "use_att": self.cfg.use_att,
            "feature_rows": self.cfg.feature_rows,
            "feature_dim": self.cfg.feature_dim,
        })

    @classmethod
    def load(cls, prefix) -> "_RecurrentNet":
        prefix = Path(prefix)
        meta = read_metadata(prefix.with_suffix(".meta"))
        if meta.get("kind") != cls.kind:
            raise ConfigError(f"{prefix}: expected a {cls.kind} checkpoint")
        cfg = AgentConfig(
            text_dim=int(meta["text_dim"]), emb_dim=int(meta["emb_dim"]),
            hidden_dim=int(meta["hidden_dim"]), key_dim=int(meta["key_dim"]),
            use_init=meta["use_init"] == "true", use_att=meta["use_att"] == "true",
            feature_rows=int(meta["feature_rows"]), feature_dim=int(meta["feature_dim"]))
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


def init_agent_state(network: _RecurrentNet, features=None, tape=None) -> Tensor:
    """Initial hidden state: zeros, or a projection of flattened features."""
    cfg = network.cfg
    if not cfg.use_init or features is None:
        if cfg.use_init and features is None:
            raise ConfigError("init-variant network needs features at episode start")
        return Tensor(np.zeros(cfg.hidden_dim))
    if features.matrix.shape != (cfg.feature_rows, cfg.feature_dim):
        raise ShapeError(
            f"feature geometry {features.matrix.shape} != configured "
            f"({cfg.feature_rows}, {cfg.feature_dim})")
    flat = Tensor(features.matrix.reshape(-1))
    return ad.matmul(tape, flat, network.init_proj)


def agent_visual_attention(network: _RecurrentNet, features, token_emb, tape=None):
    """Attention over projected feature rows, queried by the token embedding.

    Keys live in the embedding-matched key space, values in the text
    context space; returns (context, weights).
    """
    if not network.cfg.use_att:
        raise ConfigError("agent_visual_attention on a non-attention network")
    keys = ad.matmul(tape, Tensor(features.matrix), network.key_proj)
    values = ad.matmul(tape, Tensor(features.matrix), network.val_proj)
    query = Tensor(np.asarray(token_emb, dtype=np.float64))
    return ad.keyed_attention(tape, keys, values, query)


def gumbel_softmax_sample(logits, tau: float, rng):
    """Sample a relaxed action: (probs, hard_action).

    probs = softmax((logits + Gumbel noise) / tau); the hard action is its
    argmax (an exact sample from softmax(logits) for any tau > 0), while
    the probabilities feed the next observation's previous-action slot.
    """
    if tau <= 0:
        raise ContractError("gumbel_softmax_sample: temperature must be positive")
    logits = np.asarray(logits, dtype=np.float64)
    u = np.clip(rng.random(logits.shape), 1e-12, 1.0 - 1e-12)
    noise = -np.log(-np.log(u))
    probs = ad.softmax((logits + noise) / tau)
    return probs, int(np.argmax(probs, axis=-1))


# ---------------------------------------------------------------------------
# Trajectory collection (lockstep, tapeless)
# ---------------------------------------------------------------------------

@dataclass
class TrajectoryEntry:
    """Everything recorded about one sampled episode.

    Arrays cover agent decision steps; the initial forced READ that
    happens before the first proposal exists is part of the transcript
    but not an agent step.
    """

    obs_text: np.ndarray      # (T, text_dim)
    obs_emb: np.ndarray       # (T, emb_dim)
    obs_prev: np.ndarray      # (T, 2)
    features: object          # FeatureSet or None
    actions: np.ndarray       # (T,) 0=READ 1=WRITE
    forced: np.ndarray        # (T,) bool
    rewards: np.ndarray       # (T,)
    returns: np.ndarray       # (T,)
    write_probs: np.ndarray   # (T,)
    log_probs: np.ndarray     # (T,)
    entropies: np.ndarray     # (T,)
    baseline_values: np.ndarray  # (T,)
    visual_ctx: np.ndarray = None  # (T, text_dim) collection-time, for inspection
    transcript: Transcript = None

    def __len__(self):
        return len(self.actions)

    def observations(self, cfg: AgentConfig) -> np.ndarray:
        rows = []
        for t in range(len(self.actions)):
            rows.append(Observation(
                self.obs_text[t], self.obs_emb[t], self.obs_prev[t],
                None if self.visual_ctx is None else self.visual_ctx[t]).vector(cfg))
        return np.stack(rows) if rows else np.zeros((0, cfg.obs_dim))


@dataclass
class TrajectoryBatch:
    entries: list

    def mean_episode_reward(self) -> float:
        return float(np.mean([e.rewards.sum() for e in self.entries]))


@dataclass
class RLTrainConfig:
    """REINFORCE hyperparameters; defaults follow the reference regime."""

    lr: float = 0.0004
    batch_size: int = 6
    trajectories_per_pair: int = 5
    entropy_weight: float = 0.001
    tau: float = 1.0
    discount: float = 0.95
    return_mode: str = "returns"  # or "instant"
    reward: RewardConfig = field(default_factory=RewardConfig)
    patience: int = 5
    updates_per_epoch: int = 150
    max_epochs: int = 30
    seed: int = 0
    val_cap: int = 120

    def __post_init__(self):
        if min(self.lr, self.tau) <= 0 or min(self.batch_size,
                                              self.trajectories_per_pair) < 1:
            raise ConfigError("RLTrainConfig: values must be positive")
        if self.return_mode not in ("returns", "instant"):
            raise ConfigError("return_mode must be 'returns' or 'instant'")
        if not 0 < self.discount <= 1.0:
            raise ConfigError("discount must be in (0, 1]")


def compute_returns(rewards: np.ndarray, cfg: RLTrainConfig) -> np.ndarray:
    if cfg.return_mode == "instant":
        return rewards.copy()
    out = np.zeros_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + cfg.discount * acc
        out[t] = acc
    return out


def _gru_np(x, h, params):
    return ad.gru_cell(None, Tensor(x), Tensor(h), params).data


def _masked_softmax_rows(scores, mask=None):
    if mask is not None:
        scores = np.where(mask, scores, -np.inf)
    return ad.softmax(scores)


def collect_trajectories(agent: AgentNetwork, baseline: BaselineNetwork,
                         env: EnvModel, episodes, cfg: RLTrainConfig,
                         global_seed: int, start_index: int = 0,
                         record_transcripts: bool = False) -> TrajectoryBatch:
    """Sample one lockstep batch of episodes with per-step rewards.

    ``episodes`` holds (src_tokens, ref_tokens, features) triples. Each
    episode owns an RNG seeded from (global_seed, episode_index), so the
    batch decomposition never changes the sampled noise.
    """
    n = len(episodes)
    rngs = [np.random.default_rng(np.random.SeedSequence((global_seed, start_index + i)))
            for i in range(n)]
    src_tok = [list(e[0]) for e in episodes]
    refs = [list(e[1]) for e in episodes]
    feats = [e[2] for e in episodes]
    if any(not s for s in src_tok):
        raise ContractError("collect_trajectories: empty source")

    src_ids = [env.src_vocab.encode(s) for s in src_tok]
    src_lens = np.array([len(s) for s in src_ids])
    caps = 2 * src_lens + 5
    width = int(src_lens.max()) + 1  # room for the terminal EOS row
    hid = env.cfg.hid_dim

    src_mat = np.full((n, width), PAD, dtype=np.int64)
    for i, ids in enumerate(src_ids):
        src_mat[i, :len(ids)] = ids

    h_rows = np.zeros((n, width, hid))
    enc_h1 = np.zeros((n, hid))
    enc_h2 = np.zeros((n, hid))
    rows_valid = np.zeros(n, dtype=np.int64)
    n_read = np.zeros(n, dtype=np.int64)
    eos_row = np.zeros(n, dtype=bool)

    dec_g1 = np.zeros((n, hid))
    dec_g2 = np.zeros((n, hid))
    last_tok = np.full(n, BOS, dtype=np.int64)
    committed = np.zeros(n, dtype=np.int64)
    terminal = np.zeros(n, dtype=bool)

    env_vis = (np.stack([env.project_features(f) for f in feats])
               if env.multimodal else None)

    def projections(net):
        if not net.cfg.use_att:
            return None, None
        feats3 = np.stack([f.matrix for f in feats])
        return (np.einsum("brd,dk->brk", feats3, net.key_proj.data),
                np.einsum("brd,dk->brk", feats3, net.val_proj.data))

    a_keys, a_vals = projections(agent)
    b_keys, b_vals = projections(baseline)

    def initial_hidden(net):
        if net.cfg.use_init:
            flat = np.stack([f.matrix.reshape(-1) for f in feats])
            return flat @ net.init_proj.data
        return np.zeros((n, net.cfg.hidden_dim))

    agent_h = initial_hidden(agent)
    base_h = initial_hidden(baseline)
    a_prev = np.tile(np.array([1.0, 0.0]), (n, 1))

    rec = [dict(obs_text=[], obs_emb=[], obs_prev=[], vis=[], act=[], forced=[],
                reward=[], wp=[], logp=[], ent=[], bval=[]) for _ in range(n)]
    actions_str = [["R"] for _ in range(n)]  # the initial forced READ
    hyp_ids = [[] for _ in range(n)]
    delays = [[] for _ in range(n)]
    quality = [PrefixBleu(r) for r in refs]
    cw = np.ones(n, dtype=np.int64)  # after the initial READ

    # perform the initial forced READ for everyone
    x0 = env.src_emb.data[src_mat[:, 0]]
    enc_h1 = _gru_np(x0, enc_h1, env.enc1)
    enc_h2 = _gru_np(enc_h1, enc_h2, env.enc2)
    h_rows[:, 0] = enc_h2
    rows_valid += 1
    n_read += 1

    col = np.arange(n)
    while not terminal.all():
        alive = ~terminal
        exhausted = n_read == src_lens
        need_eos = alive & exhausted & ~eos_row
        if need_eos.any():
            x = np.tile(env.src_emb.data[EOS], (n, 1))
            nh1 = _gru_np(x, enc_h1, env.enc1)
            nh2 = _gru_np(nh1, enc_h2, env.enc2)
            enc_h1 = np.where(need_eos[:, None], nh1, enc_h1)
            enc_h2 = np.where(need_eos[:, None], nh2, enc_h2)
            h_rows[need_eos, rows_valid[need_eos]] = nh2[need_eos]
            rows_valid = rows_valid + need_eos
            eos_row |= need_eos

        # environment proposal for every lane (dead lanes masked later)
        prev_emb = env.tgt_emb.data[last_tok]
        g1_new = _gru_np(prev_emb, dec_g1, env.dec1)
        att_mask = np.arange(width)[None, :] < rows_valid[:, None]
        scores = np.einsum("bsd,bd->bs", h_rows, g1_new)
        weights = _masked_softmax_rows(scores, att_mask)
        text_ctx = np.einsum("bs,bsd->bd", weights, h_rows)
        ctx = text_ctx
        if env_vis is not None:
            vw = ad.softmax(np.einsum("brd,bd->br", env_vis, g1_new))
            ctx = ctx + np.einsum("br,brd->bd", vw, env_vis)
        g2_new = _gru_np(ctx, dec_g2, env.dec2)
        logits_env = (np.concatenate([prev_emb, ctx, g2_new], axis=1)
                      @ env.w_out.data + env.b_out.data)
        candidate = logits_env.argmax(axis=1)
        y_emb = env.tgt_emb.data[candidate]

        # agent and baseline steps
        def visual_ctx_for(keys3, vals3):
            if keys3 is None:
                return None
            s = np.einsum("brk,bk->br", keys3, y_emb)
            w = ad.softmax(s)
            return np.einsum("br,brv->bv", w, vals3)

        a_vis = visual_ctx_for(a_keys, a_vals)
        b_vis = visual_ctx_for(b_keys, b_vals)

        def obs_of(vis):
            parts = [text_ctx, y_emb, a_prev]
            if vis is not None:
                parts.append(vis)
            return np.concatenate(parts, axis=1)

        a_obs = obs_of(a_vis)
        b_obs = obs_of(b_vis)
        agent_h, logits_a = agent.step_np(a_obs, agent_h)
        base_h, base_out = baseline.step_np(b_obs, base_h)
        base_val = base_out[:, 0]

        ls = logits_a - logits_a.max(axis=1, keepdims=True)
        ls = ls - np.log(np.exp(ls).sum(axis=1, keepdims=True))
        policy_probs = np.exp(ls)

        sampled = np.zeros(n, dtype=np.int64)
        soft = np.zeros((n, 2))
        for i in range(n):
            if alive[i] and not exhausted[i]:
                soft[i], sampled[i] = gumbel_softmax_sample(logits_a[i], cfg.tau, rngs[i])

        forced = exhausted.copy()
        action = np.where(forced, ACT_WRITE, sampled)
        logp = ls[col, action]
        entropy = -(policy_probs * ls).sum(axis=1)

        write_mask = alive & (action == ACT_WRITE)
        read_mask = alive & (action == ACT_READ)

        # apply WRITEs
        new_terminal = terminal.copy()
        step_reward = np.zeros(n)
        if write_mask.any():
            dec_g1 = np.where(write_mask[:, None], g1_new, dec_g1)
            dec_g2 = np.where(write_mask[:, None], g2_new, dec_g2)
            last_tok = np.where(write_mask, candidate, last_tok)
            committed = committed + write_mask
            for i in np.nonzero(write_mask)[0]:
                tok = int(candidate[i])
                hyp_ids[i].append(tok)
                cw[i] = 0
                if tok != EOS:
                    delays[i].append(int(n_read[i]))
                    step_reward[i] += quality[i].append(env.tgt_vocab.token(tok))
                if tok == EOS or committed[i] >= caps[i]:
                    new_terminal[i] = True

        # apply READs
        if read_mask.any():
            pos = np.minimum(n_read, width - 1)
            x = env.src_emb.data[src_mat[col, pos]]
            nh1 = _gru_np(x, enc_h1, env.enc1)
            nh2 = _gru_np(nh1, enc_h2, env.enc2)
            enc_h1 = np.where(read_mask[:, None], nh1, enc_h1)
            enc_h2 = np.where(read_mask[:, None], nh2, enc_h2)
            h_rows[read_mask, rows_valid[read_mask]] = nh2[read_mask]
            rows_valid = rows_valid + read_mask
            n_read = n_read + read_mask
            cw = cw + read_mask

        # latency rewards and per-episode records
        for i in np.nonzero(alive)[0]:
            is_term = bool(new_terminal[i])
            d_t = 0.0
            if (is_term or cfg.reward.running_avp) and delays[i]:
                d_t = average_proportion(delays[i], len(src_ids[i]), len(delays[i]))
            step_reward[i] += latency_reward(int(cw[i]), d_t, cfg.reward,
                                             is_terminal=is_term)
            r = rec[i]
            r["obs_text"].append(text_ctx[i])
            r["obs_emb"].append(y_emb[i])
            r["obs_prev"].append(a_prev[i].copy())
            if a_vis is not None:
                r["vis"].append(a_vis[i])
            r["act"].append(int(action[i]))
            r["forced"].append(bool(forced[i]))
            r["reward"].append(float(step_reward[i]))
            r["wp"].append(float(soft[i, ACT_WRITE]) if not forced[i]
                           else float(action[i] == ACT_WRITE))
            r["logp"].append(float(logp[i]))
            r["ent"].append(float(entropy[i]))
            r["bval"].append(float(base_val[i]))
            actions_str[i].append("RW"[int(action[i])])

        next_prev = np.where(forced[:, None],
                             np.eye(2)[action], soft)
        a_prev = np.where(alive[:, None], next_prev, a_prev)
        terminal = new_terminal

    entries = []
    for i in range(n):
        r = rec[i]
        rewards = np.array(r["reward"])
        entry = TrajectoryEntry(
            obs_text=np.array(r["obs_text"]),
            obs_emb=np.array(r["obs_emb"]),
            obs_prev=np.array(r["obs_prev"]),
            features=feats[i],
            actions=np.array(r["act"], dtype=np.int64),
            forced=np.array(r["forced"], dtype=bool),
            rewards=rewards,
            returns=compute_returns(rewards, cfg),
            write_probs=np.array(r["wp"]),
            log_probs=np.array(r["logp"]),
            entropies=np.array(r["ent"]),
            baseline_values=np.array(r["bval"]),
            visual_ctx=np.array(r["vis"]) if r["vis"] else None,
        )
        if record_transcripts:
            entry.transcript = Transcript(
                src=src_tok[i],
                hyp=env.tgt_vocab.decode(hyp_ids[i], strip_reserved=False),
                actions="".join(actions_str[i]),
                delays=delays[i],
                rewards=[0.0] + r["reward"],
                ended_with_eos=bool(hyp_ids[i]) and hyp_ids[i][-1] == EOS,
            )
            entry.transcript.validate()
        entries.append(entry)
    return TrajectoryBatch(entries)


def rollout(agent, baseline, env, episode, cfg: RLTrainConfig,
            global_seed: int, episode_index: int = 0) -> TrajectoryEntry:
    """Single stochastic episode; thin wrapper over the lockstep collector."""
    batch = collect_trajectories(agent, baseline, env, [episode], cfg,
                                 global_seed, episode_index,
                                 record_transcripts=True)
    return batch.entries[0]


# ---------------------------------------------------------------------------
# REINFORCE update
# ---------------------------------------------------------------------------

def reinforce_update(batch: TrajectoryBatch, agent: AgentNetwork,
                     baseline: BaselineNetwork, cfg: RLTrainConfig,
                     agent_opt=None, baseline_opt=None, apply: bool = True) -> dict:
    """Replay the batch on a tape and apply both optimizers.

    Agent loss: -sum log pi(a_t|o_t) (R_t - b(o_t)) - entropy bonus,
    averaged over episodes; forced steps contribute nothing. Baseline
    loss: mean squared error of predicted vs realized returns. The two
    losses share a tape but no parameters.
    """
    entries = batch.entries
    if not entries:
        raise ContractError("reinforce_update: empty batch")
    n = len(entries)
    t_max = max(len(e) for e in entries)
    if t_max == 0:
        raise ContractError("reinforce_update: batch has no agent steps")

    text_dim, emb_dim = agent.cfg.text_dim, agent.cfg.emb_dim
    obs_text = np.zeros((n, t_max, text_dim))
    obs_emb = np.zeros((n, t_max, emb_dim))
    obs_prev = np.zeros((n, t_max, 2))
    actions = np.zeros((n, t_max), dtype=np.int64)
    active = np.zeros((n, t_max), dtype=bool)
    learn = np.zeros((n, t_max))
    advantages = np.zeros((n, t_max))
    returns = np.zeros((n, t_max))
    for i, e in enumerate(entries):
        t = len(e)
        obs_text[i, :t] = e.obs_text
        obs_emb[i, :t] = e.obs_emb
        obs_prev[i, :t] = e.obs_prev
        actions[i, :t] = e.actions
        active[i, :t] = True
        learn[i, :t] = ~e.forced
        advantages[i, :t] = e.returns - e.baseline_values
        returns[i, :t] = e.returns

    tape = ad.Tape()

    def visual_setup(net):
        if not net.cfg.use_att:
            return None, None
        feats3 = np.stack([e.features.matrix for e in entries])
        return (ad.linear_rows3(tape, feats3, net.key_proj),
                ad.linear_rows3(tape, feats3, net.val_proj))

    a_keys, a_vals = visual_setup(agent)
    b_keys, b_vals = visual_setup(baseline)

    def initial_hidden(net):
        if net.cfg.use_init:
            flat = np.stack([e.features.matrix.reshape(-1) for e in entries])
            return ad.matmul(tape, Tensor(flat), net.init_proj)
        return Tensor(np.zeros((n, net.cfg.hidden_dim)))

    ah = initial_hidden(agent)
    bh = initial_hidden(baseline)

    pg_terms = []
    ent_terms = []
    mse_terms = []
    total_steps = float(active.sum())
    zeros_idx = np.zeros(n, dtype=np.int64)
    for t in range(t_max):
        emb_const = Tensor(obs_emb[:, t])
        parts = [Tensor(obs_text[:, t]), emb_const, Tensor(obs_prev[:, t])]
        if a_keys is not None:
            a_vis, _ = ad.batched_attention(tape, a_keys, a_vals, emb_const)
            obs = ad.concat(tape, parts + [a_vis], axis=1)
        else:
            obs = ad.concat(tape, parts, axis=1)
        ah, logits = agent.step(tape, obs, ah)
        ls = ad.log_softmax_rows(tape, logits)
        picked = ad.pick_rows(tape, ls, actions[:, t])
        ent = ad.rows_entropy(tape, ls)
        mask = active[:, t] * learn[:, t]
        pg_terms.append(ad.weighted_sum(tape, picked,
                                        -(advantages[:, t] * mask) / n))
        ent_terms.append(ad.weighted_sum(tape, ent,
                                         -(cfg.entropy_weight * mask) / n))

        if b_keys is not None:
            b_vis, _ = ad.batched_attention(tape, b_keys, b_vals, emb_const)
            bobs = ad.concat(tape, parts + [b_vis], axis=1)
        else:
            bobs = ad.concat(tape, parts, axis=1)
        bh, bout = baseline.step(tape, bobs, bh)
        bval = ad.pick_rows(tape, bout, zeros_idx)
        mse_terms.append(ad.masked_sq_error(tape, bval, returns[:, t],
                                            active[:, t].astype(float), total_steps))

    agent_loss = ad.sum_scalars(tape, pg_terms + ent_terms)
    baseline_loss = ad.sum_scalars(tape, mse_terms)
    total = ad.sum_scalars(tape, [agent_loss, baseline_loss])
    ad.backward(tape, total)

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
    if apply:
        from .optim import adam_step
        if agent_opt is None or baseline_opt is None:
            raise ConfigError("reinforce_update: optimizers required when applying")
        adam_step(agent_opt)
        adam_step(baseline_opt)
        ad.zero_grads([p for _, p in agent.named_tensors()])
        ad.zero_grads([p for _, p in baseline.named_tensors()])
    return stats


# ---------------------------------------------------------------------------
# Greedy inference policy and model selection
# ---------------------------------------------------------------------------

class AgentGreedyPolicy(Policy):
    """Deterministic policy head: argmax actions, no Gumbel noise."""

    def __init__(self, agent: AgentNetwork, env: EnvModel):
        self.agent = agent
        self.env = env
        self._h = None
        self._a_prev = None
        self._keys = None
        self._vals = None
        self._features = None
        self.step_attention = None

    def start_episode(self, src_tokens, features=None) -> None:
        cfg = self.agent.cfg
        if (cfg.use_init or cfg.use_att) and features is None:
            raise ConfigError("agent policy needs features for this variant")
        self._features = features
        self._h = init_agent_state(self.agent, features if cfg.use_init else None).data
        self._a_prev = np.array([1.0, 0.0])
        self.step_attention = None
        if cfg.use_att:
            self._keys = features.matrix @ self.agent.key_proj.data
            self._vals = features.matrix @ self.agent.val_proj.data

    def decide(self, ctx) -> str:
        proposal = ctx.proposal
        y_emb = self.env.tgt_emb.data[proposal.token]
        vis = None
        if self.agent.cfg.use_att:
            w = ad.softmax(self._keys @ y_emb)
            vis = self._vals.T @ w
            self.step_attention = w
        obs = Observation(proposal.text_ctx, y_emb, self._a_prev, vis)
        self._h, logits = self.agent.step_np(obs.vector(self.agent.cfg), self._h)
        probs = ad.softmax(logits)
        self._a_prev = probs
        return "RW"[int(np.argmax(logits))]


def select_model(history) -> int:
    """Index of the evaluation with the best quality-to-latency ratio."""
    if not history:
        raise ContractError("select_model: empty history")
    ratios = [h["bleu"] / h["avp"] for h in history]
    return int(np.argmax(ratios))


def patience_exceeded(history, patience: int = 5) -> bool:
    """True once the best ratio is `patience` evaluations old."""
    if not history:
        return False
    return len(history) - 1 - select_model(history) >= patience
