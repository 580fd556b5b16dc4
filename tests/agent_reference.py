"""Per-timestep references for the agent's block replay and its greedy step, for parity tests.

``replay_losses`` is the REINFORCE replay that ``agent.reinforce_update``
ran before it became one GRU sequence per network: one ``gru_cell`` and one
``(B, dk)`` attention per timestep and network, with the loss summed term by
term and each step's advantage taken from that step's baseline output; it
rebuilds the previous-action slot itself, step by step, from the actions,
and each episode's discounted reward-to-go from its rewards.
``ReferenceGreedyPolicy`` is the greedy policy's earlier 1-D decide: its own
observation vector, visual attention and GRU step per call, on the one lane
of the stepper it is handed. ``ReferenceSamplingPolicy`` is
the collector's Gumbel sampling written the same way, one episode at a
time. In both, the slot holds the one-hot of the action taken, WRITE on a
forced step.
"""

import numpy as np

from simtlab import autodiff as ad
from simtlab.autodiff import Tensor
from simtlab.policies import Policy


def _step(tape, net, obs, h):
    h_new = ad.gru_cell(tape, obs, h, net.gru)
    return h_new, ad.add_bias(tape, ad.matmul(tape, h_new, net.w_head), net.b_head)


def _reward_to_go(rewards, discount):
    out, acc = np.zeros(len(rewards)), 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        out[t] = acc
    return out


def replay_losses(batch, agent, baseline, cfg):
    """Replay ``batch`` step by step on a tape and backpropagate.

    Returns (agent_loss, baseline_loss) as floats; the gradients are left
    accumulated on the agent's and the baseline's tensors.
    """
    entries = batch.entries
    n = len(entries)
    t_max = max(len(e) for e in entries)
    text_dim, emb_dim = agent.cfg.text_dim, agent.cfg.emb_dim
    obs_text = np.zeros((n, t_max, text_dim))
    obs_emb = np.zeros((n, t_max, emb_dim))
    actions = np.zeros((n, t_max), dtype=np.int64)
    active = np.zeros((n, t_max), dtype=bool)
    learn = np.zeros((n, t_max))
    returns = np.zeros((n, t_max))
    for i, e in enumerate(entries):
        t = len(e)
        obs_text[i, :t] = e.obs[:, :text_dim]
        obs_emb[i, :t] = e.obs[:, text_dim:]
        actions[i, :t] = e.actions
        active[i, :t] = True
        learn[i, :t] = ~e.forced
        returns[i, :t] = _reward_to_go(e.rewards, cfg.discount)

    tape = ad.Tape()

    def visual_setup(net):
        if not net.cfg.use_att:
            return None, None
        feats3 = np.stack([e.features.matrix for e in entries])
        return (ad.matmul(tape, Tensor(feats3), net.key_proj),
                ad.matmul(tape, Tensor(feats3), net.val_proj))

    a_keys, a_vals = visual_setup(agent)
    b_keys, b_vals = visual_setup(baseline)

    def initial_hidden(net):
        if net.cfg.use_init:
            flat = np.stack([e.features.matrix.reshape(-1) for e in entries])
            return ad.matmul(tape, Tensor(flat), net.init_proj)
        return Tensor(np.zeros((n, net.cfg.hidden_dim)))

    ah = initial_hidden(agent)
    bh = initial_hidden(baseline)

    pg_terms, ent_terms, mse_terms = [], [], []
    total_steps = float(active.sum())
    zeros_idx = np.zeros(n, dtype=np.int64)
    prev = np.zeros(n, dtype=np.int64)  # READ before the first decision
    for t in range(t_max):
        emb_const = Tensor(obs_emb[:, t])
        parts = [Tensor(obs_text[:, t]), emb_const, Tensor(np.eye(2)[prev])]
        prev = actions[:, t]
        if a_keys is not None:
            a_vis, _ = ad.batched_attention(tape, a_keys, a_vals, emb_const)
            obs = ad.concat(tape, parts + [a_vis])
        else:
            obs = ad.concat(tape, parts)
        if b_keys is not None:
            b_vis, _ = ad.batched_attention(tape, b_keys, b_vals, emb_const)
            bobs = ad.concat(tape, parts + [b_vis])
        else:
            bobs = ad.concat(tape, parts)
        bh, bout = _step(tape, baseline, bobs, bh)
        bval = ad.pick_rows(tape, bout, zeros_idx)
        mse_terms.append(ad.masked_sq_error(tape, bval, returns[:, t],
                                            active[:, t].astype(float), total_steps))

        ah, logits = _step(tape, agent, obs, ah)
        ls = ad.log_softmax_rows(tape, logits)
        picked = ad.pick_rows(tape, ls, actions[:, t])
        ent = ad.rows_entropy(tape, ls)
        mask = active[:, t] * learn[:, t]
        advantage = returns[:, t] - bval.data  # a constant: no gradient reaches the baseline
        pg_terms.append(ad.weighted_sum(tape, picked, -(advantage * mask) / n))
        ent_terms.append(ad.weighted_sum(tape, ent, -(cfg.entropy_weight * mask) / n))

    agent_loss = ad.sum_scalars(tape, pg_terms + ent_terms)
    baseline_loss = ad.sum_scalars(tape, mse_terms)
    ad.backward(tape, ad.sum_scalars(tape, [agent_loss, baseline_loss]))
    return float(agent_loss.data), float(baseline_loss.data)


class _OneLane:
    """A network's 1-D state in one episode: its hidden vector and, for att, keys and values."""

    def __init__(self, net, features):
        cfg = net.cfg
        self.net = net
        self.h = np.zeros(cfg.hidden_dim)
        if cfg.use_init:
            self.h = ad.matmul(None, Tensor(features.matrix.reshape(-1)), net.init_proj).data
        if cfg.use_att:
            self._keys = features.matrix @ net.key_proj.data
            self._vals = features.matrix @ net.val_proj.data
        self.attention = None

    def step(self, text_ctx, y_emb, a_prev):
        """One GRU step on [text_ctx; y_emb; a_prev; visual context]; returns the head output."""
        parts = [text_ctx, y_emb, a_prev]
        if self.net.cfg.use_att:
            self.attention = ad.softmax(self._keys @ y_emb)
            parts.append(self._vals.T @ self.attention)
        h, out = _step(None, self.net, Tensor(np.concatenate(parts)), Tensor(self.h))
        self.h = h.data
        return out.data


class ReferenceGreedyPolicy(Policy):
    """Argmax actions from a per-call 1-D agent step on a one-lane stepper."""

    def __init__(self, agent, env):
        self.agent = agent
        self.env = env

    def start_episode(self, sources, features) -> None:
        (features,) = features
        self._net = _OneLane(self.agent, features)
        self._a_prev = np.array([1.0, 0.0])
        self.step_attention = None

    def decide(self, episode):
        proposal = episode.proposal()
        logits = self._net.step(proposal.text_ctx[0], self.env.tgt_emb.data[proposal.token[0]],
                                self._a_prev)
        if self._net.attention is not None:
            self.step_attention = self._net.attention[None]
        write = int(np.argmax(logits)) == 1
        self._a_prev = np.eye(2)[int(write or episode.forced[0])]
        return np.array([write])


class ReferenceSamplingPolicy(Policy):
    """The collector's sampling from a per-call 1-D agent step on a one-lane stepper.

    An unforced decision draws two uniforms from ``rng`` for its Gumbel
    noise; a forced one draws none and writes. ``record`` keeps, per
    decision, the action, the action's log-probability, the policy's entropy
    and the value of a per-call 1-D baseline step on the same observation;
    the collector computes neither of the last two.
    """

    def __init__(self, agent, baseline, env, rng):
        self.agent, self.baseline, self.env, self.rng = agent, baseline, env, rng

    def start_episode(self, sources, features) -> None:
        (features,) = features
        self._agent = _OneLane(self.agent, features)
        self._baseline = _OneLane(self.baseline, features)
        self._a_prev = np.array([1.0, 0.0])
        self.record = {"actions": [], "log_probs": [], "entropies": [], "baseline_values": []}

    def decide(self, episode):
        proposal = episode.proposal()
        obs = (proposal.text_ctx[0], self.env.tgt_emb.data[proposal.token[0]], self._a_prev)
        logits = self._agent.step(*obs)
        value = self._baseline.step(*obs)[0]
        if episode.forced[0]:
            action = 1
        else:
            u = np.clip(self.rng.random(2), 1e-12, 1.0 - 1e-12)
            action = int(np.argmax(logits - np.log(-np.log(u))))
        shifted = logits - logits.max()
        log_p = shifted - np.log(np.exp(shifted).sum())
        for name, v in zip(self.record, (action, log_p[action], -(np.exp(log_p) * log_p).sum(),
                                         value)):
            self.record[name].append(v)
        self._a_prev = np.eye(2)[action]
        return np.array([action == 1])
