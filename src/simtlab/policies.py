"""READ/WRITE simulation loop, deterministic policies, transcript logs.

The loop enforces legality: the first action is always READ (the decoder
cannot attend to an empty prefix) and WRITE is forced once the source is
exhausted. Policies are still queried on forced steps so stateful agents
see the full observation stream; an illegal answer is overridden and
logged, never fatal.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .environment import (EncoderState, EnvModel, commit, encode_next,
                          output_cap, propose_next)
from .errors import ContractError, DataError
from .metrics import PrefixBleu, RewardConfig, average_proportion, latency_reward
from .vocab import EOS

log = logging.getLogger(__name__)

READ, WRITE = "R", "W"


@dataclass
class StepContext:
    """What a policy may look at when deciding."""

    src_len: int
    n_read: int
    n_written: int
    source_exhausted: bool
    proposal: object  # environment Proposal; None only before the first READ
    forced_action: str = None


class Policy:
    """Decision procedure over simulation steps.

    ``start_episode`` resets internal state; ``decide`` returns "R" or
    "W". Policies may expose ``step_attention`` after a decide call to
    have agent-side attention weights recorded into the transcript.
    """

    step_attention = None

    def start_episode(self, src_tokens, features=None) -> None:
        pass

    def decide(self, ctx: StepContext) -> str:
        raise NotImplementedError


@dataclass
class Transcript:
    """One simultaneous decoding episode.

    ``hyp`` lists every committed token including a terminal "<eos>";
    ``delays`` records, per content token, how many source tokens had been
    read at commit time (the EOS commit carries no delay entry).
    """

    src: list
    hyp: list
    actions: str
    delays: list
    rewards: list = field(default_factory=list)
    attention: list = None
    ended_with_eos: bool = False
    forced_overrides: int = 0

    @property
    def content_hyp(self):
        # every non-EOS commit counts as content, <unk> included
        return [t for t in self.hyp if t != "<eos>"]

    def validate(self) -> None:
        writes = self.actions.count(WRITE)
        reads = self.actions.count(READ)
        if writes != len(self.hyp):
            raise ContractError(f"transcript: {writes} WRITEs vs {len(self.hyp)} tokens")
        if reads > len(self.src):
            raise ContractError("transcript: more READs than source tokens")
        expected_delays = len(self.content_hyp)
        if len(self.delays) != expected_delays:
            raise ContractError(
                f"transcript: {len(self.delays)} delays vs {expected_delays} content tokens")
        if self.delays:
            if any(b < a for a, b in zip(self.delays, self.delays[1:])):
                raise ContractError("transcript: delays must be non-decreasing")
            if self.delays[0] < 1 or max(self.delays) > len(self.src):
                raise ContractError("transcript: delays outside [1, |src|]")
        if self.rewards and len(self.rewards) != len(self.actions):
            raise ContractError("transcript: rewards misaligned with actions")
        if self.attention is not None and len(self.attention) != len(self.actions):
            raise ContractError("transcript: attention misaligned with actions")

    def to_json_obj(self) -> dict:
        obj = {
            "src": list(self.src),
            "hyp": list(self.hyp),
            "actions": self.actions,
            "g": list(self.delays),
            "rewards": [float(r) for r in self.rewards],
            "forced_overrides": self.forced_overrides,
        }
        if self.attention is not None:
            obj["attention"] = [None if w is None else [float(x) for x in w]
                                for w in self.attention]
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Transcript":
        return cls(
            src=list(obj["src"]),
            hyp=list(obj["hyp"]),
            actions=obj["actions"],
            delays=list(obj["g"]),
            rewards=list(obj.get("rewards", [])),
            attention=obj.get("attention"),
            ended_with_eos=bool(obj["hyp"]) and obj["hyp"][-1] == "<eos>",
            forced_overrides=int(obj.get("forced_overrides", 0)),
        )


def write_transcripts(path, transcripts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in transcripts:
            fh.write(json.dumps(t.to_json_obj()) + "\n")


def read_transcripts(path):
    out = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            out.append(Transcript.from_json_obj(json.loads(line)))
        except (KeyError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}:{lineno}: bad transcript record: {exc}") from exc
    return out


class WaitKPolicy(Policy):
    """Read k tokens, then alternate WRITE and READ."""

    def __init__(self, k: int):
        if k < 1:
            raise ContractError("wait-k requires k >= 1")
        self.k = k

    def decide(self, ctx: StepContext) -> str:
        if not ctx.source_exhausted and ctx.n_read < self.k + ctx.n_written:
            return READ
        return WRITE


class ConsecutivePolicy(Policy):
    """Read the whole source before writing anything."""

    def decide(self, ctx: StepContext) -> str:
        return WRITE if ctx.source_exhausted else READ


def wait_k_policy(k: int) -> Policy:
    return WaitKPolicy(k)


def consecutive_policy() -> Policy:
    return ConsecutivePolicy()


def simulate(policy: Policy, env_model: EnvModel, src_tokens, features=None, *,
             ref_tokens=None, reward_config: RewardConfig = None,
             record_attention: bool = False) -> Transcript:
    """Run one episode and return its transcript.

    Rewards are filled when ``reward_config`` is given; the quality part
    additionally needs ``ref_tokens``. Terminates on an EOS commit or at
    the output-length cap.
    """
    src_tokens = list(src_tokens)
    if not src_tokens:
        raise ContractError("simulate: empty source")
    src_ids = env_model.src_vocab.encode(src_tokens)
    projected = env_model.project_features(features) if env_model.multimodal else None
    policy.start_episode(src_tokens, features)

    enc = EncoderState.initial(env_model)
    dec = env_model.initial_decoder_state()
    cap = output_cap(len(src_ids))

    actions = []
    hyp_ids = []
    delays = []
    rewards = []
    attention = [] if record_attention else None
    n_read = 0
    overrides = 0
    cw = 0
    quality = PrefixBleu(ref_tokens) if ref_tokens is not None else None
    eos_row_added = False

    while True:
        exhausted = n_read == len(src_ids)
        if exhausted and not eos_row_added:
            # terminal marker row for the fully-read source; not an agent READ
            enc = encode_next(enc, EOS, env_model)
            eos_row_added = True

        proposal = propose_next(dec, enc, env_model, projected) if enc.consumed else None
        if proposal is None:
            forced = READ
        elif exhausted:
            forced = WRITE
        else:
            forced = None

        ctx = StepContext(
            src_len=len(src_ids), n_read=n_read, n_written=len(hyp_ids),
            source_exhausted=exhausted, proposal=proposal, forced_action=forced)
        wanted = policy.decide(ctx) if proposal is not None else READ
        if wanted not in (READ, WRITE):
            raise ContractError(f"policy returned unknown action {wanted!r}")
        action = forced if forced is not None else wanted
        if forced is not None and wanted != forced:
            overrides += 1
            log.debug("illegal policy action %s overridden to %s (read %d/%d, written %d)",
                      wanted, forced, n_read, len(src_ids), len(hyp_ids))

        if attention is not None:
            w = getattr(policy, "step_attention", None)
            attention.append(None if w is None else [float(x) for x in w])

        actions.append(action)
        terminal = False
        quality_delta = 0.0
        if action == READ:
            enc = encode_next(enc, src_ids[n_read], env_model)
            n_read += 1
            cw += 1
        else:
            dec = commit(dec, proposal, enc)
            hyp_ids.append(proposal.token)
            cw = 0
            if proposal.token != EOS:
                delays.append(n_read)
                if quality is not None:
                    quality_delta = quality.append(env_model.tgt_vocab.token(proposal.token))
            terminal = dec.terminal or len(hyp_ids) >= cap

        if reward_config is not None:
            d_t = 0.0
            if reward_config.running_avp and delays:
                d_t = average_proportion(delays, len(src_ids), len(delays))
            if terminal and delays:
                d_t = average_proportion(delays, len(src_ids), len(delays))
            rewards.append(quality_delta +
                           latency_reward(cw, d_t, reward_config, is_terminal=terminal))

        if terminal:
            break

    transcript = Transcript(
        src=src_tokens,
        hyp=env_model.tgt_vocab.decode(hyp_ids, strip_reserved=False),
        actions="".join(actions),
        delays=delays,
        rewards=rewards,
        attention=attention,
        ended_with_eos=bool(hyp_ids) and hyp_ids[-1] == EOS,
        forced_overrides=overrides,
    )
    transcript.validate()
    return transcript
