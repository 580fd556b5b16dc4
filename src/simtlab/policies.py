"""READ/WRITE simulation of one episode, deterministic policies, transcript logs.

``simulate`` drives a one-lane ``environment.EpisodeStepper``, which
enforces legality: the first action is always READ (the decoder cannot
attend to an empty prefix) and WRITE is forced once the source is
exhausted. Policies are still queried on forced WRITE steps so stateful
agents see the full observation stream; an illegal answer is overridden
and logged, never fatal. The environment's proposal in a ``StepContext``
is computed on first read. The rule policies (wait-k, consecutive) never
read it, so their READ steps run no decoder work; the greedy agent reads
it on every step.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environment import READ, WRITE, EnvModel, EpisodeStepper
from .errors import ContractError, DataError
from .metrics import RewardConfig
from .vocab import EOS

log = logging.getLogger(__name__)


class StepContext:
    """What a policy may look at when deciding.

    ``token`` is the environment's proposed next token and ``text_ctx`` the
    proposal's text attention context. A context made ``of`` a running
    episode, as ``simulate`` makes them, computes both on first read and
    keeps them; the rule policies never read them. Read after its step,
    such a context returns what it read during the step or raises
    ``ContractError``, never a later step's proposal.
    """

    def __init__(self, src_len, n_read, n_written, source_exhausted, token=None,
                 text_ctx=None, forced_action=None):
        self.src_len = src_len
        self.n_read = n_read
        self.n_written = n_written
        self.source_exhausted = source_exhausted
        self.forced_action = forced_action
        self._seen = token, text_ctx
        self._pending = None   # (episode, dec, enc) of the step, until the proposal is read

    @classmethod
    def of(cls, episode: EpisodeStepper, forced) -> "StepContext":
        """The current step of the one-lane ``episode``, whose forced-WRITE mask is ``forced``."""
        exhausted = bool(forced[0])
        ctx = cls(len(episode.src_ids[0]), episode.n_read[0], len(episode.hyp_ids[0]), exhausted,
                  forced_action=WRITE if exhausted else None)
        ctx._pending = episode, episode.dec, episode.enc
        return ctx

    @property
    def token(self) -> int:
        return self._read()[0]

    @property
    def text_ctx(self) -> np.ndarray:
        return self._read()[1]

    def _read(self):
        if self._pending is not None:
            episode, dec, enc = self._pending
            proposal = episode.proposal()
            if proposal.dec is not dec or proposal.enc is not enc:
                raise ContractError("step context read after its step")
            self._seen = int(proposal.token[0]), proposal.text_ctx[0]
            self._pending = None
        return self._seen


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


def episode_transcript(episode: EpisodeStepper, lane: int, src_tokens, **extra) -> Transcript:
    """The validated transcript of one finished lane of ``episode``."""
    ids = episode.hyp_ids[lane]
    transcript = Transcript(
        src=list(src_tokens),
        hyp=episode.model.tgt_vocab.decode(ids, strip_reserved=False),
        actions="".join(episode.actions[lane]),
        delays=episode.delays[lane],
        rewards=episode.rewards[lane],
        ended_with_eos=bool(ids) and ids[-1] == EOS,
        **extra,
    )
    transcript.validate()
    return transcript


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
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            for key in ("src", "hyp", "g"):
                if not isinstance(obj.get(key), list):
                    raise TypeError(f"'{key}' is not a list")
            out.append(Transcript.from_json_obj(obj))
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
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


def _step_attention(policy):
    w = getattr(policy, "step_attention", None)
    return None if w is None else [float(x) for x in w]


def simulate(policy: Policy, env_model: EnvModel, src_tokens, features=None, *,
             ref_tokens=None, reward_config: RewardConfig = None,
             record_attention: bool = False) -> Transcript:
    """Run one episode and return its transcript.

    Rewards are filled when ``reward_config`` is given; the quality part
    additionally needs ``ref_tokens``. Terminates on an EOS commit or at
    the output-length cap.
    """
    src_tokens = list(src_tokens)
    episode = EpisodeStepper(env_model, [src_tokens], None if features is None else [features],
                             refs=None if ref_tokens is None else [ref_tokens],
                             reward_config=reward_config)
    policy.start_episode(src_tokens, features)
    overrides = 0
    # the initial forced READ asks no policy
    attention = [_step_attention(policy)] if record_attention else None
    while episode.live[0]:
        ctx = StepContext.of(episode, episode.start_step())
        wanted = policy.decide(ctx)
        if wanted not in (READ, WRITE):
            raise ContractError(f"policy returned unknown action {wanted!r}")
        if ctx.source_exhausted and wanted != WRITE:
            overrides += 1
            log.debug("illegal policy action %s overridden to %s (read %d/%d, written %d)",
                      wanted, WRITE, ctx.n_read, ctx.src_len, ctx.n_written)
        if attention is not None:
            attention.append(_step_attention(policy))
        episode.apply((wanted == WRITE,))
    return episode_transcript(episode, 0, src_tokens, attention=attention,
                              forced_overrides=overrides)
