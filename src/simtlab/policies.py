"""READ/WRITE episodes under a policy, the rule-based baselines, transcript logs.

``run_episodes`` is the one episode loop: it steps the lanes of one
``environment.EpisodeStepper`` and asks a ``Policy`` for an (n,) bool
WRITE mask once per step. The stepper enforces legality: the first action
is always READ (the decoder cannot attend to an empty prefix) and WRITE is
forced once the source is exhausted. Policies are still asked on forced
steps, so stateful agents see the full observation stream; an illegal READ
there is overridden, never fatal, and the stepper counts it per lane. Each
transcript's delays are derived from its actions. ``simulate`` is the
one-lane call. The stepper encodes every source once when it is built, so
a READ runs no encoder. Wait-k and consecutive decide from the stepper's
counters and forced mask alone and never ask for the proposal, so their
READ steps run no decoder work; the agents (``agent.AgentGreedyPolicy``
and the collector's sampling policy) read it on every step. The proposal,
and the agents' own networks, run on the lanes still running only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environment import READ, WRITE, EnvModel, EpisodeStepper
from .errors import ContractError, DataError, NumericError
from .metrics import delays_from_actions


class Policy:
    """Decision procedure over the lanes of one ``EpisodeStepper``.

    ``start_episode(sources, features)`` resets internal state for the
    stepper's lanes: its source token lists and one feature set (or None)
    per lane. ``decide(episode)`` is called once per step, before the
    stepper's ``apply()``, and returns an (n,) bool WRITE mask. It may read
    the step's forced-WRITE mask ``episode.forced``, the counters
    ``n_read`` and ``n_written``, each lane's last action ``wrote``, the
    index array ``running`` of the live lanes and ``episode.proposal()``,
    which has one row per running lane, in ``running`` order; a policy that
    never asks for the proposal lets READ steps skip the decoder.
    Answers on ended lanes are ignored, and a READ on a forced lane is
    overridden, and the stepper counts it. Policies may expose
    ``step_attention``, (n, R) agent-side attention weights from the last
    decide, to have them recorded into the transcripts. ``reads_features``
    says whether ``start_episode`` uses the features; a text-only
    environment refuses features that neither it nor the policy reads.
    """

    step_attention = None
    reads_features = False

    def start_episode(self, sources, features) -> None:
        pass

    def decide(self, episode: EpisodeStepper) -> np.ndarray:
        raise NotImplementedError


@dataclass
class Transcript:
    """One simultaneous decoding episode.

    ``hyp`` lists every committed token including a terminal "<eos>";
    ``delays`` records, per content token, how many source tokens had been
    read at commit time (the EOS commit carries no delay entry).
    ``rewards`` stays empty unless a caller stores what
    ``metrics.step_rewards`` gives it, as the trajectory collector does.
    """

    src: list
    hyp: list
    actions: str
    delays: list
    rewards: list = field(default_factory=list)
    attention: list = None
    forced_overrides: int = 0

    @property
    def ended_with_eos(self) -> bool:
        return bool(self.hyp) and self.hyp[-1] == "<eos>"

    @property
    def content_hyp(self):
        # every non-EOS commit counts as content, <unk> included
        return [t for t in self.hyp if t != "<eos>"]

    def validate(self) -> None:
        """Raise ``ContractError`` unless the record is one episode of the game.

        The actions are READs and WRITEs, starting with the forced READ,
        reading no more than the source, one WRITE per token, and an EOS
        commit last; the delays are the ones they give. This is the one
        guard for these rules on files.
        """
        if not (isinstance(self.actions, str) and set(self.actions) <= {READ, WRITE}):
            raise ContractError(f"transcript: actions must be a string of {READ} and {WRITE}, "
                                f"got {self.actions!r}")
        writes = self.actions.count(WRITE)
        if writes != len(self.hyp):
            raise ContractError(f"transcript: {writes} WRITEs vs {len(self.hyp)} tokens")
        if self.actions.count(READ) > len(self.src):
            raise ContractError("transcript: more READs than source tokens")
        want = delays_from_actions(self.actions, self.ended_with_eos)
        if self.delays != want:
            raise ContractError(f"transcript: delays {self.delays} vs {want} from the actions")
        if not self.actions.startswith(READ):
            raise ContractError(f"transcript: the first action must be {READ}, "
                                f"got {self.actions!r}")
        if "<eos>" in self.hyp[:-1] or (self.ended_with_eos and self.actions[-1] != WRITE):
            raise ContractError("transcript: the EOS commit must be the last action")
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
            forced_overrides=int(obj.get("forced_overrides", 0)),
        )


def write_transcripts(path, transcripts) -> None:
    """Write one JSON line per transcript.

    Every record is validated and serialized before the file is opened, so
    an inconsistent record raises ``ContractError``, one that is not finite
    ``NumericError``, and ``path`` is left as it was.
    """
    lines = []
    for lineno, t in enumerate(transcripts, 1):
        try:
            t.validate()
            lines.append(json.dumps(t.to_json_obj(), allow_nan=False) + "\n")
        except ContractError as exc:
            raise ContractError(f"{path}:{lineno}: {exc}") from exc
        except ValueError as exc:  # a NaN or infinite reward or attention weight
            raise NumericError(f"{path}:{lineno}: transcript record is not finite") from exc
    Path(path).write_text("".join(lines), encoding="utf-8")


def _finite_numbers(items) -> bool:
    """Whether ``items`` is a list of finite numbers (a bool is none; NaN < inf is False)."""
    return isinstance(items, list) and all(type(x) in (int, float) and abs(x) < np.inf
                                           for x in items)


def read_transcripts(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read transcripts file: {exc.strerror}") from None
    except ValueError as exc:  # UnicodeDecodeError
        raise DataError(f"{path}: transcripts file is not UTF-8 text: {exc}") from None
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            for key, kind in (("src", str), ("hyp", str), ("g", int)):
                items = obj.get(key)
                if not isinstance(items, list):
                    raise TypeError(f"'{key}' is not a list")
                if not all(type(x) is kind for x in items):  # type: a bool is no delay
                    raise TypeError(f"'{key}' is not a list of {kind.__name__}s")
            if not _finite_numbers(obj.get("rewards", [])):
                raise TypeError("'rewards' is not a list of finite numbers")
            attention = obj.get("attention")
            if not (attention is None or isinstance(attention, list) and all(
                    w is None or _finite_numbers(w) for w in attention)):
                raise TypeError("'attention' is not a list of nulls and lists of finite numbers")
            overrides = obj.get("forced_overrides", 0)
            if not (type(overrides) is int and overrides >= 0):
                raise TypeError("'forced_overrides' is not a non-negative int")
            transcript = Transcript.from_json_obj(obj)
            transcript.validate()
            out.append(transcript)
        except (KeyError, TypeError, ValueError, ContractError) as exc:
            # JSONDecodeError is a ValueError; ContractError is an inconsistent record
            raise DataError(f"{path}:{lineno}: bad transcript record: {exc}") from exc
    return out


class WaitKPolicy(Policy):
    """Read k tokens, then alternate WRITE and READ."""

    def __init__(self, k: int):
        if k < 1:
            raise ContractError("wait-k requires k >= 1")
        self.k = k

    def decide(self, episode: EpisodeStepper) -> np.ndarray:
        return episode.forced | (episode.n_read >= self.k + episode.n_written)


class ConsecutivePolicy(Policy):
    """Read the whole source before writing anything."""

    def decide(self, episode: EpisodeStepper) -> np.ndarray:
        return episode.forced


def run_episodes(policy: Policy, model: EnvModel, sources, features=None, *,
                 record_attention: bool = False) -> list:
    """Run one episode per source as the lanes of one stepper; return their transcripts.

    ``features`` holds one entry per source, for the environment and the
    policy; neither reading them is a ``ConfigError``. A lane ends on an EOS
    commit or at the output-length cap. A transcript's delays come from its
    actions and its override count from the stepper. The transcripts carry
    no rewards; ``metrics.step_rewards`` computes them from a transcript.
    """
    sources = [list(s) for s in sources]
    n = len(sources)
    features = [None] * n if features is None else features
    lane_features = features  # a text-only environment refuses features nothing reads
    if policy.reads_features and not model.multimodal and isinstance(features, (list, tuple)):
        lane_features = [None] * len(features)  # the policy reads them; the stepper counts them
    episode = EpisodeStepper(model, sources, lane_features)
    policy.start_episode(sources, features)
    attention = [[] for _ in range(n)] if record_attention else None
    lanes = range(n)  # the stepper's first READ asks no policy
    while True:
        if attention is not None:
            weights = policy.step_attention
            for i in lanes:
                attention[i].append(None if weights is None else weights[i].tolist())
        lanes = episode.running
        if not len(lanes):
            break
        write = policy.decide(episode)
        if not (isinstance(write, np.ndarray) and write.dtype == bool and write.shape == (n,)):
            raise ContractError(f"policy returned unknown action mask {write!r}; "
                                f"want a ({n},) bool array")
        episode.apply(write)
    transcripts = []
    for i, src in enumerate(sources):
        hyp = model.tgt_vocab.decode(episode.hyp_ids[i], strip_reserved=False)
        actions = "".join(episode.actions[i])
        transcript = Transcript(
            src=src, hyp=hyp, actions=actions,
            delays=delays_from_actions(actions, hyp[-1:] == ["<eos>"]),
            attention=None if attention is None else attention[i],
            forced_overrides=int(episode.forced_overrides[i]))
        transcript.validate()
        transcripts.append(transcript)
    return transcripts


def simulate(policy: Policy, env_model: EnvModel, src_tokens, features=None, *,
             record_attention: bool = False) -> Transcript:
    """Run one episode and return its transcript: ``run_episodes`` on one lane."""
    return run_episodes(policy, env_model, [src_tokens],
                        None if features is None else [features],
                        record_attention=record_attention)[0]
