"""Bad inputs raise the errors that errors.py maps to exit codes."""

import struct

import numpy as np
import pytest

from simtlab import autodiff as ad
from simtlab.agent import AgentGreedyPolicy, AgentNetwork, RLTrainConfig, collect_trajectories
from simtlab.checkpoint import MAGIC as CKPT_MAGIC, file_sha256, load_checkpoint
from simtlab.data import load_manifest, load_parallel, load_split
from simtlab.environment import EnvConfig, EnvModel, teacher_forced_loss, validation_bleu
from simtlab.errors import (ConfigError, ContractError, DataError, FormatError, NumericError,
                           ShapeError)
from simtlab.features import MAGIC, FeatureSet, load_features
from simtlab.policies import (ConsecutivePolicy, WaitKPolicy, read_transcripts, run_episodes,
                              simulate)
from simtlab.vocab import EOS

from test_agent import _enter, _tiny_agent_pair

MAPPED = (ConfigError, DataError, NumericError)  # exit codes 2, 3 and 4


def _feature_file(tmp_path, tag, rows, cols, values):
    """A one-sample features file written byte by byte, as no FeatureSet would allow."""
    path = tmp_path / "bad.feat"
    path.write_bytes(MAGIC + struct.pack("<BIII", tag, 1, rows, cols)
                     + np.asarray(values, dtype="<f4").tobytes())
    return path


def _visual_env(text_env):
    return EnvModel(text_env.src_vocab, text_env.tgt_vocab,
                    EnvConfig(emb_dim=20, hid_dim=28, feature_rows=3, feature_dim=5),
                    np.random.default_rng(6))


def _truncated_checkpoint(tmp_path, text_env):
    text_env.save(tmp_path / "env")
    ckpt = tmp_path / "env.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    return EnvModel.load(tmp_path / "env")


def _checkpoint_record(tmp_path, name, dims):
    """A one-record checkpoint header whose record has raw ``name`` bytes and ``dims``."""
    path = tmp_path / "bad.ckpt"
    path.write_bytes(CKPT_MAGIC + struct.pack("<II", 1, len(name)) + name
                     + struct.pack(f"<I{len(dims)}I", len(dims), *dims))
    return load_checkpoint(path)


def _file(tmp_path, name, content: bytes):
    """``tmp_path / name`` holding ``content``."""
    path = tmp_path / name
    path.write_bytes(content)
    return path


NOT_UTF8 = b"w01 \xff\xfe w02\n"


def _env_with_metadata(tmp_path, text_env, content: bytes):
    """``EnvModel.load`` of ``text_env`` saved with ``content`` in place of its metadata."""
    text_env.save(tmp_path / "env")
    _file(tmp_path, "env.meta", content)
    return EnvModel.load(tmp_path / "env")


def _teacher_forced(env, pairs, feats3):
    """``teacher_forced_loss`` on the first pair as a one-row batch."""
    src, tgt = pairs[0]
    batch = ([env.src_vocab.encode(src) + [EOS]], [env.tgt_vocab.encode(tgt)])
    return teacher_forced_loss(env, batch, ad.Tape(), feats3)


GRID_7X7 = FeatureSet("grid", np.ones((7, 7)))
GRID_2X3 = FeatureSet("grid", np.ones((2, 3)))  # the tiny agents' geometry


def _agents(env, variant):
    """A tiny agent and baseline that fit ``env``'s text geometry."""
    return _tiny_agent_pair(variant, text_dim=env.cfg.hid_dim, emb_dim=env.cfg.emb_dim,
                            key_dim=env.cfg.emb_dim)


def _att_greedy_on_text_env(env, pairs, features):
    """A greedy att agent over ``env``'s first two sources with ``features``."""
    policy = AgentGreedyPolicy(_agents(env, "att")[0], env)
    return run_episodes(policy, env, [pairs[0][0], pairs[1][0]], features)


def _agent_entry(path, features):
    """An att agent's entry point ``path`` of ``test_agent._enter`` on a text environment."""
    return lambda tmp, env, pairs: _enter(path, env, pairs, *_agents(env, "att"), features)


CASES = {
    "empty-source-simulate": (
        DataError, "empty source on lane 0",
        lambda tmp, env, pairs: simulate(ConsecutivePolicy(), env, [])),
    "empty-source-run-episodes": (
        DataError, "empty source on lane 1",
        lambda tmp, env, pairs: run_episodes(ConsecutivePolicy(), env, [pairs[0][0], []])),
    "empty-source-collect": (
        DataError, "empty source on lane 1",
        lambda tmp, env, pairs: collect_trajectories(
            *_agents(env, "none"), env,
            [(pairs[0][0], pairs[0][1], None), ([], pairs[1][1], None)], RLTrainConfig(),
            global_seed=0)),
    "feature-file-nan": (
        DataError, r"bad.feat: sample 0: feature matrix contains NaN",
        lambda tmp, env, pairs: load_features(_feature_file(tmp, 0, 2, 3,
                                                            [0, 1, np.nan, 3, 4, 5]))),
    "feature-file-concepts-2x3": (
        DataError, r"bad.feat: sample 0: concept features are fixed at 72x100, got \(2, 3\)",
        lambda tmp, env, pairs: load_features(_feature_file(tmp, 1, 2, 3, np.ones(6)))),
    "feature-file-no-rows": (
        DataError, r"bad.feat: sample 0: feature matrix must be 2D and non-empty",
        lambda tmp, env, pairs: load_features(_feature_file(tmp, 0, 0, 3, []))),
    "env-features-missing": (
        ConfigError, "multimodal environment requires visual features; entry 0 has none",
        lambda tmp, env, pairs: simulate(ConsecutivePolicy(), _visual_env(env), pairs[0][0])),
    "env-features-misshaped": (
        ConfigError, r"feature geometry \(3, 4\) of entry 0 does not match the configured",
        lambda tmp, env, pairs: simulate(ConsecutivePolicy(), _visual_env(env), pairs[0][0],
                                         FeatureSet("grid", np.ones((3, 4))))),
    **{f"agent-features-{what}-{path}": (
        ConfigError, "visual (agent|baseline) network" + (
            " requires visual features" if what == "missing" else ": feature geometry"),
        _agent_entry(path, None if what == "missing" else FeatureSet("grid", np.ones((3, 3)))))
       for what in ("missing", "misshaped") for path in ("collect", "update", "greedy")},
    "env-teacher-forced-features-misshaped": (
        ConfigError, r"expected a \(B, rows, dim\) = \(1, 3, 5\) feature block .* got \(1, 2, 4\)",
        lambda tmp, env, pairs: _teacher_forced(_visual_env(env), pairs, np.zeros((1, 2, 4)))),
    "text-env-features-teacher-forced": (
        ConfigError, r"= None feature block \(None on a text-only environment\), got \(1, 3, 5\)",
        lambda tmp, env, pairs: _teacher_forced(env, pairs, np.zeros((1, 3, 5)))),
    "text-env-features-simulate": (
        ConfigError, "a text-only environment takes no visual features",
        lambda tmp, env, pairs: simulate(WaitKPolicy(1), env, pairs[0][0], GRID_7X7)),
    "text-env-features-run-episodes": (
        ConfigError, "a text-only environment takes no visual features",
        lambda tmp, env, pairs: run_episodes(ConsecutivePolicy(), env,
                                             [pairs[0][0], pairs[1][0]], [None, GRID_7X7])),
    "text-env-features-validation-bleu": (
        ConfigError, "a text-only environment takes no visual features",
        lambda tmp, env, pairs: validation_bleu(env, pairs[:2], [GRID_7X7, GRID_7X7])),
    "agent-features-wrong-count-run-episodes": (
        DataError, r"features must be a list with one entry per source \(2 sources\)",
        lambda tmp, env, pairs: _att_greedy_on_text_env(env, pairs, [GRID_2X3])),
    "agent-features-bare-set-run-episodes": (
        DataError, r"features must be a list with one entry per source \(2 sources\)",
        lambda tmp, env, pairs: _att_greedy_on_text_env(env, pairs, GRID_2X3)),
    "text-env-features-collect": (
        ConfigError, "a text-only environment takes no visual features",
        lambda tmp, env, pairs: collect_trajectories(
            *_agents(env, "none"), env, [(pairs[0][0], pairs[0][1], GRID_7X7)],
            RLTrainConfig(), global_seed=0)),
    "env-config-rows-without-dim": (
        ConfigError, r"feature_rows and feature_dim must both be 0 or both at least 1, "
                     r"got \(2, 0\)",
        lambda tmp, env, pairs: EnvConfig(feature_rows=2)),
    "truncated-checkpoint": (
        DataError, "env.ckpt: truncated while reading",
        lambda tmp, env, pairs: _truncated_checkpoint(tmp, env)),
    "checkpoint-name-not-utf8": (
        FormatError, "bad.ckpt: record 0 name is not UTF-8",
        lambda tmp, env, pairs: _checkpoint_record(tmp, b"\xff\xfe", (2, 3))),
    "checkpoint-dims-overflow-int64": (
        FormatError, r"bad.ckpt: truncated while reading 'w' data",
        lambda tmp, env, pairs: _checkpoint_record(tmp, b"w", (2 ** 31, 2 ** 31, 4))),
    "env-metadata-not-utf8": (
        FormatError, "env.meta: metadata is not UTF-8 text",
        lambda tmp, env, pairs: _env_with_metadata(tmp, env, b"kind=environment\n" + NOT_UTF8)),
    "corpus-not-utf8": (
        DataError, "train.src: corpus file is not UTF-8 text",
        lambda tmp, env, pairs: load_parallel(_file(tmp, "train.src", NOT_UTF8),
                                              _file(tmp, "train.tgt", b"w01 w02\n"))),
    "manifest-not-json": (
        DataError, "dataset.json: dataset manifest is not UTF-8 JSON",
        lambda tmp, env, pairs: load_manifest(_file(tmp, "dataset.json", b"{task: copy").parent)),
    "manifest-json-array": (
        DataError, "dataset.json: dataset manifest must be a JSON object, got list",
        lambda tmp, env, pairs: load_manifest(_file(tmp, "dataset.json", b"[1, 2]").parent)),
    "transcripts-not-utf8": (
        DataError, "t.jsonl: transcripts file is not UTF-8 text",
        lambda tmp, env, pairs: read_transcripts(_file(tmp, "t.jsonl", NOT_UTF8))),
    "env-metadata-missing": (
        DataError, "env.meta: cannot read metadata: No such file or directory",
        lambda tmp, env, pairs: EnvModel.load(tmp / "env")),
    "agent-metadata-missing": (
        DataError, "agent.meta: cannot read metadata: No such file or directory",
        lambda tmp, env, pairs: AgentNetwork.load(tmp / "agent")),
    "corpus-missing": (
        DataError, "train.src: cannot read corpus file: No such file or directory",
        lambda tmp, env, pairs: load_split(tmp, "train")),
    "features-missing": (
        DataError, "x.feat: cannot read features file: No such file or directory",
        lambda tmp, env, pairs: load_features(tmp / "x.feat")),
    "features-directory": (
        DataError, "cannot read features file: Is a directory",
        lambda tmp, env, pairs: load_features(tmp)),
    "checkpoint-missing": (
        DataError, "env.ckpt: cannot read checkpoint: No such file or directory",
        lambda tmp, env, pairs: load_checkpoint(tmp / "env.ckpt")),
    "checkpoint-sha256-missing": (
        DataError, "env.ckpt: cannot read file: No such file or directory",
        lambda tmp, env, pairs: file_sha256(tmp / "env.ckpt")),
    "transcripts-missing": (
        DataError, "t.jsonl: cannot read transcripts file: No such file or directory",
        lambda tmp, env, pairs: read_transcripts(tmp / "t.jsonl")),
    "transcripts-token-not-string": (
        DataError, r"t.jsonl:2: bad transcript record: 'src' is not a list of strs",
        lambda tmp, env, pairs: read_transcripts(_file(
            tmp, "t.jsonl", b'\n{"src": [1, null], "hyp": [2.5], "actions": "RW", "g": [1]}'))),
    "transcripts-bool-delay": (
        DataError, r"t.jsonl:1: bad transcript record: 'g' is not a list of ints",
        lambda tmp, env, pairs: read_transcripts(_file(
            tmp, "t.jsonl", b'{"src": ["a"], "hyp": ["x"], "actions": "RW", "g": [true]}'))),
    "manifest-directory": (
        DataError, "dataset.json: cannot read dataset manifest: Is a directory",
        lambda tmp, env, pairs: load_manifest((tmp / "dataset.json").mkdir() or tmp)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_a_mapped_error(tmp_path, untrained_env, case):
    expected, message, run = CASES[case]
    env, pairs = untrained_env
    with pytest.raises(MAPPED) as caught:
        run(tmp_path, env, pairs)
    assert isinstance(caught.value, expected)
    assert not isinstance(caught.value, (ShapeError, ContractError))  # both mean a bug
    assert caught.match(message)
