"""Synthetic parallel corpora and plain-text corpus ingestion.

Corpus files are UTF-8, one whitespace-tokenized lowercase sentence per
line; source and target files align by line number. The synthetic tasks:

- copy:      target equals source
- ambiguous: some source tokens have two equally likely target
  realizations drawn from the plain vocabulary; the chosen realization is
  recoverable only from the oracle concept features generated alongside.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import concept_table, synth_oracle_concepts, write_features
from .metrics import corpus_bleu

TASKS = ("copy", "ambiguous")
SPLITS = ("train", "valid", "test")


@dataclass
class TaskSpec:
    """Shape of a synthetic dataset."""

    task: str = "copy"
    vocab_size: int = 50
    min_len: int = 3
    max_len: int = 10
    n_train: int = 2000
    n_valid: int = 200
    n_test: int = 200
    # ambiguous-task knobs
    n_ambiguous_types: int = 8
    ambiguity_rate: float = 0.25
    feature_noise: float = 0.0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.vocab_size < 1:
            raise ConfigError(f"TaskSpec.vocab_size must be at least 1, got {self.vocab_size}")
        if self.n_ambiguous_types < 0:
            raise ConfigError(f"TaskSpec.n_ambiguous_types must be at least 0, "
                              f"got {self.n_ambiguous_types}")
        if not self.feature_noise >= 0.0:  # inf is pure noise; NaN fails too
            raise ConfigError(f"TaskSpec.feature_noise must be at least 0, got {self.feature_noise}")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ConfigError("invalid sentence length range")
        if min(self.n_train, self.n_valid, self.n_test) < 1:
            raise ConfigError("all splits need at least one sentence")
        if self.task == "ambiguous":
            if self.vocab_size < 2 * self.n_ambiguous_types + self.max_len:
                raise ConfigError("plain vocabulary too small for the ambiguous task")
            if not 0.0 <= self.ambiguity_rate <= 1.0:
                raise ConfigError("ambiguity_rate must be in [0, 1]")
            if self.min_len < 3:
                raise ConfigError("ambiguous task needs min_len >= 3")


def plain_tokens(spec: TaskSpec):
    return [f"w{i:02d}" for i in range(spec.vocab_size)]


def ambiguous_tokens(spec: TaskSpec):
    return [f"amb{i:02d}" for i in range(spec.n_ambiguous_types)]


def build_ambiguous_task(spec: TaskSpec, rng) -> dict:
    """Each ambiguous token's two realizations, all disjoint, from the plain vocabulary."""
    plain = plain_tokens(spec)
    chosen = rng.choice(len(plain), size=2 * spec.n_ambiguous_types, replace=False)
    pairs = {}
    for i, amb in enumerate(ambiguous_tokens(spec)):
        pairs[amb] = (plain[chosen[2 * i]], plain[chosen[2 * i + 1]])
    return pairs


def _sample_sentence(spec: TaskSpec, task: dict, rng):
    """One (source, target) pair; ambiguous slots stay clear of the tail."""
    length = int(rng.integers(spec.min_len, spec.max_len + 1))
    plain = plain_tokens(spec)
    if spec.task == "copy":
        src = [plain[i] for i in rng.integers(0, len(plain), size=length)]
        return src, src[:]

    amb_positions = [i for i in range(length - 2)
                     if rng.random() < spec.ambiguity_rate]
    amb_positions = amb_positions[:spec.n_ambiguous_types]
    types = [str(t) for t in rng.choice(ambiguous_tokens(spec), size=len(amb_positions),
                                        replace=False)] if amb_positions else []
    excluded = set()
    for t in types:
        excluded.update(task[t])
    pool = [t for t in plain if t not in excluded]
    picks = rng.choice(len(pool), size=length, replace=False)
    src, tgt = [], []
    type_iter = iter(types)
    for i in range(length):
        if i in amb_positions:
            amb = next(type_iter)
            realization = task[amb][int(rng.integers(0, 2))]
            src.append(amb)
            tgt.append(realization)
        else:
            token = pool[picks[i]]
            src.append(token)
            tgt.append(token)
    return src, tgt


def generate_pairs(spec: TaskSpec, count: int, rng, task: dict = None):
    if spec.task == "ambiguous" and task is None:
        raise ConfigError("ambiguous task requires realization pairs")
    return [_sample_sentence(spec, task, rng) for _ in range(count)]


def write_parallel(directory, split: str, pairs) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    src_lines = [" ".join(src) for src, _ in pairs]
    tgt_lines = [" ".join(tgt) for _, tgt in pairs]
    (directory / f"{split}.src").write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    (directory / f"{split}.tgt").write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")


def load_parallel(src_path, tgt_path):
    """Read aligned corpus files; sentences come back lowercased."""
    def read(path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(f"{path}: cannot read corpus file: {exc.strerror}") from None
        except ValueError as exc:  # UnicodeDecodeError
            raise DataError(f"{path}: corpus file is not UTF-8 text: {exc}") from None
        return [line.lower().split() for line in text.splitlines()]

    src = read(src_path)
    tgt = read(tgt_path)
    if len(src) != len(tgt):
        raise DataError(
            f"parallel files misaligned: {src_path} has {len(src)} lines, "
            f"{tgt_path} has {len(tgt)}")
    if not src:
        raise DataError(f"empty corpus: {src_path}")
    for i, (s, t) in enumerate(zip(src, tgt), 1):
        if not s or not t:
            raise DataError(f"blank sentence at line {i}")
    return list(zip(src, tgt))


def load_split(directory, split: str):
    directory = Path(directory)
    return load_parallel(directory / f"{split}.src", directory / f"{split}.tgt")


def make_synthetic_dataset(spec: TaskSpec, out_dir, seed: int) -> dict:
    """Emit train/valid/test files plus features and a dataset manifest."""
    if seed < 0:
        raise ConfigError(f"make_synthetic_dataset: seed must be at least 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    task = build_ambiguous_task(spec, rng) if spec.task == "ambiguous" else None

    counts = {"train": spec.n_train, "valid": spec.n_valid, "test": spec.n_test}
    manifest = {
        "task": spec.task,
        "seed": seed,
        "vocab_size": spec.vocab_size,
        "min_len": spec.min_len,
        "max_len": spec.max_len,
        "counts": counts,
    }
    all_pairs = {}
    for split in SPLITS:
        pairs = generate_pairs(spec, counts[split], rng, task)
        write_parallel(out_dir, split, pairs)
        all_pairs[split] = pairs

    if spec.task == "ambiguous":
        manifest["pairs"] = {k: list(v) for k, v in task.items()}
        manifest["feature_noise"] = spec.feature_noise
        feature_seed = seed + 1_000_003
        manifest["feature_seed"] = feature_seed
        table = concept_table(plain_tokens(spec), feature_seed)
        frng = np.random.default_rng(feature_seed)
        for split in SPLITS:
            sets = []
            for _, tgt in all_pairs[split]:
                in_sentence = set(tgt)
                partners = {partner for pair in task.values()
                            for partner in pair
                            if any(p in in_sentence for p in pair)}
                pool = [t for t in plain_tokens(spec)
                        if t not in in_sentence and t not in partners]
                sets.append(synth_oracle_concepts(
                    tgt, table, frng, spec.feature_noise, distractor_pool=pool))
            write_features(out_dir / f"{split}.feat", sets)

    stored = dict(manifest)
    if stored.get("feature_noise") == math.inf:
        stored["feature_noise"] = "inf"  # JSON has no infinity; load_manifest reads it back
    (out_dir / "dataset.json").write_text(
        json.dumps(stored, indent=2, sort_keys=True, allow_nan=False), encoding="utf-8")
    return manifest


def load_manifest(directory) -> dict:
    path = Path(directory) / "dataset.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"{path}: cannot read dataset manifest: {exc.strerror}") from None
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise DataError(f"{path}: dataset manifest is not UTF-8 JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: dataset manifest must be a JSON object, "
                        f"got {type(manifest).__name__}")
    if manifest.get("feature_noise") == "inf":
        manifest["feature_noise"] = math.inf
    return manifest


def ambiguous_text_ceiling(manifest: dict, train_pairs, test_pairs) -> float:
    """Corpus BLEU of the best text-only predictor on the test split.

    Without features every realization choice is a per-type constant; the
    optimum picks each type's majority realization from the training data.
    """
    pairs = {amb: tuple(p) for amb, p in manifest["pairs"].items()}
    votes = {amb: {a: 0, b: 0} for amb, (a, b) in pairs.items()}
    for src, tgt in train_pairs:
        for s, t in zip(src, tgt):
            if s in votes and t in votes[s]:
                votes[s][t] += 1
    best = {amb: max(v, key=lambda k: (v[k], k)) for amb, v in votes.items()}
    hyps = []
    refs = []
    for src, tgt in test_pairs:
        hyps.append([best.get(s, s) for s in src])
        refs.append(list(tgt))
    return corpus_bleu(hyps, refs)
