"""Visual side-information: grid features, concept embeddings, and the
synthetic oracle used for desk-scale grounding experiments.

File layout (little-endian):

    magic  "SIMTFEAT1" (9 bytes)
    tag    u8: 0 = grid, 1 = concepts
    count  u32 sample count
    rows   u32
    cols   u32
    data   count contiguous float32 row-major matrices

A ``FeatureSet`` keeps a float32 matrix as float32, which is what
``load_features`` reads, and holds any other matrix as float64. Code that
computes with features converts them to float64 once, where it builds a
block from them, so arithmetic stays float64 and a loaded matrix takes
the memory of its file, not twice that.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError, ShapeError

MAGIC = b"SIMTFEAT1"
GRID, CONCEPTS = "grid", "concepts"
CONCEPT_ROWS, CONCEPT_DIM = 72, 100
CONTENT_SLOTS = 36

_TAGS = {GRID: 0, CONCEPTS: 1}
_VARIANTS = {v: k for k, v in _TAGS.items()}


@dataclass
class FeatureSet:
    """One sample's visual features: a float matrix plus its variant.

    ``matrix`` stays float32 when given as float32 (as ``load_features``
    gives it); any other input is held as float64.
    """

    variant: str
    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix)
        if matrix.dtype != np.float32:
            matrix = matrix.astype(np.float64, copy=False)
        self.matrix = matrix
        if self.variant not in _TAGS:
            raise ShapeError(f"unknown feature variant {self.variant!r}")
        if self.matrix.ndim != 2 or 0 in self.matrix.shape:
            raise ShapeError(f"feature matrix must be 2D and non-empty, got {self.matrix.shape}")
        if self.variant == CONCEPTS and self.matrix.shape != (CONCEPT_ROWS, CONCEPT_DIM):
            raise ShapeError(
                f"concept features are fixed at {CONCEPT_ROWS}x{CONCEPT_DIM}, "
                f"got {self.matrix.shape}")
        if not np.all(np.isfinite(self.matrix)):
            raise ShapeError("feature matrix contains NaN/Inf")


def check_feature_sets(sets, shape, who: str) -> None:
    """Raise ``ConfigError`` unless every entry of ``sets`` is a FeatureSet of ``shape``.

    ``shape`` is the (rows, dim) a model was configured for; ``who`` names
    the model or entry point in the message.
    """
    for i, f in enumerate(sets):
        if f is None:
            raise ConfigError(f"{who} requires visual features; entry {i} has none")
        if f.matrix.shape != shape:
            raise ConfigError(f"{who}: feature geometry {f.matrix.shape} of entry {i} does "
                              f"not match the configured {shape}")


def write_features(path, feature_sets) -> None:
    sets = list(feature_sets)
    if not sets:
        raise FormatError("write_features: nothing to write")
    variant = sets[0].variant
    rows, cols = sets[0].matrix.shape
    for fs in sets:
        if fs.variant != variant or fs.matrix.shape != (rows, cols):
            raise FormatError("write_features: mixed variants or dims")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BIII", _TAGS[variant], len(sets), rows, cols))
        for fs in sets:
            fh.write(np.ascontiguousarray(fs.matrix, dtype="<f4").tobytes(order="C"))


def load_features(path):
    """The FeatureSets in ``path``; a broken layout or a bad sample raises ``FormatError``."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read features file: {exc.strerror}") from None
    if blob[:9] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:9]!r}")
    if len(blob) < 9 + 13:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    tag, count, rows, cols = struct.unpack("<BIII", blob[9:22])
    if tag not in _VARIANTS:
        raise FormatError(f"{path}: unknown variant tag {tag}")
    sample_bytes = rows * cols * 4
    expected = 22 + count * sample_bytes
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {count} samples of "
            f"{rows}x{cols}, file has {len(blob)} (payload starts at byte 22)")
    out = []
    try:
        for i in range(count):
            start = 22 + i * sample_bytes
            data = np.frombuffer(blob[start:start + sample_bytes], dtype="<f4")
            out.append(FeatureSet(_VARIANTS[tag], data.reshape(rows, cols)))
    except ShapeError as exc:
        raise FormatError(f"{path}: sample {i}: {exc}") from None
    return out


def concept_table(tokens, seed: int):
    """Deterministic unit-norm concept vector per token.

    Stands in for pretrained label embeddings; regenerated from
    (sorted tokens, seed) wherever the same table is needed.
    """
    rng = np.random.default_rng(seed)
    table = {}
    for token in sorted(set(tokens)):
        v = rng.standard_normal(CONCEPT_DIM)
        table[token] = v / np.linalg.norm(v)
    return table


def synth_oracle_concepts(tgt_sentence, embedding_table, rng, noise_level: float,
                          distractor_pool) -> FeatureSet:
    """Concept features that encode the target sentence's content tokens.

    Up to 36 slots carry (noised) embeddings of distinct content tokens in
    shuffled slot order; the rest hold distractor-token embeddings. At
    ``noise_level=inf`` every slot is replaced by pure Gaussian noise, so
    the features carry no information about the sentence.
    """
    if noise_level < 0:
        raise ShapeError("synth_oracle_concepts: negative noise level")
    seen = set()
    content = []
    for token in tgt_sentence:
        if token in seen:
            continue
        if token not in embedding_table:
            raise FormatError(f"synth_oracle_concepts: token {token!r} missing from table")
        seen.add(token)
        content.append(token)
    content = content[:CONTENT_SLOTS]

    pool = [t for t in distractor_pool if t not in seen]
    if not pool:
        raise FormatError("synth_oracle_concepts: empty distractor pool")

    dim = len(next(iter(embedding_table.values())))
    matrix = np.zeros((CONCEPT_ROWS, dim))
    slots = rng.permutation(CONCEPT_ROWS)
    infinite = math.isinf(noise_level)
    for i, slot in enumerate(slots):
        if i < len(content):
            base = embedding_table[content[i]]
        else:
            base = embedding_table[pool[rng.integers(0, len(pool))]]
        if infinite:
            matrix[slot] = rng.standard_normal(dim)
        else:
            matrix[slot] = base + noise_level * rng.standard_normal(dim)
    return FeatureSet(CONCEPTS, matrix)
