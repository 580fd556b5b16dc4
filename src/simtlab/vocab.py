"""Closed word vocabulary with reserved control tokens."""

from __future__ import annotations

from collections import Counter

from .errors import DataError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>")


class Vocabulary:
    """Token/id bijection; ids 0..3 are pad, bos, eos, unk."""

    def __init__(self, tokens):
        self._tokens = list(RESERVED) + list(tokens)
        if len(set(self._tokens)) != len(self._tokens):
            raise DataError("Vocabulary: duplicate tokens")
        self._ids = {t: i for i, t in enumerate(self._tokens)}

    @classmethod
    def from_corpus(cls, sentences) -> "Vocabulary":
        """Build from training sentences, most frequent first."""
        counts = Counter()
        for sent in sentences:
            counts.update(sent)
        for reserved in RESERVED:
            counts.pop(reserved, None)
        ordered = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(ordered)

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self):
        return tuple(self._tokens)

    def id(self, token: str) -> int:
        return self._ids.get(token, UNK)

    def token(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._tokens):
            raise DataError(f"token id {token_id} out of range [0, {len(self._tokens)})")
        return self._tokens[token_id]

    def encode(self, tokens):
        return [self.id(t) for t in tokens]

    def decode(self, ids, strip_reserved: bool = True):
        out = [self.token(i) for i in ids]
        if strip_reserved:
            out = [t for t in out if t not in RESERVED]
        return out
