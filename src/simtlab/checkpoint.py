"""Binary parameter checkpoints plus a key-value metadata sidecar.

Checkpoint layout (all integers little-endian):

    magic   "SIMTCKPT1" (9 bytes)
    count   u32, number of parameter records
    record  name_len u32, name UTF-8, rank u32, dims u32 each,
            data float64 LE, row-major

Metadata is a separate plain-text block of ``key=value`` lines; values
never contain newlines, list values are space-joined.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError

MAGIC = b"SIMTCKPT1"


def save_checkpoint(path, named_tensors) -> None:
    """Write named tensors in declaration order."""
    items = list(named_tensors)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(items)))
        for name, tensor in items:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(tensor.data, dtype="<f8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes(order="C"))


def load_checkpoint(path):
    """Read a checkpoint back as an ordered dict of name -> ndarray."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
    if blob[:9] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:9]!r}")
    offset = 9

    def take(n, what):
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(
                f"{path}: truncated while reading {what} "
                f"(need {offset + n} bytes, file has {len(blob)})")
        piece = blob[offset:offset + n]
        offset += n
        return piece

    (count,) = struct.unpack("<I", take(4, "record count"))
    out = {}
    for i in range(count):
        (name_len,) = struct.unpack("<I", take(4, f"record {i} name length"))
        try:
            name = take(name_len, f"record {i} name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: record {i} name is not UTF-8") from None
        (rank,) = struct.unpack("<I", take(4, f"'{name}' rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"'{name}' dims"))
        n_items = math.prod(dims)  # exact: np.prod wraps around in int64
        data = np.frombuffer(take(8 * n_items, f"'{name}' data"), dtype="<f8")
        out[name] = data.reshape(dims).astype(np.float64)
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes after last record")
    return out


def load_into(path, named_tensors) -> None:
    """Load a checkpoint into existing tensors, validating names and shapes."""
    loaded = load_checkpoint(path)
    for name, tensor in named_tensors:
        if name not in loaded:
            raise FormatError(f"{path}: missing parameter '{name}'")
        arr = loaded.pop(name)
        if arr.shape != tensor.data.shape:
            raise FormatError(
                f"{path}: parameter '{name}' has shape {arr.shape}, expected {tensor.data.shape}")
        tensor.data = np.ascontiguousarray(arr)
    if loaded:
        raise FormatError(f"{path}: unexpected parameters {sorted(loaded)}")


def file_sha256(path) -> str:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc.strerror}") from None


def write_metadata(path, mapping) -> None:
    lines = []
    for key, value in mapping.items():
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        text = str(value)
        if "\n" in text:
            raise FormatError(f"metadata value for '{key}' contains a newline")
        lines.append(f"{key}={text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_config(path, kind: str, schema) -> dict:
    """Typed values from the metadata file of a ``kind`` checkpoint.

    ``schema`` maps each key to ``int``, ``bool`` or ``list``, as
    ``write_metadata`` wrote it. Another kind raises ConfigError; a missing
    key or a value that does not parse raises FormatError naming the key.
    """
    meta = read_metadata(path)
    if meta.get("kind") != kind:
        raise ConfigError(f"{path}: kind is {meta.get('kind')!r}, expected {kind!r}")
    out = {}
    for key, typ in schema.items():
        if key not in meta:
            raise FormatError(f"{path}: metadata key '{key}' is missing")
        text = meta[key]
        try:
            if typ is list:
                out[key] = text.split()
            elif typ is bool:
                out[key] = {"true": True, "false": False}[text]
            else:
                out[key] = int(text)
        except (KeyError, ValueError):
            expected = "true or false" if typ is bool else "an integer"
            raise FormatError(
                f"{path}: metadata key '{key}' is {text!r}, expected {expected}") from None
    return out


def read_metadata(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read metadata: {exc.strerror}") from None
    except ValueError as exc:  # UnicodeDecodeError
        raise FormatError(f"{path}: metadata is not UTF-8 text: {exc}") from None
    mapping = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping
