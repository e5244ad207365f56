"""Self-describing checkpoint container.

Byte layout (documented in README.md):

    bytes 0..7    magic b"RELCAP01"
    bytes 8..11   uint32 little-endian: header length H
    bytes 12..12+H-1   UTF-8 JSON header
    remainder     tensor payloads, concatenated in header order,
                  row-major little-endian float64

Header JSON: {"format_version": 1, "meta": {...}, "tensors":
[{"name": str, "shape": [int, ...]}, ...]}. ``meta`` carries the config
echo (model config, vocabulary, optimizer step, ...).
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import CheckpointError, ConfigError

MAGIC = b"RELCAP01"
FORMAT_VERSION = 1


def write_atomic(path: str, payload) -> None:
    """Write ``payload``, bytes or an iterable of byte chunks written as they
    come, via a temp file in the same directory, then rename. A directory
    that cannot take the file (missing, say) is a ``ConfigError`` naming
    ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                   suffix=os.path.basename(path))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([payload] if isinstance(payload, bytes) else payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path: str, arrays: dict, meta: dict) -> None:
    """Serialize named float64 arrays plus a JSON meta block."""
    names = list(arrays.keys())
    header = {
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "tensors": [{"name": n, "shape": list(np.asarray(arrays[n]).shape)} for n in names],
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", len(head)), head]
    for n in names:
        chunks.append(np.ascontiguousarray(arrays[n], dtype="<f8").tobytes())
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path: str):
    """Read a checkpoint; returns (arrays: dict[str, ndarray], meta: dict).
    The arrays are read-only float64 views of the file's bytes, not copies."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 12 or blob[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    (head_len,) = struct.unpack("<I", blob[8:12])
    if len(blob) < 12 + head_len:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[12:12 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: format version {header.get('format_version')!r}, expected {FORMAT_VERSION}"
        )
    tensors, meta = header.get("tensors"), header.get("meta")
    if not isinstance(tensors, list) or not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header needs a 'tensors' list and a 'meta' object")
    arrays = {}
    offset = 12 + head_len
    for entry in tensors:
        try:
            name, shape = entry["name"], tuple(int(d) for d in entry["shape"])
        except (TypeError, KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: bad tensor entry {entry!r}") from exc
        if any(d < 0 for d in shape):
            raise CheckpointError(f"{path}: bad tensor entry {entry!r}")
        nbytes = math.prod(shape) * 8           # Python ints: np.prod wraps
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
        try:
            arrays[name] = np.frombuffer(blob, "<f8", nbytes // 8, offset).reshape(shape)
        except (ValueError, OverflowError) as exc:    # a shape numpy cannot make
            raise CheckpointError(f"{path}: bad tensor entry {entry!r}: {exc}") from exc
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes after payload")
    return arrays, meta
