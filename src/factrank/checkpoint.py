"""Versioned binary container of named float64 tensors.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON
header, then each tensor's row-major float64 bytes in header order. The
header records the model kind, its dimension table, the token vocabulary
and its SHA-256, plus free-form run metadata. Writes are atomic
(temp file + rename) and deterministic for identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LoadError

MAGIC = b"FRCKPT1\n"
_HEADER_KEYS = ("format_version", "kind", "dims", "vocab", "vocab_sha256", "tensors")

Array = np.ndarray


def vocab_sha256(tokens: list[str]) -> str:
    return hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


@dataclass
class Checkpoint:
    kind: str
    dims: dict
    vocab: list[str]
    tensors: dict[str, Array]
    meta: dict
    path: str = ""

    def dim(self, name: str, kind: type = int):
        """Header dimension ``name`` as ``kind``; LoadError naming the file if absent or malformed."""
        try:
            return kind(self.dims[name])
        except (KeyError, TypeError, ValueError):
            raise LoadError(f"{self.path}: header dims lack a valid {name!r}") from None

    def checked_tensors(self, shapes: dict[str, tuple[int, ...]]) -> dict[str, Array]:
        """The tensors in the order of ``shapes``; LoadError naming the file unless they are exactly ``shapes``."""
        missing = sorted(set(shapes) - set(self.tensors))
        extra = sorted(set(self.tensors) - set(shapes))
        if missing or extra:
            raise LoadError(f"{self.path}: missing tensors {missing}, unexpected tensors {extra}")
        for name, shape in shapes.items():
            got = self.tensors[name].shape
            if got != tuple(shape):
                raise LoadError(f"{self.path}: tensor {name!r} has shape {got}, expected {tuple(shape)}")
        return {name: self.tensors[name] for name in shapes}


def save_checkpoint(
    path: str | Path,
    kind: str,
    dims: dict,
    vocab: list[str],
    tensors: dict[str, Array],
    meta: dict | None = None,
) -> None:
    path = Path(path)
    records = []
    buffers = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        records.append({"name": name, "shape": list(arr.shape)})
        buffers.append(arr.tobytes())
    header = {
        "format_version": 1,
        "kind": kind,
        "dims": dims,
        "vocab": vocab,
        "vocab_sha256": vocab_sha256(vocab),
        "meta": meta or {},
        "tensors": records,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for buf in buffers:
            fh.write(buf)
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; any malformed, truncated or over-long file raises LoadError naming it."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise LoadError(f"{path}: not a checkpoint file (bad magic)")
        size = fh.read(8)
        if len(size) != 8:
            raise LoadError(f"{path}: truncated checkpoint header")
        (header_len,) = struct.unpack("<Q", size)
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise LoadError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LoadError(f"{path}: corrupt checkpoint header: {exc}") from None
        missing = [key for key in _HEADER_KEYS if not isinstance(header, dict) or key not in header]
        if missing:
            raise LoadError(f"{path}: checkpoint header lacks {missing}")
        if header["format_version"] != 1:
            raise LoadError(f"{path}: unsupported checkpoint version {header['format_version']}")
        vocab = header["vocab"]
        if not isinstance(vocab, list) or not all(isinstance(token, str) for token in vocab):
            raise LoadError(f"{path}: header vocab is not a list of strings")
        if vocab_sha256(vocab) != header["vocab_sha256"]:
            raise LoadError(f"{path}: vocabulary hash mismatch")
        if not isinstance(header["tensors"], list):
            raise LoadError(f"{path}: header tensors is not a list of records")
        tensors: dict[str, Array] = {}
        for rec in header["tensors"]:
            try:
                name, shape = str(rec["name"]), tuple(int(s) for s in rec["shape"])
                if any(s < 0 for s in shape):
                    raise ValueError(shape)
            except (KeyError, TypeError, ValueError):
                raise LoadError(f"{path}: malformed tensor record {rec!r}") from None
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise LoadError(f"{path}: truncated tensor {name!r}")
            tensors[name] = np.frombuffer(buf, dtype=np.float64).reshape(shape).copy()
        if fh.read(1):
            raise LoadError(f"{path}: trailing bytes after the last tensor")
    return Checkpoint(
        kind=header["kind"],
        dims=header["dims"],
        vocab=vocab,
        tensors=tensors,
        meta=header.get("meta", {}),
        path=str(path),
    )
