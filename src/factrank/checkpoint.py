"""Versioned container of named float64 tensors: the npz that the caches use.

A ``header`` member holds JSON of :data:`FORMAT`, the model kind, its
dimension table, the token vocabulary and free-form run metadata; each
tensor is a member of its own. The zip container's CRC-32 on every member
and its central directory catch a truncated or corrupted file, so the
loader checks only what a well-formed file can still get wrong. Writes are
atomic (:func:`text.write_atomic`) and deterministic for identical inputs,
since savez stamps every member 1980-01-01.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LoadError
from .text import write_atomic

FORMAT = "factrank-checkpoint-2"  # an older layout, or none, is not a readable checkpoint
_HEADER_KEYS = ("format", "kind", "dims", "vocab", "meta")

Array = np.ndarray


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


def rate(value) -> float:
    """``value`` as a float in [0, 1), a dropout rate's range; a ValueError otherwise, NaN too."""
    if not 0.0 <= (value := float(value)) < 1.0:
        raise ValueError(f"{value} is not in [0, 1)")
    return value


def save_checkpoint(
    path: str | Path,
    kind: str,
    dims: dict,
    vocab: list[str],
    tensors: dict[str, Array],
    meta: dict | None = None,
) -> None:
    header = {"format": FORMAT, "kind": kind, "dims": dims, "vocab": vocab, "meta": meta or {}}
    arrays = {name: np.asarray(arr, dtype=np.float64, order="C") for name, arr in tensors.items()}
    blob = np.str_(json.dumps(header, sort_keys=True))
    write_atomic(path, lambda fh: np.savez(fh, header=blob, **arrays))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint; LoadError naming the file unless it is well-formed and its header and tensors valid."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh) as data:  # a zip only; np.load tries .npy and pickle too
            header = json.loads(str(data["header"]))
            tensors = {name: data[name] for name in data.files if name != "header"}
    except Exception as exc:  # not a zip, truncated, a bad CRC, no header member, a header that is not JSON
        raise LoadError(f"{path}: not a readable checkpoint ({exc})") from None
    missing = [key for key in _HEADER_KEYS if not isinstance(header, dict) or key not in header]
    if missing:
        raise LoadError(f"{path}: checkpoint header lacks {missing}")
    if header["format"] != FORMAT:
        raise LoadError(f"{path}: unsupported checkpoint format {header['format']!r}")
    vocab = header["vocab"]
    if not isinstance(vocab, list) or not all(isinstance(token, str) for token in vocab):
        raise LoadError(f"{path}: header vocab is not a list of strings")
    for name, arr in tensors.items():
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise LoadError(f"{path}: tensor {name!r} is not a float64 array")
    return Checkpoint(header["kind"], header["dims"], vocab, tensors, header["meta"], str(path))
