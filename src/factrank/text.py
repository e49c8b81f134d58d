"""Shared file handling: phrase tokenization; reading input files' lines,
where a byte that is not UTF-8 is a load error naming its line;
:func:`write_atomic`, the one writer of every file the package writes, so
no reader sees a partial one; and :func:`cached`, the one checksum-keyed
cache beside an input file of the arrays its loader parsed, which the
feature and knowledge-base loaders share: each builds its value from
those arrays by one function, on a cache hit and after a parse alike."""

from __future__ import annotations

import hashlib
import logging
import os
import re
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from .errors import LoadError

logger = logging.getLogger(__name__)
CACHE_FORMAT = "factrank-cache-5"  # in every cache's key: one laid out by an older version is stale

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(phrase: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation, dropping empties.

    Hyphens separate tokens; digit runs are kept verbatim.
    """
    return _TOKEN.findall(phrase.lower())


def normalize_phrase(phrase: str) -> str:
    """Canonical matching form: lowercased tokens joined by single spaces."""
    return " ".join(tokenize(phrase))


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of a UTF-8 text file, numbered from 1; a byte
    order mark that starts the file is dropped, so it is no part of the first
    line, and a byte that does not decode is a LoadError naming ``path:line``."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            # the text decodes in blocks, and ``exc`` places the byte in one: place it in the file
            text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
            line = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
            raise LoadError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on the binary file ``<name>.<pid>.tmp`` beside ``path``, then rename it over ``path``.
    On any failure the temporary file is deleted and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write ``lines`` as UTF-8 text, each ended by a newline, through :func:`write_atomic`."""
    write_atomic(path, lambda fh: fh.write(("\n".join(lines) + "\n").encode("utf-8")))


def cached(path: Path, what: str, parse: Callable, build: Callable):
    """``build`` of the arrays that ``parse(path)`` returns, read from the cache ``<name>.cache.npz`` beside
    the file at ``path`` while it holds them. The key is the file's SHA-256 and ``CACHE_FORMAT``. ``build``
    runs on a cache hit and after a parse alike, so both make their value by the same code. A cache that is
    stale, unreadable or that ``build`` rejects by raising is named in a warning, and the file is parsed and
    the cache rewritten through :func:`write_atomic`."""
    cache, digest = path.with_name(path.name + ".cache.npz"), hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    key = f"{digest.hexdigest()} {CACHE_FORMAT}"
    if cache.exists():
        try:
            with np.load(cache, allow_pickle=False) as data:
                if str(data["checksum"]) == key:
                    return build(data)
            logger.warning("rebuilding stale %s cache %s", what, cache)
        except Exception as exc:  # corrupt bytes or failed checks
            logger.warning("ignoring unreadable %s cache %s (%s)", what, cache, exc)
    arrays = parse(path)
    try:
        write_atomic(cache, lambda fh: np.savez(fh, checksum=np.str_(key), **arrays))
    except OSError:
        logger.warning("could not write %s cache %s", what, cache)
    return build(arrays)
