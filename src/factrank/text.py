"""Shared text handling: phrase tokenization, and reading input files'
lines, where a byte that is not UTF-8 is a load error naming its line."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator

from .errors import LoadError

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
    that does not decode is a LoadError naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            # the text decodes in blocks, and ``exc`` places the byte in one: place it in the file
            text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
            line = text.count("\n", 0, re.search("[\udc80-\udcff]", text).start()) + 1
            raise LoadError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
