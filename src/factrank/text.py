"""Shared phrase tokenization."""

from __future__ import annotations

import re

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(phrase: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation, dropping empties.

    Hyphens separate tokens; digit runs are kept verbatim.
    """
    return _TOKEN.findall(phrase.lower())


def has_token(phrase: str) -> bool:
    """``bool(tokenize(phrase))``, without building the token list."""
    return _TOKEN.search(phrase.lower()) is not None


def normalize_phrase(phrase: str) -> str:
    """Canonical matching form: lowercased tokens joined by single spaces."""
    return " ".join(tokenize(phrase))
