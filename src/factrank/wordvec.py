"""Pretrained word vectors and the fixed (non-trainable) fact embedding.

A fact embeds as the concatenation of the averaged word vectors of its
subject and of its object, giving a vector of length ``2 * dim`` that never
changes during training. The whole knowledge base is embedded once into a
dense :class:`FactMatrix` whose rows are laid out relation bucket after
relation bucket, so ranking a bucket reads one contiguous block of rows.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DegenerateInputError, LoadError
from .kb import Fact, KnowledgeBase, Relation
from .numerics import row_norms
from .text import tokenize  # re-exported: tokenization is part of this module's API

__all__ = [
    "tokenize",
    "WordVectorTable",
    "load_vectors",
    "phrase_embedding",
    "fact_embedding",
    "FactMatrix",
]

logger = logging.getLogger(__name__)

Array = np.ndarray


class WordVectorTable:
    """token -> fixed dense vector, all of one dimension."""

    def __init__(self, dim: int, vectors: dict[str, Array] | None = None):
        self.dim = int(dim)
        self.vectors: dict[str, Array] = vectors or {}
        self.duplicate_count = 0
        self.oov_phrase_count = 0  # diagnostic: phrases that embedded to zero

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __getitem__(self, token: str) -> Array:
        return self.vectors[token]


def load_vectors(path: str | Path, dim: int | None = None) -> WordVectorTable:
    """Load ``token v1 ... v_dim`` rows; wrong arity, a non-finite component
    and a file with no rows are load errors. ``dim`` defaults to the first row's.

    A repeated token overwrites the earlier row (last write wins) and is
    counted on the returned table.
    """
    path = Path(path)
    table = WordVectorTable(dim or 0)
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts:
                continue
            table.dim = table.dim or max(len(parts) - 1, 1)
            if len(parts) != table.dim + 1:
                raise LoadError(f"{path}:{lineno}: expected {table.dim + 1} fields, got {len(parts)}")
            token = parts[0]
            if token in table.vectors:
                table.duplicate_count += 1
                logger.warning("%s:%d: duplicate token %r, keeping the later row", path, lineno, token)
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError:
                raise LoadError(f"{path}:{lineno}: non-numeric vector component") from None
            if not np.isfinite(vec).all():
                raise LoadError(f"{path}:{lineno}: non-finite vector component")
            table.vectors[token] = vec
    if not table.vectors:
        raise LoadError(f"{path}: no word vectors")
    return table


def phrase_embedding(phrase: str, table: WordVectorTable) -> Array:
    """Mean vector of the phrase's in-vocabulary tokens.

    Out-of-vocabulary tokens are skipped; if every token is unknown the
    result is the zero vector and the table's OOV counter is bumped. A
    phrase with no tokens at all is degenerate.
    """
    tokens = tokenize(phrase)
    if not tokens:
        raise DegenerateInputError(f"phrase {phrase!r} has no tokens")
    known = [table.vectors[t] for t in tokens if t in table.vectors]
    if not known:
        table.oov_phrase_count += 1
        logger.warning("phrase %r is fully out of vocabulary", phrase)
        return np.zeros(table.dim)
    return np.mean(known, axis=0)


def fact_embedding(fact: Fact, table: WordVectorTable) -> Array:
    """Fixed fact vector: subject average concatenated with object average.

    The relation does not participate, so facts differing only in relation
    embed identically.
    """
    return np.concatenate([phrase_embedding(fact.subject, table), phrase_embedding(fact.obj, table)])


@dataclass
class FactMatrix:
    """Dense (num_facts x 2*dim) embedding of a whole knowledge base.

    :meth:`build` lays the rows out relation by relation, each in KB load
    order, so ``rows[buckets[r]]`` is relation ``r``'s bucket as a view."""

    fact_ids: list[str]
    rows: Array
    norms: Array
    row_of: dict[str, int]
    buckets: dict[Relation, slice] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, fact_ids: list[str], rows: Array, buckets: dict[Relation, slice] | None = None) -> "FactMatrix":
        # numerics.cosines' norms: cached and fresh scores agree bitwise
        return cls(fact_ids=list(fact_ids), rows=rows, norms=row_norms(rows),
                   row_of={fid: i for i, fid in enumerate(fact_ids)}, buckets=buckets or {})

    @classmethod
    def build(cls, kb: KnowledgeBase, table: WordVectorTable) -> "FactMatrix":
        facts: list[Fact] = []
        buckets = {}
        for relation in Relation:
            start = len(facts)
            facts += kb.facts_with_relation(relation)
            buckets[relation] = slice(start, len(facts))
        rows = np.zeros((len(facts), 2 * table.dim))
        for i, f in enumerate(facts):
            rows[i] = fact_embedding(f, table)
        return cls.from_rows([f.fact_id for f in facts], rows, buckets)

    @cached_property
    def twin_groups(self) -> Array:
        """Each row's group number, shared by bitwise-equal rows; computed once."""
        groups: dict[bytes, int] = {}
        return np.array([groups.setdefault(r.tobytes(), len(groups)) for r in self.rows], dtype=np.intp)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def row(self, fact_id: str) -> Array:
        return self.rows[self.row_of[fact_id]]
