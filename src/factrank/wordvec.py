"""Pretrained word vectors and the fixed (non-trainable) fact embedding.

A fact embeds as the concatenation of the averaged known-token word vectors
of its subject and of its object (zero if none is known; not the relation),
a vector of length ``2 * dim`` that never changes during training. The whole
knowledge base is embedded once, in passes of ``BUILD_CHUNK`` facts, into a
dense :class:`FactMatrix` whose rows are laid out relation bucket after
relation bucket, so ranking a bucket reads one contiguous block of rows.
Rows are float32, the precision word vectors are published in, which halves
the bytes each ranking pass reads; their norms are float64.
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
    "FactMatrix",
]

logger = logging.getLogger(__name__)

BUILD_CHUNK = 2048  # facts per pass of FactMatrix.build; bounds its (phrases x tokens x dim) gathers
NORM_RANGE = (2.0**-60, 2.0**60)  # nonzero row norms the bound of scorer.shortlist_rows' float32 screen assumes

Array = np.ndarray


class WordVectorTable:
    """token -> fixed dense vector, all of one dimension."""

    def __init__(self, dim: int, vectors: dict[str, Array] | None = None):
        self.dim = int(dim)
        self.vectors: dict[str, Array] = vectors or {}
        self.duplicate_count = 0
        self.oov_phrase_count = 0  # diagnostic: phrase occurrences that embedded to zero

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, token: str) -> Array:
        return self.vectors[token]


def load_vectors(path: str | Path, dim: int | None = None) -> WordVectorTable:
    """Load ``token v1 ... v_dim`` rows; wrong arity, a non-finite component or
    one beyond float32's finite range (fact rows are stored as float32), and
    a file with no rows are load errors. ``dim`` defaults to the first row's.

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
            if not (np.abs(vec) <= np.finfo(np.float32).max).all():  # NaN too
                raise LoadError(f"{path}:{lineno}: non-finite vector component, or one beyond float32's range")
            table.vectors[token] = vec
    if not table.vectors:
        raise LoadError(f"{path}: no word vectors")
    return table


@dataclass
class FactMatrix:
    """Dense (num_facts x 2*dim) embedding of a whole knowledge base.

    ``rows`` is float32; ``norms`` is float64, each the exact ``row_norms``
    of its stored row, and nonzero only inside ``NORM_RANGE``. :meth:`build`
    lays the rows out relation by relation, each in KB load order, so
    ``rows[buckets[r]]`` is relation ``r``'s bucket as a view."""

    fact_ids: list[str]
    rows: Array
    norms: Array
    row_of: dict[str, int]
    buckets: dict[Relation, slice] = field(default_factory=dict)

    @classmethod
    def from_rows(cls, fact_ids: list[str], rows: Array, buckets: dict[Relation, slice] | None = None) -> "FactMatrix":
        rows = np.asarray(rows, dtype=np.float32)
        norms = np.empty(len(rows))  # numerics.cosines' norms, upcasting a chunk of rows at a time
        for at in range(0, len(rows), BUILD_CHUNK):
            norms[at:at + BUILD_CHUNK] = row_norms(rows[at:at + BUILD_CHUNK])
        lo, hi = NORM_RANGE
        bad = np.flatnonzero((norms != 0.0) & ~((lo <= norms) & (norms <= hi)))
        if len(bad):
            fid, norm = fact_ids[bad[0]], norms[bad[0]]
            raise DegenerateInputError(f"fact {fid!r}: row norm {norm:.3g} outside [{lo:.3g}, {hi:.3g}]")
        return cls(fact_ids=list(fact_ids), rows=rows, norms=norms,
                   row_of={fid: i for i, fid in enumerate(fact_ids)}, buckets=buckets or {})

    @classmethod
    def build(cls, kb: KnowledgeBase, table: WordVectorTable) -> "FactMatrix":
        """Embed ``kb`` in passes of ``BUILD_CHUNK`` facts, bitwise the per-phrase ``np.mean`` cast to float32;
        a phrase with no tokens is degenerate. Fully out-of-vocabulary occurrences are counted and logged once."""
        facts: list[Fact] = []
        buckets = {}
        for relation in Relation:
            start = len(facts)
            facts += kb.facts_with_relation(relation)
            buckets[relation] = slice(start, len(facts))
        rows = np.zeros((len(facts), 2 * table.dim), dtype=np.float32)
        phrases = [p for f in facts for p in (f.subject, f.obj)]
        halves = rows.reshape(len(phrases), table.dim)  # a view: fact i's subject at 2i, its object at 2i + 1
        oov: list[str] = []
        for at in range(0, len(phrases), 2 * BUILD_CHUNK):
            oov += _embed_phrases(phrases[at:at + 2 * BUILD_CHUNK], table, halves[at:at + 2 * BUILD_CHUNK])
        matrix = cls.from_rows([f.fact_id for f in facts], rows, buckets)  # a rejected row norm counts nothing
        table.oov_phrase_count += len(oov)
        if oov:
            logger.warning("%d fully out-of-vocabulary phrases embed as zero, the first %r", len(oov), oov[0])
        return matrix

    @cached_property
    def twin_groups(self) -> Array:
        """Each row's group number, shared by bitwise-equal rows; computed once."""
        groups: dict[bytes, int] = {}
        return np.array([groups.setdefault(r.tobytes(), len(groups)) for r in self.rows], dtype=np.intp)

    @cached_property
    def bucket_ids(self) -> dict[Relation, list[str]]:
        return {relation: self.fact_ids[rows] for relation, rows in self.buckets.items()}  # so ranking copies none

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def row(self, fact_id: str) -> Array:
        return self.rows[self.row_of[fact_id]]


def _embed_phrases(phrases: list[str], table: WordVectorTable, out: Array) -> list[str]:
    """Write each phrase's known-token mean into its row of ``out``, one gather per token count; return
    the phrases with no known token, whose rows are left as they are."""
    token_ids: dict[str, int] = {}
    ids_of: dict[str, tuple[int, ...]] = {}
    groups: dict[int, list[int]] = {}
    for i, phrase in enumerate(phrases):
        if phrase not in ids_of:
            tokens = tokenize(phrase)
            if not tokens:
                raise DegenerateInputError(f"phrase {phrase!r} has no tokens")
            ids_of[phrase] = tuple([token_ids.setdefault(t, len(token_ids)) for t in tokens if t in table.vectors])
        groups.setdefault(len(ids_of[phrase]), []).append(i)
    vecs = np.array([table.vectors[t] for t in token_ids]).reshape(len(token_ids), table.dim)
    for count, members in groups.items():
        if count:
            out[members] = vecs[np.array([ids_of[phrases[i]] for i in members])].mean(axis=1)
    return [phrases[i] for i in groups.get(0, [])]
