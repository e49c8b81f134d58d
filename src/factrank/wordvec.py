"""Pretrained word vectors and the fixed (non-trainable) fact embedding.

A fact embeds as the concatenation of the averaged known-token word vectors
of its subject and of its object (zero if none is known; not the relation),
a vector of length ``2 * dim`` that never changes during training. The whole
knowledge base is embedded once into a dense :class:`FactMatrix`, from its
columns: the KB's token list is mapped to word vectors once, and each pass
of ``BUILD_CHUNK`` facts takes the mean of each of its distinct phrases'
known tokens, one gather per known-token count. Rows are in the KB's own
relation-bucket order, so ranking a bucket reads one contiguous block of
rows, and the matrix names them by the KB's ids, without a copy. Rows are
float32, the precision word vectors are published in, which halves the
bytes each ranking pass reads; their norms are float64.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateInputError, LoadError
from .kb import KnowledgeBase
from .numerics import row_norms
from .text import read_lines, tokenize  # tokenize is re-exported: tokenization is part of this module's API

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
    for lineno, raw in read_lines(path):
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
    of its stored row, and nonzero only inside ``NORM_RANGE``. Row ``i`` is
    fact ``fact_ids[i]`` and ``row_of`` maps an id to its row. A matrix that
    :meth:`build` made shares both with its KB, whose ``buckets`` then slice
    the rows, relation by relation."""

    fact_ids: list[str]
    rows: Array
    row_of: dict[str, int]
    norms: Array = field(init=False)

    def __post_init__(self):
        self.norms = np.empty(len(self.rows))  # numerics.cosines' norms, upcasting a chunk of rows at a time
        for at in range(0, len(self.rows), BUILD_CHUNK):
            self.norms[at:at + BUILD_CHUNK] = row_norms(self.rows[at:at + BUILD_CHUNK])
        lo, hi = NORM_RANGE
        bad = np.flatnonzero((self.norms != 0.0) & ~((lo <= self.norms) & (self.norms <= hi)))
        if len(bad):
            fid, norm = self.fact_ids[bad[0]], self.norms[bad[0]]
            raise DegenerateInputError(f"fact {fid!r}: row norm {norm:.3g} outside [{lo:.3g}, {hi:.3g}]")

    @classmethod
    def from_rows(cls, fact_ids: list[str], rows: Array) -> "FactMatrix":
        fact_ids = list(fact_ids)
        return cls(fact_ids, np.asarray(rows, dtype=np.float32), dict(zip(fact_ids, range(len(fact_ids)))))

    @classmethod
    def build(cls, kb: KnowledgeBase, table: WordVectorTable) -> "FactMatrix":
        """Embed ``kb`` in passes of ``BUILD_CHUNK`` facts, bitwise the per-phrase ``np.mean`` cast to float32.
        Fully out-of-vocabulary occurrences are counted and logged once."""
        known = np.array([t in table.vectors for t in kb.tokens], dtype=bool)
        vecs = np.array([table.vectors[t] for t in compress(kb.tokens, known)]).reshape(-1, table.dim)
        keep = known[kb.phrase_tokens]
        vec_of = (np.cumsum(known) - 1)[kb.phrase_tokens[keep]]  # each phrase's known tokens' rows of vecs, in turn
        at_known = np.concatenate(([0], np.cumsum(keep)))[kb.phrase_starts]
        first, count = at_known[:-1], np.diff(at_known)  # per phrase: its first entry of vec_of, and how many
        codes = np.stack([kb.subjects, kb.objects], axis=1).ravel()  # fact i's subject at 2i, its object at 2i + 1
        rows = np.zeros((len(kb), 2 * table.dim), dtype=np.float32)
        halves = rows.reshape(len(codes), table.dim)  # a view, in the order of codes
        for at in range(0, len(codes), 2 * BUILD_CHUNK):
            phrases, where = np.unique(codes[at:at + 2 * BUILD_CHUNK], return_inverse=True)
            means, known_count = np.zeros((len(phrases), table.dim)), count[phrases]
            for n in np.unique(known_count[known_count > 0]).tolist():
                group = known_count == n
                means[group] = vecs[vec_of[first[phrases[group]][:, None] + np.arange(n)]].mean(axis=1)
            halves[at:at + 2 * BUILD_CHUNK] = means[where]
        oov = np.flatnonzero(count[codes] == 0)
        matrix = cls(kb.ids, rows, kb.position)  # a rejected row norm counts nothing
        table.oov_phrase_count += len(oov)
        if len(oov):
            logger.warning("%d fully out-of-vocabulary phrases embed as zero, the first %r", len(oov),
                           kb.phrases[codes[oov[0]]])
        return matrix

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

    def check_built_from(self, kb: KnowledgeBase) -> None:
        """A DataError unless :meth:`build` made this matrix from ``kb``, so its rows are ``kb``'s rows."""
        if self.fact_ids is not kb.ids:
            raise DataError(f"the fact matrix ({len(self.fact_ids)} rows) was not built from this knowledge base "
                            f"({len(kb)} facts)")

