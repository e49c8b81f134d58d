"""Pretrained word vectors and the fixed (non-trainable) fact embedding.

A :class:`WordVectorTable` is columns, as the KB is: its tokens are a
:class:`text.Names`, the sorted byte column that holds the KB's fact ids too,
beside one float64 matrix, cached beside its file. A later run reads the
matrix's rows from that cache (:class:`text.RowReader`), and only to embed
a KB whose fact matrix is not cached. A fact embeds
as the concatenation of the averaged known-token word vectors of its subject
and of its object (zero if none is known; not the relation), a vector of
length ``2 * dim`` that never changes during training. The whole knowledge
base is embedded into a dense :class:`FactMatrix`, from its columns: the
KB's token list is mapped to word vectors once, and each pass of
``BUILD_CHUNK`` facts takes the mean of each of its distinct phrases' known
tokens, one gather per known-token count. A KB parsed from a file caches
the rows, their norms and its fully out-of-vocabulary phrase codes beside it
(:func:`text.cached`), keyed by its own cache's and the table's checksums,
so a later run with the same inputs maps the rows read-only instead of
embedding them again, and reads no word vector and no KB token.
Rows are in the KB's own relation-bucket order, so ranking a bucket reads
one contiguous block of rows, and a ranked row is the KB's row of the same
number: the matrix shares the KB's ids, without a copy, and the KB reads a
row's answer. Rows are float32, the precision word vectors are published in,
which halves the bytes each ranking pass reads; their norms are float64.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DataError, DegenerateInputError, LoadError
from .kb import KnowledgeBase
from .numerics import row_norms
from .text import Names, RowReader, cached, digest, read_lines, sort_names

logger = logging.getLogger(__name__)

BUILD_CHUNK = 2048  # facts per pass of FactMatrix.build; bounds its (phrases x tokens x dim) gathers
NORM_RANGE = (2.0**-60, 2.0**60)  # nonzero row norms the bound of scorer.shortlist_rows' float32 screen assumes

Array = np.ndarray


class WordVectorTable:
    """token -> fixed dense vector, all of one dimension: ``tokens`` a :class:`text.Names` (UTF-8, no NUL) whose
    rows are the rows of the float64 ``matrix`` (an array, or a :class:`text.RowReader` of a cache), so
    ``tokens.rows`` finds tokens' vectors, -1 for one not here. ``checksum`` names the vectors: a loaded table's is
    its cache's key, and one built in memory digests its columns on first use, so they are not to change after."""

    def __init__(self, tokens: Names, matrix: Array | RowReader, duplicate_count: int = 0, checksum: str = ""):
        self.tokens, self.matrix, self.duplicate_count, self.dim = tokens, matrix, duplicate_count, matrix.shape[1]
        if checksum:
            self.checksum = checksum

    @cached_property
    def checksum(self) -> str:
        return digest((self.tokens.column, self.tokens.sorted_rows, self.matrix))


def load_vectors(path: str | Path, dim: int | None = None) -> WordVectorTable:
    """Load ``token v1 ... v_dim`` rows; wrong arity, a token holding a NUL byte, a non-finite component or one
    beyond float32's finite range (fact rows are float32), and a file with no rows are load errors. ``dim``
    defaults to the first row's. A repeated token overwrites the earlier row (last write wins) and is counted. A
    hit of the cache beside the file reads the matrix by row; one not ``dim`` wide raises the parse's LoadError."""
    path = Path(path)

    def parse(dim=dim) -> dict[str, Array]:
        at: dict[str, int] = {}  # each distinct token's row of the values, in first-seen order
        values, duplicates = array("d"), 0
        for lineno, raw in read_lines(path):
            parts = raw.split()
            if not parts:
                continue
            dim = dim or max(len(parts) - 1, 1)
            if len(parts) != dim + 1:
                raise LoadError(f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}")
            token = parts[0]
            if "\0" in token:
                raise LoadError(f"{path}:{lineno}: token {token!r} holds a NUL byte")
            if token in at:
                duplicates += 1
                logger.warning("%s:%d: duplicate token %r, keeping the later row", path, lineno, token)
            try:
                vec = np.array(parts[1:], dtype=np.float64)
            except ValueError:
                raise LoadError(f"{path}:{lineno}: non-numeric vector component") from None
            if not (np.abs(vec) <= np.finfo(np.float32).max).all():  # NaN too
                raise LoadError(f"{path}:{lineno}: non-finite vector component, or one beyond float32's range")
            row = at.setdefault(token, len(at))
            values[row * dim:(row + 1) * dim] = array("d", vec.tobytes())
        if not at:
            raise LoadError(f"{path}: no word vectors")
        tokens, rows = sort_names(at)
        return {"tokens": tokens, "rows": rows, "matrix": np.frombuffer(values).reshape(len(at), dim),
                "duplicate_count": np.int64(duplicates)}

    def table(arrays) -> WordVectorTable:
        tokens, matrix = Names(arrays["tokens"], arrays["rows"], "token"), arrays["matrix"]
        if (matrix.dtype, len(matrix.shape), len(matrix)) != (np.float64, 2, len(tokens)):
            raise ValueError("the word vectors are not float64 rows, one for each token")
        return WordVectorTable(tokens, matrix, int(arrays["duplicate_count"]), str(arrays["checksum"]))

    vectors = cached(path, "word vector", parse, table, by_row=("matrix",))
    if dim and dim != vectors.dim:  # only a hit can be of another width: the parse names the first such row
        parse()
    return vectors


def _chunked_norms(rows: Array) -> Array:
    """numerics.cosines' norms of ``rows``, upcasting ``BUILD_CHUNK`` rows at a time."""
    norms = np.empty(len(rows))
    for at in range(0, len(rows), BUILD_CHUNK):
        norms[at:at + BUILD_CHUNK] = row_norms(rows[at:at + BUILD_CHUNK])
    return norms


@dataclass
class FactMatrix:
    """Dense (num_facts x 2*dim) embedding of a whole knowledge base.

    ``rows`` is float32; ``norms`` is float64, each the exact ``row_norms``
    of its stored row (computed unless given, as a cache hit gives the ones
    stored with the rows), and nonzero only inside ``NORM_RANGE``, which is
    checked either way. Row ``i`` is
    fact ``fact_ids[i]``: ``fact_ids`` is a :class:`~factrank.text.Names`, a
    sorted byte column decoded only as a fact is named, whose ``rank`` breaks
    ranking ties by id, and whose :meth:`~factrank.text.Names.row` finds an
    id's row, with no dict. A matrix that :meth:`build` made shares its ids
    with its KB, whose ``buckets`` then slice the rows, relation by relation,
    and ``oov_phrase_count`` counts its phrase occurrences that embed as zero."""

    fact_ids: Names
    rows: Array
    norms: Array | None = None
    oov_phrase_count: int = 0

    def __post_init__(self):
        if self.norms is None:
            self.norms = _chunked_norms(self.rows)
        lo, hi = NORM_RANGE
        bad = np.flatnonzero((self.norms != 0.0) & ~((lo <= self.norms) & (self.norms <= hi)))
        if len(bad):
            fid, norm = self.fact_ids[bad[0]], self.norms[bad[0]]
            raise DegenerateInputError(f"fact {fid!r}: row norm {norm:.3g} outside [{lo:.3g}, {hi:.3g}]")

    @classmethod
    def build(cls, kb: KnowledgeBase, table: WordVectorTable) -> "FactMatrix":
        """Embed ``kb`` in passes of ``BUILD_CHUNK`` facts, bitwise the per-phrase ``np.mean`` cast to float32.
        A KB parsed from a file caches the rows, the norms and the phrase codes of the fully out-of-vocabulary
        fact halves beside it, keyed by its own cache's checksum and the table's, and a hit maps the rows
        read-only, reading no word vector and looking up no token. The matrix counts those halves, logged once."""

        def embed() -> dict[str, Array]:
            known = (found := table.tokens.rows(kb.tokens)) >= 0
            keep = known[kb.phrase_tokens]
            at_known = np.concatenate(([0], np.cumsum(keep)))[kb.phrase_starts]
            first, count = at_known[:-1], np.diff(at_known)  # per phrase: its first entry of vec_of, and how many
            codes = np.stack([kb.subjects, kb.objects], axis=1).ravel()  # fact i's subject at 2i, object at 2i + 1
            vecs = table.matrix[found[known]]  # each known token's vector, read once
            vec_of = (np.cumsum(known) - 1)[kb.phrase_tokens[keep]]  # each phrase's known tokens' rows of vecs
            rows = np.zeros((len(kb), 2 * table.dim), dtype=np.float32)
            halves = rows.reshape(len(codes), table.dim)  # a view, in the order of codes
            for at in range(0, len(codes), 2 * BUILD_CHUNK):
                phrases, where = np.unique(codes[at:at + 2 * BUILD_CHUNK], return_inverse=True)
                means, known_count = np.zeros((len(phrases), table.dim)), count[phrases]
                for n in np.unique(known_count[known_count > 0]).tolist():
                    group = known_count == n
                    means[group] = vecs[vec_of[first[phrases[group]][:, None] + np.arange(n)]].mean(axis=1)
                halves[at:at + 2 * BUILD_CHUNK] = means[where]
            return {"rows": rows, "oov": codes[count[codes] == 0], "norms": _chunked_norms(rows)}

        def matrix(arrays) -> FactMatrix:
            rows, norms, oov = arrays["rows"], arrays["norms"], arrays["oov"]
            if (rows.dtype, rows.shape, norms.dtype, norms.shape) != (np.float32, (len(kb), 2 * table.dim),
                                                                      np.float64, (len(kb),)):
                raise ValueError("rows or norms of the wrong type or shape")
            if oov.ndim != 1 or oov.dtype.kind not in "iu" or not ((0 <= oov) & (oov < len(kb.text_starts) - 1)).all():
                raise ValueError("out-of-vocabulary codes that are not phrase codes of this knowledge base")
            fm = cls(kb.ids, rows, norms, len(oov))
            if len(oov):
                logger.warning("%d fully out-of-vocabulary phrases embed as zero, the first %r", len(oov),
                               kb.phrase(oov[0]))
            return fm

        if kb.path is None:
            return matrix(embed())
        return cached(kb.path.with_name(kb.path.name + ".facts"), "fact matrix", embed, matrix,
                      f"{kb.checksum} {table.checksum}", ("rows",))

    @cached_property
    def twin_groups(self) -> Array:
        """Each row's group number, shared by bitwise-equal rows and numbered in order of each group's first
        row; computed once. Rows are hashed ``BUILD_CHUNK`` at a time and compared bytewise only within a run of
        equal hashes, so beside the result it holds a few integers per row, never a copy of the rows."""
        n = len(self.rows)
        hashes = np.empty(n, dtype=np.uint64)
        for at in range(0, n, BUILD_CHUNK):
            hashes[at:at + BUILD_CHUNK] = _row_hashes(self.rows[at:at + BUILD_CHUNK])
        order = np.argsort(hashes, kind="stable")  # each run of equal hashes in row order
        new_run = np.flatnonzero(np.diff(hashes[order])) + 1
        starts, ends = np.r_[0, new_run], np.r_[new_run, n]
        first, shared = np.arange(n), ends - starts > 1  # each row's first bitwise-equal row
        for start, end in zip(starts[shared].tolist(), ends[shared].tolist()):
            seen: dict[bytes, int] = {}
            for row in order[start:end].tolist():
                first[row] = seen.setdefault(self.rows[row].tobytes(), row)
        return (np.cumsum(first == np.arange(n)) - 1)[first]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def row(self, fact_id: str) -> Array:
        return self.rows[self.fact_ids.row(fact_id)]

    def check_built_from(self, kb: KnowledgeBase) -> None:
        """A DataError unless :meth:`build` made this matrix from ``kb``, so its rows are ``kb``'s rows."""
        if self.fact_ids is not kb.ids:
            raise DataError(f"the fact matrix ({len(self.fact_ids)} rows) was not built from this knowledge base "
                            f"({len(kb)} facts)")


def _row_hashes(rows: Array) -> Array:
    """A 64-bit hash of each float32 row's bits, so 0.0 and -0.0 differ: the sum of its 32-bit words, each
    times an odd weight, mod 2**64."""
    weights = np.arange(1, 2 * rows.shape[1], 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (rows.view(np.uint32) * weights).sum(axis=1, dtype=np.uint64)
