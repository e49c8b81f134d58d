"""Image-question embedding network and cosine ranking of candidate facts.

The network projects the image feature to 64 dims, encodes the question
with an LSTM (hidden 128), pushes their concatenation through a two-layer
perceptron (256 then 128), late-fuses a 128-dim projection of the visual
concept vector, and emits a 200-dim vector matching the fact-embedding
length. Every affine layer is tanh-activated except the final fusion
layer, which stays linear. A fact's score is the cosine between its fixed
embedding and this vector.

The network keeps its tensors in one dict, named and shaped by
:meth:`ScorerParams.shapes`; initialization, the checkpoint writer and the
checkpoint loader all follow that table.

Ranking is exact and runs in one kernel, :func:`shortlist_rows`. It
screens the float32 fact rows (a relation bucket of the
:class:`~factrank.wordvec.FactMatrix`, or the whole KB) against a block of
queries one cache-sized block of rows at a time, each by one float32 GEMM.
It keeps every row within a derived rounding bound of the query's running
k-th best screen score, and rescores only that shortlist, in float64, by
the exact ``numerics.cosines`` of :func:`score`.
:func:`rank_rows` orders each shortlist by one ``np.lexsort`` on ``(-score,
id rank)``, the integer rank of each row's fact id in sorted-id order
(``kb.FactIds.rank``), so the top k is bitwise that of an exhaustive
float64 sort of the stored rows on ``(-score, fact id)``, and no id is
decoded to rank. It is the one top-k order of the package, and the one
caller of :func:`shortlist_rows`: inference, held-out precision and
hard-negative mining all rank through it, and it returns rows of the fact
matrix with their scores, which its callers name only as they need.
No path upcasts a bucket or the whole matrix. :func:`rank_candidates`,
:func:`candidate_scores` and :func:`score_matrix` run the same arithmetic
but have no caller in the package: they stay only as the benchmark's
traced calls and its exhaustive oracle.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import checkpoint as ckpt
from .encoders import Vocabulary, eval_rows, init_tensors, lstm_hidden, lstm_shapes, read_model_checkpoint
from .errors import DataError, DegenerateInputError, ShapeError, UsageError
from .numerics import Tape, Tensor, constant, cosines, row_norms
from .wordvec import BUILD_CHUNK, FactMatrix

Array = np.ndarray

NEG_INF = float("-inf")
EMBED_CHUNK = 256  # pairs per evaluation-mode forward pass of embed_batch


class Variant(str, enum.Enum):
    """Which scorer inputs are live; masked inputs are zeroed at train and eval."""

    Q_I = "q+i"
    Q_VC = "q+vc"
    Q_I_VC = "q+i+vc"

    @property
    def use_image(self) -> bool:
        return self in (Variant.Q_I, Variant.Q_I_VC)

    @property
    def use_concepts(self) -> bool:
        return self in (Variant.Q_VC, Variant.Q_I_VC)


@dataclass
class ScorerDims:
    image_dim: int = 2048
    image_proj: int = 64
    question_embed: int = 128
    question_hidden: int = 128
    mlp1: int = 256
    mlp2: int = 128
    concept_dim: int = 1176
    concept_proj: int = 128
    output_dim: int = 200


@dataclass
class ScorerParams:
    dims: ScorerDims
    vocab: Vocabulary
    tensors: dict[str, Tensor]
    dropout: float = 0.5
    variant: Variant = Variant.Q_I_VC

    @staticmethod
    def shapes(dims: ScorerDims, vocab_size: int) -> dict[str, tuple[int, ...]]:
        """Tensor names and shapes, in initialization and checkpoint order."""
        shapes = lstm_shapes(vocab_size, dims.question_embed, dims.question_hidden)
        shapes.update(
            w_img=(dims.image_dim, dims.image_proj),
            b_img=(dims.image_proj,),
            w_mlp1=(dims.image_proj + dims.question_hidden, dims.mlp1),
            b_mlp1=(dims.mlp1,),
            w_mlp2=(dims.mlp1, dims.mlp2),
            b_mlp2=(dims.mlp2,),
            w_con=(dims.concept_dim, dims.concept_proj),
            b_con=(dims.concept_proj,),
            w_fuse=(dims.mlp2 + dims.concept_proj, dims.output_dim),
            b_fuse=(dims.output_dim,),
        )
        return shapes

    @classmethod
    def init(
        cls,
        vocab: Vocabulary,
        rng: np.random.Generator,
        dims: ScorerDims | None = None,
        dropout: float = 0.5,
        variant: Variant = Variant.Q_I_VC,
    ) -> "ScorerParams":
        d = dims or ScorerDims()
        return cls(d, vocab, init_tensors(rng, cls.shapes(d, len(vocab))), dropout, variant)


def _masked_inputs(params: ScorerParams, feats: Array, concepts: Array) -> tuple[Array, Array]:
    # the one cast of the rows the store holds, its float32 features and 0/1 bool concepts, to the parameters'
    # dtype a stacked batch at a time: float32 in training (encoders.fit), float64 for inference
    feats, concepts = (np.asarray(a, dtype=params.tensors["w_img"].values.dtype) for a in (feats, concepts))
    if feats.shape[-1] != params.dims.image_dim:
        raise ShapeError(f"image feature length {feats.shape[-1]} != {params.dims.image_dim}")
    if concepts.shape[-1] != params.dims.concept_dim:
        raise ShapeError(f"concept vector length {concepts.shape[-1]} != {params.dims.concept_dim}")
    if not params.variant.use_image:
        feats = np.zeros_like(feats)
    if not params.variant.use_concepts:
        concepts = np.zeros_like(concepts)
    return feats, concepts


def iq_embedding_batch(
    tape: Tape,
    params: ScorerParams,
    feats: Array,
    concepts: Array,
    ids: Array,
    lengths: Array,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """(batch, output_dim) image-question embeddings on the given tape;
    given a generator, dropout hits the first perceptron layer. The LSTM
    never drops words."""
    feats, concepts = _masked_inputs(params, feats, concepts)
    w = params.tensors
    img = tape.tanh(tape.add(tape.matmul(constant(feats), w["w_img"]), w["b_img"]))
    q = lstm_hidden(tape, w, ids, lengths)
    m1 = tape.tanh(tape.add(tape.matmul(tape.concat([img, q]), w["w_mlp1"]), w["b_mlp1"]))
    m1 = tape.dropout(m1, params.dropout, rng)
    m2 = tape.tanh(tape.add(tape.matmul(m1, w["w_mlp2"]), w["b_mlp2"]))
    con = tape.tanh(tape.add(tape.matmul(constant(concepts), w["w_con"]), w["b_con"]))
    return tape.add(tape.matmul(tape.concat([m2, con]), w["w_fuse"]), w["b_fuse"])


def embed_image_question(params: ScorerParams, feat: Array, concepts: Array, question: str) -> Array:
    """Evaluation-mode embedding of one (image, question) pair."""
    return embed_batch(params, np.asarray(feat)[None, :], np.asarray(concepts)[None, :], [question])[0]


def embed_batch(params: ScorerParams, feats: Array, concepts: Array, questions: Sequence[str]) -> Array:
    """Evaluation-mode embeddings for many pairs, by ``encoders.eval_rows``, so
    a row's rounding can depend on its chunk. A row with a non-finite norm,
    such as a diverged scorer gives, cannot be ranked and is an error."""
    out = eval_rows(params.vocab, questions, EMBED_CHUNK, params.dims.output_dim, lambda tape, rows, ids, lengths:
                    iq_embedding_batch(tape, params, feats[rows], concepts[rows], ids, lengths))
    if len(bad := np.flatnonzero(~np.isfinite(np.linalg.norm(out, axis=1)))):
        raise DegenerateInputError(f"the scorer gave a non-finite embedding for pair {bad[0]} of {len(out)}")
    return out


# ----------------------------------------------------------------------
# scoring and ranking
# ----------------------------------------------------------------------


def score(fact_emb: Array, iq_emb: Array) -> float:
    """Cosine between a fact embedding and an image-question embedding.

    A zero-norm side yields the ``-inf`` sentinel so degenerate candidates
    sort below every real one instead of producing NaN.
    """
    fact_emb = np.asarray(fact_emb, dtype=np.float64)
    iq_emb = np.asarray(iq_emb, dtype=np.float64)
    if fact_emb.shape != iq_emb.shape or fact_emb.ndim != 1:
        raise ShapeError(f"score needs matching vectors, got {fact_emb.shape} and {iq_emb.shape}")
    return float(cosines(fact_emb, row_norms(fact_emb), iq_emb, row_norms(iq_emb)))


def candidate_scores(iq_emb: Array, candidate_ids: Sequence[str], fact_matrix: FactMatrix) -> Array:
    """Per-candidate cosine scores, by the arithmetic of :func:`score`, so
    exhaustive and ranked paths agree bitwise."""
    rows = [fact_matrix.fact_ids.row(fid) for fid in candidate_ids]
    iq = np.asarray(iq_emb, dtype=np.float64)[None, :]
    return _exact_cosines(iq, fact_matrix.rows[rows], fact_matrix.norms[rows])[0]


def rank_candidates(iq_emb: Array, candidate_ids: Sequence[str], fact_matrix: FactMatrix,
                    k: int) -> list[tuple[str, float]]:
    """Top-k (fact id, score) of any candidate list, highest first; equal
    scores go by fact id."""
    if not candidate_ids:
        raise UsageError("rank needs at least one candidate")
    ids = list(candidate_ids)
    rows = [fact_matrix.fact_ids.row(fid) for fid in ids]
    iq = np.asarray(iq_emb, dtype=np.float64)[None, :]
    [(top, scores)] = rank_rows(iq, fact_matrix.rows[rows], fact_matrix.norms[rows],
                                fact_matrix.fact_ids.rank[rows], k)
    return [(ids[i], s) for i, s in zip(top.tolist(), scores.tolist())]


def score_matrix(iq_mat: Array, fact_matrix: FactMatrix) -> Array:
    """(pairs, facts) cosine scores, bitwise :func:`candidate_scores` of
    every fact. Zero-norm fact rows score ``-inf``; a zero-norm embedding row
    is an error."""
    iq_mat = np.asarray(iq_mat, dtype=np.float64)
    if np.any(row_norms(iq_mat) == 0.0):
        raise UsageError("score_matrix got a zero-norm embedding row")
    return _exact_cosines(iq_mat, fact_matrix.rows, fact_matrix.norms)


def _exact_cosines(iq_block: Array, rows: Array, norms: Array) -> Array:
    # numerics.cosines of every (query, row) pair, upcasting BUILD_CHUNK rows at a time (one empty chunk if none)
    qnorms = row_norms(iq_block)[:, None]
    return np.concatenate([cosines(rows[at:at + BUILD_CHUNK], norms[at:at + BUILD_CHUNK], iq_block[:, None], qnorms)
                           for at in range(0, max(len(rows), 1), BUILD_CHUNK)], axis=1)


# A block holds at most this many float32 (row, query) screen scores, 1 MB,
# so it stays in L2 cache through the scale, the compare and the nonzero.
BLOCK_ELEMENTS = 1 << 18


def shortlist_rows(iq_block: Array, rows: Array, norms: Array, k: int) -> list[tuple[Array, Array]]:
    """Each query's rows of ``rows`` that can be in its exact top ``k``, as
    ``(rows, scores)`` arrays in row order. Each block of the float32 rows is
    screened by one float32 GEMM, ``rows[block] @ unit_t``; a query keeps the
    rows within ``slack`` of its running k-th best screen score, and only
    those are rescored exactly, in float64, by ``numerics.cosines`` on the
    stored values. Blocks are partitioned only until every query has k finite
    screen scores; after that a block is one compare against the running
    k-th best and a ``nonzero``, and the k-th best moves only on the block's
    finite survivors above it. Nonzero ``norms`` must lie in
    ``wordvec.NORM_RANGE``, as a :class:`FactMatrix`'s do."""
    # The screen of query x and stored row y (length d) is g = fl32(fl32(v . y)
    # * fl32(1 / n_y)), v = fl32(x / n_x). With u = 2**-24, v is x / |x| within
    # u relatively and 2**-150 absolutely (underflow); the float32 dot adds, in
    # any summation order, gamma_d sum|v_i y_i| ~ d u |y| (Higham, Accuracy and
    # Stability of Numerical Algorithms, 3.1) and d 2**-150 from products that
    # underflow; 1 / n_y and the product add 2u, as |cos| <= 1. The float64
    # terms, O(d eps64), stay under one more u. In g the underflow terms come
    # to d 2**-150 / |y| + (sqrt(d) + 1) 2**-150 <= (d + 2) 2**-90, as nonzero
    # |y| >= 2**-60 (wordvec.NORM_RANGE). So one row's screen and exact scores
    # differ by e <= (d + 4) u + (d + 2) 2**-90. If K is the k-th best screen
    # score, k rows score >= K - e exactly, so a row of the exact top k screens
    # >= K - 2e. slack is twice 2e, which also covers rounding K - slack in
    # float32: 4.9e-5 at d = 200. Zero-norm rows, and every row of a zero-norm
    # query, screen -inf; a NaN or +inf screen is kept but never raises K.
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    q, n = len(iq_block), len(rows)
    if not q or not n:
        return [(np.empty(0, dtype=np.intp), np.empty(0))] * q
    d, k = rows.shape[1], min(k, n)
    slack = 4 * ((d + 4) * 2.0**-24 + (d + 2) * 2.0**-90)
    qnorms = row_norms(iq_block)
    unit_t = np.ascontiguousarray((iq_block / np.where(qnorms > 0.0, qnorms, 1.0)[:, None]).T, dtype=np.float32)
    best = np.full((q, k), NEG_INF, dtype=np.float32)  # the k best finite screen scores so far, the k-th in column 0
    seeding = True  # some query of nonzero norm has fewer than k finite screen scores so far
    hits = []
    step = max(1, BLOCK_ELEMENTS // q)
    for start in range(0, n, step):
        block_norms = norms[start : start + step]
        block = rows[start : start + step] @ unit_t
        block *= (1.0 / np.where(block_norms > 0.0, block_norms, 1.0)).astype(np.float32)[:, None]
        block[block_norms == 0.0] = NEG_INF
        block[:, qnorms == 0.0] = NEG_INF
        if seeding:  # every finite screen of the block joins its query's k best
            finite = np.where(np.isfinite(block), block, NEG_INF).T
            best = np.partition(np.concatenate([best, finite], axis=1), -k, axis=1)[:, -k:]
        hit = np.flatnonzero(~(block < best[:, 0] - slack))
        row, query = np.divmod(hit, q)
        screen = block.ravel()[hit]
        if not seeding:
            rise = np.flatnonzero((screen > best[query, 0]) & (screen < np.inf))
            if len(rise):  # each query's rising scores, padded with -inf, join its k best
                rise = rise[np.argsort(query[rise], kind="stable")]
                counts = np.bincount(query[rise], minlength=q)
                new = np.full((q, counts.max()), NEG_INF, dtype=np.float32)
                new[query[rise], np.arange(len(rise)) - np.repeat(np.cumsum(counts) - counts, counts)] = screen[rise]
                best = np.partition(np.concatenate([best, new], axis=1), -k, axis=1)[:, -k:]
        seeding = bool(np.any(best[qnorms > 0.0, 0] == NEG_INF))
        hits.append((query, row + start, screen))
    query, row, screen = (np.concatenate(parts) for parts in zip(*hits))
    keep = np.flatnonzero(~(screen < best[query, 0] - slack))
    # by query, each query's rows ascending; a stable sort of 8- or 16-bit keys is a radix sort
    keep = keep[np.argsort(query[keep].astype(np.min_scalar_type(q - 1)), kind="stable")]
    shortlists = np.split(row[keep], np.cumsum(np.bincount(query[keep], minlength=q))[:-1])
    # a zero-norm query keeps every row, each scoring -inf: none is gathered and upcast
    return [(r, cosines(rows[r], norms[r], iq_block[j], qnorms[j]) if qnorms[j] else np.full(len(r), NEG_INF))
            for j, r in enumerate(shortlists)]


def rank_rows(iq_block: Array, rows: Array, norms: Array, id_rank: Array, k: int,
              first: int = 0) -> list[tuple[Array, Array]]:
    """Exact top ``k`` of ``rows`` (a relation bucket, the whole KB, or
    gathered candidates) for each query of ``iq_block``, as ``(rows,
    scores)`` arrays ordered by ``(-score, id_rank[row])``, where
    ``id_rank`` is each row's integer rank in sorted fact-id order, as
    ``kb.FactIds.rank`` holds it: bitwise the head of an exhaustive scalar
    sort on ``(-score, fact id)``. Ties are broken on integers, so no id is
    decoded here. Row ``i`` is numbered ``first + i``, so a bucket's rows
    come back as rows of the whole matrix and need no copy of its ranks."""
    tops = []
    for r, s in shortlist_rows(iq_block, rows, norms, k):
        r = r + first
        order = np.lexsort((id_rank[r], -s))[:k]
        tops.append((r[order], s[order]))
    return tops


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def save_scorer(path, params: ScorerParams, meta: dict | None = None) -> None:
    dims = asdict(params.dims)
    dims.update(dropout=params.dropout, variant=params.variant.value)
    tensors = {name: t.values for name, t in params.tensors.items()}
    ckpt.save_checkpoint(path, "scorer", dims, params.vocab.tokens, tensors, meta)


def check_width(scorer: ScorerParams, width: int) -> None:
    """A DataError unless ``scorer`` ranks fact rows ``width`` wide, twice the word vectors' width."""
    if (out := scorer.dims.output_dim) != width:
        raise DataError(f"scorer output width {out} != fact matrix width {width} (set by the word vectors)")


def load_scorer(path) -> ScorerParams:
    data, vocab = read_model_checkpoint(path, ("scorer",))
    dims = ScorerDims(**{f.name: data.dim(f.name) for f in fields(ScorerDims)})
    arrays = data.checked_tensors(ScorerParams.shapes(dims, len(vocab)))
    tensors = {name: constant(arr) for name, arr in arrays.items()}
    return ScorerParams(dims, vocab, tensors, data.dim("dropout", ckpt.rate), data.dim("variant", Variant))
