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

Ranking offers two tie-break modes: deterministic fact-id order (the
default, used by tests and evaluation) and seeded random.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import checkpoint as ckpt
from .encoders import (
    LSTM_PREFIX,
    LSTMParams,
    Vocabulary,
    encode_batch,
    init_tensors,
    lstm_hidden,
    read_model_checkpoint,
)
from .errors import ShapeError, UsageError
from .numerics import Tape, Tensor, constant, parameter
from .wordvec import FactMatrix

Array = np.ndarray

NEG_INF = float("-inf")


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

    @classmethod
    def parse(cls, token: str) -> "Variant":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise UsageError(f"unknown variant {token!r}; expected one of {[v.value for v in cls]}") from None


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

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ScorerParams:
    dims: ScorerDims
    vocab: Vocabulary
    tensors: dict[str, Tensor]
    dropout: float = 0.5
    variant: Variant = Variant.Q_I_VC
    max_tokens: int = 30

    @staticmethod
    def shapes(dims: ScorerDims, vocab_size: int) -> dict[str, tuple[int, ...]]:
        """Tensor names and shapes, in initialization and checkpoint order."""
        shapes = LSTMParams.shapes(vocab_size, dims.question_embed, dims.question_hidden, LSTM_PREFIX)
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
        max_tokens: int = 30,
    ) -> "ScorerParams":
        d = dims or ScorerDims()
        return cls(d, vocab, init_tensors(rng, cls.shapes(d, len(vocab))), dropout, variant, max_tokens)

    @property
    def lstm(self) -> LSTMParams:
        return LSTMParams.part_of(self.tensors)


def _masked_inputs(params: ScorerParams, feats: Array, concepts: Array) -> tuple[Array, Array]:
    feats = np.asarray(feats, dtype=np.float64)
    concepts = np.asarray(concepts, dtype=np.float64)
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
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """(batch, output_dim) image-question embeddings on the given tape."""
    feats, concepts = _masked_inputs(params, feats, concepts)
    w = params.tensors
    img = tape.tanh(tape.add(tape.matmul(constant(feats), w["w_img"]), w["b_img"]))
    q = lstm_hidden(tape, params.lstm, ids, lengths)
    m1 = tape.tanh(tape.add(tape.matmul(tape.concat([img, q]), w["w_mlp1"]), w["b_mlp1"]))
    m1 = tape.dropout(m1, params.dropout, train, rng)
    m2 = tape.tanh(tape.add(tape.matmul(m1, w["w_mlp2"]), w["b_mlp2"]))
    con = tape.tanh(tape.add(tape.matmul(constant(concepts), w["w_con"]), w["b_con"]))
    return tape.add(tape.matmul(tape.concat([m2, con]), w["w_fuse"]), w["b_fuse"])


def embed_image_question(params: ScorerParams, feat: Array, concepts: Array, question: str) -> Array:
    """Evaluation-mode embedding of one (image, question) pair."""
    return embed_batch(params, np.asarray(feat)[None, :], np.asarray(concepts)[None, :], [question])[0]


def embed_batch(params: ScorerParams, feats: Array, concepts: Array, questions: Sequence[str], chunk: int = 256) -> Array:
    """Evaluation-mode embeddings for many pairs, computed in chunks."""
    n = len(questions)
    out = np.zeros((n, params.dims.output_dim))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        ids, lengths = encode_batch(params.vocab, list(questions[start:stop]), params.max_tokens)
        tape = Tape(record=False)
        out[start:stop] = iq_embedding_batch(tape, params, feats[start:stop], concepts[start:stop], ids, lengths).values
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
    nf = float(np.linalg.norm(fact_emb))
    nq = float(np.linalg.norm(iq_emb))
    if nf == 0.0 or nq == 0.0:
        return NEG_INF
    return float(np.dot(fact_emb, iq_emb) / (nf * nq))


def candidate_scores(iq_emb: Array, candidate_ids: Sequence[str], fact_matrix: FactMatrix) -> Array:
    """Per-candidate cosine scores, computed with the same scalar arithmetic
    as :func:`score` so exhaustive and ranked paths agree bitwise."""
    iq_emb = np.asarray(iq_emb, dtype=np.float64)
    nq = float(np.linalg.norm(iq_emb))
    out = np.empty(len(candidate_ids))
    for i, fid in enumerate(candidate_ids):
        row_idx = fact_matrix.row_of[fid]
        nf = float(fact_matrix.norms[row_idx])
        if nf == 0.0 or nq == 0.0:
            out[i] = NEG_INF
        else:
            out[i] = float(np.dot(fact_matrix.rows[row_idx], iq_emb) / (nf * nq))
    return out


def rank_candidates(
    iq_emb: Array,
    candidate_ids: Sequence[str],
    fact_matrix: FactMatrix,
    k: int,
    tie_break: str = "id",
    rng: np.random.Generator | None = None,
) -> list[tuple[str, float]]:
    """Top-k (fact id, score), highest first.

    ``tie_break='id'`` resolves equal scores by fact-id order regardless of
    candidate arrival order; ``tie_break='random'`` shuffles ties with the
    supplied generator.
    """
    if not candidate_ids:
        raise UsageError("rank needs at least one candidate")
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    scores = candidate_scores(iq_emb, candidate_ids, fact_matrix)
    if tie_break == "id":
        order = sorted(range(len(candidate_ids)), key=lambda i: (-scores[i], candidate_ids[i]))
    elif tie_break == "random":
        if rng is None:
            raise UsageError("tie_break='random' needs an rng")
        jitter = rng.random(len(candidate_ids))
        order = sorted(range(len(candidate_ids)), key=lambda i: (-scores[i], jitter[i]))
    else:
        raise UsageError(f"unknown tie_break {tie_break!r}")
    return [(candidate_ids[i], float(scores[i])) for i in order[:k]]


def score_matrix(iq_mat: Array, fact_matrix: FactMatrix) -> Array:
    """(pairs, facts) cosine scores via one matrix product.

    Fast path for bulk metrics; agrees with :func:`candidate_scores` to
    within accumulated rounding (~1e-12), not bitwise. Zero-norm fact rows
    score ``-inf``.
    """
    iq_mat = np.asarray(iq_mat, dtype=np.float64)
    qnorm = np.linalg.norm(iq_mat, axis=1, keepdims=True)
    if np.any(qnorm == 0.0):
        raise UsageError("score_matrix got a zero-norm embedding row")
    valid = fact_matrix.norms > 0.0
    safe = np.where(valid, fact_matrix.norms, 1.0)
    scores = (iq_mat @ fact_matrix.rows.T) / (qnorm * safe[None, :])
    scores[:, ~valid] = NEG_INF
    return scores


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def save_scorer(path, params: ScorerParams, meta: dict | None = None) -> None:
    dims = params.dims.as_dict()
    dims.update(dropout=params.dropout, variant=params.variant.value, max_tokens=params.max_tokens)
    tensors = {name: t.values for name, t in params.tensors.items()}
    ckpt.save_checkpoint(path, "scorer", dims, params.vocab.tokens, tensors, meta)


def load_scorer(path) -> ScorerParams:
    data, vocab = read_model_checkpoint(path, ("scorer",))
    dims = ScorerDims(**{f.name: data.dim(f.name) for f in fields(ScorerDims)})
    arrays = data.checked_tensors(ScorerParams.shapes(dims, len(vocab)))
    tensors = {name: parameter(arr) for name, arr in arrays.items()}
    return ScorerParams(dims, vocab, tensors, data.dim("dropout", float), data.dim("variant", Variant),
                        data.dim("max_tokens"))
