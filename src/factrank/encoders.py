"""LSTM question encoder, the relation and answer-source classifiers, and
the one minibatch training loop.

Both classifiers are one model, :class:`Classifier`: an LSTM encodes the
question one token at a time and a linear head maps its final hidden state
to logits. The classifier's ``kind`` picks its row of :data:`KINDS`, which
holds all that differs: labels and head width (a 13-way softmax for the
relation, one sigmoid logit for the answer source), default sizes and
dropout, the loss and the held-out metric. Every model keeps its tensors in
one dict named and shaped by one ``shapes`` table, which initialization,
checkpoints and their loaders follow. Every question that the classifiers
and the scorer read, in training and at inference, is cut to its first
:data:`MAX_QUESTION_TOKENS` tokens by :meth:`Vocabulary.encode`, the one
place that bound is applied.

:func:`fit` is the training loop of every model, these classifiers and
the fact scorer alike: per epoch it permutes the examples, pads each
minibatch of token ids, asks a loss callback for the batch loss on a fresh
tape, then back-propagates, clips and takes one optimizer step. It alone
changes precision: it trains in float32 (Micikevicius et al.,
arXiv:1710.03740) and hands back exact float64 upcasts, the dtype in which
models are made, mined with, ranked and saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import checkpoint as ckpt
from .errors import DataError, DegenerateInputError, FactrankError, LoadError, UsageError
from .kb import AnswerSource, Relation
from .numerics import Tape, Tensor, constant, parameter, stable_sigmoid
from .optim import OptimizerState, clip_gradients, make_optimizer, step
from .text import tokenize

Array = np.ndarray

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

INIT_SCALE = 0.08  # uniform weight init range shared by all trainable layers
LSTM_PREFIX = "lstm."  # names of a model's LSTM tensors start with this
CLIP_NORM = 5.0  # every training step clips the global gradient norm to this
EVAL_CHUNK = 512  # questions per evaluation-mode forward pass
MAX_QUESTION_TOKENS = 30  # a question's tokens past this many are dropped, in training and at inference alike


@dataclass
class Vocabulary:
    """Contiguous token index with reserved PAD (0) and UNK (1) slots."""

    tokens: list[str]
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.tokens[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise UsageError("vocabulary must start with the PAD and UNK tokens")
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise UsageError("vocabulary tokens must be unique")

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocabulary":
        seen = sorted({tok for text in texts for tok in tokenize(text)})
        return cls([PAD_TOKEN, UNK_TOKEN] + seen)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, text: str) -> list[int]:
        """Token ids, unknown tokens mapped to UNK, truncated to :data:`MAX_QUESTION_TOKENS`."""
        return [self.index.get(t, UNK_ID) for t in tokenize(text)[:MAX_QUESTION_TOKENS]]


def _pad(encoded: Sequence[Sequence[int]]) -> tuple[Array, Array]:
    """Right-padded id matrix plus true lengths."""
    lengths = np.array([len(e) for e in encoded], dtype=np.intp)
    ids = np.full((len(encoded), int(lengths.max())), PAD_ID, dtype=np.intp)
    for i, e in enumerate(encoded):
        ids[i, : len(e)] = e
    return ids, lengths


def encode_batch(vocab: Vocabulary, questions: Sequence[str]) -> tuple[Array, Array]:
    """Right-padded id matrix plus true lengths; an empty question is an error."""
    encoded = [vocab.encode(q) for q in questions]
    for q, ids in zip(questions, encoded):
        if not ids:
            raise UsageError(f"question {q!r} has no tokens")
    return _pad(encoded)


def init_tensors(rng: np.random.Generator, shapes: dict[str, tuple[int, ...]]) -> dict[str, Tensor]:
    """Fresh parameters for a shape table, made in table order.

    Every matrix is drawn uniform in ``[-INIT_SCALE, INIT_SCALE)`` from
    ``rng``; every bias starts at zero, except the forget-gate block of an
    LSTM's ``b_gates``, which starts at 1 to aid early recurrence.
    """
    out = {}
    for name, shape in shapes.items():
        if len(shape) > 1:
            out[name] = parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, shape))
            continue
        bias = np.zeros(shape)
        if name.endswith("b_gates"):
            hidden_dim = shape[0] // 4
            bias[hidden_dim : 2 * hidden_dim] = 1.0
        out[name] = parameter(bias)
    return out


def lstm_shapes(vocab_size: int, input_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
    """Names and shapes of a model's LSTM tensors, under ``LSTM_PREFIX``. The
    gate weights are one fused matrix whose column blocks are the input,
    forget, candidate and output gates, in that order."""
    return {
        f"{LSTM_PREFIX}embed": (vocab_size, input_dim),
        f"{LSTM_PREFIX}w_gates": (input_dim + hidden_dim, 4 * hidden_dim),
        f"{LSTM_PREFIX}b_gates": (4 * hidden_dim,),
    }


def lstm_hidden(
    tape: Tape,
    tensors: dict[str, Tensor],
    ids: Array,
    lengths: Array,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Final hidden state for each padded row of the LSTM named by
    :func:`lstm_shapes` in a model's ``tensors``, computed by one
    :meth:`~factrank.numerics.Tape.lstm_sequence` record. Padding never
    alters a row's state because a step runs only on the rows whose
    sequences it has not passed; given a generator, dropout hits each
    step's word embeddings."""
    if ids.ndim != 2:
        raise UsageError(f"ids must be (batch, steps), got shape {ids.shape}")
    if ids.shape[1] == 0 or np.any(lengths < 1):
        raise UsageError("every sequence must have at least one token")
    return tape.lstm_sequence(tensors[f"{LSTM_PREFIX}embed"], tensors[f"{LSTM_PREFIX}w_gates"],
                              tensors[f"{LSTM_PREFIX}b_gates"], ids, lengths, dropout_rate, rng)


# ----------------------------------------------------------------------
# classifiers
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifierKind:
    """Everything that differs between the relation and the source classifier."""

    labels: tuple  # the label of each class index, which is the training target
    width: int  # head outputs: a softmax over the labels, or one sigmoid logit
    embed_dim: int
    hidden_dim: int
    dropout: float
    loss: str  # the Tape method that takes (logits, class indices)
    metric: str  # the epoch record's key for held-out accuracy


KINDS: dict[str, ClassifierKind] = {
    "relation": ClassifierKind(tuple(Relation), len(Relation), 128, 128, 0.7,
                               "softmax_cross_entropy", "heldout_top1"),
    # Image is class 1, the positive class of the sigmoid
    "source": ClassifierKind((AnswerSource.KNOWLEDGE_BASE, AnswerSource.IMAGE), 1, 64, 64, 0.5,
                             "binary_cross_entropy", "heldout_acc"),
}


@dataclass
class Classifier:
    """LSTM question encoder with a linear head; ``kind`` names its row of
    :data:`KINDS`, "relation" or "source"."""

    kind: str
    vocab: Vocabulary
    embed_dim: int
    hidden_dim: int
    tensors: dict[str, Tensor]
    dropout: float

    @staticmethod
    def shapes(kind: str, vocab_size: int, embed_dim: int, hidden_dim: int) -> dict[str, tuple[int, ...]]:
        """Tensor names and shapes: the LSTM's, then the head's."""
        shapes = lstm_shapes(vocab_size, embed_dim, hidden_dim)
        width = KINDS[kind].width
        shapes.update(w_out=(hidden_dim, width), b_out=(width,))
        return shapes

    @classmethod
    def init(
        cls,
        kind: str,
        vocab: Vocabulary,
        rng: np.random.Generator,
        embed_dim: int | None = None,
        hidden_dim: int | None = None,
        dropout: float | None = None,
    ) -> "Classifier":
        """A fresh classifier; sizes and dropout left None take the kind's defaults."""
        spec = KINDS[kind]
        embed_dim, hidden_dim = embed_dim or spec.embed_dim, hidden_dim or spec.hidden_dim
        tensors = init_tensors(rng, cls.shapes(kind, len(vocab), embed_dim, hidden_dim))
        dropout = spec.dropout if dropout is None else dropout
        return cls(kind, vocab, embed_dim, hidden_dim, tensors, dropout)


def _head_logits(tape, clf, ids, lengths, rng) -> Tensor:
    # given a generator, dropout after the word embeddings (inside the LSTM
    # loop) and again after the final LSTM state
    h = lstm_hidden(tape, clf.tensors, ids, lengths, clf.dropout, rng)
    h = tape.dropout(h, clf.dropout, rng)
    return tape.add(tape.matmul(h, clf.tensors["w_out"]), clf.tensors["b_out"])


def _eval_logits(clf: Classifier, kind: str, questions: Sequence[str]) -> Array:
    """(batch, head width) evaluation-mode logits of a ``kind`` classifier, computed in chunks."""
    if clf.kind != kind:
        raise UsageError(f"expected a {kind} classifier, got a {clf.kind} one")
    out = np.zeros((len(questions), KINDS[kind].width))
    for start in range(0, len(questions), EVAL_CHUNK):
        ids, lengths = encode_batch(clf.vocab, questions[start : start + EVAL_CHUNK])
        out[start : start + len(ids)] = _head_logits(Tape(record=False), clf, ids, lengths, None).values
    return out


def predict_relation_batch(clf: Classifier, questions: Sequence[str]) -> Array:
    """(batch, 13) softmax probabilities, evaluation mode."""
    logits = _eval_logits(clf, "relation", questions)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def predict_source_batch(clf: Classifier, questions: Sequence[str]) -> Array:
    """(batch,) probability that the answer comes from the image."""
    return stable_sigmoid(_eval_logits(clf, "source", questions).reshape(-1))


def ranked_relations(probs: Array) -> list[tuple[Relation, float]]:
    """All 13 relations with their probabilities from one row of
    :func:`predict_relation_batch`, most probable first; equal
    probabilities keep the canonical relation order."""
    labels = KINDS["relation"].labels
    order = sorted(range(len(labels)), key=lambda i: (-probs[i], i))
    return [(labels[i], float(probs[i])) for i in order]


def answer_source(p: float) -> AnswerSource:
    """The answer source for image probability ``p``; an exact 0.5 resolves to Image."""
    return AnswerSource.IMAGE if p >= 0.5 else AnswerSource.KNOWLEDGE_BASE


def accuracy(clf: Classifier, pairs: Sequence[tuple[str, Relation | AnswerSource]], k: int = 1) -> float:
    """Fraction of (question, label) pairs whose label is among the top-k
    predictions; a source classifier predicts a single label. No pairs is a UsageError."""
    if not pairs:
        raise UsageError("accuracy needs at least one (question, label) pair")
    questions = [q for q, _ in pairs]
    if clf.kind == "relation":
        top = [[r for r, _ in ranked_relations(row)[:k]] for row in predict_relation_batch(clf, questions)]
    else:
        top = [[answer_source(p)] for p in predict_source_batch(clf, questions)]
    return sum(label in t for (_, label), t in zip(pairs, top)) / len(pairs)


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


@dataclass
class EncoderTrainConfig:
    epochs: int = 50
    batch_size: int = 100
    lr: float = 1e-3
    seed: int = 0
    dropout: float | None = None  # None -> the classifier kind's default


def fit(
    params: dict[str, Tensor],
    encoded: Sequence[Sequence[int]],
    opt: OptimizerState,
    rng: np.random.Generator,
    epochs: range,
    batch_size: int,
    batch_loss: Callable[[Tape, Array, Array, Array], Tensor],
    epoch_record: Callable[[int, float], dict],
    where: str,
) -> list[dict]:
    """Minibatch training over the token-id sequences ``encoded``, one
    epoch for each number in ``epochs``.

    Per epoch: draw a permutation from ``rng``, then for each batch pad its
    ids and call ``batch_loss(tape, batch, ids, lengths)``, where
    ``batch`` indexes ``encoded``; back-propagate the returned scalar, clip
    the global gradient norm to :data:`CLIP_NORM` and step ``opt``.
    ``epoch_record(epoch, mean_loss)`` gives the epoch's history record, to
    which ``fit`` adds the mean and the largest pre-clip global gradient
    norm of the epoch's batches and the fraction of them that were clipped.
    The permutation is drawn before any draw the callback makes from the
    same generator, so a fixed seed fixes the whole run, also one split
    into calls on consecutive ranges that share ``opt`` and ``rng``.

    A non-finite loss raises :class:`FactrankError` before any step on it;
    its message, and that of a :class:`DegenerateInputError` from the loss,
    names the epoch and the batch (batches from 1) after the ``where`` prefix.

    The callbacks see float32 parameters and gradients; on any exit each
    parameter is the float64 upcast of its float32 value, with no gradient.
    """
    if not epochs or batch_size < 1:
        raise UsageError(f"{where}epochs and batch_size must be >= 1, got {len(epochs)} and {batch_size}")
    for p in params.values():
        p.values = p.values.astype(np.float32)
        p.grad = np.zeros_like(p.values)
    try:
        n = len(encoded)
        history: list[dict] = []
        for epoch in epochs:
            order = rng.permutation(n)
            losses, norms = [], []
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                ids, lengths = _pad([encoded[i] for i in batch])
                tape = Tape()
                at = f"{where}epoch {epoch}, batch {start // batch_size + 1}"
                try:
                    loss = batch_loss(tape, batch, ids, lengths)
                except DegenerateInputError as exc:  # such as a diverged model's non-finite scores
                    raise DegenerateInputError(f"{at}: {exc}") from None
                if not np.isfinite(loss.item()):
                    raise FactrankError(f"{at}: non-finite loss {loss.item()}")
                tape.backward(loss)
                norms.append(clip_gradients(params, CLIP_NORM))
                step(params, opt)
                losses.append(loss.item())
            record = epoch_record(epoch, float(np.mean(losses)))
            record.update(grad_norm_mean=float(np.mean(norms)), grad_norm_max=max(norms),
                          clipped_fraction=float(np.mean([g > CLIP_NORM for g in norms])))
            history.append(record)
        return history
    finally:
        for p in params.values():
            p.values, p.grad = p.values.astype(np.float64), None


def train_classifier(
    kind: str,
    pairs: Sequence[tuple[str, Relation | AnswerSource]],
    config: EncoderTrainConfig | None = None,
    heldout: Sequence[tuple[str, Relation | AnswerSource]] | None = None,
) -> tuple[Classifier, list[dict]]:
    """Train a ``kind`` classifier on (question, label) pairs.

    Returns the classifier and a per-epoch loss trace, with the kind's
    held-out top-1 accuracy when ``heldout`` is non-empty. Deterministic for a
    fixed config seed.
    """
    spec = KINDS[kind]
    cfg = config or EncoderTrainConfig()
    if not pairs:
        raise DataError(f"{kind} training needs at least one example")
    for q, label in pairs:
        if label not in spec.labels:
            raise DataError(f"unknown {kind} label {label!r}")
        if not tokenize(q):
            raise DataError(f"question {q!r} has no tokens")
    vocab = Vocabulary.build(q for q, _ in pairs)
    clf = Classifier.init(kind, vocab, np.random.default_rng([cfg.seed, 11]), dropout=cfg.dropout)
    targets = np.array([spec.labels.index(label) for _, label in pairs], dtype=np.intp)
    rng = np.random.default_rng([cfg.seed, 13])

    def batch_loss(tape, batch, ids, lengths):
        return getattr(tape, spec.loss)(_head_logits(tape, clf, ids, lengths, rng), targets[batch])

    def epoch_record(epoch, loss):
        record = {"epoch": epoch, "loss": loss}
        if heldout:
            record[spec.metric] = accuracy(clf, heldout)
        return record

    encoded = [vocab.encode(q) for q, _ in pairs]
    history = fit(clf.tensors, encoded, make_optimizer(cfg.lr), rng, range(1, cfg.epochs + 1), cfg.batch_size,
                  batch_loss, epoch_record, f"{kind} classifier: ")
    return clf, history


def train_relation_classifier(
    pairs: Sequence[tuple[str, Relation]],
    config: EncoderTrainConfig | None = None,
    heldout: Sequence[tuple[str, Relation]] | None = None,
) -> tuple[Classifier, list[dict]]:
    """Train the 13-way relation classifier on (question, relation) pairs."""
    return train_classifier("relation", pairs, config, heldout)


def train_source_classifier(
    pairs: Sequence[tuple[str, AnswerSource]],
    config: EncoderTrainConfig | None = None,
    heldout: Sequence[tuple[str, AnswerSource]] | None = None,
) -> tuple[Classifier, list[dict]]:
    """Train the binary answer-source classifier; Image is the positive class."""
    return train_classifier("source", pairs, config, heldout)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def read_model_checkpoint(path, kinds: Sequence[str]) -> tuple[ckpt.Checkpoint, Vocabulary]:
    """A checkpoint of one of ``kinds`` and its vocabulary; LoadError naming the file otherwise."""
    data = ckpt.load_checkpoint(path)
    if data.kind not in kinds:
        raise LoadError(f"{path}: checkpoint kind {data.kind!r} is not one of {list(kinds)}")
    try:
        return data, Vocabulary(data.vocab)
    except UsageError as exc:
        raise LoadError(f"{path}: {exc}") from None


def save_classifier(path, clf: Classifier, meta: dict | None = None) -> None:
    dims = dict(embed_dim=clf.embed_dim, hidden_dim=clf.hidden_dim, dropout=clf.dropout)
    tensors = {name: t.values for name, t in clf.tensors.items()}
    ckpt.save_checkpoint(path, clf.kind, dims, clf.vocab.tokens, tensors, meta)


def load_classifier(path) -> Classifier:
    data, vocab = read_model_checkpoint(path, tuple(KINDS))
    embed_dim, hidden_dim = data.dim("embed_dim"), data.dim("hidden_dim")
    arrays = data.checked_tensors(Classifier.shapes(data.kind, len(vocab), embed_dim, hidden_dim))
    tensors = {name: constant(arr) for name, arr in arrays.items()}
    return Classifier(data.kind, vocab, embed_dim, hidden_dim, tensors, data.dim("dropout", ckpt.rate))
