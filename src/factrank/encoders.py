"""LSTM question encoder, the relation and answer-source classifiers, and
the one minibatch training loop.

Both classifiers embed and encode a question one token at a time with an
LSTM, then linearly map the final hidden state to logits: a 13-way softmax
for the relation, a single sigmoid logit for the answer source. They are
trained separately with Adam on cross-entropy / binary cross-entropy.

:func:`fit` is the training loop of every model, these two classifiers and
the fact scorer alike: per epoch it permutes the examples, pads each
minibatch of token ids, asks a loss callback for the batch loss on a fresh
tape, then back-propagates, clips and takes one optimizer step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import checkpoint as ckpt
from .errors import DataError, UsageError
from .kb import AnswerSource, Relation
from .numerics import Tape, Tensor, constant, parameter
from .optim import OptimizerState, clip_gradients, make_optimizer, step
from .text import tokenize

Array = np.ndarray

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

RELATIONS: list[Relation] = list(Relation)
RELATION_INDEX: dict[Relation, int] = {r: i for i, r in enumerate(RELATIONS)}

INIT_SCALE = 0.08  # uniform weight init range shared by all trainable layers


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

    def encode(self, text: str, max_tokens: int = 30) -> list[int]:
        """Token ids, unknown tokens mapped to UNK, truncated to ``max_tokens``."""
        return [self.index.get(t, UNK_ID) for t in tokenize(text)[:max_tokens]]

    def sha256(self) -> str:
        return ckpt.vocab_sha256(self.tokens)


def _pad(encoded: Sequence[Sequence[int]]) -> tuple[Array, Array]:
    """Right-padded id matrix plus true lengths."""
    lengths = np.array([len(e) for e in encoded], dtype=np.intp)
    ids = np.full((len(encoded), int(lengths.max())), PAD_ID, dtype=np.intp)
    for i, e in enumerate(encoded):
        ids[i, : len(e)] = e
    return ids, lengths


def encode_batch(vocab: Vocabulary, questions: Sequence[str], max_tokens: int) -> tuple[Array, Array]:
    """Right-padded id matrix plus true lengths; an empty question is an error."""
    encoded = [vocab.encode(q, max_tokens) for q in questions]
    for q, ids in zip(questions, encoded):
        if not ids:
            raise UsageError(f"question {q!r} has no tokens")
    return _pad(encoded)


@dataclass
class LSTMParams:
    """Gate weights stored as one fused matrix; column blocks are the
    input, forget, candidate, and output gates in that order."""

    input_dim: int
    hidden_dim: int
    embed: Tensor
    w_gates: Tensor
    b_gates: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, vocab_size: int, input_dim: int, hidden_dim: int) -> "LSTMParams":
        embed = parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, (vocab_size, input_dim)))
        w = parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, (input_dim + hidden_dim, 4 * hidden_dim)))
        b = np.zeros(4 * hidden_dim)
        b[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias aids early recurrence
        return cls(input_dim, hidden_dim, embed, w, parameter(b))

    @staticmethod
    def shapes(vocab_size: int, input_dim: int, hidden_dim: int, prefix: str = "") -> dict[str, tuple[int, ...]]:
        """Tensor shapes of :meth:`named_params` for the given sizes."""
        return {
            f"{prefix}embed": (vocab_size, input_dim),
            f"{prefix}w_gates": (input_dim + hidden_dim, 4 * hidden_dim),
            f"{prefix}b_gates": (4 * hidden_dim,),
        }

    def named_params(self, prefix: str = "") -> dict[str, Tensor]:
        return {
            f"{prefix}embed": self.embed,
            f"{prefix}w_gates": self.w_gates,
            f"{prefix}b_gates": self.b_gates,
        }


def lstm_hidden(
    tape: Tape,
    params: LSTMParams,
    ids: Array,
    lengths: Array,
    train: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Final hidden state for each padded row; padding never alters a row's
    state because finished rows are frozen by a 0/1 mask, not by content."""
    if ids.ndim != 2:
        raise UsageError(f"ids must be (batch, steps), got shape {ids.shape}")
    b, steps = ids.shape
    hdim = params.hidden_dim
    if steps == 0 or np.any(lengths < 1):
        raise UsageError("every sequence must have at least one token")
    h = constant(np.zeros((b, hdim)))
    c = constant(np.zeros((b, hdim)))
    for t in range(steps):
        x = tape.embedding(params.embed, ids[:, t])
        x = tape.dropout(x, dropout_rate, train, rng)
        xh = tape.concat([x, h])
        gates = tape.add(tape.matmul(xh, params.w_gates), params.b_gates)
        gate_i = tape.sigmoid(tape.slice_cols(gates, 0, hdim))
        gate_f = tape.sigmoid(tape.slice_cols(gates, hdim, 2 * hdim))
        gate_g = tape.tanh(tape.slice_cols(gates, 2 * hdim, 3 * hdim))
        gate_o = tape.sigmoid(tape.slice_cols(gates, 3 * hdim, 4 * hdim))
        c_new = tape.add(tape.mul(gate_f, c), tape.mul(gate_i, gate_g))
        h_new = tape.mul(gate_o, tape.tanh(c_new))
        live = lengths > t
        if live.all():
            h, c = h_new, c_new
        else:
            keep_new = constant(live.astype(np.float64)[:, None])
            keep_old = constant((~live).astype(np.float64)[:, None])
            c = tape.add(tape.mul(keep_new, c_new), tape.mul(keep_old, c))
            h = tape.add(tape.mul(keep_new, h_new), tape.mul(keep_old, h))
    return h


# ----------------------------------------------------------------------
# classifiers
# ----------------------------------------------------------------------


@dataclass
class RelationClassifier:
    vocab: Vocabulary
    lstm: LSTMParams
    w_out: Tensor
    b_out: Tensor
    dropout: float = 0.7
    max_tokens: int = 30

    @classmethod
    def init(
        cls,
        vocab: Vocabulary,
        rng: np.random.Generator,
        embed_dim: int = 128,
        hidden_dim: int = 128,
        dropout: float = 0.7,
        max_tokens: int = 30,
    ) -> "RelationClassifier":
        lstm = LSTMParams.init(rng, len(vocab), embed_dim, hidden_dim)
        w_out = parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, (hidden_dim, len(RELATIONS))))
        b_out = parameter(np.zeros(len(RELATIONS)))
        return cls(vocab, lstm, w_out, b_out, dropout, max_tokens)

    def named_params(self) -> dict[str, Tensor]:
        out = self.lstm.named_params("lstm.")
        out["w_out"] = self.w_out
        out["b_out"] = self.b_out
        return out


@dataclass
class SourceClassifier:
    vocab: Vocabulary
    lstm: LSTMParams
    w_out: Tensor
    b_out: Tensor
    dropout: float = 0.5
    max_tokens: int = 30

    @classmethod
    def init(
        cls,
        vocab: Vocabulary,
        rng: np.random.Generator,
        embed_dim: int = 64,
        hidden_dim: int = 64,
        dropout: float = 0.5,
        max_tokens: int = 30,
    ) -> "SourceClassifier":
        lstm = LSTMParams.init(rng, len(vocab), embed_dim, hidden_dim)
        w_out = parameter(rng.uniform(-INIT_SCALE, INIT_SCALE, (hidden_dim, 1)))
        b_out = parameter(np.zeros(1))
        return cls(vocab, lstm, w_out, b_out, dropout, max_tokens)

    def named_params(self) -> dict[str, Tensor]:
        out = self.lstm.named_params("lstm.")
        out["w_out"] = self.w_out
        out["b_out"] = self.b_out
        return out


def _head_logits(tape, clf, ids, lengths, train, rng) -> Tensor:
    # dropout after the word embeddings (inside the LSTM loop) and again
    # after the final LSTM state
    h = lstm_hidden(tape, clf.lstm, ids, lengths, train, clf.dropout if train else 0.0, rng)
    h = tape.dropout(h, clf.dropout, train, rng)
    return tape.add(tape.matmul(h, clf.w_out), clf.b_out)


def _softmax(logits: Array) -> Array:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def predict_relation_batch(clf: RelationClassifier, questions: Sequence[str]) -> Array:
    """(batch, 13) softmax probabilities, evaluation mode."""
    probs = np.zeros((len(questions), len(RELATIONS)))
    for start in range(0, len(questions), 512):
        chunk = questions[start : start + 512]
        ids, lengths = encode_batch(clf.vocab, chunk, clf.max_tokens)
        logits = _head_logits(Tape(), clf, ids, lengths, False, None)
        probs[start : start + len(chunk)] = _softmax(logits.values)
    return probs


def predict_relation(clf: RelationClassifier, question: str) -> list[tuple[Relation, float]]:
    """All 13 relations with probabilities, sorted by descending probability.

    Equal probabilities keep the canonical relation order.
    """
    if not tokenize(question):
        raise UsageError("cannot classify an empty question")
    probs = predict_relation_batch(clf, [question])[0]
    order = sorted(range(len(RELATIONS)), key=lambda i: (-probs[i], i))
    return [(RELATIONS[i], float(probs[i])) for i in order]


def predict_source_batch(clf: SourceClassifier, questions: Sequence[str]) -> Array:
    """(batch,) probability that the answer comes from the image."""
    from .numerics import stable_sigmoid

    probs = np.zeros(len(questions))
    for start in range(0, len(questions), 512):
        chunk = questions[start : start + 512]
        ids, lengths = encode_batch(clf.vocab, chunk, clf.max_tokens)
        logits = _head_logits(Tape(), clf, ids, lengths, False, None)
        probs[start : start + len(chunk)] = stable_sigmoid(logits.values.reshape(-1))
    return probs


def predict_source(clf: SourceClassifier, question: str) -> tuple[AnswerSource, float]:
    """Answer source and its image probability; an exact 0.5 resolves to Image."""
    if not tokenize(question):
        raise UsageError("cannot classify an empty question")
    p = float(predict_source_batch(clf, [question])[0])
    return (AnswerSource.IMAGE if p >= 0.5 else AnswerSource.KNOWLEDGE_BASE), p


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


@dataclass
class EncoderTrainConfig:
    epochs: int = 50
    batch_size: int = 100
    lr: float = 1e-3
    seed: int = 0
    clip_norm: float | None = 5.0
    embed_dim: int | None = None  # None -> classifier default
    hidden_dim: int | None = None
    dropout: float | None = None
    max_tokens: int = 30


def _validate_questions(pairs) -> None:
    for q, _ in pairs:
        if not tokenize(q):
            raise DataError(f"question {q!r} has no tokens")


def train_relation_classifier(
    pairs: Sequence[tuple[str, Relation]],
    config: EncoderTrainConfig | None = None,
    heldout: Sequence[tuple[str, Relation]] | None = None,
) -> tuple[RelationClassifier, list[dict]]:
    """Train the 13-way relation classifier on (question, relation) pairs.

    Returns the classifier and a per-epoch loss trace (held-out top-1
    accuracy included when ``heldout`` is given). Deterministic for a fixed
    config seed.
    """
    cfg = config or EncoderTrainConfig()
    if not pairs:
        raise DataError("relation training needs at least one example")
    for _, r in pairs:
        if not isinstance(r, Relation):
            raise DataError(f"unknown relation label {r!r}")
    _validate_questions(pairs)
    vocab = Vocabulary.build(q for q, _ in pairs)
    clf = RelationClassifier.init(
        vocab,
        np.random.default_rng([cfg.seed, 11]),
        embed_dim=cfg.embed_dim or 128,
        hidden_dim=cfg.hidden_dim or 128,
        dropout=cfg.dropout if cfg.dropout is not None else 0.7,
        max_tokens=cfg.max_tokens,
    )
    labels = np.array([RELATION_INDEX[r] for _, r in pairs], dtype=np.intp)
    history = _train_loop(clf, [q for q, _ in pairs], labels, cfg, heldout, kind="relation")
    return clf, history


def train_source_classifier(
    pairs: Sequence[tuple[str, AnswerSource]],
    config: EncoderTrainConfig | None = None,
    heldout: Sequence[tuple[str, AnswerSource]] | None = None,
) -> tuple[SourceClassifier, list[dict]]:
    """Train the binary answer-source classifier; Image is coded as 1."""
    cfg = config or EncoderTrainConfig()
    if not pairs:
        raise DataError("source training needs at least one example")
    for _, s in pairs:
        if not isinstance(s, AnswerSource):
            raise DataError(f"unknown answer source label {s!r}")
    _validate_questions(pairs)
    vocab = Vocabulary.build(q for q, _ in pairs)
    clf = SourceClassifier.init(
        vocab,
        np.random.default_rng([cfg.seed, 11]),
        embed_dim=cfg.embed_dim or 64,
        hidden_dim=cfg.hidden_dim or 64,
        dropout=cfg.dropout if cfg.dropout is not None else 0.5,
        max_tokens=cfg.max_tokens,
    )
    labels = np.array([1.0 if s is AnswerSource.IMAGE else 0.0 for _, s in pairs])
    history = _train_loop(clf, [q for q, _ in pairs], labels, cfg, heldout, kind="source")
    return clf, history


def fit(
    params: dict[str, Tensor],
    encoded: Sequence[Sequence[int]],
    opt: OptimizerState,
    rng: np.random.Generator,
    epochs: int,
    batch_size: int,
    clip_norm: float | None,
    batch_loss: Callable[[Tape, int, Array, Array, Array], Tensor],
    epoch_record: Callable[[int, float], dict],
) -> list[dict]:
    """Minibatch training over the token-id sequences ``encoded``.

    Per epoch: draw a permutation from ``rng``, then for each batch pad its
    ids and call ``batch_loss(tape, epoch, batch, ids, lengths)``, where
    ``batch`` indexes ``encoded``; back-propagate the returned scalar, clip
    the global gradient norm to ``clip_norm`` (when set) and step ``opt``.
    ``epoch_record(epoch, mean_loss)`` gives the epoch's history record.
    The permutation is drawn before any draw the callback makes from the
    same generator, so a fixed seed fixes the whole run.
    """
    n = len(encoded)
    history: list[dict] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            ids, lengths = _pad([encoded[i] for i in batch])
            tape = Tape()
            loss = batch_loss(tape, epoch, batch, ids, lengths)
            tape.backward(loss)
            if clip_norm:
                clip_gradients(params, clip_norm)
            step(params, opt)
            losses.append(loss.item())
        history.append(epoch_record(epoch, float(np.mean(losses))))
    return history


def _train_loop(clf, questions, labels, cfg, heldout, kind) -> list[dict]:
    rng = np.random.default_rng([cfg.seed, 13])

    def batch_loss(tape, epoch, batch, ids, lengths):
        logits = _head_logits(tape, clf, ids, lengths, True, rng)
        if kind == "relation":
            return tape.softmax_cross_entropy(logits, labels[batch])
        return tape.binary_cross_entropy(logits, labels[batch])

    def epoch_record(epoch, loss):
        record = {"epoch": epoch, "loss": loss}
        if heldout is not None:
            if kind == "relation":
                record["heldout_top1"] = relation_accuracy(clf, heldout, 1)
            else:
                record["heldout_acc"] = source_accuracy(clf, heldout)
        return record

    encoded = [clf.vocab.encode(q, clf.max_tokens) for q in questions]
    return fit(clf.named_params(), encoded, make_optimizer("adam", cfg.lr), rng, cfg.epochs, cfg.batch_size,
               cfg.clip_norm, batch_loss, epoch_record)


def relation_accuracy(clf: RelationClassifier, pairs: Sequence[tuple[str, Relation]], k: int = 1) -> float:
    """Fraction of pairs whose relation is among the top-k predictions."""
    probs = predict_relation_batch(clf, [q for q, _ in pairs])
    hits = 0
    for i, (_, r) in enumerate(pairs):
        order = sorted(range(len(RELATIONS)), key=lambda j: (-probs[i, j], j))
        if RELATION_INDEX[r] in order[:k]:
            hits += 1
    return hits / len(pairs)


def source_accuracy(clf: SourceClassifier, pairs: Sequence[tuple[str, AnswerSource]]) -> float:
    probs = predict_source_batch(clf, [q for q, _ in pairs])
    hits = 0
    for i, (_, s) in enumerate(pairs):
        predicted = AnswerSource.IMAGE if probs[i] >= 0.5 else AnswerSource.KNOWLEDGE_BASE
        if predicted is s:
            hits += 1
    return hits / len(pairs)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def save_classifier(path, clf: RelationClassifier | SourceClassifier, meta: dict | None = None) -> None:
    kind = "relation" if isinstance(clf, RelationClassifier) else "source"
    dims = {
        "embed_dim": clf.lstm.input_dim,
        "hidden_dim": clf.lstm.hidden_dim,
        "dropout": clf.dropout,
        "max_tokens": clf.max_tokens,
    }
    tensors = {name: t.values for name, t in clf.named_params().items()}
    ckpt.save_checkpoint(path, kind, dims, clf.vocab.tokens, tensors, meta)


def load_classifier(path) -> RelationClassifier | SourceClassifier:
    data = ckpt.load_checkpoint(path)
    if data.kind not in ("relation", "source"):
        raise UsageError(f"{path}: checkpoint kind {data.kind!r} is not a classifier")
    embed_dim, hidden_dim = data.dim("embed_dim"), data.dim("hidden_dim")
    outputs = len(RELATIONS) if data.kind == "relation" else 1
    shapes = LSTMParams.shapes(len(data.vocab), embed_dim, hidden_dim, "lstm.")
    shapes.update(w_out=(hidden_dim, outputs), b_out=(outputs,))
    data.check_shapes(shapes)
    t = {name: parameter(arr) for name, arr in data.tensors.items()}
    lstm = LSTMParams(embed_dim, hidden_dim, t["lstm.embed"], t["lstm.w_gates"], t["lstm.b_gates"])
    cls = RelationClassifier if data.kind == "relation" else SourceClassifier
    return cls(
        Vocabulary(data.vocab),
        lstm,
        t["w_out"],
        t["b_out"],
        dropout=data.dim("dropout", float),
        max_tokens=data.dim("max_tokens"),
    )
