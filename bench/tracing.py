"""Spans and counters recorded around calls into ``factrank``'s layers.

A :class:`Tracer` wraps public functions of the library's modules from
outside the program: each call records a span (name, parent span, start,
end) and, for some names, a counter update computed from the arguments
or the result. A function bound elsewhere with ``from .x import f`` is
patched under every name that refers to it, so calls through the
importing module are seen too. Spans stay in memory until :func:`dump`.
A span's self time is its duration minus the durations of its direct
children; the library is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

TAPE_PRIMITIVES = (
    "matmul", "add", "concat", "slice_cols", "tanh", "sigmoid", "mul", "embedding", "dropout",
    "cosine_rows", "hinge_mean", "softmax_cross_entropy", "binary_cross_entropy",
)


# counter hooks: called as hook(counts, result, *args, **kwargs) after the wrapped call returns

def _matmul(c, result, tape, a, b):
    m, k = a.shape
    c["numerics.matmul.flops"] += 2 * m * k * b.shape[1]


def _backward(c, result, tape, loss):
    c["numerics.backward.records"] += len(tape)


def _ids_with_relation(c, result, kb, relation):
    c["kb.ids_with_relation.ids_copied"] += len(result)


def _load_checkpoint(c, result, path):
    c["checkpoint.load.bytes"] += os.path.getsize(path)


def _clip_gradients(c, result, params, max_norm):
    c["optim.clip_gradients.clipped"] += result > max_norm > 0


def _lstm_hidden(c, result, tape, params, ids, lengths, *args, **kwargs):
    c["encoders.lstm_hidden.steps"] += ids.shape[1]
    c["encoders.lstm_hidden.slots"] += ids.size
    c["encoders.lstm_hidden.padded"] += ids.size - int(lengths.sum())


def _epochs(key):
    def hook(c, result, pairs, config=None, heldout=None):
        c[key] += config.epochs
    return hook


def _rank_candidates(c, result, iq_emb, candidate_ids, *args, **kwargs):
    c["scorer.rank_candidates.candidates"] += len(candidate_ids)


def _score_matrix(c, result, iq_mat, fact_matrix):
    c["scorer.score_matrix.bytes"] += result.nbytes


def _train_scorer(c, result, train_instances, kb, store, word_table, config, *args, **kwargs):
    iterations = config.iterations + 1
    c["trainer.train_scorer.epochs"] += iterations * config.epochs_per_iteration
    pool = sum(m["hard_pool_total"] for m in result.metrics if m["type"] == "iteration")
    c["trainer.hard_pool"] += pool
    c["trainer.pool_slots"] += iterations * len(train_instances) * config.negatives
    # the per-iteration summary is written before the next iteration's mining
    # counts its fallbacks, so read them from the returned mining states
    c["trainer.empty_pool_fallbacks"] += sum(s.empty_pool_fallbacks for s in result.mining_states)


def _evaluate(c, result, *args, **kwargs):
    c["pipeline.no_fact"] += result[0].no_fact_count


def _answer_question(c, result, *args, **kwargs):
    c["pipeline.no_fact"] += result.status == "no_fact"


def targets():
    """(owner, attribute, span name, counter hook) for every traced call."""
    from factrank import checkpoint, dataio, encoders, kb, optim, pipeline, scorer, trainer, wordvec
    from factrank.numerics import Tape

    out = [(Tape, p, f"numerics.{p}", _matmul if p == "matmul" else None) for p in TAPE_PRIMITIVES]
    out += [
        (Tape, "backward", "numerics.backward", _backward),
        (dataio, "load_dataset", "dataio.load_dataset", None),
        (dataio, "load_features", "dataio.load_features", None),
        (dataio.FeatureStore, "stack", "dataio.FeatureStore.stack", None),
        (kb, "parse_kb", "kb.parse_kb", None),
        (kb.KnowledgeBase, "ids_with_relation", "kb.ids_with_relation", _ids_with_relation),
        (wordvec, "load_vectors", "wordvec.load_vectors", None),
        (wordvec.FactMatrix, "build", "wordvec.FactMatrix.build", None),
        (checkpoint, "load_checkpoint", "checkpoint.load", _load_checkpoint),
        (optim, "step", "optim.step", None),
        (optim, "clip_gradients", "optim.clip_gradients", _clip_gradients),
        (encoders, "lstm_hidden", "encoders.lstm_hidden", _lstm_hidden),
        (encoders, "encode_batch", "encoders.encode_batch", None),
        (encoders, "predict_relation_batch", "encoders.predict_relation_batch", None),
        (encoders, "predict_source_batch", "encoders.predict_source_batch", None),
        (encoders, "train_relation_classifier", "encoders.train_relation_classifier",
         _epochs("encoders.train_relation_classifier.epochs")),
        (encoders, "train_source_classifier", "encoders.train_source_classifier",
         _epochs("encoders.train_source_classifier.epochs")),
        (scorer, "iq_embedding_batch", "scorer.iq_embedding_batch", None),
        (scorer, "embed_batch", "scorer.embed_batch", None),
        (scorer, "embed_image_question", "scorer.embed_image_question", None),
        (scorer, "rank_candidates", "scorer.rank_candidates", _rank_candidates),
        (scorer, "candidate_scores", "scorer.candidate_scores", None),
        (scorer, "score_matrix", "scorer.score_matrix", _score_matrix),
        (trainer, "train_scorer", "trainer.train_scorer", _train_scorer),
        (trainer, "build_initial_dataset", "trainer.build_initial_dataset", None),
        (trainer, "mine_hard_negatives", "trainer.mine_hard_negatives", None),
        (trainer, "fact_precision", "trainer.fact_precision", None),
        (pipeline, "evaluate", "pipeline.evaluate", _evaluate),
        (pipeline, "answer_question", "pipeline.answer_question", _answer_question),
    ]
    return out


class Tracer:
    """Records spans while installed; :meth:`installed` patches and restores."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, parent, start, clock())
                stack.pop()
            if hook is not None:
                hook(counts, result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        entries = targets()  # imports every traced module before the alias scan
        modules = [m for n, m in sys.modules.items() if n == "factrank" or n.startswith("factrank.")]
        for owner, attr, name, hook in entries:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name, original.__func__, hook)))
                continue
            wrapped = self._wrap(name, original, hook)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # ``from .x import f`` copies the binding: patch every alias too
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._set(module, alias, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, parent, start, end) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[idx]
        return out


def dump(path: Path, header: dict, phases: dict[str, Tracer]) -> None:
    """Write a header line, then one ``[phase, name, parent, start, end]``
    line per span; ``parent`` indexes spans of the same phase."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for phase, tracer in phases.items():
            for span in tracer.spans:
                fh.write(json.dumps([phase, *span]) + "\n")
