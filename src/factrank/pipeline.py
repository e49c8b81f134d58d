"""End-to-end inference and the evaluation harness.

Answering a question runs three frozen models: the relation classifier
narrows the knowledge base to one relation bucket, the scorer ranks that
bucket by cosine against the image-question embedding, and the source
classifier decides whether the top fact's subject or object is the
answer. An empty relation bucket is a reported "no_fact" outcome, never a
crash, and counts as wrong during evaluation.

One private core, :func:`_predict`, runs this for a batch of questions,
ranking each bucket's questions in one ``scorer.rank_rows`` call, ties by
fact id (on the KB's integer id ranks): :func:`evaluate` calls it on a
dataset fold and tallies the metrics, and :func:`answer_question` calls it
on a batch of one. The ranking is exact for the embeddings computed, which
depend on their batch at rounding level. The columnar KB's
bucket slices are the fact matrix's row blocks, so the matrix must be the
one built from that KB. Ranking returns KB rows, and they stay rows until
output: a prediction names only the rows it lists, decoding their ids
from the KB's sorted id column (a ``text.Names``), and every answer is
read from a row by ``KnowledgeBase.answer``. It takes the relation order
and the source rule from ``encoders.ranked_relations`` and
``encoders.answer_source``. The fields of :class:`Metrics` are the one list
of metric names, for records, fold averages and the CLI table.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from .dataio import FeatureStore, QAInstance
from .encoders import Classifier, answer_source, predict_relation_batch, predict_source_batch, ranked_relations
from .errors import UsageError
from .kb import AnswerSource, KnowledgeBase, Relation
from .scorer import ScorerParams, check_width, embed_batch, rank_rows
from .text import normalize_phrase
from .wordvec import FactMatrix

Array = np.ndarray

# Results on the full FVQA release for the question + visual-concepts
# variant (percent). Reaching them needs the complete dataset with
# precomputed CNN features and hours of training; expect roughly +/- 3
# points depending on data preparation and hardware.
FVQA_REFERENCE = {
    "relation_at1": 75.4,
    "relation_at3": 91.97,
    "source_acc": 97.3,
    "answer_at1": 62.20,
    "answer_at3": 75.60,
    "fact_at1": 64.50,
    "fact_at3": 76.20,
}
FVQA_REFERENCE_TOLERANCE = 3.0


@dataclass
class PipelineModels:
    scorer: ScorerParams
    fact_matrix: FactMatrix
    relation: Classifier | None = None
    source: Classifier | None = None


@dataclass
class Prediction:
    question_id: str
    image_id: str
    status: str  # "ok" or "no_fact"
    relation: Relation | None
    relation_probs: list[tuple[Relation, float]]
    source: AnswerSource
    source_prob: float
    top_facts: list[tuple[str, float]]
    answer: str | None

    def as_record(self) -> dict:
        return {
            "question_id": self.question_id,
            "image_id": self.image_id,
            "status": self.status,
            "relation": self.relation.value if self.relation else None,
            "source": self.source.value,
            "source_prob": self.source_prob,
            "top_facts": [[fid, s] for fid, s in self.top_facts],
            "answer": self.answer,
        }


@dataclass
class Metrics:
    """Rates, each a fraction of the evaluated questions with its table
    label, then counts; across folds the rates average and the counts add up."""

    answer_at1: float = field(metadata={"label": "ans@1"})
    answer_at3: float = field(metadata={"label": "ans@3"})
    fact_at1: float = field(metadata={"label": "fact@1"})
    fact_at3: float = field(metadata={"label": "fact@3"})
    relation_at1: float = field(metadata={"label": "rel@1"})
    relation_at3: float = field(metadata={"label": "rel@3"})
    source_acc: float = field(metadata={"label": "source"})
    count: int
    no_fact_count: int

    def as_dict(self) -> dict:
        return asdict(self)


RATE_FIELDS = [f for f in fields(Metrics) if "label" in f.metadata]


def answers_match(predicted: str | None, expected: str) -> bool:
    """Whether the phrases' ``text.normalize_phrase`` forms are equal, the rule by which
    ``dataio.validate_dataset`` accepts an answer; no prediction is a miss."""
    return predicted is not None and normalize_phrase(predicted) == normalize_phrase(expected)


def _predict(
    models: PipelineModels,
    kb: KnowledgeBase,
    questions: Sequence[str],
    feats: Array,
    concepts: Array,
    ids: Sequence[tuple[str, str]],
    oracle_relations: Sequence[Relation] | None,
    oracle_sources: Sequence[AnswerSource] | None,
    k: int,
) -> list[tuple[Prediction, Array]]:
    """Predict a batch of questions; ``ids`` holds (question id, image id).

    Returns each question's prediction, whose ``top_facts`` names its ``k``
    best rows, together with its top ``max(k, 3)`` KB rows, so metrics at 3
    never depend on ``k``. Oracle sequences replace the corresponding
    classifier's predictions.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    fm = models.fact_matrix
    fm.check_built_from(kb)
    check_width(models.scorer, fm.dim)
    if oracle_relations is not None:
        relations = [[(r, 1.0)] for r in oracle_relations]
    else:
        if models.relation is None:
            raise UsageError("no relation classifier loaded and no oracle relation given")
        relations = [ranked_relations(row)[:3] for row in predict_relation_batch(models.relation, questions)]
    if oracle_sources is not None:
        sources = [(s, 1.0) for s in oracle_sources]
    else:
        if models.source is None:
            raise UsageError("no source classifier loaded and no oracle source given")
        sources = [(answer_source(p), float(p)) for p in predict_source_batch(models.source, questions)]
    iq_mat = embed_batch(models.scorer, feats, concepts, questions)

    top_relation = [ranked[0][0] for ranked in relations]
    tops = {}
    for relation in dict.fromkeys(top_relation):
        members = [i for i, r in enumerate(top_relation) if r is relation]
        bucket = kb.buckets[relation]  # empty for a relation the KB lacks: no_fact
        tops.update(zip(members, rank_rows(iq_mat[members], fm.rows[bucket], fm.norms[bucket], kb.ids.rank,
                                           max(k, 3), bucket.start)))

    out = []
    for i, ((question_id, image_id), ranked, (source, source_prob)) in enumerate(zip(ids, relations, sources)):
        rows, scores = tops[i]
        prediction = Prediction(
            question_id=question_id,
            image_id=image_id,
            status="ok" if len(rows) else "no_fact",
            relation=ranked[0][0],
            relation_probs=ranked,
            source=source,
            source_prob=source_prob,
            top_facts=[(kb.ids[r], x) for r, x in zip(rows[:k].tolist(), scores[:k].tolist())],
            answer=kb.answer(rows[0], source) if len(rows) else None,
        )
        out.append((prediction, rows))
    return out


def answer_question(
    models: PipelineModels,
    kb: KnowledgeBase,
    feat: Array,
    concepts: Array,
    question: str,
    k: int = 3,
    question_id: str = "",
    image_id: str = "",
) -> Prediction:
    """Answer one question with the frozen model bundle.

    The candidate pool is the top predicted relation's bucket; equal scores
    go by fact id.
    """
    [(prediction, _)] = _predict(
        models,
        kb,
        [question],
        np.asarray(feat)[None, :],
        np.asarray(concepts)[None, :],
        [(question_id, image_id)],
        None,
        None,
        k,
    )
    return prediction


def evaluate(
    models: PipelineModels,
    kb: KnowledgeBase,
    instances: Sequence[QAInstance],
    store: FeatureStore,
    k: int = 3,
    oracle_relation: bool = False,
    oracle_source: bool = False,
) -> tuple[Metrics, list[Prediction]]:
    """Score a dataset fold and return per-question predictions.

    Relation, source and embedding predictions run batched. The questions
    of each relation bucket, a contiguous block of fact-matrix rows, are
    scored by one GEMM; only each question's shortlist within rounding of
    its third-best score is rescored by the exact cosine, so the ranking
    is bitwise the exhaustive one for the embeddings computed, ties by fact
    id. An embedding depends on its batch at rounding level, so scores can
    differ in the last bits from those of :func:`answer_question`. Oracle
    switches feed the groundtruth relation and/or source through the
    pipeline instead of the classifier predictions.

    Top-3 answer accuracy derives one answer from each of the top three
    facts using the single predicted source. Every metric comes from the
    top three facts whatever ``k``, which only sets how many facts each
    prediction lists.
    """
    if not instances:
        raise UsageError("evaluate needs at least one instance")
    feats, cons = store.stack([i.image_id for i in instances])
    results = _predict(
        models,
        kb,
        [i.question for i in instances],
        feats,
        cons,
        [(i.question_id, i.image_id) for i in instances],
        [i.relation for i in instances] if oracle_relation else None,
        [i.source for i in instances] if oracle_source else None,
        k,
    )
    ans1 = ans3 = fact1 = fact3 = rel1 = rel3 = src = no_fact = 0
    gts = kb.ids.rows([i.fact_id for i in instances]).tolist()  # -1, a miss, for a groundtruth the KB lacks
    for inst, gt, (p, rows) in zip(instances, gts, results):
        rel1 += p.relation is inst.relation
        rel3 += inst.relation in [r for r, _ in p.relation_probs]
        src += p.source is inst.source
        if not len(rows):
            no_fact += 1
            continue
        top3 = rows[:3].tolist()
        answers, expected = [normalize_phrase(kb.answer(r, p.source)) for r in top3], normalize_phrase(inst.answer)
        fact1 += top3[0] == gt
        fact3 += gt in top3
        ans1 += answers[0] == expected  # answers_match, each phrase normalized once
        ans3 += expected in answers
    n = len(instances)
    metrics = Metrics(
        answer_at1=ans1 / n,
        answer_at3=ans3 / n,
        fact_at1=fact1 / n,
        fact_at3=fact3 / n,
        relation_at1=rel1 / n,
        relation_at3=rel3 / n,
        source_acc=src / n,
        count=n,
        no_fact_count=no_fact,
    )
    return metrics, [p for p, _ in results]


def average_metrics(per_fold: dict[int, Metrics]) -> dict:
    """Mean of every rate and sum of every count across folds."""
    if not per_fold:
        raise UsageError("no fold metrics to average")
    out = {f.name: float(np.mean([getattr(m, f.name) for m in per_fold.values()])) for f in RATE_FIELDS}
    counts = [f for f in fields(Metrics) if f not in RATE_FIELDS]
    out.update({f.name: int(sum(getattr(m, f.name) for m in per_fold.values())) for f in counts})
    return out
