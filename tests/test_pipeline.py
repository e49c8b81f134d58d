import tracemalloc
from collections import Counter

import numpy as np
import pytest

from factrank.encoders import EncoderTrainConfig, train_relation_classifier, train_source_classifier
from factrank.kb import Fact, KnowledgeBase
from factrank.pipeline import PipelineModels, answer_question, evaluate
from factrank.scorer import ScorerDims, embed_batch, rank_candidates
from factrank.trainer import MarginConfig, train_scorer
from factrank.wordvec import FactMatrix


@pytest.fixture(scope="module")
def models(small_synth, small_split):
    train, _ = small_split
    store, kb, table = small_synth["store"], small_synth["kb"], small_synth["table"]
    fm = FactMatrix.build(kb, table)
    enc = EncoderTrainConfig(epochs=8, lr=1e-2, embed_dim=12, hidden_dim=12, batch_size=16, seed=1)
    relation, _ = train_relation_classifier([(i.question, i.relation) for i in train], enc)
    source, _ = train_source_classifier([(i.question, i.source) for i in train], enc)
    dims = ScorerDims(image_dim=store.feature_dim, image_proj=8, question_embed=12, question_hidden=12,
                      mlp1=16, mlp2=12, concept_dim=store.concept_dim, concept_proj=12, output_dim=fm.dim)
    cfg = MarginConfig(iterations=0, epochs_per_iteration=8, negatives=20, batch_size=16, lr=1e-2, seed=1)
    result = train_scorer(train, kb, store, table, cfg, dims=dims, fact_matrix=fm)
    return PipelineModels(result.params, fm, relation, source)


def test_evaluate_metrics_do_not_depend_on_k(models, small_synth, small_split):
    _, test = small_split
    kb, store = small_synth["kb"], small_synth["store"]
    # the groundtruth relation picks the right bucket, so facts ranked second
    # or third are groundtruth for some questions
    m1, p1 = evaluate(models, kb, test, store, k=1, oracle_relation=True)
    m3, p3 = evaluate(models, kb, test, store, k=3, oracle_relation=True)
    assert m3.fact_at3 > m3.fact_at1
    assert m1 == m3
    assert all(len(a.top_facts) == 1 and a.top_facts == b.top_facts[:1] for a, b in zip(p1, p3))


@pytest.mark.parametrize("tie_break", ["id", "random"])
def test_answer_question_is_evaluate_on_one_question(models, small_synth, small_split, tie_break):
    _, test = small_split
    kb, store = small_synth["kb"], small_synth["store"]
    rng = (lambda: np.random.default_rng(5)) if tie_break == "random" else (lambda: None)
    for inst in test[:6]:
        answered = answer_question(models, kb, store.feature(inst.image_id), store.concept(inst.image_id),
                                   inst.question, k=2, question_id=inst.question_id, image_id=inst.image_id,
                                   tie_break=tie_break, rng=rng())
        evaluated = evaluate(models, kb, [inst], store, k=2, tie_break=tie_break, rng=rng())[1][0]
        assert answered.status == "ok"
        assert answered == evaluated


def test_empty_bucket_is_no_fact_on_both_paths(models, small_synth, small_split):
    _, test = small_split
    store, inst = small_synth["store"], test[0]
    kb = KnowledgeBase([f for f in small_synth["kb"].facts() if f.relation is not inst.relation])
    answered = answer_question(models, kb, store.feature(inst.image_id), store.concept(inst.image_id),
                               inst.question, question_id=inst.question_id, image_id=inst.image_id,
                               oracle_relation=inst.relation, oracle_source=inst.source)
    metrics, [evaluated] = evaluate(models, kb, [inst], store, oracle_relation=True, oracle_source=True)
    assert answered == evaluated
    assert (answered.status, answered.top_facts, answered.answer) == ("no_fact", [], None)
    assert (metrics.no_fact_count, metrics.fact_at3, metrics.relation_at1, metrics.source_acc) == (1, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("tie_break", ["id", "random"])
def test_evaluate_equals_a_loop_of_answer_question(models, small_synth, small_split, tie_break):
    # evaluate ranks each bucket once for all its questions; random ties
    # still draw one jitter per bucket member, question by question
    _, test = small_split
    kb, store = small_synth["kb"], small_synth["store"]
    rng = (lambda: np.random.default_rng(7)) if tie_break == "random" else (lambda: None)
    _, evaluated = evaluate(models, kb, test, store, k=3, oracle_relation=True, tie_break=tie_break, rng=rng())
    assert len({p.relation for p in evaluated}) > 1
    feats, cons = store.stack([i.image_id for i in test])
    iq = embed_batch(models.scorer, feats, cons, [i.question for i in test])
    answer_rng, rank_rng = rng(), rng()
    for inst, e, v in zip(test, evaluated, iq):
        a = answer_question(models, kb, store.feature(inst.image_id), store.concept(inst.image_id), inst.question,
                            k=3, question_id=inst.question_id, image_id=inst.image_id, oracle_relation=inst.relation,
                            tie_break=tie_break, rng=answer_rng)
        # bitwise on evaluate's own embeddings, one question at a time
        assert rank_candidates(v, kb.ids_with_relation(inst.relation), models.fact_matrix, 3, tie_break,
                               rank_rng) == e.top_facts
        # a batch of one embeds within rounding of the batch (see test_lstm_batch_rows_match_single_runs)
        assert (a.status, a.relation, a.source, a.answer) == (e.status, e.relation, e.source, e.answer)
        assert [f for f, _ in a.top_facts] == [f for f, _ in e.top_facts]
        assert [s for _, s in a.top_facts] == pytest.approx([s for _, s in e.top_facts], abs=1e-12)
        assert a.source_prob == pytest.approx(e.source_prob, abs=1e-12)


def test_random_ties_hold_one_bucket_of_jitter_at_a_time(models, small_synth):
    # every question of a bucket draws a jitter as long as the bucket; only
    # one of them may be alive at a time, whatever the question count
    relations = [r for r, _ in Counter(i.relation for i in small_synth["instances"]).most_common(3)]
    instances = [i for i in small_synth["instances"] if i.relation in relations]
    per_bucket = 4000
    facts = [Fact(f"r{j}f{n:04d}", f"s{n}", r, f"o{n}") for j, r in enumerate(relations) for n in range(per_bucket)]
    rows = np.random.default_rng(11).standard_normal((len(facts), models.fact_matrix.dim))
    buckets = {r: slice(j * per_bucket, (j + 1) * per_bucket) for j, r in enumerate(relations)}
    three = PipelineModels(models.scorer, FactMatrix.from_rows([f.fact_id for f in facts], rows, buckets))
    kb = KnowledgeBase(facts)
    peaks = {}
    for tie_break in ("id", "random"):
        tracemalloc.start()
        try:
            evaluate(three, kb, instances, small_synth["store"], oracle_relation=True, oracle_source=True,
                     tie_break=tie_break, rng=np.random.default_rng(12))
            peaks[tie_break] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(instances) >= 10
    assert peaks["random"] - peaks["id"] <= per_bucket * 8 + 8192
