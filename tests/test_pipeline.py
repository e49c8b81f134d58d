import dataclasses

import pytest

from factrank.encoders import EncoderTrainConfig, train_relation_classifier, train_source_classifier
from factrank.errors import DataError
from factrank.kb import KnowledgeBase
from factrank.pipeline import PipelineModels, answer_question, evaluate
from factrank.scorer import embed_batch, rank_candidates
from factrank.trainer import MarginConfig, train_scorer
from factrank.wordvec import FactMatrix


@pytest.fixture(scope="module")
def models(small_synth, small_split):
    train, _ = small_split
    store, kb, table = small_synth["store"], small_synth["kb"], small_synth["table"]
    fm = FactMatrix.build(kb, table)
    enc = EncoderTrainConfig(epochs=8, lr=1e-2, batch_size=16, seed=1)
    relation, _ = train_relation_classifier([(i.question, i.relation) for i in train], enc)
    source, _ = train_source_classifier([(i.question, i.source) for i in train], enc)
    cfg = MarginConfig(iterations=0, epochs_per_iteration=8, negatives=20, batch_size=16, lr=1e-2, seed=1)
    result = train_scorer(train, kb, store, table, cfg, fact_matrix=fm)
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


def test_answer_question_is_evaluate_on_one_question(models, small_synth, small_split):
    _, test = small_split
    kb, store = small_synth["kb"], small_synth["store"]
    for inst in test[:6]:
        answered = answer_question(models, kb, store.feature(inst.image_id), store.concept(inst.image_id),
                                   inst.question, k=2, question_id=inst.question_id, image_id=inst.image_id)
        evaluated = evaluate(models, kb, [inst], store, k=2)[1][0]
        assert answered.status == "ok"
        assert answered == evaluated


def test_empty_bucket_is_no_fact_on_both_paths(models, small_synth, small_split):
    _, test = small_split
    store, inst = small_synth["store"], test[0]
    kb = KnowledgeBase([f for f in small_synth["kb"].facts() if f.relation is not inst.relation])
    models = dataclasses.replace(models, fact_matrix=FactMatrix.build(kb, small_synth["table"]))
    answered = answer_question(models, kb, store.feature(inst.image_id), store.concept(inst.image_id),
                               inst.question, question_id=inst.question_id, image_id=inst.image_id,
                               oracle_relation=inst.relation, oracle_source=inst.source)
    metrics, [evaluated] = evaluate(models, kb, [inst], store, oracle_relation=True, oracle_source=True)
    assert answered == evaluated
    assert (answered.status, answered.top_facts, answered.answer) == ("no_fact", [], None)
    assert (metrics.no_fact_count, metrics.fact_at3, metrics.relation_at1, metrics.source_acc) == (1, 0.0, 1.0, 1.0)


def test_a_bucket_the_fact_matrix_sizes_differently_from_the_kb_is_a_data_error(models, small_synth, small_split):
    # the bucket's rows are named by the KB's ids in order, so the matrix must be the KB's own
    _, test = small_split
    store, inst = small_synth["store"], test[0]
    dropped = small_synth["kb"].ids_with_relation(inst.relation)[0]
    kb = KnowledgeBase([f for f in small_synth["kb"].facts() if f.fact_id != dropped])
    match = r"the fact matrix \(104 rows\) was not built from this knowledge base \(103 facts\)"
    with pytest.raises(DataError, match=match):
        evaluate(models, kb, [inst], store, oracle_relation=True, oracle_source=True)


def test_ranking_names_bucket_rows_by_the_fact_matrix_ids_without_copying_the_kb_ones(models, small_synth,
                                                                                      small_split, monkeypatch):
    _, test = small_split
    kb, store = small_synth["kb"], small_synth["store"]
    expected = evaluate(models, kb, test, store)

    class Unsliceable(list):
        def __getitem__(self, index):
            if isinstance(index, slice):
                pytest.fail("copied bucket ids")
            return super().__getitem__(index)

    ids = Unsliceable(kb.ids)
    monkeypatch.setattr(kb, "ids", ids)
    monkeypatch.setattr(models.fact_matrix, "fact_ids", ids)
    monkeypatch.setattr(KnowledgeBase, "ids_with_relation", lambda self, relation: pytest.fail("copied bucket ids"))
    assert evaluate(models, kb, test, store) == expected


def test_evaluate_equals_a_loop_of_answer_question(models, small_synth, small_split):
    # evaluate ranks each bucket once for all its questions
    _, test = small_split
    kb, store = small_synth["kb"], small_synth["store"]
    _, evaluated = evaluate(models, kb, test, store, k=3, oracle_relation=True)
    assert len({p.relation for p in evaluated}) > 1
    feats, cons = store.stack([i.image_id for i in test])
    iq = embed_batch(models.scorer, feats, cons, [i.question for i in test])
    for inst, e, v in zip(test, evaluated, iq):
        a = answer_question(models, kb, store.feature(inst.image_id), store.concept(inst.image_id), inst.question,
                            k=3, question_id=inst.question_id, image_id=inst.image_id, oracle_relation=inst.relation)
        # bitwise on evaluate's own embeddings, one question at a time
        assert rank_candidates(v, kb.ids_with_relation(inst.relation), models.fact_matrix, 3) == e.top_facts
        # a batch of one embeds within rounding of the batch (see test_lstm_batch_rows_match_single_runs)
        assert (a.status, a.relation, a.source, a.answer) == (e.status, e.relation, e.source, e.answer)
        assert [f for f, _ in a.top_facts] == [f for f, _ in e.top_facts]
        assert [s for _, s in a.top_facts] == pytest.approx([s for _, s in e.top_facts], abs=1e-12)
        assert a.source_prob == pytest.approx(e.source_prob, abs=1e-12)
