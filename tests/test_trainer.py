import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.dataio import load_dataset, split_fold
from factrank.errors import DataError, UsageError
from factrank.kb import Fact, KnowledgeBase, Relation
from factrank.numerics import Tape, constant
from factrank import encoders, optim, scorer
from factrank.scorer import Variant, embed_batch, rank_candidates, score
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.trainer import (
    CandidateSet,
    MarginConfig,
    MiningState,
    build_initial_dataset,
    fact_precision,
    mine_hard_negatives,
    train_scorer,
)
from factrank.wordvec import FactMatrix, load_vectors

TINY_SYNTH = dict(
    seed=21,
    vocab_size=40,
    facts_per_relation=4,  # 52 facts
    qa_pairs=10,
    wordvec_dim=8,
    feature_dim=16,
    concept_labels=40,
)


@pytest.fixture(scope="module")
def tiny_synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_synth")
    generate_synthetic(SyntheticConfig(**TINY_SYNTH), out)
    instances, store, kb = load_dataset(
        out / "kb.tsv", out / "qa.jsonl", out / "features.txt", out / "concepts.txt", out / "concept_labels.txt"
    )
    table = load_vectors(out / "wordvec.txt", TINY_SYNTH["wordvec_dim"])
    return instances, store, kb, table


# ----------------------------------------------------------------------
# hinge loss (the training loss, Tape.hinge_mean, on one candidate row)
# ----------------------------------------------------------------------


def hinge_loss(scores, gt_index, margin=1.0):
    return Tape().hinge_mean(constant([scores]), [gt_index], margin).item()


def test_hinge_loss_margin_exactly_satisfied():
    assert hinge_loss([0.9, -0.1], gt_index=0, margin=1.0) == pytest.approx(0.0, abs=1e-12)


def test_hinge_loss_violated():
    assert hinge_loss([0.2, 0.5], gt_index=0, margin=1.0) == pytest.approx(1.3, abs=1e-12)


def test_hinge_loss_single_candidate_is_zero():
    assert hinge_loss([0.42], gt_index=0) == 0.0


def test_hinge_loss_bad_index():
    with pytest.raises(UsageError):
        hinge_loss([0.1, 0.2], gt_index=2)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 30))
def test_property_hinge_nonnegative_and_zero_iff_margin(seed, n):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-1, 1, size=n)
    gt = int(rng.integers(n))
    loss = hinge_loss(scores, gt, margin=1.0)
    assert loss >= 0.0
    others = np.delete(scores, gt)
    satisfied = others.size == 0 or scores[gt] >= others.max() + 1.0
    assert (loss == 0.0) == satisfied


# ----------------------------------------------------------------------
# candidate construction
# ----------------------------------------------------------------------


def _chain_kb(n):
    return KnowledgeBase([Fact(f"f{i:03d}", f"s{i}", Relation.IS_A, f"o{i}") for i in range(n)])


def test_initial_dataset_sizes(tiny_synth):
    instances, _, kb, _ = tiny_synth
    sets = build_initial_dataset(instances, kb, negatives=30, seed=0)
    assert len(sets) == len(instances)
    for cs, inst in zip(sets, instances):
        assert cs.gt_fact_id == inst.fact_id
        assert len(cs.candidate_ids()) == 31
        assert cs.gt_fact_id not in cs.negative_ids
        assert len(set(cs.negative_ids)) == len(cs.negative_ids)


def test_initial_dataset_kb_exhaustion():
    kb = _chain_kb(8)
    inst = [type("I", (), {"question_id": "q0", "image_id": "i0", "fact_id": "f003"})()]
    sets = build_initial_dataset(inst, kb, negatives=7, seed=1)
    assert sorted(sets[0].negative_ids) == sorted(set(kb.fact_ids()) - {"f003"})


def test_initial_dataset_deterministic(tiny_synth):
    instances, _, kb, _ = tiny_synth
    a = build_initial_dataset(instances, kb, negatives=20, seed=5)
    b = build_initial_dataset(instances, kb, negatives=20, seed=5)
    assert [cs.negative_ids for cs in a] == [cs.negative_ids for cs in b]


def test_initial_dataset_missing_fact_is_data_error():
    kb = _chain_kb(5)
    inst = [type("I", (), {"question_id": "q0", "image_id": "i0", "fact_id": "zzz"})()]
    with pytest.raises(DataError, match="zzz"):
        build_initial_dataset(inst, kb, negatives=2, seed=0)


def test_mining_selects_top_scored_pool_entries():
    kb = _chain_kb(300)
    current = [CandidateSet("q0", "i0", "f000", [f"f{i:03d}" for i in range(1, 100)])]
    rng = np.random.default_rng(2)
    pool = {f"f{i:03d}": float(300 - i) for i in range(1, 201)}  # 200 wrong facts, descending score
    mined = mine_hard_negatives({"q0": pool}, MiningState(iteration=1), current, kb, negatives=99, rng=rng)
    assert mined[0].gt_fact_id == "f000"
    assert mined[0].negative_ids == [f"f{i:03d}" for i in range(1, 100)]  # the 99 best scores
    assert len(mined[0].candidate_ids()) == 100


def test_mining_never_inserts_groundtruth():
    kb = _chain_kb(50)
    current = [CandidateSet("q0", "i0", "f007", [f"f{i:03d}" for i in range(1, 5) if i != 7])]
    pool = {"f007": 99.0, "f001": 1.0}  # gt sneaks into the pool with a top score
    mined = mine_hard_negatives({"q0": pool}, MiningState(iteration=1), current, kb, negatives=10,
                                rng=np.random.default_rng(3))
    assert "f007" not in mined[0].negative_ids
    assert mined[0].gt_fact_id == "f007"


def test_mining_empty_pool_falls_back_to_random():
    kb = _chain_kb(40)
    current = [CandidateSet("q0", "i0", "f000", ["f001", "f002"])]
    state = MiningState(iteration=1)
    mined = mine_hard_negatives({}, state, current, kb, negatives=5, rng=np.random.default_rng(4))
    assert state.empty_pool_fallbacks == 1
    assert len(mined[0].negative_ids) == 5
    assert "f000" not in mined[0].negative_ids


# ----------------------------------------------------------------------
# training runs
# ----------------------------------------------------------------------


def test_train_scorer_memorizes_tiny_dataset(tiny_synth):
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=0, epochs_per_iteration=60, mining_period=10,
                       negatives=30, batch_size=10, seed=2, variant=Variant.Q_VC)
    result = train_scorer(instances, kb, store, table, cfg, heldout=instances)
    final = [m for m in result.metrics if m["type"] == "iteration"][-1]
    assert final["precision1"] >= 0.9
    # cross-check the batched metric against the exact per-candidate ranking
    feats, cons = store.stack([i.image_id for i in instances])
    iq = embed_batch(result.params, feats, cons, [i.question for i in instances])
    fm = FactMatrix.build(kb, table)
    hits = sum(
        rank_candidates(iq[i], fm.fact_ids, fm, k=1)[0][0] == inst.fact_id
        for i, inst in enumerate(instances)
    )
    assert hits / len(instances) == pytest.approx(final["precision1"], abs=1e-12)


def hinge_floor(gt_row, negative_rows, margin=1.0):
    """Lowest hinge any output vector can reach on one candidate set.

    With ``u`` the unit output, ``g`` the unit groundtruth row and ``f_j``
    the unit negative rows, the hinge is ``max(0, margin - min_j u.(g - f_j))``
    (a zero-norm negative scores -inf and drops out), so no output goes below
    ``margin - dist(0, conv{g - f_j})``. With ``P`` the matrix of rows
    ``g - f_j``, pairwise Frank-Wolfe with exact line search moves the
    simplex weights ``lam`` toward the hull's nearest point. Every simplex
    ``lam`` has ``|P^T lam| >= dist``, so the returned ``margin - |P^T lam|``
    is at or below the true floor whatever the solver's error.
    """
    g = np.asarray(gt_row, dtype=np.float64)
    negs = np.asarray(negative_rows, dtype=np.float64)
    negs = negs[np.linalg.norm(negs, axis=1) > 0]
    p = g / np.linalg.norm(g) - negs / np.linalg.norm(negs, axis=1, keepdims=True)
    lam = np.full(len(p), 1.0 / len(p))
    for _ in range(10_000):
        x = p.T @ lam
        along = p @ x
        i = int(np.argmin(along))
        if x @ x - along[i] <= 1e-12:  # the Frank-Wolfe duality gap
            break
        a = int(np.argmax(np.where(lam > 0, along, -np.inf)))
        d = p[i] - p[a]
        step = min(lam[a], (along[a] - along[i]) / (d @ d))
        lam[a] -= step
        lam[i] += step
    return max(0.0, margin - float(np.linalg.norm(p.T @ lam)))


@pytest.mark.parametrize(
    "gt, negatives, floor",
    [
        # u = (1, 0) scores the groundtruth 1 and both negatives 0: the margin holds exactly
        ([1.0, 0.0], [[0.0, 1.0], [0.0, -1.0]], 0.0),
        # negatives at +-60 degrees: the hull {g - f_j} is the segment x = 1/2
        ([2.0, 0.0], [[0.5, 3**0.5 / 2], [1.0, -(3**0.5)]], 0.5),
        # a negative identical to the groundtruth always ties it: the hinge is the margin
        ([0.0, 3.0], [[0.0, 1.0], [1.0, 0.0]], 1.0),
        # a zero-norm negative scores -inf and drops out; the other one sits opposite
        ([1.0, 1.0], [[0.0, 0.0], [-1.0, -1.0]], 0.0),
    ],
)
def test_hinge_floor_matches_closed_form(gt, negatives, floor):
    assert hinge_floor(gt, negatives) == pytest.approx(floor, abs=1e-6)


def test_train_scorer_single_example_loss_nonincreasing(tiny_synth):
    # The hinge is piecewise linear in the scores, so a fixed-step Adam move
    # on its subgradient can raise the loss from one epoch to the next; what
    # training one example does promise is descent toward the candidate
    # set's floor, which no output vector can beat.
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=0, epochs_per_iteration=25, mining_period=30,
                       negatives=20, batch_size=1, seed=3)
    result = train_scorer(instances[:1], kb, store, table, cfg)
    losses = [m["loss"] for m in result.metrics if m["type"] == "epoch"]
    fm = FactMatrix.build(kb, table)
    cs = result.candidate_history[0][0]
    floor = hinge_floor(fm.row(cs.gt_fact_id), [fm.row(fid) for fid in cs.negative_ids], cfg.margin)
    assert all(loss >= floor - 1e-9 for loss in losses)
    assert losses[-1] - floor <= 0.25 * (losses[0] - floor)


def test_train_scorer_structural_invariants(tiny_synth):
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=2, epochs_per_iteration=2, mining_period=1,
                       negatives=15, batch_size=5, seed=4)
    result = train_scorer(instances, kb, store, table, cfg)
    assert len(result.candidate_history) == 3
    for sets in result.candidate_history:
        by_key = {cs.question_id for cs in sets}
        assert by_key == {i.question_id for i in instances}
        for cs, inst in zip(sets, instances):
            assert cs.gt_fact_id == inst.fact_id
            assert cs.gt_fact_id not in cs.negative_ids
            assert len(cs.candidate_ids()) == 16
    iteration_records = [m for m in result.metrics if m["type"] == "iteration"]
    assert len(iteration_records) == 3


def test_train_scorer_counts_fallbacks_on_the_iteration_they_fill(tiny_synth):
    instances, store, kb, table = tiny_synth
    # no epoch reaches the mining period, so every pool stays empty and all of
    # iteration 1's candidate sets fall back to random negatives
    cfg = MarginConfig(iterations=1, epochs_per_iteration=1, mining_period=2,
                       negatives=5, batch_size=5, seed=6)
    result = train_scorer(instances, kb, store, table, cfg)
    summaries = [m for m in result.metrics if m["type"] == "iteration"]
    assert [s["empty_pool_fallbacks"] for s in summaries] == [0, len(instances)]
    assert [s.empty_pool_fallbacks for s in result.mining_states] == [0, len(instances)]


def test_train_scorer_bitwise_deterministic(tiny_synth):
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=1, epochs_per_iteration=2, mining_period=1,
                       negatives=10, batch_size=5, seed=7)
    a = train_scorer(instances, kb, store, table, cfg, heldout=instances)
    b = train_scorer(instances, kb, store, table, cfg, heldout=instances)
    assert a.metrics == b.metrics
    for (name, pa), pb in zip(a.params.tensors.items(), b.params.tensors.values()):
        np.testing.assert_array_equal(pa.values, pb.values, err_msg=name)
    assert [cs.negative_ids for sets in a.candidate_history for cs in sets] == [
        cs.negative_ids for sets in b.candidate_history for cs in sets
    ]


def test_train_scorer_epoch_records_report_gradient_norms(tiny_synth, monkeypatch):
    instances, store, kb, table = tiny_synth
    seen = []  # (pre-clip norm, limit) of every batch, in order

    def recording_clip(params, max_norm):
        seen.append((optim.clip_gradients(params, max_norm), max_norm))
        return seen[-1][0]

    monkeypatch.setattr(encoders, "clip_gradients", recording_clip)
    cfg = MarginConfig(iterations=1, epochs_per_iteration=2, mining_period=1,
                       negatives=10, batch_size=3, seed=9, clip_norm=5.0)
    epochs = [m for m in train_scorer(instances, kb, store, table, cfg).metrics if m["type"] == "epoch"]
    batches = 4  # 10 instances in batches of 3
    assert len(epochs) == 4 and len(seen) == 4 * batches
    for i, record in enumerate(epochs):
        norms = [g for g, _ in seen[i * batches : (i + 1) * batches]]
        assert all(limit == 5.0 for _, limit in seen)
        assert record["grad_norm_mean"] == float(np.mean(norms))
        assert record["grad_norm_max"] == max(norms)
        assert record["clipped_fraction"] == sum(g > 5.0 for g in norms) / batches
    assert any(0.0 < r["clipped_fraction"] < 1.0 for r in epochs)


def test_train_scorer_fresh_start_mode(tiny_synth):
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=1, epochs_per_iteration=1, mining_period=1,
                       negatives=5, batch_size=10, seed=8, reinitialize_each_iteration=True)
    result = train_scorer(instances, kb, store, table, cfg)
    assert len(result.candidate_history) == 2


def test_margin_config_validation():
    with pytest.raises(UsageError):
        MarginConfig(margin=0.0).validate()
    with pytest.raises(UsageError):
        MarginConfig(negatives=0).validate()
    with pytest.raises(UsageError):
        MarginConfig(iterations=-1).validate()


def test_fact_precision_is_deterministic(tiny_synth):
    instances, store, kb, table = tiny_synth
    from factrank.encoders import Vocabulary
    from factrank.scorer import ScorerDims, ScorerParams

    fm = FactMatrix.build(kb, table)
    params = ScorerParams.init(
        Vocabulary.build(i.question for i in instances),
        np.random.default_rng(9),
        ScorerDims(image_dim=16, concept_dim=40, output_dim=16),
    )
    a = fact_precision(params, instances, store, fm)
    b = fact_precision(params, instances, store, fm)
    assert a == b


def _untrained_scorer(instances, seed=9):
    from factrank.encoders import Vocabulary
    from factrank.scorer import ScorerDims, ScorerParams

    return ScorerParams.init(Vocabulary.build(i.question for i in instances), np.random.default_rng(seed),
                             ScorerDims(image_dim=16, concept_dim=40, output_dim=16))


def test_fact_precision_equals_an_exact_dense_reference(tiny_synth):
    instances, store, kb, table = tiny_synth
    fm = FactMatrix.build(kb, table)
    params = _untrained_scorer(instances)
    feats, cons = store.stack([i.image_id for i in instances])
    iq = embed_batch(params, feats, cons, [i.question for i in instances])
    # every (question, fact) scalar cosine, each question's facts sorted by (-score, fact id)
    ranked = [sorted(kb.fact_ids(), key=lambda f: (-score(fm.row(f), v), f)) for v in iq]
    # groundtruths placed at ranks 1-4 and 40, so both rates are strictly between 0 and 1
    placed = [dataclasses.replace(inst, fact_id=r[[0, 1, 2, 3, 39][i % 5]])
              for i, (inst, r) in enumerate(zip(instances, ranked))]
    expected = {
        "precision1": float(np.mean([r[0] == i.fact_id for r, i in zip(ranked, placed)])),
        "precision3": float(np.mean([i.fact_id in r[:3] for r, i in zip(ranked, placed)])),
    }
    assert 0.0 < expected["precision1"] < expected["precision3"] < 1.0
    assert fact_precision(params, placed, store, fm) == expected


def test_fact_precision_holds_no_dense_matrix(tiny_synth, monkeypatch):
    instances, store, kb, _ = tiny_synth
    params = _untrained_scorer(instances)
    # a dense (10 x 20,000) score matrix is 1.6 MB, over five times the
    # ~0.3 MB the embedding network peaks at for these questions
    n = 20_000
    ids = [*kb.fact_ids(), *(f"x{i:05d}" for i in range(n - len(kb)))]
    fm = FactMatrix.from_rows(ids, np.random.default_rng(10).standard_normal((n, 16)))
    monkeypatch.setattr(scorer, "BLOCK_ELEMENTS", 2000)  # 200 rows per block: 100 blocks
    dense_bytes = len(instances) * n * 8
    tracemalloc.start()
    try:
        fact_precision(params, instances, store, fm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


def test_fact_precision_zero_norm_embedding_is_usage_error(tiny_synth):
    instances, store, kb, table = tiny_synth
    params = _untrained_scorer(instances)
    for t in params.tensors.values():
        t.values[...] = 0.0
    with pytest.raises(UsageError, match="zero-norm"):
        fact_precision(params, instances, store, FactMatrix.build(kb, table))
