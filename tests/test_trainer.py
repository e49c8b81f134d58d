import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.dataio import load_dataset, split_fold
from factrank.errors import DataError, DegenerateInputError, UsageError
from factrank.kb import Fact, KnowledgeBase, Relation
from factrank.numerics import Tape, constant
from factrank import encoders, optim, scorer, trainer
from factrank.scorer import Variant, embed_batch, rank_candidates, score
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.trainer import (
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


# The id-based sampler that the KB-position arrays replaced, kept as the
# oracle: candidate sets as fact-id lists, pools as {question_id: {fact_id:
# score}} dicts filled by a per-row loop.


@dataclasses.dataclass
class OracleSet:
    question_id: str
    gt_fact_id: str
    negative_ids: list[str]


def oracle_initial_dataset(instances, kb, negatives, seed):
    rng = np.random.default_rng([seed, 29])
    all_ids = kb.fact_ids()
    index_of = {fid: i for i, fid in enumerate(all_ids)}
    sets = []
    for inst in instances:
        gt_idx = index_of[inst.fact_id]
        n = min(negatives, len(all_ids) - 1)
        draw = rng.choice(len(all_ids) - 1, size=n, replace=False)
        negs = [all_ids[c if c < gt_idx else c + 1] for c in draw]
        sets.append(OracleSet(inst.question_id, inst.fact_id, negs))
    return sets


def oracle_mine(pools, current, kb, negatives, rng):
    """(next sets, empty-pool fallbacks)."""
    all_ids = kb.fact_ids()
    new_sets, fallbacks = [], 0
    for cs in current:
        n = min(negatives, len(all_ids) - 1)
        pool = pools.get(cs.question_id, {})
        entries = [(fid, s) for fid, s in pool.items() if fid != cs.gt_fact_id]
        entries.sort(key=lambda e: (-e[1], e[0]))
        chosen = [fid for fid, _ in entries[:n]]
        if not entries:
            fallbacks += 1
        shortfall = n - len(chosen)
        if shortfall > 0:
            excluded = set(chosen)
            excluded.add(cs.gt_fact_id)
            remaining = [fid for fid in all_ids if fid not in excluded]
            draw = rng.choice(len(remaining), size=shortfall, replace=False)
            chosen += [remaining[i] for i in draw]
        new_sets.append(OracleSet(cs.question_id, cs.gt_fact_id, chosen))
    return new_sets, fallbacks


def oracle_harvest(pools, sets, batch, scores, margin):
    gt = scores[:, 0]
    for row, inst_idx in enumerate(batch):
        cs = sets[inst_idx]
        pool = pools.setdefault(cs.question_id, {})
        for j in np.nonzero(scores[row, 1:] > gt[row] - margin)[0]:
            fid = cs.negative_ids[j]
            s = float(scores[row, j + 1])
            if fid not in pool or s > pool[fid]:
                pool[fid] = s


def as_ids(sets, kb):
    """Candidate-array rows as fact-id lists, groundtruth first."""
    ids = kb.fact_ids()
    return [[ids[p] for p in row] for row in sets]


def oracle_ids(sets):
    return [[cs.gt_fact_id, *cs.negative_ids] for cs in sets]


def oracle_pools(pools, sets, kb):
    """The array ``pools`` over ``sets`` as the oracle's dicts, keyed by
    the question ids that :func:`_questions` gives."""
    ids = kb.fact_ids()
    return {f"q{i}": {ids[p]: float(s) for p, s in zip(row[1:], pool) if s > -np.inf}
            for i, (row, pool) in enumerate(zip(sets, pools))}


def _chain_kb(n):
    return KnowledgeBase([Fact(f"f{i:03d}", f"s{i}", Relation.IS_A, f"o{i}") for i in range(n)])


def _interleaved_kb(n, seed=0):
    """``n`` facts whose load order cycles through the relations and whose
    ids are shuffled, so a KB position is neither a fact-matrix row (those
    go bucket by bucket) nor the id order."""
    relations = list(Relation)
    names = np.random.default_rng(seed).permutation(n)
    return KnowledgeBase([Fact(f"f{names[i]:03d}", f"s{i}", relations[i % len(relations)], f"o{i}")
                          for i in range(n)])


def _questions(kb, count, seed=0):
    ids = kb.fact_ids()
    picks = np.random.default_rng(seed).integers(len(ids), size=count)
    return [SimpleNamespace(question_id=f"q{i}", image_id=f"i{i}", fact_id=ids[p]) for i, p in enumerate(picks)]


def test_initial_dataset_sizes(tiny_synth):
    instances, _, kb, _ = tiny_synth
    sets = build_initial_dataset(instances, kb, negatives=30, seed=0)
    assert sets.shape == (len(instances), 31)
    for row, inst in zip(as_ids(sets, kb), instances):
        assert row[0] == inst.fact_id
        assert inst.fact_id not in row[1:]
        assert len(set(row)) == 31


def test_initial_dataset_kb_exhaustion():
    kb = _chain_kb(8)
    sets = build_initial_dataset(_questions(kb, 3), kb, negatives=700, seed=1)
    assert sets.shape == (3, 8)
    assert all(sorted(row) == list(range(8)) for row in sets)
    assert as_ids(sets, kb) == oracle_ids(oracle_initial_dataset(_questions(kb, 3), kb, 700, 1))


def test_initial_dataset_deterministic(tiny_synth):
    instances, _, kb, _ = tiny_synth
    a = build_initial_dataset(instances, kb, negatives=20, seed=5)
    b = build_initial_dataset(instances, kb, negatives=20, seed=5)
    np.testing.assert_array_equal(a, b)


def test_initial_dataset_matches_the_id_oracle_on_an_interleaved_kb():
    kb = _interleaved_kb(60)
    questions = _questions(kb, 25)
    sets = build_initial_dataset(questions, kb, negatives=12, seed=3)
    assert as_ids(sets, kb) == oracle_ids(oracle_initial_dataset(questions, kb, 12, 3))


def test_initial_dataset_missing_fact_is_data_error():
    kb = _chain_kb(5)
    inst = [type("I", (), {"question_id": "q0", "image_id": "i0", "fact_id": "zzz"})()]
    with pytest.raises(DataError, match="zzz"):
        build_initial_dataset(inst, kb, negatives=2, seed=0)


@pytest.mark.parametrize("negatives", [12, 700])
def test_mining_matches_the_id_oracle(negatives):
    # pools with ties (three score levels), partly and wholly empty rows and
    # full rows, on a KB whose positions, fact-matrix rows and id order all differ
    kb = _interleaved_kb(60, seed=1)
    questions = _questions(kb, 30, seed=2)
    current = build_initial_dataset(questions, kb, negatives, seed=4)
    rng = np.random.default_rng(5)
    pools = np.where(rng.random(current[:, 1:].shape) < 0.3, rng.integers(3, size=current[:, 1:].shape) / 4, -np.inf)
    pools[3] = -np.inf
    pools[4] = 0.5
    state = MiningState(iteration=1, pools=np.full(pools.shape, -np.inf))
    mined = mine_hard_negatives(pools, state, current, kb, np.random.default_rng(6))
    expected, fallbacks = oracle_mine(oracle_pools(pools, current, kb), oracle_initial_dataset(questions, kb, negatives, 4),
                                      kb, negatives, np.random.default_rng(6))
    assert mined.shape == current.shape
    assert as_ids(mined, kb) == oracle_ids(expected)
    assert state.empty_pool_fallbacks == fallbacks >= 1


def test_mining_selects_top_scored_pool_entries():
    kb = _chain_kb(300)
    current = np.arange(100)[None, :]  # f000 and the negatives f001..f099
    pools = (300.0 - np.arange(1, 100))[None, :]  # descending score
    pools[0, 50:] = pools[0, 49]  # a tie over the tail, broken by fact id
    pools[0, [60, 70]] = -np.inf
    mined = mine_hard_negatives(pools, MiningState(iteration=1, pools=pools), current, kb, np.random.default_rng(2))
    ids = as_ids(mined, kb)[0]
    assert ids[0] == "f000"
    assert ids[1:98] == [f"f{i:03d}" for i in range(1, 100) if i not in (61, 71)]
    assert len(set(ids)) == 100  # topped up from the rest of the KB


def test_mining_breaks_ties_by_fact_id_not_kb_position():
    kb = KnowledgeBase([Fact(f"f{9 - i}", f"s{i}", Relation.IS_A, f"o{i}") for i in range(10)])  # ids in reverse
    current = np.arange(10)[None, :]
    pools = np.full((1, 9), 0.25)
    mined = mine_hard_negatives(pools, MiningState(iteration=1, pools=pools), current, kb, np.random.default_rng(0))
    assert as_ids(mined, kb) == [["f9", *(f"f{i}" for i in range(9))]]


def test_mining_never_inserts_groundtruth():
    # one pooled negative, so the top-up draws all but one of the other facts:
    # every draw must skip the groundtruth, which sits mid-KB
    kb = _chain_kb(12)
    current = np.array([[7, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11]])
    pools = np.full((1, 10), -np.inf)
    pools[0, 4] = 0.1
    for seed in range(20):
        mined = mine_hard_negatives(pools, MiningState(iteration=1, pools=pools), current, kb, np.random.default_rng(seed))
        assert mined[0, 0] == 7 and mined[0, 1] == 5
        assert 7 not in mined[0, 1:] and len(set(mined[0])) == 11


def test_mining_empty_pool_falls_back_to_random():
    kb = _chain_kb(40)
    current = build_initial_dataset(_questions(kb, 2), kb, negatives=5, seed=0)
    state = MiningState(iteration=1, pools=np.full((2, 5), -np.inf))
    pools = np.full((2, 5), -np.inf)
    pools[1, 0] = 0.0
    mined = mine_hard_negatives(pools, state, current, kb, rng=np.random.default_rng(4))
    assert state.empty_pool_fallbacks == 1
    assert mined.shape == (2, 6)
    assert (mined[:, 0] == current[:, 0]).all()
    assert all(row[0] not in row[1:] for row in mined)


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
    gt, *negatives = as_ids(result.candidate_history[0], kb)[0]
    floor = hinge_floor(fm.row(gt), [fm.row(fid) for fid in negatives], cfg.margin)
    assert all(loss >= floor - 1e-9 for loss in losses)
    assert losses[-1] - floor <= 0.25 * (losses[0] - floor)


def test_train_scorer_structural_invariants(tiny_synth):
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=2, epochs_per_iteration=2, mining_period=1,
                       negatives=15, batch_size=5, seed=4)
    result = train_scorer(instances, kb, store, table, cfg)
    assert len(result.candidate_history) == 3
    for sets in result.candidate_history:
        assert sets.shape == (len(instances), 16)
        for row, inst in zip(as_ids(sets, kb), instances):
            assert row[0] == inst.fact_id
            assert inst.fact_id not in row[1:]
            assert len(set(row)) == 16
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
    for sa, sb in zip(a.candidate_history, b.candidate_history, strict=True):
        np.testing.assert_array_equal(sa, sb)


def test_train_scorer_candidate_history_matches_the_id_oracle(tiny_synth, monkeypatch):
    # Replays the id-based sampler on the scores the run computes, and checks
    # that each batch scored the fact-matrix rows of the oracle's candidates.
    # The KB's load order interleaves relations, so a KB position taken for a
    # fact-matrix row fails the row check.
    instances, store, kb, table = tiny_synth
    facts = kb.facts()
    kb = KnowledgeBase([facts[i] for i in np.random.default_rng(13).permutation(len(facts))])
    fm = FactMatrix.build(kb, table)
    cfg = MarginConfig(iterations=3, epochs_per_iteration=2, mining_period=1, negatives=15, batch_size=4,
                       seed=12, margin=0.02, lr=0.05)
    rng_mine = np.random.default_rng([cfg.seed, 23])
    oracle = {"history": [], "pools": [], "fallbacks": []}
    scored = []  # each batch's (candidate rows, scores), in call order

    def recording_cosine_rows(tape, x, rows, real=Tape.cosine_rows):
        out = real(tape, x, rows)
        scored.append((rows, out.values))
        return out

    def replaying_fit(params, encoded, opt, rng, epochs, batch_size, clip_norm, batch_loss, epoch_record, where,
                      real=trainer.fit):
        if oracle["history"]:
            sets, fallbacks = oracle_mine(oracle["pools"][-1], oracle["history"][-1], kb, cfg.negatives, rng_mine)
        else:
            sets, fallbacks = oracle_initial_dataset(instances, kb, cfg.negatives, cfg.seed), 0
        pools = {}
        oracle["history"].append(sets)
        oracle["pools"].append(pools)
        oracle["fallbacks"].append(fallbacks)
        rows_of = np.array([[fm.row_of[f] for f in ids] for ids in oracle_ids(sets)])

        def checked_loss(tape, epoch, batch, ids, lengths):
            loss = batch_loss(tape, epoch, batch, ids, lengths)
            rows, scores = scored.pop()
            np.testing.assert_array_equal(rows, fm.rows[rows_of[batch]])
            if epoch % cfg.mining_period == 0:
                oracle_harvest(pools, sets, batch, scores, cfg.margin)
            return loss

        return real(params, encoded, opt, rng, epochs, batch_size, clip_norm, checked_loss, epoch_record, where)

    monkeypatch.setattr(Tape, "cosine_rows", recording_cosine_rows)
    monkeypatch.setattr(trainer, "fit", replaying_fit)
    result = train_scorer(instances, kb, store, table, cfg)
    assert [as_ids(sets, kb) for sets in result.candidate_history] == [oracle_ids(s) for s in oracle["history"]]
    summaries = [m for m in result.metrics if m["type"] == "iteration"]
    pool_totals = [sum(len(p) for p in pools.values()) for pools in oracle["pools"]]
    assert [m["hard_pool_total"] for m in summaries] == pool_totals
    assert [m["empty_pool_fallbacks"] for m in summaries] == oracle["fallbacks"]
    # the schedule exercises partial pools and the empty-pool fallback
    assert 0 < min(pool_totals) and max(pool_totals) < len(instances) * cfg.negatives
    assert sum(oracle["fallbacks"]) > 0


def test_train_scorer_computes_heldout_precision_once_per_epoch(tiny_synth, monkeypatch):
    instances, store, kb, table = tiny_synth
    calls = []

    def counting_precision(*args, real=trainer.fact_precision):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(trainer, "fact_precision", counting_precision)
    cfg = MarginConfig(iterations=1, epochs_per_iteration=2, mining_period=1, negatives=10, batch_size=5, seed=7)
    metrics = train_scorer(instances, kb, store, table, cfg, heldout=instances).metrics
    epochs = [m for m in metrics if m["type"] == "epoch"]
    assert len(calls) == len(epochs) == 4
    assert [{k: m[k] for k in ("precision1", "precision3")} for m in epochs] == calls
    # each iteration summary repeats its last epoch's figures
    for summary in (m for m in metrics if m["type"] == "iteration"):
        last = [m for m in epochs if m["iteration"] == summary["iteration"]][-1]
        assert (summary["precision1"], summary["precision3"]) == (last["precision1"], last["precision3"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_scorer_non_finite_loss_names_iteration_epoch_and_batch(tiny_synth):
    instances, store, kb, table = tiny_synth
    cfg = MarginConfig(iterations=0, epochs_per_iteration=2, mining_period=1, negatives=5, batch_size=5, seed=3,
                       lr=1e300, clip_norm=None)
    # the diverged scores reach the hinge, which rejects a non-finite groundtruth score
    with pytest.raises(DegenerateInputError, match=r"^scorer iteration 0: epoch 1, batch 2: .*non-finite"):
        train_scorer(instances, kb, store, table, cfg)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fact_precision_non_finite_embedding_is_degenerate_input_error(tiny_synth):
    # a diverged scorer: finite weights whose forward pass overflows
    instances, store, kb, table = tiny_synth
    params = _untrained_scorer(instances)
    for t in params.tensors.values():
        t.values[...] = 1e200
    with pytest.raises(DegenerateInputError, match="non-finite"):
        fact_precision(params, instances, store, FactMatrix.build(kb, table))
