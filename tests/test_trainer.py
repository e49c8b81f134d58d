import dataclasses
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.dataio import load_dataset, load_qa
from factrank.errors import DataError, DegenerateInputError, UsageError
from factrank.kb import Fact, Relation, parse_kb
from factrank.numerics import Tape, constant, cosines, row_norms
from factrank import encoders, numerics, optim, scorer, trainer
from factrank.scorer import Variant, embed_batch, rank_candidates, score
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.text import tokenize
from factrank.trainer import (
    MarginConfig,
    MiningState,
    build_initial_dataset,
    fact_precision,
    mine_hard_negatives,
    train_scorer,
)
from factrank.wordvec import FactMatrix, WordVectorTable, load_vectors
from conftest import SMALL_SYNTH, from_facts, from_rows

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


# The id-based initial sampler, kept as the oracle of build_initial_dataset's
# row arrays: candidate sets as fact-id lists, drawn over the ids in row order.


@dataclasses.dataclass
class OracleSet:
    question_id: str
    gt_fact_id: str
    negative_ids: list[str]


def oracle_initial_dataset(instances, kb, negatives, seed):
    rng = np.random.default_rng([seed, 29])
    all_ids = list(kb.ids)
    index_of = {fid: i for i, fid in enumerate(all_ids)}
    sets = []
    for inst in instances:
        gt_idx = index_of[inst.fact_id]
        n = min(negatives, len(all_ids) - 1)
        draw = rng.choice(len(all_ids) - 1, size=n, replace=False)
        negs = [all_ids[c if c < gt_idx else c + 1] for c in draw]
        sets.append(OracleSet(inst.question_id, inst.fact_id, negs))
    return sets


def oracle_mine(iq, gt_ids, fm, n, margin):
    """Whole-KB mining by brute force, on fact ids: per question every other
    fact sorted by (twin of the groundtruth, -scalar cosine, fact id), a
    twin being a fact whose row is bitwise the groundtruth's, and the first
    ``n`` kept. Returns (id lists, groundtruth first; mined negatives scored
    above the groundtruth minus ``margin``; questions with none)."""
    sets, hard = [], []
    for v, gt in zip(iq, gt_ids):
        g = fm.row(gt)
        wrong = sorted((f for f in fm.fact_ids if f != gt),
                       key=lambda f: (fm.row(f).tobytes() == g.tobytes(), -score(fm.row(f), v), f))[:n]
        sets.append([gt, *wrong])
        hard.append(sum(score(fm.row(f), v) > score(g, v) - margin for f in wrong))
    return sets, sum(hard), sum(h == 0 for h in hard)


def mined_ids(iq, gt_ids, fm, n, margin):
    """:func:`mine_hard_negatives` in the oracle's terms."""
    state = MiningState(iteration=1)
    gt = np.array([fm.fact_ids.row(f) for f in gt_ids], dtype=np.intp)
    sets = mine_hard_negatives(np.asarray(iq, dtype=np.float64), gt, fm, n, margin, state)
    assert sets.shape == (len(gt_ids), 1 + n)
    return [[fm.fact_ids[r] for r in row] for row in sets], state.hard_pool_total, state.empty_pool_fallbacks


def as_ids(sets, ids):
    """Candidate-array rows as fact-id lists, groundtruth first; ``ids``
    names each row: ``kb.ids`` or ``fm.fact_ids``, which are one column."""
    return [[ids[p] for p in row] for row in sets]


def oracle_ids(sets):
    return [[cs.gt_fact_id, *cs.negative_ids] for cs in sets]


def _chain_kb(n):
    return from_facts([Fact(f"f{i:03d}", f"s{i}", Relation.IS_A, f"o{i}") for i in range(n)])


def _interleaved_kb(n, seed=0):
    """``n`` facts whose load order cycles through the relations and whose
    ids are shuffled, so a row (rows go bucket by bucket) is neither a load
    position nor a place in id order."""
    relations = list(Relation)
    names = np.random.default_rng(seed).permutation(n)
    return from_facts([Fact(f"f{names[i]:03d}", f"s{i}", relations[i % len(relations)], f"o{i}")
                          for i in range(n)])


def _questions(kb, count, seed=0):
    ids = list(kb.ids)
    picks = np.random.default_rng(seed).integers(len(ids), size=count)
    return [SimpleNamespace(question_id=f"q{i}", image_id=f"i{i}", fact_id=ids[p]) for i, p in enumerate(picks)]


def test_initial_dataset_sizes(tiny_synth):
    instances, _, kb, _ = tiny_synth
    sets = build_initial_dataset(instances, kb, negatives=30, seed=0)
    assert sets.shape == (len(instances), 31)
    for row, inst in zip(as_ids(sets, kb.ids), instances):
        assert row[0] == inst.fact_id
        assert inst.fact_id not in row[1:]
        assert len(set(row)) == 31


def test_initial_dataset_kb_exhaustion():
    kb = _chain_kb(8)
    sets = build_initial_dataset(_questions(kb, 3), kb, negatives=700, seed=1)
    assert sets.shape == (3, 8)
    assert all(sorted(row) == list(range(8)) for row in sets)
    assert as_ids(sets, kb.ids) == oracle_ids(oracle_initial_dataset(_questions(kb, 3), kb, 700, 1))


def test_initial_dataset_deterministic(tiny_synth):
    instances, _, kb, _ = tiny_synth
    a = build_initial_dataset(instances, kb, negatives=20, seed=5)
    b = build_initial_dataset(instances, kb, negatives=20, seed=5)
    np.testing.assert_array_equal(a, b)


def test_initial_dataset_matches_the_id_oracle_on_an_interleaved_kb():
    kb = _interleaved_kb(60)
    questions = _questions(kb, 25)
    sets = build_initial_dataset(questions, kb, negatives=12, seed=3)
    assert as_ids(sets, kb.ids) == oracle_ids(oracle_initial_dataset(questions, kb, 12, 3))


def test_initial_dataset_on_the_small_synth_set_is_pinned(small_synth):
    # sha256 of the sets as int64 rows, computed before facts were numbered by KB row alone: the
    # synth KB lists its facts bucket by bucket, so its load positions were its rows
    sets = build_initial_dataset(small_synth["instances"], small_synth["kb"], negatives=99, seed=0)
    assert sets.shape == (60, 100)
    digest = hashlib.sha256(sets.astype(np.int64).tobytes()).hexdigest()
    assert digest == "87d842986496c16e20a469c2bf42547e8f7fe4dfd7135d857d77c6470c604519"


@pytest.mark.parametrize("config", [SyntheticConfig(seed=0), SyntheticConfig(**SMALL_SYNTH)], ids=["desk", "small"])
def test_synthetic_questions_are_short_and_facts_come_bucket_by_bucket(tmp_path, config):
    # the traffic that the token bound and the row numbering rest on: no synthetic question reaches
    # MAX_QUESTION_TOKENS, so the bound cuts none, and the KB file lists its facts in row order
    paths = generate_synthetic(config, tmp_path)
    assert max(len(tokenize(inst.question)) for inst in load_qa(paths["qa"])) <= 8 < encoders.MAX_QUESTION_TOKENS
    lines = paths["kb"].read_text(encoding="utf-8").splitlines()
    assert list(parse_kb(paths["kb"]).ids) == [line.split("\t")[0] for line in lines]


def test_initial_dataset_missing_fact_is_data_error():
    kb = _chain_kb(5)
    inst = [type("I", (), {"question_id": "q0", "image_id": "i0", "fact_id": "zzz"})()]
    with pytest.raises(DataError, match="zzz"):
        build_initial_dataset(inst, kb, negatives=2, seed=0)


def _twinned_matrix(facts, dim, seed):
    """Random rows under shuffled ids, where every fifth row repeats an
    earlier one (a twin) and every seventh is an earlier one scaled by 2,
    whose cosines tie that row's exactly."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((facts, dim))
    for i in range(1, facts):
        if i % 5 == 0:
            rows[i] = rows[rng.integers(i)]
        elif i % 7 == 0:
            rows[i] = 2.0 * rows[rng.integers(i)]
    return from_rows([f"f{i:03d}" for i in rng.permutation(facts)], rows)


@pytest.mark.parametrize("negatives", [12, 700])
def test_mining_matches_the_id_oracle(negatives):
    fm = _twinned_matrix(60, 6, seed=1)
    rng = np.random.default_rng(2)
    gt = [fm.fact_ids[r] for r in rng.integers(60, size=30)]
    iq = rng.standard_normal((30, 6))
    iq[:10] = [fm.row(f) for f in gt[:10]]  # near their groundtruth: sets with no hard negative
    n = min(negatives, 59)
    mined = mined_ids(iq, gt, fm, n, margin=0.3)
    assert mined == oracle_mine(iq, gt, fm, n, margin=0.3)
    _, hard, fallbacks = mined
    assert 0 < fallbacks < 30 and 0 < hard < 30 * n  # partly hard sets and questions with none


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mining_matches_the_whole_kb_oracle(data):
    # small integer rows and queries: duplicate rows (twins), zero-norm rows
    # and queries, parallel rows whose cosines tie exactly, and KBs smaller
    # than negatives + 1; ids are shuffled so row order is not id order
    facts = data.draw(st.integers(1, 9), label="facts")
    vectors = st.lists(st.integers(-1, 2), min_size=3, max_size=3)
    rows = np.array(data.draw(st.lists(vectors, min_size=facts, max_size=facts), label="rows"), dtype=np.float64)
    order = data.draw(st.permutations(range(facts)), label="ids")
    fm = from_rows([f"f{i}" for i in order], rows)
    iq = np.array(data.draw(st.lists(vectors, min_size=1, max_size=4), label="iq"), dtype=np.float64)
    gt = data.draw(st.lists(st.sampled_from(fm.fact_ids), min_size=len(iq), max_size=len(iq)), label="gt")
    n = min(data.draw(st.integers(1, 12), label="negatives"), facts - 1)
    margin = data.draw(st.sampled_from([0.05, 1.0]), label="margin")
    assert mined_ids(iq, gt, fm, n, margin) == oracle_mine(iq, gt, fm, n, margin)


def _near_tie_mining_case(seed, facts=400, dim=8, n=20):
    """Float32 rows under shuffled ids: a group of four twins, other repeats,
    rows scaled by 2 (exact ties that are not twins) and zero rows, and 40
    rows, the twin group among them, whose exact cosines with the first
    query lie within half the screen's slack of the n-th best of the rows
    they replace. Eight
    questions: the first with a twin as groundtruth; the group's own row,
    which its twins tie at the top; then random and zero queries."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((facts, dim))
    for i in range(1, facts):
        kind = rng.integers(10)
        if kind == 0:
            rows[i] = rows[rng.integers(i)]
        elif kind == 1:
            rows[i] = 2.0 * rows[rng.integers(i)]
        elif kind == 2:
            rows[i] = 0.0
    rows = rows.astype(np.float32)
    iq = rng.standard_normal((8, dim))
    iq[7] = 0.0
    unit = iq[0] / np.linalg.norm(iq[0])
    exact = cosines(rows.astype(np.float64), row_norms(rows.astype(np.float64)), iq[0], row_norms(iq[0]))
    nth = np.sort(exact)[-n]
    slack = 4 * ((dim + 4) * 2.0**-24 + (dim + 2) * 2.0**-90)
    band = rng.choice(facts, size=40, replace=False)
    for i in band:
        c = nth + rng.uniform(-0.5, 0.5) * slack
        w = rng.standard_normal(dim)
        w -= (w @ unit) * unit
        rows[i] = c * unit + np.sqrt(1.0 - c * c) * w / np.linalg.norm(w)
    group = band[:4]
    rows[group[1:]] = rows[group[0]]
    iq[1] = rows[group[0]]
    fm = from_rows([f"f{i:03d}" for i in rng.permutation(facts)], rows)
    gt = [fm.fact_ids[group[1]], fm.fact_ids[group[2]], *(fm.fact_ids[r] for r in rng.integers(facts, size=6))]
    return fm, iq, gt, n


@pytest.mark.parametrize("block_rows", [1, 7, 50])
def test_mining_over_many_blocks_with_near_ties_matches_the_oracle(monkeypatch, block_rows):
    fm, iq, gt, n = _near_tie_mining_case(41)
    twins = np.bincount(fm.twin_groups)[fm.twin_groups[[fm.fact_ids.row(f) for f in gt]]] - 1
    k = n + 1 + int(twins.max())  # the mining cut
    assert twins[:2].tolist() == [3, 3]
    monkeypatch.setattr(scorer, "BLOCK_ELEMENTS", block_rows * len(iq))
    assert max(len(r) for r, _ in scorer.shortlist_rows(iq, fm.rows, fm.norms, k)) > k
    assert mined_ids(iq, gt, fm, n, margin=0.05) == oracle_mine(iq, gt, fm, n, margin=0.05)


def test_mining_ranks_relation_twins_after_every_other_wrong_fact():
    table = WordVectorTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]),
                                "c": np.array([1.0, 1.0]), "d": np.array([-1.0, 0.5])})
    kb = from_facts([
        Fact("f5", "a", Relation.IS_A, "b"),  # the groundtruth
        Fact("f0", "a", Relation.RELATED_TO, "b"),  # its twins: the relation does not embed
        Fact("f1", "a", Relation.AT_LOCATION, "b"),
        Fact("f2", "a", Relation.IS_A, "c"),
        Fact("f3", "c", Relation.IS_A, "b"),
        Fact("f4", "d", Relation.IS_A, "b"),
        Fact("f6", "a", Relation.IS_A, "d"),
    ])
    fm = FactMatrix.build(kb, table)
    assert fm.row("f0").tobytes() == fm.row("f1").tobytes() == fm.row("f5").tobytes()
    iq = fm.row("f5")[None, :]  # the groundtruth's direction: its twins tie it at the top
    assert mined_ids(iq, ["f5"], fm, 3, 1.0)[0] == [["f5", "f2", "f3", "f6"]]
    assert mined_ids(iq, ["f5"], fm, 6, 1.0)[0] == [["f5", "f2", "f3", "f6", "f4", "f0", "f1"]]
    for n in range(1, 7):
        assert mined_ids(iq, ["f5"], fm, n, 1.0) == oracle_mine(iq, ["f5"], fm, n, 1.0)


def test_mining_breaks_ties_by_fact_id_not_kb_position():
    # ten parallel rows score the same cosine, 1, against the query; ids run
    # against row order, and the groundtruth sits mid-KB
    fm = from_rows([f"f{9 - i}" for i in range(10)], np.outer(np.arange(1.0, 11.0), [1.0, 0.0]))
    assert mined_ids([[1.0, 0.0]], ["f4"], fm, 9, 1.0)[0] == [["f4", *(f"f{i}" for i in range(10) if i != 4)]]


def test_mining_never_inserts_groundtruth():
    # every fact in turn as the groundtruth, with twins and ties in the KB
    # and k reaching past the whole KB
    fm = _twinned_matrix(12, 3, seed=3)
    iq = np.random.default_rng(4).standard_normal((12, 3))
    for n in (1, 5, 11):
        sets, _, _ = mined_ids(iq, fm.fact_ids, fm, n, 1.0)
        for gt, row in zip(fm.fact_ids, sets):
            assert row[0] == gt and gt not in row[1:] and len(set(row)) == 1 + n


# ----------------------------------------------------------------------
# training runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["relation", "source", "scorer"])
def test_every_training_loss_and_gradient_is_float32(monkeypatch, tiny_synth, kind):
    # a float64 constant, mask or candidate block in a loss would upcast it silently, the float32 gradient buffers
    # hiding the float64 arithmetic: see the dtype of each loss, parameter and gradient that reaches a tensor
    instances, store, kb, table = tiny_synth
    seen = set()
    accumulate, fit = numerics._accumulate, encoders.fit

    def spy(t, g, at=None):
        seen.add(("gradient", g.dtype))
        accumulate(t, g, at)

    def checked_fit(params, ids, lengths, opt, rng, epochs, batch_size, batch_loss, *rest):
        def checked_loss(tape, *args):
            loss = batch_loss(tape, *args)
            seen.update([("loss", loss.values.dtype), *(("parameter", p.values.dtype) for p in params.values())])
            return loss

        return fit(params, ids, lengths, opt, rng, epochs, batch_size, checked_loss, *rest)

    monkeypatch.setattr(numerics, "_accumulate", spy)
    monkeypatch.setattr(encoders, "fit", checked_fit)
    monkeypatch.setattr(trainer, "fit", checked_fit)
    if kind == "scorer":
        cfg = MarginConfig(iterations=1, epochs_per_iteration=2, mining_period=1, negatives=5, batch_size=4)
        params = train_scorer(instances, kb, store, table, cfg).params
    else:
        pairs = [(i.question, i.relation if kind == "relation" else i.source) for i in instances]
        params = encoders.train_classifier(kind, pairs, encoders.EncoderTrainConfig(epochs=2, batch_size=4))[0]
    assert seen == {(what, np.dtype(np.float32)) for what in ("loss", "parameter", "gradient")}
    assert {t.values.dtype for t in params.tensors.values()} == {np.dtype(np.float64)}


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
    # the mining period outlasts the iteration: every epoch trains on the sampled set
    gt, *negatives = as_ids(build_initial_dataset(instances[:1], kb, cfg.negatives, cfg.seed), kb.ids)[0]
    floor = hinge_floor(fm.row(gt), [fm.row(fid) for fid in negatives], cfg.margin)
    assert all(loss >= floor - 1e-9 for loss in losses)
    assert losses[-1] - floor <= 0.25 * (losses[0] - floor)


def recording_mining(monkeypatch):
    """The list that each later :func:`mine_hard_negatives` call's candidate sets are appended to."""
    mined = []

    def recording_mine(*args, real=trainer.mine_hard_negatives):
        mined.append(real(*args))
        return mined[-1]

    monkeypatch.setattr(trainer, "mine_hard_negatives", recording_mine)
    return mined


def test_train_scorer_structural_invariants(tiny_synth, monkeypatch):
    instances, store, kb, table = tiny_synth
    mined = recording_mining(monkeypatch)
    cfg = MarginConfig(iterations=2, epochs_per_iteration=2, mining_period=1,
                       negatives=15, batch_size=5, seed=4)
    result = train_scorer(instances, kb, store, table, cfg)
    fm = FactMatrix.build(kb, table)
    assert len(mined) == 5  # before epoch 2 of iteration 0, and before both epochs of the others
    for sets in mined:
        assert sets.shape == (len(instances), 16)
        for row, inst in zip(as_ids(sets, fm.fact_ids), instances):
            assert row[0] == inst.fact_id
            assert inst.fact_id not in row[1:]
            assert len(set(row)) == 16
    iteration_records = [m for m in result.metrics if m["type"] == "iteration"]
    assert len(iteration_records) == 3


def test_train_scorer_counts_fallbacks_on_the_iteration_they_fill(tiny_synth):
    instances, store, kb, table = tiny_synth
    # iteration 0 never mines and counts nothing; iteration 1 mines once, at
    # its start. Cosines lie in [-1, 1], so at margin 3 every mined negative
    # is hard and no question falls back
    for margin, some_fall_back in ((3.0, False), (0.01, True)):
        cfg = MarginConfig(iterations=1, epochs_per_iteration=4, mining_period=4,
                           negatives=5, batch_size=4, seed=12, margin=margin, lr=0.05)
        result = train_scorer(instances, kb, store, table, cfg)
        summaries = [m for m in result.metrics if m["type"] == "iteration"]
        fallbacks = [s["empty_pool_fallbacks"] for s in summaries]
        hard = [s["hard_pool_total"] for s in summaries]
        assert fallbacks == [s.empty_pool_fallbacks for s in result.mining_states]
        assert hard == [s.hard_pool_total for s in result.mining_states]
        assert fallbacks[0] == hard[0] == 0
        if some_fall_back:
            assert 0 < fallbacks[1] < len(instances) and 0 < hard[1] < len(instances) * 5
        else:
            assert fallbacks[1] == 0 and hard[1] == len(instances) * 5


@pytest.mark.parametrize("period, mined_before", [
    (1, [(0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]),
    (2, [(0, 3), (1, 1), (1, 3)]),
    (3, [(1, 1)]),  # the period is the iteration: one step per iteration boundary
    (5, [(1, 1)]),
])
def test_train_scorer_re_mines_every_period_epochs(tiny_synth, monkeypatch, period, mined_before):
    instances, store, kb, table = tiny_synth
    batches, mined = [], []  # batches are counted by their scoring calls

    def counting_cosine_rows(tape, x, rows, norms, real=Tape.cosine_rows):
        batches.append(len(rows))
        return real(tape, x, rows, norms)

    def recording_mine(*args, real=trainer.mine_hard_negatives):
        iteration, epochs_done = divmod(len(batches) // 2, 3)  # 10 instances in batches of 5
        mined.append((iteration, epochs_done + 1))
        return real(*args)

    monkeypatch.setattr(Tape, "cosine_rows", counting_cosine_rows)
    monkeypatch.setattr(trainer, "mine_hard_negatives", recording_mine)
    cfg = MarginConfig(iterations=1, epochs_per_iteration=3, mining_period=period, negatives=6, batch_size=5, seed=2)
    result = train_scorer(instances, kb, store, table, cfg)
    assert mined == mined_before
    assert len(batches) == 2 * 3 * 2
    assert [s["hard_pool_total"] > 0 for s in result.metrics if s["type"] == "iteration"] == [period < 3, True]


def test_train_scorer_bitwise_deterministic(tiny_synth, monkeypatch):
    instances, store, kb, table = tiny_synth
    mined = recording_mining(monkeypatch)
    cfg = MarginConfig(iterations=1, epochs_per_iteration=2, mining_period=1,
                       negatives=10, batch_size=5, seed=7)
    a = train_scorer(instances, kb, store, table, cfg, heldout=instances)
    mined_a = mined[:]
    b = train_scorer(instances, kb, store, table, cfg, heldout=instances)
    assert a.metrics == b.metrics
    for (name, pa), pb in zip(a.params.tensors.items(), b.params.tensors.values()):
        np.testing.assert_array_equal(pa.values, pb.values, err_msg=name)
    assert len(mined_a) == 3
    for sa, sb in zip(mined_a, mined[len(mined_a):], strict=True):
        np.testing.assert_array_equal(sa, sb)


def test_train_scorer_candidate_sets_match_the_id_oracle(tiny_synth, monkeypatch):
    # Replays each mining step of a run through the brute-force oracle, on
    # the embeddings the run mines from, and checks that each batch scored
    # the fact-matrix rows of the oracle's candidates and that each
    # iteration reports the counts and the sets of its last step. The KB's
    # load order interleaves relations, so negatives drawn over load
    # positions rather than rows fail the oracle.
    instances, store, kb, table = tiny_synth
    facts = kb.facts()
    kb = from_facts([facts[i] for i in np.random.default_rng(13).permutation(len(facts))])
    fm = FactMatrix.build(kb, table)
    cfg = MarginConfig(iterations=2, epochs_per_iteration=2, mining_period=1, negatives=15, batch_size=4,
                       seed=12, margin=0.01, lr=0.05)
    current = {"sets": oracle_ids(oracle_initial_dataset(instances, kb, cfg.negatives, cfg.seed))}
    steps = {}  # iteration -> the oracle (sets, hard total, fallbacks) of its last mining step
    mined = {}  # iteration -> the candidate sets of its last mining step
    scored = []  # each batch's candidate rows and their norms, in call order

    def recording_cosine_rows(tape, x, rows, norms, real=Tape.cosine_rows):
        scored.append((rows, norms))
        return real(tape, x, rows, norms)

    def replaying_mine(iq, gt, fact_matrix, n, margin, state, real=trainer.mine_hard_negatives):
        np.testing.assert_array_equal(iq, embed_batch(current["params"], *store.stack([i.image_id for i in instances]),
                                                      [i.question for i in instances]))
        assert [fm.fact_ids[g] for g in gt] == [i.fact_id for i in instances]
        steps[state.iteration] = oracle_mine(iq, [i.fact_id for i in instances], fm, n, margin)
        current["sets"] = steps[state.iteration][0]
        mined[state.iteration] = real(iq, gt, fact_matrix, n, margin, state)
        return mined[state.iteration]

    def replaying_fit(params, ids, lengths, opt, rng, epochs, batch_size, batch_loss, epoch_record, where,
                      real=trainer.fit):
        def checked_loss(tape, batch, ids, lengths):
            loss = batch_loss(tape, batch, ids, lengths)
            rows_of = np.array([[fm.fact_ids.row(f) for f in current["sets"][i]] for i in batch])
            rows, norms = scored.pop()
            np.testing.assert_array_equal(rows, fm.rows[rows_of])
            np.testing.assert_array_equal(norms, fm.norms[rows_of])
            return loss

        return real(params, ids, lengths, opt, rng, epochs, batch_size, checked_loss, epoch_record, where)

    real_init = trainer.ScorerParams.init

    def tracked_init(*args, **kwargs):
        current["params"] = real_init(*args, **kwargs)
        return current["params"]

    monkeypatch.setattr(Tape, "cosine_rows", recording_cosine_rows)
    monkeypatch.setattr(trainer, "mine_hard_negatives", replaying_mine)
    monkeypatch.setattr(trainer, "fit", replaying_fit)
    monkeypatch.setattr(trainer.ScorerParams, "init", tracked_init)
    result = train_scorer(instances, kb, store, table, cfg)
    # iteration 0 mines before epoch 2, the others before both epochs
    last = [steps[t] for t in range(3)]
    assert [as_ids(mined[t], fm.fact_ids) for t in range(3)] == [sets for sets, _, _ in last]
    summaries = [m for m in result.metrics if m["type"] == "iteration"]
    assert [(m["hard_pool_total"], m["empty_pool_fallbacks"]) for m in summaries] == [s[1:] for s in last]
    # the run exercises partly hard sets and questions with no hard negative
    assert all(0 < hard < len(instances) * cfg.negatives for _, hard, _ in last)
    assert sum(fallbacks for _, _, fallbacks in last) > 0


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
def test_train_scorer_non_finite_loss_names_iteration_epoch_and_batch(tiny_synth, monkeypatch):
    instances, store, kb, table = tiny_synth
    monkeypatch.setattr(encoders, "CLIP_NORM", np.inf)
    cfg = MarginConfig(iterations=0, epochs_per_iteration=2, mining_period=1, negatives=5, batch_size=5, seed=3,
                       lr=1e300)
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
                       negatives=10, batch_size=3, seed=9)
    epochs = [m for m in train_scorer(instances, kb, store, table, cfg).metrics if m["type"] == "epoch"]
    batches = 4  # 10 instances in batches of 3
    assert len(epochs) == 4 and len(seen) == 4 * batches
    for i, record in enumerate(epochs):
        norms = [g for g, _ in seen[i * batches : (i + 1) * batches]]
        assert all(limit == encoders.CLIP_NORM == 5.0 for _, limit in seen)
        assert record["grad_norm_mean"] == float(np.mean(norms))
        assert record["grad_norm_max"] == max(norms)
        assert record["clipped_fraction"] == sum(g > 5.0 for g in norms) / batches
    assert any(0.0 < r["clipped_fraction"] < 1.0 for r in epochs)


def test_margin_config_validation():
    with pytest.raises(UsageError):
        MarginConfig(margin=0.0).validate()
    with pytest.raises(UsageError):
        MarginConfig(negatives=0).validate()
    with pytest.raises(UsageError):
        MarginConfig(iterations=-1).validate()
    with pytest.raises(UsageError, match="epochs_per_iteration"):
        MarginConfig(epochs_per_iteration=0).validate()
    with pytest.raises(UsageError, match="weight_decay must be >= 0"):
        MarginConfig(weight_decay=-5.0).validate()
    for name in ("margin", "lr", "weight_decay"):
        with pytest.raises(UsageError, match=f"{name} must be .*, got nan"):
            MarginConfig(**{name: float("nan")}).validate()
    MarginConfig(weight_decay=0.0).validate()


@pytest.mark.parametrize("folds", [0, 1, 5, 6])
def test_synthetic_config_folds_are_the_dataset_folds(tmp_path, folds):
    # a sixth fold would write a qa.jsonl that load_dataset rejects
    config = SyntheticConfig(**TINY_SYNTH, folds=folds)
    if folds not in (1, 5):
        with pytest.raises(UsageError, match=rf"folds must be in \[1, 5\], got {folds}"):
            generate_synthetic(config, tmp_path)
        assert not any(tmp_path.iterdir())
        return
    generate_synthetic(config, tmp_path)
    instances, _, _ = load_dataset(*(tmp_path / name for name in (
        "kb.tsv", "qa.jsonl", "features.txt", "concepts.txt", "concept_labels.txt")))
    assert sorted({i.fold for i in instances}) == list(range(1, folds + 1))


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


def test_fact_precision_of_no_instances_is_a_usage_error(tiny_synth):
    instances, store, kb, table = tiny_synth
    with pytest.raises(UsageError, match="fact_precision needs at least one instance"):
        fact_precision(_untrained_scorer(instances), [], store, FactMatrix.build(kb, table))


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
    ranked = [sorted(kb.ids, key=lambda f: (-score(fm.row(f), v), f)) for v in iq]
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
    ids = [*kb.ids, *(f"x{i:05d}" for i in range(n - len(kb)))]
    fm = from_rows(ids, np.random.default_rng(10).standard_normal((n, 16)))
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
