import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.checkpoint import save_checkpoint
from factrank.encoders import Vocabulary, encode_batch
from factrank.errors import LoadError, ShapeError, UsageError
from factrank import scorer
from factrank.numerics import Tape, cosines, row_norms
from factrank.scorer import (
    NEG_INF,
    ScorerDims,
    ScorerParams,
    Variant,
    candidate_scores,
    embed_image_question,
    iq_embedding_batch,
    load_scorer,
    rank_candidates,
    rank_rows,
    save_scorer,
    score,
    score_matrix,
    shortlist_rows,
)
from factrank.wordvec import FactMatrix
from gradcheck import check_grads, total
from spoil import rewrite_header

TOY_DIMS = ScorerDims(
    image_dim=8,
    image_proj=4,
    question_embed=5,
    question_hidden=6,
    mlp1=7,
    mlp2=5,
    concept_dim=9,
    concept_proj=4,
    output_dim=6,
)


def _toy_scorer(seed=0, variant=Variant.Q_I_VC):
    vocab = Vocabulary.build(["what is the thing shown here"])
    rng = np.random.default_rng(seed)
    return ScorerParams.init(vocab, rng, TOY_DIMS, variant=variant)


def _toy_inputs(seed=1):
    rng = np.random.default_rng(seed)
    feat = rng.standard_normal(TOY_DIMS.image_dim)
    concepts = (rng.random(TOY_DIMS.concept_dim) < 0.3).astype(float)
    return feat, concepts


def _random_fact_matrix(n, dim, seed, zero_rows=()):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    for z in zero_rows:
        rows[z] = 0.0
    return FactMatrix.from_rows([f"f{i:03d}" for i in range(n)], rows)


# ----------------------------------------------------------------------
# embedding network
# ----------------------------------------------------------------------


def test_zero_weights_give_zero_embedding():
    params = _toy_scorer()
    for t in params.tensors.values():
        t.values[...] = 0.0
    feat, concepts = _toy_inputs()
    out = embed_image_question(params, feat, concepts, "what is shown")
    np.testing.assert_array_equal(out, np.zeros(TOY_DIMS.output_dim))


def test_embedding_output_length_matches_dims():
    params = _toy_scorer()
    feat, concepts = _toy_inputs()
    out = embed_image_question(params, feat, concepts, "what is the thing")
    assert out.shape == (TOY_DIMS.output_dim,)
    assert np.all(np.isfinite(out))


def test_default_dimension_chain():
    d = ScorerDims()
    assert (d.image_dim, d.image_proj) == (2048, 64)
    assert (d.question_embed, d.question_hidden) == (128, 128)
    assert d.image_proj + d.question_hidden == 192
    assert (d.mlp1, d.mlp2) == (256, 128)
    assert (d.concept_dim, d.concept_proj) == (1176, 128)
    assert d.mlp2 + d.concept_proj == 256
    assert d.output_dim == 200


def test_wrong_input_lengths_rejected():
    params = _toy_scorer()
    feat, concepts = _toy_inputs()
    with pytest.raises(ShapeError):
        embed_image_question(params, feat[:-1], concepts, "what")
    with pytest.raises(ShapeError):
        embed_image_question(params, feat, concepts[:-1], "what")


def test_full_network_grad_matches_finite_differences():
    params = _toy_scorer(seed=2)
    feat, concepts = _toy_inputs(seed=3)
    rng = np.random.default_rng(4)
    fact_rows = rng.standard_normal((1, 3, TOY_DIMS.output_dim))
    ids, lengths = encode_batch(params.vocab, ["what is the thing shown"], 30)

    def forward():
        t = Tape()
        iq = iq_embedding_batch(t, params, feat[None, :], concepts[None, :], ids, lengths)
        return t.hinge_mean(t.cosine_rows(iq, fact_rows), [1])

    assert check_grads(forward, params.tensors, tol=1e-4) <= 1e-4


def test_inference_tape_records_nothing():
    params = _toy_scorer(seed=5)
    feat, concepts = _toy_inputs(seed=6)
    feats, cons = np.stack([feat, -feat]), np.stack([concepts, concepts])
    ids, lengths = encode_batch(params.vocab, ["what is the thing shown", "what is here"], params.max_tokens)
    recorded = iq_embedding_batch(Tape(), params, feats, cons, ids, lengths)
    tape = Tape(record=False)
    out = iq_embedding_batch(tape, params, feats, cons, ids, lengths)
    assert out.values.tobytes() == recorded.values.tobytes()
    assert len(tape) == 0
    assert not out.requires_grad and out.tape is None
    with pytest.raises(UsageError):
        tape.backward(total(tape, out))


def test_variant_masking_ignores_masked_image():
    params = _toy_scorer(seed=5, variant=Variant.Q_VC)
    rng = np.random.default_rng(6)
    _, concepts = _toy_inputs(seed=7)
    a = embed_image_question(params, rng.standard_normal(8), concepts, "what is shown")
    b = embed_image_question(params, rng.standard_normal(8), concepts, "what is shown")
    np.testing.assert_array_equal(a, b)


def test_variant_masking_ignores_masked_concepts():
    params = _toy_scorer(seed=8, variant=Variant.Q_I)
    feat, _ = _toy_inputs(seed=9)
    a = embed_image_question(params, feat, np.zeros(9), "what is shown")
    b = embed_image_question(params, feat, np.ones(9), "what is shown")
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------


def test_score_identical_vectors_is_one():
    v = np.array([0.3, -1.2, 0.5])
    assert score(v, v) == pytest.approx(1.0, abs=1e-12)


def test_score_scale_invariant():
    rng = np.random.default_rng(10)
    u, v = rng.standard_normal(6), rng.standard_normal(6)
    assert score(2.0 * u, v) == pytest.approx(score(u, v), abs=1e-12)


def test_score_antiparallel_is_minus_one():
    v = np.array([1.0, 2.0])
    assert score(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_score_zero_vector_is_neg_inf_sentinel():
    assert score(np.zeros(3), np.ones(3)) == NEG_INF
    assert score(np.ones(3), np.zeros(3)) == NEG_INF


# ----------------------------------------------------------------------
# ranking
# ----------------------------------------------------------------------


def test_rank_k1_is_max_cosine(tiny_fact_matrix):
    iq = tiny_fact_matrix.row("f3") * 0.5  # aligned with f3
    top = rank_candidates(iq, ["f1", "f2", "f3"], tiny_fact_matrix, k=1)
    assert top[0][0] == "f3"
    assert top[0][1] == pytest.approx(1.0, abs=1e-12)


def test_rank_empty_candidates_rejected(tiny_fact_matrix):
    with pytest.raises(UsageError):
        rank_candidates(np.ones(8), [], tiny_fact_matrix, k=1)


def test_rank_matches_brute_force_bitwise():
    fm = _random_fact_matrix(100, 12, seed=11)
    rng = np.random.default_rng(12)
    iq = rng.standard_normal(12)
    ranked = rank_candidates(iq, fm.fact_ids, fm, k=100)
    # oracle: per-candidate cosine, exhaustive sort on (-score, fact id)
    nq = float(np.linalg.norm(iq))
    brute = []
    for fid in fm.fact_ids:
        row = fm.rows[fm.row_of[fid]].astype(np.float64)  # the stored float32 row, upcast
        brute.append((fid, float(np.dot(row, iq) / (np.linalg.norm(row) * nq))))
    brute.sort(key=lambda e: (-e[1], e[0]))
    assert ranked == brute


def test_zero_embedding_candidate_never_outranks_finite():
    fm = _random_fact_matrix(10, 6, seed=13, zero_rows=(4,))
    iq = np.random.default_rng(14).standard_normal(6)
    ranked = rank_candidates(iq, fm.fact_ids, fm, k=10)
    assert ranked[-1][0] == "f004"
    assert ranked[-1][1] == NEG_INF


def test_rank_full_k_is_permutation():
    fm = _random_fact_matrix(25, 5, seed=15)
    iq = np.random.default_rng(16).standard_normal(5)
    ranked = rank_candidates(iq, fm.fact_ids, fm, k=25)
    assert sorted(fid for fid, _ in ranked) == sorted(fm.fact_ids)


def test_rank_independent_of_candidate_order():
    fm = _random_fact_matrix(30, 5, seed=17)
    iq = np.random.default_rng(18).standard_normal(5)
    forward = rank_candidates(iq, fm.fact_ids, fm, k=5)
    reverse = rank_candidates(iq, list(reversed(fm.fact_ids)), fm, k=5)
    assert forward == reverse


def test_rank_ties_resolve_by_fact_id():
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    fm = FactMatrix.from_rows(["fb", "fa", "fc"], rows)
    ranked = rank_candidates(np.array([1.0, 0.0]), ["fb", "fa", "fc"], fm, k=3)
    assert [fid for fid, _ in ranked] == ["fa", "fb", "fc"]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 1e3))
def test_property_positive_rescaling_preserves_ordering(seed, scale):
    fm = _random_fact_matrix(40, 7, seed=seed)
    iq = np.random.default_rng(seed + 1).standard_normal(7)
    base = [fid for fid, _ in rank_candidates(iq, fm.fact_ids, fm, k=40)]
    scaled = [fid for fid, _ in rank_candidates(scale * iq, fm.fact_ids, fm, k=40)]
    assert base == scaled


def _planted_block(seed, n, dim):
    """Random float32 rows with planted duplicates, zero rows and
    one-float32-ulp neighbours, named by shuffled ids so id order is not row
    order."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim)).astype(np.float32)
    for i in rng.choice(n, size=n // 2):
        src, kind = rng.integers(n), rng.integers(3)
        if kind == 0:
            rows[i] = rows[src]
        elif kind == 1:
            rows[i] = 0.0
        else:
            # a zero row has no neighbour: its norm would be below wordvec.NORM_RANGE
            rows[i] = np.nextafter(rows[src], np.float32(np.inf)) if rows[src].any() else rows[src]
    queries = rng.standard_normal((3, dim))
    if rng.random() < 0.3:
        queries[0] = 0.0
    elif rng.random() < 0.5:
        queries[0] = rows[rng.integers(n)]
    return FactMatrix.from_rows([f"f{i:03d}" for i in rng.permutation(n)], rows), queries


def _brute_force_scores(fm, iq):
    # the scalar float64 cosine of every stored row, zero norms scoring -inf
    nq = float(np.linalg.norm(iq))
    out = []
    for row in fm.rows.astype(np.float64):
        nf = float(np.linalg.norm(row))
        out.append(NEG_INF if nf == 0.0 or nq == 0.0 else float(np.dot(row, iq) / (nf * nq)))
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40), dim=st.integers(1, 9),
       block=st.sampled_from([1, 7, 1 << 21]))
def test_property_rank_rows_is_the_exact_sort(seed, n, dim, block):
    fm, queries = _planted_block(seed, n, dim)
    with mock.patch.object(scorer, "BLOCK_ELEMENTS", block):
        for k in (1, 3, n):
            got = rank_rows(queries, fm.rows, fm.norms, fm.fact_ids, k)
            for iq, top in zip(queries, got):
                brute = sorted(zip(fm.fact_ids, _brute_force_scores(fm, iq)), key=lambda e: (-e[1], e[0]))
                assert top == brute[:k]


def _screen_case(seed, n, dim, scale, k):
    """Float32 rows at ``scale`` with planted duplicates, zero rows,
    subnormal components, one-float32-ulp neighbours and rows whose exact
    cosine with the first query lies within the screen's slack of its k-th
    best score, at log-uniform distances; three queries, the last a stored
    row, and ids shuffled so id order is not row order."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows[:, 0] += np.copysign(1.0, rows[:, 0])  # every nonzero row's norm stays inside wordvec.NORM_RANGE
    rows = (rows * scale).astype(np.float32)
    query = rng.standard_normal(dim)
    unit = query / np.linalg.norm(query)
    slack = 4 * (dim + 4) * 2.0**-24  # the screen's slack, without its underflow term
    for i in rng.choice(n, size=n // 2):
        src, kind = rng.integers(n), rng.integers(6)
        if kind == 0:
            rows[i] = rows[src]
        elif kind == 1:
            rows[i] = 0.0
        elif kind == 2 and dim > 1 and abs(rows[i, 0]) >= scale:  # the row's norm stays inside the range
            rows[i, rng.integers(1, dim)] = rng.choice([-1.0, 1.0]) * rng.integers(1, 2**23) * 2.0**-149
        elif kind == 3 and rows[src].any():
            rows[i] = np.nextafter(rows[src], np.float32(np.inf))
        else:
            exact = sorted(_brute_force_scores(FactMatrix.from_rows(range(n), rows), query), reverse=True)
            kth = exact[min(k, n) - 1]
            near = kth + rng.uniform(-slack, slack) * 2.0 ** -rng.integers(12)
            c = float(np.clip(near, -1.0, 1.0)) if kth > NEG_INF else 0.5
            w = rng.standard_normal(dim)
            w -= (w @ unit) * unit
            w = w / np.linalg.norm(w) if dim > 1 else 0.0 * w
            rows[i] = scale * (c * unit + np.sqrt(1.0 - c * c) * w)
    queries = np.stack([query, rng.standard_normal(dim), rows[rng.integers(n)]]) * scale
    return FactMatrix.from_rows([f"f{i:03d}" for i in rng.permutation(n)], rows), queries


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 40), dim=st.integers(1, 16),
       scale=st.sampled_from([2.0**-40, 1.0, 2.0**40]), k=st.sampled_from([1, 2, 3, 5]),
       block=st.sampled_from([1, 7, 1 << 21]))
def test_property_float32_screen_keeps_the_exact_float64_top_k(seed, n, dim, scale, k, block):
    fm, queries = _screen_case(seed, n, dim, scale, k)
    with mock.patch.object(scorer, "BLOCK_ELEMENTS", block):
        got = rank_rows(queries, fm.rows, fm.norms, fm.fact_ids, k)
    for iq, top in zip(queries, got):
        brute = sorted(zip(fm.fact_ids, _brute_force_scores(fm, iq)), key=lambda e: (-e[1], e[0]))
        assert top == brute[:k]


def _multi_block_case(seed, n=5_000, dim=16, lead=600):
    """Float32 rows whose first ``lead`` are zero, so no query has a finite
    k-th best until a later block, then: 100 rows close to the first query
    early on, planted duplicates, zero rows and one-float32-ulp neighbours,
    and in the last 30 rows near-ties that score just below the first
    query's exact 1st, 3rd and 100th best, within half the screen's slack.
    256 queries: the first, a stored row, a zero query, then random ones."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, dim))
    rows[:lead] = 0.0
    query = rng.standard_normal(dim)
    unit = query / np.linalg.norm(query)

    def at_cosine(c):
        w = rng.standard_normal(dim)
        w -= (w @ unit) * unit
        return c * unit + np.sqrt(1.0 - c * c) * w / np.linalg.norm(w)

    for i in range(lead, lead + 100):
        rows[i] = at_cosine(rng.uniform(0.95, 0.999))
    rows = rows.astype(np.float32)
    for i in rng.integers(lead, n - 30, size=n // 10):
        src, kind = rng.integers(lead, n - 30), rng.integers(3)
        if kind == 0:
            rows[i] = rows[src]
        elif kind == 1:
            rows[i] = 0.0
        elif rows[src].any():
            rows[i] = np.nextafter(rows[src], np.float32(np.inf))
    slack = 4 * ((dim + 4) * 2.0**-24 + (dim + 2) * 2.0**-90)
    for j, k in enumerate((1, 3, 100)):  # a row below the k-th best moves no j-th best for j <= k
        kth = np.sort(_exact_scores(rows, query[None])[0])[-k]
        for i in range(n - 30 + 10 * j, n - 20 + 10 * j):
            rows[i] = at_cosine(kth - rng.uniform(0.05, 0.45) * slack)
    queries = rng.standard_normal((256, dim))
    queries[0], queries[1], queries[2] = query, rows[rng.integers(lead, n)], 0.0
    return FactMatrix.from_rows([f"f{i:04d}" for i in rng.permutation(n)], rows), queries, slack


def _exact_scores(rows, queries):
    # (queries, rows) float64 cosines of the stored rows, bitwise the scalar arithmetic (test_numerics)
    rows = rows.astype(np.float64)
    return cosines(rows[None], row_norms(rows), queries[:, None], row_norms(queries)[:, None])


@pytest.mark.parametrize("q", [1, 3, 64, 256])
def test_ranking_over_many_blocks_is_the_exact_sort_and_shortlists_a_slack_bracket(q):
    fm, queries, slack = _multi_block_case(31)
    queries = queries[:q]
    exact = _exact_scores(fm.rows, queries)
    ids = np.array(fm.fact_ids)
    with mock.patch.object(scorer, "BLOCK_ELEMENTS", 400 * q):  # 400 rows a block: 13 blocks, the first all zero
        for k in (1, 3, 100):
            shortlists = shortlist_rows(queries, fm.rows, fm.norms, k)
            tops = rank_rows(queries, fm.rows, fm.norms, fm.fact_ids, k)
            for e, (r, s), top in zip(exact, shortlists, tops):
                order = np.lexsort((ids, -e))[:k]
                assert top == list(zip(ids[order].tolist(), e[order].tolist()))
                kth = np.sort(e)[-k]
                assert np.all(np.diff(r) > 0)
                assert s.tobytes() == e[r].tobytes()
                assert set(np.flatnonzero(e >= kth - slack / 2)) <= set(r.tolist())
                assert not np.any(e[r] < kth - 3 * slack / 2)


@pytest.mark.parametrize("block", [7, 100, 499, 1 << 18])
@pytest.mark.parametrize("screen", ["nan", "inf"])
def test_a_screen_that_is_not_finite_is_kept_and_never_moves_the_threshold(screen, block):
    # a row outside FactMatrix's contract screens NaN (an inf component) or
    # +inf (a norm whose float32 reciprocal overflows): it is kept, and the
    # other rows are still shortlisted by the k-th best finite screen score,
    # also when it sits in a block after the one that seeds that score
    rng = np.random.default_rng(28)
    rows = rng.standard_normal((1000, 8)).astype(np.float32)
    iq = rng.standard_normal((1, 8))
    norms = np.linalg.norm(rows.astype(np.float64), axis=1)
    if screen == "nan":
        rows[500, 0], norms[500] = np.inf, np.inf
    else:
        rows[500], norms[500] = iq[0], 1e-300
    ids = [f"f{i:04d}" for i in range(1000)]
    finite = np.delete(np.arange(1000), 500)
    with mock.patch.object(scorer, "BLOCK_ELEMENTS", block), np.errstate(invalid="ignore", over="ignore"):
        (kept, _), = shortlist_rows(iq, rows, norms, 3)
        top = rank_rows(iq, rows, norms, ids, 3)
        top_finite = rank_rows(iq, rows[finite], norms[finite], [ids[i] for i in finite], 3)
    assert 500 in kept.tolist() and len(kept) < 20
    assert {int(fid[1:]) for fid, _ in top_finite[0]} <= set(kept.tolist())
    if screen == "nan":  # its exact score is NaN too, and ranks last
        assert top == top_finite


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_is_a_usage_error(k):
    fm = _random_fact_matrix(3, 4, seed=32)
    iq = np.random.default_rng(33).standard_normal((2, 4))
    for call in (lambda: shortlist_rows(iq, fm.rows, fm.norms, k),
                 lambda: rank_rows(iq, fm.rows, fm.norms, fm.fact_ids, k),
                 lambda: rank_candidates(iq[0], fm.fact_ids, fm, k)):
        with pytest.raises(UsageError, match=f"k must be >= 1, got {k}"):
            call()


def test_from_rows_and_rank_rows_never_allocate_a_copy_of_the_rows():
    rows = np.random.default_rng(29).standard_normal((50_000, 200), dtype=np.float32)
    queries = np.random.default_rng(30).standard_normal((8, 200))
    ids = [f"f{i:05d}" for i in range(len(rows))]
    tracemalloc.start()
    try:
        fm = FactMatrix.from_rows(ids, rows)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        rank_rows(queries, fm.rows, fm.norms, fm.fact_ids, 3)
        _, ranked = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fm.rows is rows
    assert built < rows.nbytes and ranked < rows.nbytes


def test_batched_score_matrix_close_to_per_candidate():
    fm = _random_fact_matrix(50, 9, seed=19)
    rng = np.random.default_rng(20)
    iq_mat = rng.standard_normal((4, 9))
    batched = score_matrix(iq_mat, fm)
    for i in range(4):
        per = candidate_scores(iq_mat[i], fm.fact_ids, fm)
        np.testing.assert_allclose(batched[i], per, atol=1e-12)


def test_score_matrix_zero_norm_fact_is_neg_inf():
    fm = _random_fact_matrix(5, 4, seed=21, zero_rows=(2,))
    iq_mat = np.random.default_rng(22).standard_normal((2, 4))
    batched = score_matrix(iq_mat, fm)
    assert np.all(batched[:, 2] == NEG_INF)


def test_rank_facts_end_to_end(tiny_fact_matrix, tiny_kb):
    params = ScorerParams.init(
        Vocabulary.build(["what is shade used for"]),
        np.random.default_rng(23),
        ScorerDims(image_dim=8, image_proj=4, question_embed=4, question_hidden=4,
                   mlp1=6, mlp2=4, concept_dim=6, concept_proj=4, output_dim=8),
    )
    rng = np.random.default_rng(24)
    iq = embed_image_question(
        params, rng.standard_normal(8), (rng.random(6) < 0.5).astype(float), "what is shade used for"
    )
    top = rank_candidates(iq, tiny_kb.fact_ids(), tiny_fact_matrix, k=3)
    assert len(top) == 3
    assert top[0][1] >= top[1][1] >= top[2][1]


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def test_scorer_checkpoint_round_trip(tmp_path):
    params = _toy_scorer(seed=25, variant=Variant.Q_VC)
    feat, concepts = _toy_inputs(seed=26)
    before = embed_image_question(params, feat, concepts, "what is shown here")
    path = tmp_path / "scorer.ckpt"
    save_scorer(path, params, meta={"seed": 25})
    loaded = load_scorer(path)
    assert loaded.variant is Variant.Q_VC
    after = embed_image_question(loaded, feat, concepts, "what is shown here")
    np.testing.assert_array_equal(before, after)


def _spoil_truncate(path, dims, vocab, tensors):
    path.write_bytes(path.read_bytes()[:10])


def _spoil_drop_w_fuse(path, dims, vocab, tensors):
    del tensors["w_fuse"]
    save_checkpoint(path, "scorer", dims, vocab, tensors)


def _spoil_reshape_w_fuse(path, dims, vocab, tensors):
    tensors["w_fuse"] = tensors["w_fuse"][:-1]
    save_checkpoint(path, "scorer", dims, vocab, tensors)


def _spoil_trailing_bytes(path, dims, vocab, tensors):
    path.write_bytes(path.read_bytes() + bytes(8))


def _spoil_drop_dim(path, dims, vocab, tensors):
    del dims["output_dim"]
    save_checkpoint(path, "scorer", dims, vocab, tensors)


def _spoil_variant(path, dims, vocab, tensors):
    dims["variant"] = "zz"
    save_checkpoint(path, "scorer", dims, vocab, tensors)


def _spoil_vocab_head(path, dims, vocab, tensors):
    save_checkpoint(path, "scorer", dims, ["pad", "unk"] + vocab[2:], tensors)


def _spoil_duplicate_token(path, dims, vocab, tensors):
    save_checkpoint(path, "scorer", dims, vocab[:-1] + vocab[-2:-1], tensors)


def _spoil_kind(path, dims, vocab, tensors):
    save_checkpoint(path, "relation", dims, vocab, tensors)


def _spoil_token_type(path, dims, vocab, tensors):
    rewrite_header(path, vocab=vocab[:2] + [5] + vocab[3:])


def _spoil_vocab_type(path, dims, vocab, tensors):
    rewrite_header(path, vocab=5)


def _spoil_tensors_type(path, dims, vocab, tensors):
    rewrite_header(path, tensors=5)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_spoil_truncate, "truncated checkpoint header"),
        (_spoil_drop_w_fuse, "missing tensors ['w_fuse']"),
        (_spoil_reshape_w_fuse, "tensor 'w_fuse' has shape (8, 6), expected (9, 6)"),
        (_spoil_trailing_bytes, "trailing bytes"),
        (_spoil_drop_dim, "'output_dim'"),
        (_spoil_variant, "'variant'"),
        (_spoil_vocab_head, "vocabulary must start with the PAD and UNK tokens"),
        (_spoil_duplicate_token, "vocabulary tokens must be unique"),
        (_spoil_kind, "checkpoint kind 'relation'"),
        (_spoil_token_type, "header vocab is not a list of strings"),
        (_spoil_vocab_type, "header vocab is not a list of strings"),
        (_spoil_tensors_type, "header tensors is not a list of records"),
    ],
)
def test_malformed_scorer_checkpoint_raises_load_error_naming_file(tmp_path, spoil, message):
    params = _toy_scorer(seed=27)
    path = tmp_path / "scorer.ckpt"
    save_scorer(path, params)
    dims = params.dims.as_dict()
    dims.update(dropout=params.dropout, variant=params.variant.value, max_tokens=params.max_tokens)
    spoil(path, dims, params.vocab.tokens, {name: t.values for name, t in params.tensors.items()})
    with pytest.raises(LoadError) as err:
        load_scorer(path)
    assert str(path) in str(err.value)
    assert message in str(err.value)
