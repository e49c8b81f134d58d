import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factrank import wordvec
from factrank.errors import DegenerateInputError, LoadError
from factrank.kb import Fact, KnowledgeBase, Relation, parse_kb
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.wordvec import FactMatrix, WordVectorTable, load_vectors, tokenize


def _per_fact_rows(facts, table):
    """The reference loop: each fact's row is the ``np.mean`` of its subject's
    known token vectors concatenated with its object's, a half with no known
    token zero. Returns the rows and the count of such half occurrences."""
    rows, oov = [], 0
    for fact in facts:
        halves = []
        for phrase in (fact.subject, fact.obj):
            known = [table.vectors[t] for t in tokenize(phrase) if t in table.vectors]
            oov += not known
            halves.append(np.mean(known, axis=0) if known else np.zeros(table.dim))
        rows.append(np.concatenate(halves))
    return np.array(rows).reshape(len(facts), 2 * table.dim), oov


def _build(table, *pairs):
    """FactMatrix.build of a KB with one IsA fact per (subject, object) pair."""
    kb = KnowledgeBase([Fact(f"f{i}", s, Relation.IS_A, o) for i, (s, o) in enumerate(pairs)])
    return FactMatrix.build(kb, table)


def test_tokenize_single_word():
    assert tokenize("Umbrella") == ["umbrella"]


def test_tokenize_multiword():
    assert tokenize("used to eat with") == ["used", "to", "eat", "with"]


def test_tokenize_hyphen_splits():
    assert tokenize("Comparative-LargerThan") == ["comparative", "largerthan"]


def test_tokenize_keeps_numbers_drops_punctuation():
    assert tokenize("What's a 365-day plan?") == ["what", "s", "a", "365", "day", "plan"]


def test_phrase_embedding_single_token(tiny_table):
    row = _build(tiny_table, ("Shade", "pet")).rows[0, :4]
    np.testing.assert_array_equal(row, tiny_table["shade"].astype(np.float32))


def test_phrase_embedding_is_mean():
    table = WordVectorTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    np.testing.assert_array_equal(_build(table, ("a b", "a")).rows[0, :2], [0.5, 0.5])


def test_phrase_embedding_all_oov_is_zero_and_counted(tiny_table):
    before = tiny_table.oov_phrase_count
    out = _build(tiny_table, ("zyzzyva", "shade")).rows[0, :4]
    np.testing.assert_array_equal(out, np.zeros(4))
    assert tiny_table.oov_phrase_count == before + 1


def test_phrase_embedding_skips_oov_tokens(tiny_table):
    np.testing.assert_array_equal(
        _build(tiny_table, ("shade zyzzyva", "pet")).rows[0, :4], tiny_table["shade"].astype(np.float32)
    )


def test_phrase_embedding_empty_phrase_rejected(tiny_table):
    for pair in (("!!!", "pet"), ("pet", "!!!")):
        with pytest.raises(DegenerateInputError):
            _build(tiny_table, pair)


def test_fact_embedding_is_concat_of_halves():
    table = WordVectorTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    np.testing.assert_array_equal(_build(table, ("a", "b")).rows[0], [1.0, 0.0, 0.0, 1.0])


def test_fact_embedding_length_is_twice_dim():
    rng = np.random.default_rng(0)
    table = WordVectorTable(100, {"cat": rng.standard_normal(100), "pet": rng.standard_normal(100)})
    assert _build(table, ("cat", "pet")).rows.shape == (1, 200)


def test_fact_embedding_ignores_relation(tiny_table):
    a = Fact("f1", "Dog", Relation.IS_A, "Pet")
    b = Fact("f2", "Dog", Relation.DESIRES, "Pet")
    fm = FactMatrix.build(KnowledgeBase([a, b]), tiny_table)
    np.testing.assert_array_equal(fm.row("f1"), fm.row("f2"))


def test_load_vectors_basic(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("shade 0.1 0.2\n", encoding="utf-8")
    table = load_vectors(path, 2)
    assert len(table) == 1
    np.testing.assert_array_equal(table["shade"], [0.1, 0.2])


def test_load_vectors_wrong_arity(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("shade 0.1 0.2 0.3\n", encoding="utf-8")
    with pytest.raises(LoadError, match=":1"):
        load_vectors(path, 2)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_vectors_non_finite_component_is_load_error_naming_the_line(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"shade 0.1 0.2\nsun 0.3 {value}\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"{path}:2: non-finite vector component"):
        load_vectors(path)


@pytest.mark.parametrize("value", ["3.5e38", "-1e39", "1e300"])
def test_load_vectors_component_beyond_float32_is_load_error_naming_the_line(tmp_path, value):
    path = tmp_path / "vec.txt"
    path.write_text(f"shade 0.1 3.4028234e38\nsun 0.3 {value}\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"{path}:2: non-finite vector component, or one beyond float32's range"):
        load_vectors(path)


@pytest.mark.parametrize("norm", [2.0**-61, 2.0**61, 1e-45, 1e39])
def test_from_rows_rejects_a_nonzero_row_norm_outside_the_screen_range_naming_the_fact(norm):
    fine = [[0.0, 0.0], [2.0**-60, 0.0], [0.0, 2.0**60]]  # a zero row and both ends of the range
    assert FactMatrix.from_rows(["a", "b", "c"], fine).norms.tolist() == [0.0, 2.0**-60, 2.0**60]
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError, match="fact 'b': row norm .* outside"):
        FactMatrix.from_rows(["a", "b", "c"], [[1.0, 0.0], [norm, 0.0], [0.0, 1.0]])


def test_load_vectors_duplicate_last_write_wins(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\na 3 4\n", encoding="utf-8")
    table = load_vectors(path, 2)
    np.testing.assert_array_equal(table["a"], [3.0, 4.0])
    assert table.duplicate_count == 1


def test_load_vectors_takes_the_dimension_from_the_first_non_blank_row(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("\n  \nshade 0.1 0.2 0.3\nsun 1 2 3\n", encoding="utf-8")
    table = load_vectors(path)
    assert table.dim == 3 and len(table) == 2
    path.write_text("\nshade\n", encoding="utf-8")
    with pytest.raises(LoadError, match=":2: expected 2 fields, got 1"):
        load_vectors(path)


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_load_vectors_without_rows_is_load_error_naming_the_file(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LoadError, match=f"{path}: no word vectors"):
        load_vectors(path)


def test_fact_matrix_rows_match_fact_embeddings(tiny_kb, tiny_table, tiny_fact_matrix):
    rows, _ = _per_fact_rows([tiny_kb.fact(fid) for fid in tiny_fact_matrix.fact_ids], tiny_table)
    np.testing.assert_array_equal(tiny_fact_matrix.rows, rows.astype(np.float32))
    assert tiny_fact_matrix.rows.shape == (len(tiny_kb), 8)


def test_fact_matrix_lays_out_relation_buckets_as_views(tiny_kb, tiny_fact_matrix):
    fm = tiny_fact_matrix
    # Relation order, KB load order within a relation
    assert fm.fact_ids == ["f4", "f2", "f1", "f3"]
    for relation in Relation:
        bucket = tiny_kb.buckets[relation]
        assert fm.fact_ids[bucket] == tiny_kb.ids_with_relation(relation)
        assert fm.rows[bucket].base is fm.rows
    assert [fm.row_of[fid] for fid in fm.fact_ids] == [0, 1, 2, 3]
    # the KB's own order and index, not copies of them
    assert fm.fact_ids is tiny_kb.ids and fm.row_of is tiny_kb.position


def test_fact_matrix_norms_are_the_per_row_norm_loop_on_the_desk_kb(tmp_path):
    # the KB and word vectors are drawn before any question, so one question
    # gives the desk synth set's 598 facts
    paths = generate_synthetic(SyntheticConfig(qa_pairs=1, feature_dim=1), tmp_path)
    fm = FactMatrix.build(parse_kb(paths["kb"]), load_vectors(paths["wordvec"]))
    assert fm.rows.shape == (598, 200)
    assert fm.norms.tobytes() == np.array([np.linalg.norm(r.astype(np.float64)) for r in fm.rows]).tobytes()


def test_twin_groups_join_bitwise_equal_rows_once_per_matrix():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 1.0], [0.0, 1.0]])
    fm = FactMatrix.from_rows(["a", "b", "c", "d", "e"], rows)
    assert fm.twin_groups.tolist() == [0, 1, 0, 2, 1]
    assert fm.twin_groups is fm.twin_groups


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_property_phrase_norm_bounded_by_max_token_norm(n_tokens, seed):
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(n_tokens)]
    table = WordVectorTable(5, {t: rng.standard_normal(5) for t in tokens})
    phrase = " ".join(tokens)
    mean = np.mean([table[t] for t in tokens], axis=0)
    max_norm = max(np.linalg.norm(table[t]) for t in tokens)
    assert np.linalg.norm(mean) <= max_norm + 1e-12
    assert _build(table, (phrase, "t0")).rows[0, :5].tobytes() == mean.astype(np.float32).tobytes()


def test_embedding_deterministic(tiny_table):
    a = _build(tiny_table, ("eat with", "pet"), ("dog", "eat with"))
    b = _build(tiny_table, ("eat with", "pet"), ("dog", "eat with"))
    np.testing.assert_array_equal(a.rows[0, :4], a.rows[1, 4:])
    assert a.rows.tobytes() == b.rows.tobytes()


@st.composite
def _tables_and_kbs(draw):
    """A word-vector table and a KB over a few phrases of its tokens and two
    unknown ones, drawn so phrases repeat, some padded with spaces, and facts
    differ only in relation."""
    dim = draw(st.integers(1, 3))
    component = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 5)))]
    table = WordVectorTable(dim, {t: np.array(draw(st.lists(component, min_size=dim, max_size=dim))) for t in vocab})
    padding = st.sampled_from(["", " ", "  "])
    words = st.lists(st.sampled_from(vocab + ["oov1", "oov2"]), min_size=1, max_size=12).map(" ".join)
    phrase = st.tuples(padding, words, padding).map("".join)
    pool = draw(st.lists(phrase, min_size=1, max_size=5))
    fact = st.tuples(st.sampled_from(pool), st.sampled_from(list(Relation)), st.sampled_from(pool))
    triples = draw(st.lists(fact, min_size=1, max_size=9))
    return table, KnowledgeBase([Fact(f"f{i}", s, r, o) for i, (s, r, o) in enumerate(triples)])


# dim 1 with nine known tokens whose pairwise sum differs from the running
# sum, -0.0 components, an unknown token, a fully unknown phrase, repeated
# phrases and a relation twin
_EDGES = (
    WordVectorTable(1, {"a": np.array([1e16]), "b": np.array([1.0]), "c": np.array([-1e16]), "d": np.array([-0.0])}),
    KnowledgeBase([
        Fact("f1", "a b c b b b b b b", Relation.IS_A, "d"),
        Fact("f2", "d d oov", Relation.HAS_A, "oov"),
        Fact("f3", "a b c b b b b b b", Relation.DESIRES, "d"),
        Fact("f4", "oov oov", Relation.IS_A, "c d a"),
    ]),
)


# a row whose float32 norm is nonzero but below wordvec.NORM_RANGE
_TINY = (WordVectorTable(1, {"a": np.array([1e-30])}), KnowledgeBase([Fact("f1", "a", Relation.IS_A, "a")]))


def _written(kb, path, seed):
    """``kb`` written as a kb.tsv and parsed back. The file pads fields with
    spaces and puts comment and blank lines between facts, and some of its
    Comparative facts carry their object's first word as the relation
    token's qualifier, which parsing folds back into the object."""
    rng = np.random.default_rng(seed)
    lines = []
    for f in kb.facts():
        relation, obj = f.relation.value, f.obj
        if f.relation is Relation.COMPARATIVE and rng.random() < 0.5:
            qualifier, _, obj = obj.strip().partition(" ")
            relation = f"Comparative-{qualifier}"
        if rng.random() < 0.3:
            lines.append(str(rng.choice(["# a comment", "", " \t "])))
        lines.append("\t".join(" " * int(rng.integers(2)) + field for field in (f.fact_id, f.subject, relation, obj)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return parse_kb(path)


@settings(max_examples=60, deadline=None)
@given(_tables_and_kbs(), st.sampled_from([1, 2, 3]), st.one_of(st.none(), st.integers(0, 2**16)))
@example(_EDGES, 1, None)
@example(_EDGES, 3, None)
@example(_EDGES, 2, 5)
@example(_TINY, 1, None)
@example(_TINY, 1, 0)
def test_build_is_the_per_fact_loop_bitwise_across_chunk_edges(tmp_path_factory, case, chunk, layout):
    # layout None embeds the KB as given, a seed the KB that _written reads back from its file
    table, kb = case
    before = table.oov_phrase_count
    facts = [f for relation in Relation for f in kb.facts_with_relation(relation)]
    if layout is not None:
        kb = _written(kb, tmp_path_factory.getbasetemp() / "written_kb.tsv", layout)
    rows, oov = _per_fact_rows(facts, table)
    rows = rows.astype(np.float32)
    norms = np.array([np.linalg.norm(r) for r in rows.astype(np.float64)])
    ends = np.cumsum([sum(f.relation is r for f in facts) for r in Relation]).tolist()
    lo, hi = wordvec.NORM_RANGE
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordvec, "BUILD_CHUNK", chunk)
        if np.any((norms != 0.0) & ((norms < lo) | (norms > hi))):
            with pytest.raises(DegenerateInputError, match="row norm .* outside"):
                FactMatrix.build(kb, table)
            assert table.oov_phrase_count == before
            return
        fm = FactMatrix.build(kb, table)
    assert fm.fact_ids == [f.fact_id for f in facts]
    assert fm.rows.tobytes() == rows.tobytes()
    assert fm.norms.tobytes() == norms.tobytes()
    assert kb.buckets == {r: slice(start, end) for r, start, end in zip(Relation, [0, *ends], ends)}
    assert table.oov_phrase_count - before == oov


def test_build_holds_no_per_fact_container_of_its_own():
    # ids, id -> row and buckets are the KB's; an id list and an id dict of
    # the 50,000 facts alone would hold over 2 MB
    relations = list(Relation)
    kb = KnowledgeBase([Fact(f"f{i:05d}", f"s{i % 997} t{i % 13}", relations[i % 13], f"o{i % 101}")
                        for i in range(50_000)])
    rng = np.random.default_rng(3)
    table = WordVectorTable(8, {f"{t}{i}": rng.standard_normal(8) for t, n in (("s", 997), ("t", 13), ("o", 101))
                                for i in range(n)})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fm = FactMatrix.build(kb, table)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained - fm.rows.nbytes - fm.norms.nbytes < 1 << 20


def test_build_rejects_a_tokenless_subject_naming_it_and_counts_nothing(tiny_table, monkeypatch, caplog):
    # the KnowledgeBase that build embeds rejects a tokenless phrase, as parse_fact rejects a tokenless field
    monkeypatch.setattr(wordvec, "BUILD_CHUNK", 1)
    with caplog.at_level(logging.WARNING, logger="factrank.wordvec"), pytest.raises(
        DegenerateInputError, match=r"phrase '\?!' has no tokens"
    ):
        facts = [Fact("f1", "zyzzyva", Relation.IS_A, "pet"), Fact("f2", "?!", Relation.IS_A, "pet")]
        FactMatrix.build(KnowledgeBase(facts), tiny_table)
    assert tiny_table.oov_phrase_count == 0 and not caplog.records


def test_build_warns_once_with_the_count_and_the_first_fully_oov_phrase(tiny_kb, tiny_table, monkeypatch, caplog):
    monkeypatch.setattr(wordvec, "BUILD_CHUNK", 1)
    with caplog.at_level(logging.WARNING, logger="factrank.wordvec"):
        FactMatrix.build(tiny_kb, tiny_table)
        assert not caplog.records
        _build(tiny_table, ("zyzzyva", "pet"), ("dog", "xyst"), ("zyzzyva", "pet"))
    assert [r.getMessage() for r in caplog.records] == [
        "3 fully out-of-vocabulary phrases embed as zero, the first 'zyzzyva'"
    ]
    assert tiny_table.oov_phrase_count == 3
    # first in row order: the Category bucket comes before the IsA one loaded first
    kb = KnowledgeBase([Fact("f1", "xyst", Relation.IS_A, "pet"), Fact("f2", "zyzzyva", Relation.CATEGORY, "pet")])
    with caplog.at_level(logging.WARNING, logger="factrank.wordvec"):
        FactMatrix.build(kb, tiny_table)
    assert caplog.records[-1].getMessage() == "2 fully out-of-vocabulary phrases embed as zero, the first 'zyzzyva'"
