import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.errors import DegenerateInputError, LoadError
from factrank.kb import Fact, Relation, parse_kb
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.wordvec import (
    FactMatrix,
    WordVectorTable,
    fact_embedding,
    load_vectors,
    phrase_embedding,
    tokenize,
)


def test_tokenize_single_word():
    assert tokenize("Umbrella") == ["umbrella"]


def test_tokenize_multiword():
    assert tokenize("used to eat with") == ["used", "to", "eat", "with"]


def test_tokenize_hyphen_splits():
    assert tokenize("Comparative-LargerThan") == ["comparative", "largerthan"]


def test_tokenize_keeps_numbers_drops_punctuation():
    assert tokenize("What's a 365-day plan?") == ["what", "s", "a", "365", "day", "plan"]


def test_phrase_embedding_single_token(tiny_table):
    np.testing.assert_array_equal(phrase_embedding("Shade", tiny_table), tiny_table["shade"])


def test_phrase_embedding_is_mean():
    table = WordVectorTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    np.testing.assert_array_equal(phrase_embedding("a b", table), [0.5, 0.5])


def test_phrase_embedding_all_oov_is_zero_and_counted(tiny_table):
    before = tiny_table.oov_phrase_count
    out = phrase_embedding("zyzzyva", tiny_table)
    np.testing.assert_array_equal(out, np.zeros(4))
    assert tiny_table.oov_phrase_count == before + 1


def test_phrase_embedding_skips_oov_tokens(tiny_table):
    np.testing.assert_array_equal(
        phrase_embedding("shade zyzzyva", tiny_table), tiny_table["shade"]
    )


def test_phrase_embedding_empty_phrase_rejected(tiny_table):
    with pytest.raises(DegenerateInputError):
        phrase_embedding("!!!", tiny_table)


def test_fact_embedding_is_concat_of_halves():
    table = WordVectorTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    fact = Fact("f1", "a", Relation.IS_A, "b")
    np.testing.assert_array_equal(fact_embedding(fact, table), [1.0, 0.0, 0.0, 1.0])


def test_fact_embedding_length_is_twice_dim():
    rng = np.random.default_rng(0)
    table = WordVectorTable(100, {"cat": rng.standard_normal(100), "pet": rng.standard_normal(100)})
    fact = Fact("f1", "cat", Relation.IS_A, "pet")
    assert fact_embedding(fact, table).shape == (200,)


def test_fact_embedding_ignores_relation(tiny_table):
    a = Fact("f1", "Dog", Relation.IS_A, "Pet")
    b = Fact("f2", "Dog", Relation.DESIRES, "Pet")
    np.testing.assert_array_equal(fact_embedding(a, tiny_table), fact_embedding(b, tiny_table))


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
    for fid in tiny_kb.fact_ids():
        np.testing.assert_array_equal(
            tiny_fact_matrix.row(fid), fact_embedding(tiny_kb.fact(fid), tiny_table)
        )
    assert tiny_fact_matrix.rows.shape == (len(tiny_kb), 8)


def test_fact_matrix_lays_out_relation_buckets_as_views(tiny_kb, tiny_fact_matrix):
    fm = tiny_fact_matrix
    # Relation order, KB load order within a relation
    assert fm.fact_ids == ["f4", "f2", "f1", "f3"]
    for relation in Relation:
        bucket = fm.buckets[relation]
        assert fm.fact_ids[bucket] == tiny_kb.ids_with_relation(relation)
        assert fm.rows[bucket].base is fm.rows
    assert [fm.row_of[fid] for fid in fm.fact_ids] == [0, 1, 2, 3]


def test_fact_matrix_norms_are_the_per_row_norm_loop_on_the_desk_kb(tmp_path):
    # the KB and word vectors are drawn before any question, so one question
    # gives the desk synth set's 598 facts
    paths = generate_synthetic(SyntheticConfig(qa_pairs=1, feature_dim=1), tmp_path)
    fm = FactMatrix.build(parse_kb(paths["kb"]), load_vectors(paths["wordvec"]))
    assert fm.rows.shape == (598, 200)
    assert fm.norms.tobytes() == np.array([np.linalg.norm(r) for r in fm.rows]).tobytes()


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
    emb = phrase_embedding(phrase, table)
    max_norm = max(np.linalg.norm(table[t]) for t in tokens)
    assert np.linalg.norm(emb) <= max_norm + 1e-12


def test_embedding_deterministic(tiny_table):
    a = phrase_embedding("eat with", tiny_table)
    b = phrase_embedding("eat with", tiny_table)
    np.testing.assert_array_equal(a, b)
