import logging
import re
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factrank import kb as kb_module, text, wordvec
from factrank.errors import DegenerateInputError, LoadError
from factrank.kb import RELATIONS, Fact, Relation, fact_line, parse_kb
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.text import tokenize
from factrank.scorer import rank_rows
from factrank.wordvec import FactMatrix, WordVectorTable, load_vectors
from conftest import from_facts, from_rows, is_mapped, table_of, vector_of


def _per_fact_rows(facts, table):
    """The reference loop: each fact's row is the ``np.mean`` of its subject's
    known token vectors concatenated with its object's, a half with no known
    token zero. Returns the rows and the count of such half occurrences."""
    rows, oov = [], 0
    for fact in facts:
        halves = []
        for phrase in (fact.subject, fact.obj):
            known = [vec for t in tokenize(phrase) if (vec := vector_of(table, t)) is not None]
            oov += not known
            halves.append(np.mean(known, axis=0) if known else np.zeros(table.dim))
        rows.append(np.concatenate(halves))
    return np.array(rows).reshape(len(facts), 2 * table.dim), oov


def _build(table, *pairs):
    """FactMatrix.build of a KB with one IsA fact per (subject, object) pair."""
    kb = from_facts([Fact(f"f{i}", s, Relation.IS_A, o) for i, (s, o) in enumerate(pairs)])
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
    np.testing.assert_array_equal(row, vector_of(tiny_table, "shade").astype(np.float32))


def test_phrase_embedding_is_mean():
    table = table_of(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    np.testing.assert_array_equal(_build(table, ("a b", "a")).rows[0, :2], [0.5, 0.5])


def test_phrase_embedding_all_oov_is_zero_and_counted(tiny_table):
    fm = _build(tiny_table, ("zyzzyva", "shade"))
    np.testing.assert_array_equal(fm.rows[0, :4], np.zeros(4))
    assert fm.oov_phrase_count == 1


def test_phrase_embedding_skips_oov_tokens(tiny_table):
    np.testing.assert_array_equal(
        _build(tiny_table, ("shade zyzzyva", "pet")).rows[0, :4], vector_of(tiny_table, "shade").astype(np.float32)
    )


def test_phrase_embedding_empty_phrase_rejected(tiny_table):
    for pair, field in ((("!!!", "pet"), "subject"), (("pet", "!!!"), "object")):
        with pytest.raises(LoadError, match=f"^{field} has no tokens$"):
            _build(tiny_table, pair)


def test_fact_embedding_is_concat_of_halves():
    table = table_of(2, {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])})
    np.testing.assert_array_equal(_build(table, ("a", "b")).rows[0], [1.0, 0.0, 0.0, 1.0])


def test_fact_embedding_length_is_twice_dim():
    rng = np.random.default_rng(0)
    table = table_of(100, {"cat": rng.standard_normal(100), "pet": rng.standard_normal(100)})
    assert _build(table, ("cat", "pet")).rows.shape == (1, 200)


def test_fact_embedding_ignores_relation(tiny_table):
    a = Fact("f1", "Dog", Relation.IS_A, "Pet")
    b = Fact("f2", "Dog", Relation.DESIRES, "Pet")
    fm = FactMatrix.build(from_facts([a, b]), tiny_table)
    np.testing.assert_array_equal(fm.row("f1"), fm.row("f2"))


def test_load_vectors_basic(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("shade 0.1 0.2\n", encoding="utf-8")
    table = load_vectors(path, 2)
    assert len(table.tokens) == 1
    np.testing.assert_array_equal(vector_of(table, "shade"), [0.1, 0.2])


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
    assert from_rows(["a", "b", "c"], fine).norms.tolist() == [0.0, 2.0**-60, 2.0**60]
    with np.errstate(over="ignore"), pytest.raises(DegenerateInputError, match="fact 'b': row norm .* outside"):
        from_rows(["a", "b", "c"], [[1.0, 0.0], [norm, 0.0], [0.0, 1.0]])


def test_load_vectors_duplicate_last_write_wins(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\na 3 4\n", encoding="utf-8")
    table = load_vectors(path, 2)
    np.testing.assert_array_equal(vector_of(table, "a"), [3.0, 4.0])
    assert table.duplicate_count == 1


def test_load_vectors_takes_the_dimension_from_the_first_non_blank_row(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("\n  \nshade 0.1 0.2 0.3\nsun 1 2 3\n", encoding="utf-8")
    table = load_vectors(path)
    assert table.dim == 3 and len(table.tokens) == 2
    path.write_text("\nshade\n", encoding="utf-8")
    with pytest.raises(LoadError, match=":2: expected 2 fields, got 1"):
        load_vectors(path)


@pytest.mark.parametrize("text", ["", "\n \n"])
def test_load_vectors_without_rows_is_load_error_naming_the_file(tmp_path, text):
    path = tmp_path / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LoadError, match=f"{path}: no word vectors"):
        load_vectors(path)


def test_load_vectors_token_holding_a_nul_byte_is_load_error_naming_the_line(tmp_path):
    # a numpy S column drops a trailing NUL, so "b\0" would be found as "b"
    path = tmp_path / "vec.txt"
    path.write_text("a 1 2\nb\0 3 4\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:2: token 'b\\\\x00' holds a NUL byte$"):
        load_vectors(path)


def test_a_word_vector_cache_hit_maps_the_matrix_and_reads_as_the_parse(tmp_path, caplog):
    path = tmp_path / "vec.txt"
    path.write_text("b 1 2\n\u00e9t\u00e9 7 8\na 3 4\nb 5 6\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        parsed, hit = load_vectors(path), load_vectors(path)
    assert [r.getMessage() for r in caplog.records] == [f"{path}:4: duplicate token 'b', keeping the later row"]
    assert not is_mapped(parsed.matrix) and is_mapped(hit.matrix) and not hit.matrix.flags.writeable
    for table in (parsed, hit):
        assert (table.dim, table.duplicate_count, table.tokens.column.tolist()) == (
            2, 1, [b"a", b"b", "\u00e9t\u00e9".encode()])
        assert table.tokens.rows(["b", "\u00e9t\u00e9", "a", "c", "", "\u00e9"]).tolist() == [0, 1, 2, -1, -1, -1]
        assert table.matrix.tolist() == [[5.0, 6.0], [7.0, 8.0], [3.0, 4.0]]


@pytest.mark.parametrize("change", [
    lambda a: {"tokens": a["tokens"][::-1].copy()},
    lambda a: {"tokens": np.concatenate([a["tokens"][:1], a["tokens"][:-1]])},
    lambda a: {"rows": np.zeros_like(a["rows"])},
    lambda a: {"rows": a["rows"] + len(a["rows"])},
], ids=["reversed tokens", "a repeated token", "rows not a permutation", "rows out of range"])
def test_a_stale_or_unsound_word_vector_cache_warns_and_the_file_is_parsed_again(tmp_path, caplog, change):
    path = tmp_path / "wordvec.txt"
    path.write_text("b 1 2\n\u00e9t\u00e9 7 8\na 3 4\nc 5 6\n", encoding="utf-8")
    parsed, cache = load_vectors(path), tmp_path / "wordvec.txt.cache.npz"
    with np.load(cache) as data:
        arrays = {name: data[name] for name in data.files}
    text.write_atomic(cache, lambda fh: text._savez(fh, {**arrays, **change(arrays)}))  # the matrix stays mappable
    with caplog.at_level(logging.WARNING):
        reparsed = load_vectors(path)
        assert f"ignoring unreadable word vector cache {cache}" in caplog.text
        caplog.clear()
        rewritten = load_vectors(path)
    assert not caplog.records and is_mapped(rewritten.matrix)
    queries = ["a", "b", "c", "\u00e9t\u00e9", "d", "", "b\0"]
    for table in (parsed, reparsed, rewritten):
        assert table.tokens.rows(queries).tolist() == [2, 0, 3, 1, -1, -1, -1]
        assert table.matrix.tolist() == [[1.0, 2.0], [7.0, 8.0], [3.0, 4.0], [5.0, 6.0]]


def test_a_word_vector_cache_hit_of_another_width_is_the_load_error_of_a_parse(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("\nshade 0.1 0.2\nsun 1 2\n", encoding="utf-8")
    cache = path.with_name("vec.txt.cache.npz")
    assert load_vectors(path).dim == 2 and load_vectors(path, 2).dim == 2
    written = cache.read_bytes()
    with pytest.raises(LoadError) as hit:
        load_vectors(path, 3)
    assert cache.read_bytes() == written  # the parse that the hit fell back to failed, so it wrote nothing
    cache.unlink()
    with pytest.raises(LoadError) as parse:
        load_vectors(path, 3)
    assert str(hit.value) == str(parse.value) == f"{path}:2: expected 4 fields, got 3" and not cache.exists()


def _word_vectors(tmp_path, names, rng):
    """A word-vector file of ``names``, which may repeat, read from its cache: the table's tokens, the vectors of
    rows, and a dict of each token's vector, the one written last."""
    values = rng.standard_normal((len(names), 3))
    path = tmp_path / "vec.txt"
    path.write_text("".join(f"{t} {' '.join(map(repr, v))}\n" for t, v in zip(names, values.tolist())),
                    encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordvec.logger, "disabled", True)  # a warning for each of the ~2,000 repeated tokens
        load_vectors(path)
        table = load_vectors(path)
    assert is_mapped(table.matrix) and table.duplicate_count == len(names) - len(set(names)) > 1000
    return table.tokens, table.matrix.__getitem__, dict(zip(names, values))  # last write wins


def _fact_ids(tmp_path, names, rng):
    """A KB of the distinct ``names`` as fact ids, written by ``fact_line`` in load order, fact ``i`` of a random
    relation and of the phrase ``s<i>``, whose code is ``i``; read from its cache: the KB's ids, the subject codes
    of rows, and a dict of each id's load index."""
    ids = list(dict.fromkeys(names))
    lines = [fact_line([fid, f"s{i}", RELATIONS[r].value, f"s{i}"])
             for i, (fid, r) in enumerate(zip(ids, rng.integers(len(RELATIONS), size=len(ids)).tolist()))]
    path = tmp_path / "kb.tsv"
    text.write_lines(path, lines)
    parse_kb(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kb_module, "_parse", lambda path: pytest.fail(f"{path} was parsed, not read from its cache"))
        kb = parse_kb(path)
    return kb.ids, kb.subjects.__getitem__, {fid: i for i, fid in enumerate(ids)}


@pytest.mark.parametrize("load", [_word_vectors, _fact_ids], ids=["word-vector tokens", "fact ids"])
def test_a_table_of_tens_of_thousands_of_tokens_looks_up_as_a_dict_from_its_cache(tmp_path, load):
    rng = np.random.default_rng(15)
    alphabet = np.array(list("abcdefghz09\u00e9\u00df\u0416\u65e5"))  # one- to three-byte UTF-8
    tokens = ["".join(alphabet[rng.integers(len(alphabet), size=n)]) for n in rng.integers(3, 11, 40_000).tolist()]
    names, value_of, oracle = load(tmp_path, tokens, rng)
    unknown = {t[:-1] for t in tokens} | {t + "a" for t in tokens} | {t.upper() for t in tokens} | {"", "\u00e9"}
    queries = list(oracle) + sorted(unknown - set(oracle))
    found = names.rows(queries)
    assert (found[len(oracle):] == -1).all() and len(queries) - len(oracle) > 100_000
    assert value_of(found[:len(oracle)]).tolist() == np.array(list(oracle.values())).tolist()


def test_fact_matrix_rows_match_fact_embeddings(tiny_kb, tiny_table, tiny_fact_matrix):
    rows, _ = _per_fact_rows([tiny_kb.fact(fid) for fid in tiny_fact_matrix.fact_ids], tiny_table)
    np.testing.assert_array_equal(tiny_fact_matrix.rows, rows.astype(np.float32))
    assert tiny_fact_matrix.rows.shape == (len(tiny_kb), 8)


def test_fact_matrix_lays_out_relation_buckets_as_views(tiny_kb, tiny_fact_matrix):
    fm = tiny_fact_matrix
    # Relation order, KB load order within a relation
    assert list(fm.fact_ids) == ["f4", "f2", "f1", "f3"]
    for relation in Relation:
        bucket = tiny_kb.buckets[relation]
        assert fm.fact_ids[bucket] == tiny_kb.ids_with_relation(relation)
        assert fm.rows[bucket].base is fm.rows
    assert [fm.fact_ids.row(fid) for fid in fm.fact_ids] == [0, 1, 2, 3]
    # the KB's own ids and their lookup, not a copy of them
    assert fm.fact_ids is tiny_kb.ids


def test_fact_matrix_norms_are_the_per_row_norm_loop_on_the_desk_kb(tmp_path):
    # the KB and word vectors are drawn before any question, so one question
    # gives the desk synth set's 598 facts
    paths = generate_synthetic(SyntheticConfig(qa_pairs=1, feature_dim=1), tmp_path)
    fm = FactMatrix.build(parse_kb(paths["kb"]), load_vectors(paths["wordvec"]))
    assert fm.rows.shape == (598, 200)
    assert fm.norms.tobytes() == np.array([np.linalg.norm(r.astype(np.float64)) for r in fm.rows]).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 40), chunk=st.sampled_from([1, 3, 7, 2048]),
       hashes=st.sampled_from(["row", "all equal", "by first word"]))
def test_twin_groups_are_the_dict_of_row_bytes_across_chunk_edges_and_hash_collisions(seed, n, chunk, hashes):
    # rows drawn from a few that differ only in the sign of a zero, and unique ones; a hash that puts every
    # row, or rows of different bits, in one run must still group by bytes
    rng = np.random.default_rng(seed)
    pool = np.array([[1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [-0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, -0.0, 0.0]])
    rows = np.where(rng.random((n, 1)) < 0.7, pool[rng.integers(len(pool), size=n)], rng.standard_normal((n, 3)))
    fm = from_rows([f"f{i}" for i in range(n)], rows)
    oracle: dict[bytes, int] = {}
    expected = [oracle.setdefault(r.tobytes(), len(oracle)) for r in fm.rows]
    real = wordvec._row_hashes
    patched = {"row": real, "all equal": lambda r: np.zeros(len(r), dtype=np.uint64),
               "by first word": lambda r: r.view(np.uint32)[:, 0].astype(np.uint64) % np.uint64(2)}[hashes]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wordvec, "BUILD_CHUNK", chunk)
        mp.setattr(wordvec, "_row_hashes", patched)
        groups = fm.twin_groups
    assert groups.dtype == np.intp and groups.tolist() == expected


def test_twin_groups_hold_no_copy_of_the_rows():
    rows = np.random.default_rng(36).standard_normal((50_000, 200), dtype=np.float32)
    rows[1::2] = rows[::2]  # every row has a twin
    fm = from_rows([f"f{i:05d}" for i in range(len(rows))], rows)
    tracemalloc.start()
    try:
        groups = fm.twin_groups
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert groups.tolist() == np.repeat(np.arange(25_000), 2).tolist()
    assert peak < rows.nbytes / 4


def test_twin_groups_join_bitwise_equal_rows_once_per_matrix():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 1.0], [0.0, 1.0]])
    fm = from_rows(["a", "b", "c", "d", "e"], rows)
    assert fm.twin_groups.tolist() == [0, 1, 0, 2, 1]
    assert fm.twin_groups is fm.twin_groups


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_property_phrase_norm_bounded_by_max_token_norm(n_tokens, seed):
    rng = np.random.default_rng(seed)
    tokens = [f"t{i}" for i in range(n_tokens)]
    table = table_of(5, {t: rng.standard_normal(5) for t in tokens})
    phrase = " ".join(tokens)
    mean = np.mean([vector_of(table, t) for t in tokens], axis=0)
    max_norm = max(np.linalg.norm(vector_of(table, t)) for t in tokens)
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
    table = table_of(dim, {t: np.array(draw(st.lists(component, min_size=dim, max_size=dim))) for t in vocab})
    padding = st.sampled_from(["", " ", "  "])
    words = st.lists(st.sampled_from(vocab + ["oov1", "oov2"]), min_size=1, max_size=12).map(" ".join)
    phrase = st.tuples(padding, words, padding).map("".join)
    pool = draw(st.lists(phrase, min_size=1, max_size=5))
    fact = st.tuples(st.sampled_from(pool), st.sampled_from(list(Relation)), st.sampled_from(pool))
    triples = draw(st.lists(fact, min_size=1, max_size=9))
    return table, from_facts([Fact(f"f{i}", s, r, o) for i, (s, r, o) in enumerate(triples)])


# dim 1 with nine known tokens whose pairwise sum differs from the running
# sum, -0.0 components, an unknown token, a fully unknown phrase, repeated
# phrases and a relation twin
_EDGES = (
    table_of(1, {"a": np.array([1e16]), "b": np.array([1.0]), "c": np.array([-1e16]), "d": np.array([-0.0])}),
    from_facts([
        Fact("f1", "a b c b b b b b b", Relation.IS_A, "d"),
        Fact("f2", "d d oov", Relation.HAS_A, "oov"),
        Fact("f3", "a b c b b b b b b", Relation.DESIRES, "d"),
        Fact("f4", "oov oov", Relation.IS_A, "c d a"),
    ]),
)


# a row whose float32 norm is nonzero but below wordvec.NORM_RANGE
_TINY = (table_of(1, {"a": np.array([1e-30])}), from_facts([Fact("f1", "a", Relation.IS_A, "a")]))


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
            return
        fm = FactMatrix.build(kb, table)
    assert list(fm.fact_ids) == [f.fact_id for f in facts]
    assert fm.rows.tobytes() == rows.tobytes()
    assert fm.norms.tobytes() == norms.tobytes()
    assert kb.buckets == {r: slice(start, end) for r, start, end in zip(Relation, [0, *ends], ends)}
    assert fm.oov_phrase_count == oov


def test_build_holds_no_per_fact_container_of_its_own():
    # ids, id -> row and buckets are the KB's; an id list and an id dict of
    # the 50,000 facts alone would hold over 2 MB
    relations = list(Relation)
    kb = from_facts([Fact(f"f{i:05d}", f"s{i % 997} t{i % 13}", relations[i % 13], f"o{i % 101}")
                        for i in range(50_000)])
    rng = np.random.default_rng(3)
    table = table_of(8, {f"{t}{i}": rng.standard_normal(8) for t, n in (("s", 997), ("t", 13), ("o", 101))
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
    # the KnowledgeBase that build embeds cannot hold a tokenless phrase: the builder of its arrays rejects it
    monkeypatch.setattr(wordvec, "BUILD_CHUNK", 1)
    with caplog.at_level(logging.WARNING, logger="factrank.wordvec"), pytest.raises(
        LoadError, match="^subject has no tokens$"
    ):
        facts = [Fact("f1", "zyzzyva", Relation.IS_A, "pet"), Fact("f2", "?!", Relation.IS_A, "pet")]
        FactMatrix.build(from_facts(facts), tiny_table)
    assert not caplog.records


def test_build_warns_once_with_the_count_and_the_first_fully_oov_phrase(tiny_kb, tiny_table, monkeypatch, caplog):
    monkeypatch.setattr(wordvec, "BUILD_CHUNK", 1)
    with caplog.at_level(logging.WARNING, logger="factrank.wordvec"):
        FactMatrix.build(tiny_kb, tiny_table)
        assert not caplog.records
        fm = _build(tiny_table, ("zyzzyva", "pet"), ("dog", "xyst"), ("zyzzyva", "pet"))
    assert [r.getMessage() for r in caplog.records] == [
        "3 fully out-of-vocabulary phrases embed as zero, the first 'zyzzyva'"
    ]
    assert fm.oov_phrase_count == 3
    # first in row order: the Category bucket comes before the IsA one loaded first
    kb = from_facts([Fact("f1", "xyst", Relation.IS_A, "pet"), Fact("f2", "zyzzyva", Relation.CATEGORY, "pet")])
    with caplog.at_level(logging.WARNING, logger="factrank.wordvec"):
        FactMatrix.build(kb, tiny_table)
    assert caplog.records[-1].getMessage() == "2 fully out-of-vocabulary phrases embed as zero, the first 'zyzzyva'"


# two facts that differ only in relation (twin rows), a phrase with one unknown token, and two unknown phrases
CACHED_KB = ("f1\tDog\tIsA\tPet\nf2\tDog\tHasA\tPet\nf3\tZebra crossing\tUsedFor\tSafety\n"
             "f4\tQuux\tIsA\tBlorp\nf5\tcat dog\tAtLocation\thouse\n")
CACHED_WORDS = ["dog", "pet", "zebra", "safety", "cat", "house"]


def _table(dim=3):
    rng = np.random.default_rng(8)
    return table_of(dim, {t: rng.standard_normal(dim) for t in CACHED_WORDS})


def _facts_cache(kb_path):
    return kb_path.with_name(kb_path.name + ".facts.cache.npz")


def _in_memory(kb, table):
    """FactMatrix.build of ``kb`` as if it had no file, so no cache is read or written."""
    path, kb.path = kb.path, None
    try:
        return FactMatrix.build(kb, table)
    finally:
        kb.path = path


def _cache_warnings(caplog):
    return [r for r in caplog.records if r.name == "factrank.text"]


def _assert_same_matrix(fm, built):
    assert fm.rows.dtype == np.float32 and fm.rows.tobytes() == built.rows.tobytes()
    assert fm.rows.shape == built.rows.shape and fm.norms.tobytes() == built.norms.tobytes()
    assert fm.twin_groups.tolist() == built.twin_groups.tolist()


@pytest.fixture()
def kb_path(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(CACHED_KB, encoding="utf-8")
    return path


def test_a_fact_matrix_cache_hit_is_bitwise_the_build(kb_path, caplog):
    kb, table = parse_kb(kb_path), _table()  # one table for all three: each count is its own matrix's
    with caplog.at_level(logging.WARNING):
        built = _in_memory(kb, table)
        written, hit = FactMatrix.build(kb, table), FactMatrix.build(kb, table)
    assert not is_mapped(written.rows) and is_mapped(hit.rows)
    for fm in (written, hit):
        _assert_same_matrix(fm, built)
        assert fm.fact_ids is kb.ids
        fm.check_built_from(kb)
    assert built.twin_groups.tolist() == [0, 0, 1, 2, 3]  # the twins f2 (HasA) and f1 (IsA), then the rest
    assert [fm.oov_phrase_count for fm in (built, written, hit)] == [2, 2, 2]
    assert [r.getMessage() for r in caplog.records] == [
        "2 fully out-of-vocabulary phrases embed as zero, the first 'Quux'"] * 3


def _change_vector(kb_path, table, monkeypatch):
    [row] = table.tokens.rows(["pet"]).tolist()
    table.matrix = table.matrix.copy()
    table.matrix[row, 0] = np.nextafter(table.matrix[row, 0], np.inf)  # below float32's resolution


@pytest.mark.parametrize("change", [
    lambda kb_path, table, monkeypatch: kb_path.write_text(CACHED_KB.replace("Safety", "Pet"), encoding="utf-8"),
    _change_vector,
    lambda kb_path, table, monkeypatch: vars(table).update(vars(_table(4))),
    lambda kb_path, table, monkeypatch: monkeypatch.setattr(text, "CACHE_FORMAT", "factrank-cache-next"),
], ids=["kb-phrase", "word-vector", "dim", "cache-format"])
def test_a_change_to_what_the_rows_are_computed_from_misses_and_rewrites_the_cache(kb_path, caplog, monkeypatch,
                                                                                   change):
    FactMatrix.build(parse_kb(kb_path), _table())
    before, table = _facts_cache(kb_path).read_bytes(), _table()
    change(kb_path, table, monkeypatch)
    kb = parse_kb(kb_path)
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        rebuilt = FactMatrix.build(kb, table)
    assert f"rebuilding stale fact matrix cache {_facts_cache(kb_path)}" in caplog.text
    assert _facts_cache(kb_path).read_bytes() != before
    _assert_same_matrix(rebuilt, _in_memory(kb, table))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        hit = FactMatrix.build(kb, table)
    assert not _cache_warnings(caplog) and is_mapped(hit.rows)
    _assert_same_matrix(hit, rebuilt)


def _spoil_member(cache, name, spoil, save=text._savez):
    """Rewrite ``cache`` with member ``name`` passed through ``spoil``, laid out by ``save``."""
    with np.load(cache) as data:
        arrays = {member: data[member] for member in data.files}
    with open(cache, "wb") as fh:
        save(fh, {**arrays, name: spoil(arrays[name])})


def _flip_last_norm_byte(cache):
    # the last byte of the norms member's data is the one before the next member's header
    with zipfile.ZipFile(cache) as archive:
        at = archive.getinfo("checksum.npy").header_offset - 1
    data = bytearray(cache.read_bytes())
    data[at] ^= 0xFF
    cache.write_bytes(bytes(data))


@pytest.mark.parametrize(("spoil", "message"), [
    (lambda cache: cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2]), "File is not a zip file"),
    (lambda cache: cache.write_bytes(b"not an npz archive"), "pickled"),
    (_flip_last_norm_byte, "Bad CRC-32"),
    (lambda cache: _spoil_member(cache, "norms", lambda norms: norms * 1e30), "outside"),
    (lambda cache: _spoil_member(cache, "rows", lambda rows: rows[:-1]), "rows or norms of the wrong type or shape"),
    (lambda cache: _spoil_member(cache, "norms", lambda norms: norms.astype(np.float32)),
     "rows or norms of the wrong type or shape"),
], ids=["truncated", "not-an-archive", "bad-crc", "norm-out-of-range", "rows-short", "float32-norms"])
def test_a_truncated_or_corrupt_fact_matrix_cache_warns_and_is_rebuilt(kb_path, caplog, spoil, message):
    kb, table = parse_kb(kb_path), _table()
    built = FactMatrix.build(kb, table)
    spoil(_facts_cache(kb_path))
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        rebuilt = FactMatrix.build(kb, table)
    assert f"ignoring unreadable fact matrix cache {_facts_cache(kb_path)}" in caplog.text and message in caplog.text
    _assert_same_matrix(rebuilt, built)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        _assert_same_matrix(FactMatrix.build(kb, table), built)
    assert not _cache_warnings(caplog)


def test_mapped_rows_are_read_only_aligned_and_rank_as_the_built_ones(tmp_path):
    paths = generate_synthetic(SyntheticConfig(qa_pairs=1, feature_dim=1), tmp_path)  # the desk KB, 598 facts
    kb, table = parse_kb(paths["kb"]), load_vectors(paths["wordvec"])
    built, hit = FactMatrix.build(kb, table), FactMatrix.build(kb, table)
    assert is_mapped(hit.rows)
    assert hit.rows.flags.aligned and not hit.rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        hit.rows[0, 0] = 1.0
    iq = np.random.default_rng(3).standard_normal((7, hit.dim))
    for (rows, scores), (want_rows, want_scores) in zip(rank_rows(iq, hit.rows, hit.norms, kb.ids.rank, 5),
                                                        rank_rows(iq, built.rows, built.norms, kb.ids.rank, 5)):
        assert rows.tolist() == want_rows.tolist() and scores.tobytes() == want_scores.tobytes()



@pytest.mark.parametrize("save", [np.savez, np.savez_compressed])
def test_a_cache_whose_rows_cannot_be_mapped_is_rebuilt_once_then_mapped(kb_path, caplog, save):
    # np.savez puts the rows at no float32 boundary, and np.savez_compressed deflates them
    kb, table = parse_kb(kb_path), _table()
    built = FactMatrix.build(kb, table)
    _spoil_member(_facts_cache(kb_path), "rows", lambda rows: rows, lambda fh, arrays: save(fh, **arrays))
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        _assert_same_matrix(FactMatrix.build(kb, table), built)
    assert "member rows is not stored uncompressed and aligned" in caplog.text
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        hit = FactMatrix.build(kb, table)
    assert not _cache_warnings(caplog) and is_mapped(hit.rows)
    _assert_same_matrix(hit, built)


def test_a_hit_maps_the_rows_of_the_cache_it_checked_though_another_replaces_it(kb_path, monkeypatch):
    # one KB with two word-vector files writes two caches of one layout to the same path
    kb, table = parse_kb(kb_path), _table()
    cache, load = _facts_cache(kb_path), np.load
    FactMatrix.build(kb, WordVectorTable(table.tokens, 2 * table.matrix))
    other = cache.read_bytes()
    FactMatrix.build(kb, table)

    def load_then_replace(file, *args, **kwargs):
        data = load(file, *args, **kwargs)
        text.write_atomic(cache, lambda fh: fh.write(other))  # as a concurrent run renames its cache in
        return data

    monkeypatch.setattr(np, "load", load_then_replace)
    hit = FactMatrix.build(kb, table)
    assert cache.read_bytes() == other and is_mapped(hit.rows)
    _assert_same_matrix(hit, _in_memory(kb, table))


def test_a_kb_held_in_memory_writes_no_cache(tiny_kb, tiny_table, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert tiny_kb.path is None
    FactMatrix.build(tiny_kb, tiny_table)
    assert not any(tmp_path.iterdir())
