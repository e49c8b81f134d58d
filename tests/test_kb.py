import builtins
import logging
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank import kb as kb_module
from factrank.errors import LoadError, UsageError
from factrank.kb import (
    AnswerSource,
    Fact,
    Relation,
    fact_line,
    parse_fact,
    parse_kb,
)
from factrank.synth import SyntheticConfig, generate_synthetic
from factrank.text import CACHE_FORMAT
from conftest import from_facts, table_of


def test_relation_set_has_13_members():
    assert len(Relation) == 13
    assert {r.value for r in Relation} == {
        "Category", "Comparative", "HasA", "IsA", "HasProperty", "CapableOf", "Desires",
        "RelatedTo", "AtLocation", "PartOf", "ReceivesAction", "UsedFor", "CreatedBy",
    }


def test_relation_parse_round_trips():
    for r in Relation:
        parsed, suffix = Relation.parse(r.value)
        assert parsed is r and suffix is None


def test_relation_parse_comparative_suffix():
    parsed, suffix = Relation.parse("Comparative-LargerThan")
    assert parsed is Relation.COMPARATIVE
    assert suffix == "LargerThan"


def test_relation_parse_unknown():
    with pytest.raises(UsageError):
        Relation.parse("FliesLike")


def test_answer_source_parse():
    assert AnswerSource.parse("Image") is AnswerSource.IMAGE
    assert AnswerSource.parse("KnowledgeBase") is AnswerSource.KNOWLEDGE_BASE
    with pytest.raises(UsageError):
        AnswerSource.parse("Oracle")


def test_parse_kb_basic_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tUmbrella\tUsedFor\tShade\n", encoding="utf-8")
    kb = parse_kb(path)
    fact = kb.fact("f1")
    assert (fact.subject, fact.relation, fact.obj) == ("Umbrella", Relation.USED_FOR, "Shade")


def test_parse_kb_unknown_relation_is_load_error(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tBird\tFliesLike\tPlane\n", encoding="utf-8")
    with pytest.raises(LoadError, match=":1"):
        parse_kb(path)


def test_parse_kb_empty_file(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("", encoding="utf-8")
    assert len(parse_kb(path)) == 0


def test_parse_kb_duplicate_id_names_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tA\tIsA\tB\nf1\tC\tIsA\tD\n", encoding="utf-8")
    with pytest.raises(LoadError, match=":2"):
        parse_kb(path)


def test_a_nul_byte_in_a_fact_id_is_a_load_error_naming_the_line(tmp_path):
    # ids are held as a numpy bytes column, which would drop a trailing NUL and read "f2\0" as "f2"
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tA\tIsA\tB\nf2\x00\tC\tIsA\tD\n", encoding="utf-8")
    with pytest.raises(LoadError, match=re.escape(f"{path}:2: fact id 'f2\\x00' holds a NUL byte")):
        parse_kb(path)


def test_a_fact_id_longer_than_the_bound_is_a_load_error_naming_the_line(tmp_path):
    # the id column is as wide as its longest id: one 1,000-byte id would make every row 1,000 bytes
    path = tmp_path / "kb.tsv"
    long_id = "\xe9" * 128  # 256 UTF-8 bytes, 128 characters
    path.write_text(f"f1\tA\tIsA\tB\n{'f' * 1000}\tC\tIsA\tD\n{long_id}\tE\tIsA\tF\n", encoding="utf-8")
    message = f"{path}:2: fact id {'f' * 20!r}... is longer than {kb_module.MAX_FACT_ID_BYTES} UTF-8 bytes"
    with pytest.raises(LoadError, match=f"^{re.escape(message)}$"):
        parse_kb(path)
    path.write_text(f"f1\tA\tIsA\tB\n{'f' * 255}\tC\tIsA\tD\n{long_id}\tE\tIsA\tF\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:3: fact id "):
        parse_kb(path)
    path.write_text(f"f1\tA\tIsA\tB\n{'f' * 255}\tC\tIsA\tD\n", encoding="utf-8")
    assert parse_kb(path).ids.column.dtype == np.dtype("S255")


@pytest.mark.parametrize("names_of", [
    lambda kb: kb.ids,
    lambda kb: table_of(1, {fid: np.zeros(1) for fid in kb.ids}).tokens,  # token i at row i, as id i is
], ids=["fact ids", "word-vector tokens"])
def test_an_id_lookup_finds_no_row_for_an_id_with_a_nul_or_an_id_of_another_width(tiny_kb, names_of):
    # an S column drops a trailing NUL, so "f1\0" compares equal to "f1"
    names, empty = names_of(tiny_kb), names_of(from_facts([]))
    assert names.rows(["f1\x00", "f3", "f", "f10", "f4", "", "\xe9"]).tolist() == [-1, 3, -1, -1, 0, -1, -1]
    assert names.rows([]).tolist() == [] and empty.rows(["f1"]).tolist() == [-1]


def test_parse_kb_malformed_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tA\tIsA\n", encoding="utf-8")
    with pytest.raises(LoadError, match="4 tab-separated"):
        parse_kb(path)


def test_parse_kb_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("# header\n\nf1\tA\tIsA\tB\n", encoding="utf-8")
    assert len(parse_kb(path)) == 1


def test_parse_kb_comparative_folds_suffix_into_object(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tElephant\tComparative-LargerThan\tAnt\n", encoding="utf-8")
    fact = parse_kb(path).fact("f1")
    assert fact.relation is Relation.COMPARATIVE
    assert fact.obj == "LargerThan Ant"


@pytest.mark.parametrize(("subject", "obj", "message"), [("?!", "B", "subject has no tokens"),
                                                         ("A", "--", "object has no tokens")])
def test_parse_kb_field_without_tokens_names_it_and_the_line(tmp_path, subject, obj, message):
    path = tmp_path / "kb.tsv"
    path.write_text(f"f1\tA\tIsA\tB\nf2\t{subject}\tIsA\t{obj}\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f":2: {message}"):
        parse_kb(path)


def test_parse_kb_holds_each_distinct_phrase_once(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("f1\tDog\tIsA\tPet\nf2\tCat\tIsA\tPet\nf3\tPet\tIsA\tAnimal\nf4\tDog\tIsA\t Pet \n",
                    encoding="utf-8")
    f1, f2, f3, f4 = parse_kb(path).facts()
    assert f1.obj is f2.obj is f3.subject is f4.obj == "Pet"
    assert f1.subject is f4.subject == "Dog"
    assert not hasattr(f1, "__dict__")


def test_facts_with_relation_filters(tiny_kb):
    used_for = tiny_kb.facts_with_relation(Relation.USED_FOR)
    assert [f.fact_id for f in used_for] == ["f1", "f3"]
    assert tiny_kb.facts_with_relation(Relation.DESIRES) == []


def test_relation_buckets_partition_facts(tiny_kb):
    seen = []
    for r in Relation:
        seen.extend(f.fact_id for f in tiny_kb.facts_with_relation(r))
    assert sorted(seen) == sorted(tiny_kb.ids)
    assert len(seen) == len(set(seen))


def test_serialize_parse_round_trip(tmp_path, tiny_kb):
    path = tmp_path / "kb.tsv"
    path.write_text("".join(f"{f.fact_id}\t{f.subject}\t{f.relation.value}\t{f.obj}\n" for f in tiny_kb.facts()),
                    encoding="utf-8")
    loaded = parse_kb(path)
    assert list(loaded.ids) == list(tiny_kb.ids)
    for fid in tiny_kb.ids:
        a, b = tiny_kb.fact(fid), loaded.fact(fid)
        assert (a.subject, a.relation, a.obj) == (b.subject, b.relation, b.obj)


@pytest.mark.parametrize("fields", [
    ["f1", "dog", "IsA", "pet"],
    [" f2 ", "  big dog ", " HasA ", "tail  "],
    ["f3", "elephant", "Comparative-LargerThan", "mouse"],
    ["\u0444 4", "#caf\u00e9\0 au lait", "RelatedTo", "\u2028drink\x85 \x0c"],
])
def test_a_fact_line_reads_back_as_parse_fact_reads_its_fields(tmp_path, fields):
    path = tmp_path / "kb.tsv"
    path.write_text(fact_line(fields) + "\n", encoding="utf-8")
    assert parse_kb(path).facts() == [Fact(*parse_fact(fields))]


@pytest.mark.parametrize(("fields", "at"), [
    (["f\t1", "dog", "IsA", "pet"], 0),
    (["f1", "big\ndog", "IsA", "pet"], 1),
    (["f1", "dog", "IsA\r", "pet"], 2),
    (["f1", "dog", "IsA", "pet\r\n"], 3),
    (["f1\n", "dog\t", "IsA", "pet"], 0),
    ([" #f1", "dog", "IsA", "pet"], None),
    (["#f1", "dog", "IsA", "pet\n"], 3),
])
def test_a_fact_line_refuses_a_field_its_parse_would_not_read_back(fields, at):
    if at is None:
        message = "a fact id starting with '#' would be read back as a comment line"
    else:
        message = f"{('fact id', 'subject', 'relation', 'object')[at]} {fields[at]!r} contains a tab or a line break"
    with pytest.raises(LoadError, match=f"^{re.escape(message)}$"):
        fact_line(fields)


def test_unknown_fact_id_rejected(tiny_kb):
    assert tiny_kb.ids.row("f3") == 3 and tiny_kb.fact("f3").obj == "eat with"
    for lookup in (tiny_kb.ids.row, tiny_kb.fact):
        for fact_id in ("nope", "f1\x00", "f10"):
            with pytest.raises(UsageError, match=f"^unknown fact id {re.escape(repr(fact_id))}$"):
                lookup(fact_id)


_relation_strategy = st.sampled_from(list(Relation))


@settings(max_examples=30, deadline=None)
@given(st.lists(_relation_strategy, min_size=0, max_size=40))
def test_property_buckets_partition(relations):
    kb = from_facts([Fact(f"f{i}", f"s{i}", r, f"o{i}") for i, r in enumerate(relations)])
    total = 0
    for r in Relation:
        bucket = kb.ids_with_relation(r)
        total += len(bucket)
        assert all(kb.fact(fid).relation is r for fid in bucket)
    assert total == len(kb)


# ----------------------------------------------------------------------
# the cache of parsed columns beside the file
# ----------------------------------------------------------------------

CACHED_COLUMNS = ("relations", "subjects", "objects", "phrase_starts", "phrase_tokens", "text_starts", "phrase_text")

# comments, blank lines, a qualified Comparative, relations out of bucket order, non-ASCII ids and phrases, and
# U+2028 and U+0085 within fields, where str.splitlines() would split a line but a file's lines do not end
ODD_KB = ("# a header\n\nf1\tDog\tIsA\tPet\nf2\tElephant\tComparative-LargerThan\tAnt\n"
          "  # an indented comment\nfé\tCafé au lait\tHasA\tCrème\n\t\n"
          "f\u2028x\tLine\u2028Break\tUsedFor\tnext\x85line\nf3\tDog\tCategory\tPet\n"
          "ü2\tZebra\tIsA\tStripes \u2028 ok\n")


def _cache(path):
    return path.with_name(path.name + ".cache.npz")


def _assert_same_kb(a, b):
    for name in CACHED_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for x, y in ((a.ids.column, b.ids.column), (a.ids.sorted_rows, b.ids.sorted_rows)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert (list(a.ids), a.tokens, a.buckets) == (list(b.ids), b.tokens, b.buckets)


def _hit(path, monkeypatch):
    """parse_kb(path), failing unless the cache answers it."""
    with monkeypatch.context() as m:
        m.setattr(kb_module, "_parse", lambda path: pytest.fail(f"{path} was parsed, not read from its cache"))
        return parse_kb(path)


@pytest.fixture()
def odd_kb_path(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(ODD_KB, encoding="utf-8")
    return path


def test_a_cache_hit_is_column_for_column_a_fresh_parse(odd_kb_path, monkeypatch):
    parsed = parse_kb(odd_kb_path)
    assert list(parsed.ids) == ["f3", "f2", "fé", "f1", "ü2", "f\u2028x"]
    assert parsed.fact("f\u2028x").obj == "next\x85line" and parsed.fact("f2").obj == "LargerThan Ant"
    written = _cache(odd_kb_path).stat().st_mtime_ns
    hit = _hit(odd_kb_path, monkeypatch)
    assert _cache(odd_kb_path).stat().st_mtime_ns == written
    _assert_same_kb(hit, parsed)
    assert hit.facts() == parsed.facts()


def test_a_cache_hit_on_the_desk_kb_is_a_fresh_parse(tmp_path, monkeypatch):
    files = generate_synthetic(SyntheticConfig(qa_pairs=20, feature_dim=2), tmp_path)  # the default KB
    parsed = parse_kb(files["kb"])
    assert len(parsed) == 598
    _assert_same_kb(_hit(files["kb"], monkeypatch), parsed)


def test_an_empty_kb_round_trips_through_its_cache(tmp_path, monkeypatch):
    path = tmp_path / "kb.tsv"
    path.write_text("# nothing but a comment\n\n", encoding="utf-8")
    parsed = parse_kb(path)
    hit = _hit(path, monkeypatch)
    _assert_same_kb(hit, parsed)
    assert len(hit) == 0 and len(hit.phrase_text) == 0 and hit.tokens == []


def test_an_edited_file_is_parsed_again_and_its_errors_name_the_line(odd_kb_path, caplog):
    parse_kb(odd_kb_path)
    odd_kb_path.write_text(ODD_KB + "f9\tCat\tIsA\tPet\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        assert parse_kb(odd_kb_path).fact("f9").subject == "Cat"
    assert "rebuilding stale knowledge base cache" in caplog.text
    odd_kb_path.write_text(ODD_KB + "f9\tCat\tIsA\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"^{re.escape(str(odd_kb_path))}:11: expected 4 tab-separated fields, got 3$"):
        parse_kb(odd_kb_path)


def _rewrite_cache(path, **changes):
    with np.load(_cache(path)) as data:
        arrays = {name: data[name] for name in data.files}
    np.savez(_cache(path), **{**arrays, **changes})


@pytest.mark.parametrize(("change", "warning"), [
    (lambda a: {"checksum": np.str_(str(a["checksum"]).replace(CACHE_FORMAT, "factrank-cache-1"))}, "stale"),
    (lambda a: {"relations": np.append(a["relations"], np.int32(0))}, "column lengths differ"),
    (lambda a: {"relations": a["relations"] + np.int32(13)}, "a code is out of range"),
    (lambda a: {"relations": a["relations"][::-1].copy()}, "relations are out of bucket order"),
    (lambda a: {"objects": a["objects"] + np.int32(100)}, "a code is out of range"),
    (lambda a: {"subjects": a["subjects"] - np.int32(1)}, "a code is out of range"),
    (lambda a: {"phrase_starts": a["phrase_starts"][[0, 2, 1, *range(3, len(a["phrase_starts"]))]]},
     "phrase starts do not rise from 0 to the token count"),
    (lambda a: {"phrase_tokens": a["phrase_tokens"] + np.int32(1)}, "a code is out of range"),
    (lambda a: {"text_starts": a["text_starts"] + 1}, "text starts do not rise from 0 to the text length"),
    (lambda a: {"id_rows": np.zeros_like(a["id_rows"])}, "the fact id rows are not a permutation"),
    (lambda a: {"id_rows": a["id_rows"] + 1}, "id rows are not a permutation"),  # one row out of range
    (lambda a: {"ids": a["ids"][::-1].copy()}, "the fact ids repeat or are out of order"),
    (lambda a: {"ids": np.array([b"f1"] * 6)}, "the fact ids repeat"),
    (lambda a: {"ids": np.array([b"\xff"] * 6)}, "can't decode byte"),
    (lambda a: {"phrase_text": np.where(a["phrase_text"] == ord("D"), 0xFF, a["phrase_text"]).astype(np.uint8)},
     "can't decode byte"),
])
def test_a_stale_or_unsound_cache_warns_and_the_file_is_parsed_again(odd_kb_path, caplog, change, warning):
    parsed = parse_kb(odd_kb_path)
    with np.load(_cache(odd_kb_path)) as data:
        _rewrite_cache(odd_kb_path, **change(data))
    with caplog.at_level(logging.WARNING):
        reparsed = parse_kb(odd_kb_path)
    assert f"knowledge base cache {_cache(odd_kb_path)}" in caplog.text and warning in caplog.text
    _assert_same_kb(reparsed, parsed)
    caplog.clear()
    _assert_same_kb(parse_kb(odd_kb_path), parsed)  # the rewritten cache, read without a word
    assert not caplog.records


def test_a_corrupt_kb_cache_warns_and_is_rewritten(odd_kb_path, caplog, monkeypatch):
    parsed = parse_kb(odd_kb_path)
    _cache(odd_kb_path).write_bytes(_cache(odd_kb_path).read_bytes()[:1000])
    with caplog.at_level(logging.WARNING):
        _assert_same_kb(parse_kb(odd_kb_path), parsed)
    assert "ignoring unreadable knowledge base cache" in caplog.text
    _assert_same_kb(_hit(odd_kb_path, monkeypatch), parsed)


def test_an_unwritable_directory_still_returns_the_kb_and_leaves_no_file(odd_kb_path, caplog, monkeypatch):
    directory = odd_kb_path.parent
    directory.chmod(0o555)
    try:
        if os.access(directory, os.W_OK):  # the superuser writes through the mode bits: refuse as the kernel would
            real_open = builtins.open
            monkeypatch.setattr(builtins, "open", lambda file, mode="r", *args, **kwargs: (
                _refuse(file) if "w" in mode and Path(file).parent == directory else
                real_open(file, mode, *args, **kwargs)))
        with caplog.at_level(logging.WARNING):
            kb = parse_kb(odd_kb_path)
    finally:
        monkeypatch.undo()
        directory.chmod(0o755)
    assert "could not write knowledge base cache" in caplog.text
    assert [p.name for p in directory.iterdir()] == ["kb.tsv"]
    assert kb.fact("fé").obj == "Crème"


def _refuse(file):
    raise PermissionError(13, "Permission denied", str(file))
