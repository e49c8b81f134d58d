import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factrank.errors import LoadError, UsageError
from factrank.kb import (
    AnswerSource,
    Fact,
    KnowledgeBase,
    Relation,
    kb_stats,
    parse_kb,
)


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
    assert sorted(seen) == sorted(tiny_kb.fact_ids())
    assert len(seen) == len(set(seen))


def test_serialize_parse_round_trip(tmp_path, tiny_kb):
    path = tmp_path / "kb.tsv"
    path.write_text("".join(f"{f.fact_id}\t{f.subject}\t{f.relation.value}\t{f.obj}\n" for f in tiny_kb.facts()),
                    encoding="utf-8")
    loaded = parse_kb(path)
    assert loaded.fact_ids() == tiny_kb.fact_ids()
    for fid in tiny_kb.fact_ids():
        a, b = tiny_kb.fact(fid), loaded.fact(fid)
        assert (a.subject, a.relation, a.obj) == (b.subject, b.relation, b.obj)


def test_kb_stats_empty():
    stats = kb_stats(KnowledgeBase([]))
    assert stats.total_facts == 0
    assert stats.vocabulary_size == 0
    assert all(c == 0 for c in stats.relation_counts.values())


def test_kb_stats_two_distinct_relations():
    kb = KnowledgeBase([Fact("f1", "A", Relation.IS_A, "B"), Fact("f2", "C", Relation.HAS_A, "D")])
    stats = kb_stats(kb)
    assert stats.relation_counts[Relation.IS_A] == 1
    assert stats.relation_counts[Relation.HAS_A] == 1
    assert stats.total_facts == 2


def test_kb_stats_matches_generator_config(small_synth):
    from conftest import SMALL_SYNTH

    stats = kb_stats(small_synth["kb"])
    assert stats.total_facts == SMALL_SYNTH["facts_per_relation"] * len(Relation)
    for r in Relation:
        assert stats.relation_counts[r] == SMALL_SYNTH["facts_per_relation"]


def test_unknown_fact_id_rejected(tiny_kb):
    with pytest.raises(UsageError):
        tiny_kb.fact("nope")


_relation_strategy = st.sampled_from(list(Relation))


@settings(max_examples=30, deadline=None)
@given(st.lists(_relation_strategy, min_size=0, max_size=40))
def test_property_buckets_partition(relations):
    kb = KnowledgeBase([Fact(f"f{i}", f"s{i}", r, f"o{i}") for i, r in enumerate(relations)])
    total = 0
    for r in Relation:
        bucket = kb.ids_with_relation(r)
        total += len(bucket)
        assert all(kb.fact(fid).relation is r for fid in bucket)
    assert total == len(kb)
