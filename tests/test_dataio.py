import hashlib
import json
import logging
import os
import re
import time

import numpy as np
import pytest

from factrank import dataio, text
from factrank.dataio import FeatureStore, QAInstance, load_concept_labels, load_concepts, load_features, load_qa
from factrank.errors import DataError, LoadError, UsageError
from factrank.kb import MAX_FACT_ID_BYTES, AnswerSource, KnowledgeBase, Relation, parse_kb
from factrank.wordvec import WordVectorTable, load_vectors

from conftest import from_facts, is_mapped, vector_of

LABELS = [f"label{i}" for i in range(6)]
CONCEPTS = {"img1": [0, 5], "img2": [], "img3": [3, 3], "img4": [2, 4, 1]}
FEATURES = {"img1": ["0.1", "-2.5e-3", "3e38"], "img2": ["1", "0", "-0.0"], "img3": ["3.3", "7", "1e-320"],
            "img4": ["-1", "2", "0.3333333333333333"]}


def _float32(values):
    """A feature row as the store holds it: each text's float64 rounded to float32."""
    return np.array([np.float32(float(v)) for v in values])


def _dense(indices):
    """The 0/1 concept vector as an ``np.zeros`` float64 row with its hot bits set."""
    vec = np.zeros(len(LABELS))
    for i in indices:
        vec[i] = 1.0
    return vec


def _write_concepts(path, rows):
    path.write_text("".join(f"{image} {','.join(map(str, hot))}\n" for image, hot in rows.items()), encoding="utf-8")
    return path


def _by_image(table):
    """A feature or concept table, an image id -> row index and a matrix, as image id -> row."""
    index, matrix = table
    return {image: matrix[row] for image, row in index.items()}


def _write_features(path, rows):
    path.write_text("".join(f"{image} {len(v)} {' '.join(v)}\n" for image, v in rows.items()), encoding="utf-8")
    return path


@pytest.fixture()
def store(tmp_path):
    features = load_features(_write_features(tmp_path / "features.txt", FEATURES))
    return FeatureStore(features, load_concepts(_write_concepts(tmp_path / "concepts.txt", CONCEPTS), len(LABELS)))


@pytest.mark.parametrize(("line", "message"), [
    ("img2 1,x", "bad concept index 'x'"),
    ("img2 1,6", r"concept index 6 out of range \[0, 6\)"),
    ("img2 -1", r"concept index -1 out of range \[0, 6\)"),
    ("img1 2", "duplicate image id 'img1'"),
])
def test_a_bad_concept_row_is_a_load_error_naming_the_line(tmp_path, line, message):
    path = tmp_path / "concepts.txt"
    path.write_text(f"img1 0,5\n\n{line}\n", encoding="utf-8")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:3: {message}"):
        load_concepts(path, len(LABELS))


def test_concept_rows_are_the_held_0_1_bool_rows(store):
    for image, hot in CONCEPTS.items():
        row = store.concept(image)
        assert row.dtype == np.bool_
        assert row.astype(np.float64).tobytes() == _dense(hot).tobytes()
    assert store.concept_dim == len(LABELS)
    assert store.concept_matrix.sum() == 6  # img3's repeated index sets one bit


def test_stack_stacks_float32_features_and_bool_concepts(store):
    images = ["img3", "img1", "img3", "img2"]
    feats, cons = store.stack(images)
    assert (feats.dtype, cons.dtype) == (np.float32, np.bool_)
    assert feats.tobytes() == np.stack([store.feature(i) for i in images]).tobytes()
    assert cons.tobytes() == np.stack([store.concept(i) for i in images]).tobytes()


def test_an_unknown_image_is_a_data_error(store):
    with pytest.raises(DataError, match="no image feature for image id 'img9'"):
        store.stack(["img1", "img9"])
    with pytest.raises(DataError, match="no concept vector for image id 'img9'"):
        store.concept("img9")


def test_stack_looks_up_every_image_s_features_before_any_concepts(tmp_path):
    features = _write_features(tmp_path / "features.txt", {**FEATURES, "img5": ["1", "2", "3"]})
    store = FeatureStore(load_features(features),
                         load_concepts(_write_concepts(tmp_path / "concepts.txt", CONCEPTS), len(LABELS)))
    assert store.feature("img5").tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(DataError, match="^no concept vector for image id 'img5'$"):
        store.stack(["img1", "img5"])
    with pytest.raises(DataError, match="^no image feature for image id 'img9'$"):
        store.stack(["img5", "img9"])


def test_the_store_cannot_be_written_through_what_it_hands_out(tmp_path, store):
    # the first load parsed the text; this one reads the cache
    cached = _by_image(load_features(tmp_path / "features.txt"))
    for row in (store.feature("img1"), cached["img1"], store.concept("img2")):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1
    store.stack(["img2"])[1][:] = True  # a gather is a copy
    assert not store.concept("img2").any()


def test_a_cache_hit_is_bitwise_the_parsed_rows(tmp_path):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    parsed = _by_image(load_features(path))
    cache = path.with_name("features.txt.cache.npz")
    written = cache.stat().st_mtime_ns
    hit = _by_image(load_features(path))
    assert cache.stat().st_mtime_ns == written
    assert list(hit) == list(parsed) == list(FEATURES)
    for image, values in FEATURES.items():
        assert hit[image].tobytes() == parsed[image].tobytes() == _float32(values).tobytes()


def test_the_cache_is_read_while_its_checksum_matches_and_rebuilt_once_the_source_changes(tmp_path):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    load_features(path)
    cache = path.with_name("features.txt.cache.npz")
    with np.load(cache) as data:
        arrays = {name: data[name] for name in data.files}
    with open(cache, "wb") as fh:  # laid out as text.cached writes a cache, so that its matrix maps
        text._savez(fh, {**arrays, "matrix": arrays["matrix"] + 1.0})
    assert _by_image(load_features(path))["img2"].tolist() == [2.0, 1.0, 1.0]
    _write_features(path, {**FEATURES, "img2": ["4", "5", "6"]})
    assert _by_image(load_features(path))["img2"].tolist() == [4.0, 5.0, 6.0]
    with np.load(cache) as data:
        assert data["matrix"][1].tolist() == [4.0, 5.0, 6.0]


def test_a_feature_cache_hit_maps_the_matrix_and_hands_out_read_only_rows(tmp_path):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    parsed, hit = load_features(path), load_features(path)
    assert not is_mapped(parsed[1]) and is_mapped(hit[1])
    assert hit[0] == parsed[0] and hit[1].tobytes() == parsed[1].tobytes()
    store = FeatureStore(hit, load_concepts(_write_concepts(tmp_path / "concepts.txt", CONCEPTS), len(LABELS)))
    for row in (hit[1][0], store.feature("img2")):
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0


@pytest.mark.parametrize("save", [np.savez, np.savez_compressed])
def test_a_feature_cache_whose_matrix_cannot_be_mapped_is_rebuilt_once_then_mapped(tmp_path, caplog, save):
    # np.savez puts the matrix at no float32 boundary here, and np.savez_compressed deflates it
    path = _write_features(tmp_path / "features.txt", FEATURES)
    parsed = load_features(path)
    cache = path.with_name("features.txt.cache.npz")
    with np.load(cache) as data:
        arrays = {name: data[name] for name in data.files}
    save(cache, **arrays)
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        rebuilt = load_features(path)
    assert caplog.text.count(f"ignoring unreadable feature cache {cache} "
                             "(member matrix is not stored uncompressed and aligned)") == 1
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        hit = load_features(path)
    assert not caplog.records and is_mapped(hit[1])
    assert hit[0] == rebuilt[0] == parsed[0] and hit[1].tobytes() == rebuilt[1].tobytes() == parsed[1].tobytes()


def test_feature_image_ids_that_differ_by_a_trailing_nul_keep_their_own_rows(tmp_path):
    path = _write_features(tmp_path / "features.txt", {"img": ["1", "2", "3"], "img\0": ["4", "5", "6"]})
    for _ in ("parsed", "cache hit"):
        index, matrix = load_features(path)
        assert index == {"img": 0, "img\0": 1}
        assert matrix.tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e300", "-3.5e38"])
def test_a_non_finite_feature_value_or_one_beyond_float32_is_a_load_error_naming_the_line(tmp_path, value):
    path = _write_features(tmp_path / "features.txt", {"img1": ["0.5", "1", "2"], "img2": ["1", value, "0"]})
    message = "non-finite feature value, or one beyond float32's range"
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:2: {message}$"):
        load_features(path)


def test_a_float64_cache_of_the_previous_format_is_rebuilt_once_with_a_warning(tmp_path, caplog):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    cache = path.with_name("features.txt.cache.npz")
    # the cache the previous format wrote: its key, and float64 rows
    key = f"{hashlib.sha256(path.read_bytes()).hexdigest()} factrank-cache-2"
    np.savez(cache, checksum=np.str_(key), ids=np.array(list(FEATURES)),
             matrix=np.array([[float(v) for v in values] for values in FEATURES.values()]))
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        rebuilt = _by_image(load_features(path))
        written = cache.stat().st_mtime_ns
        hit = _by_image(load_features(path))
    assert caplog.text.count("rebuilding stale feature cache") == 1
    assert cache.stat().st_mtime_ns == written
    for image, values in FEATURES.items():
        assert rebuilt[image].tobytes() == hit[image].tobytes() == _float32(values).tobytes()
    with np.load(cache) as data:
        assert data["matrix"].dtype == np.float32


def test_a_corrupt_cache_warns_and_is_rebuilt(tmp_path, caplog):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    cache = path.with_name("features.txt.cache.npz")
    cache.write_bytes(b"not an npz archive")
    with caplog.at_level(logging.WARNING, logger="factrank.dataio"):
        rows = _by_image(load_features(path))
    assert "ignoring unreadable feature cache" in caplog.text
    assert rows["img1"].tobytes() == _float32(FEATURES["img1"]).tobytes()
    with np.load(cache) as data:
        assert data["matrix"].tobytes() == np.stack(list(rows.values())).tobytes()


@pytest.mark.parametrize(("ids", "matrix"), [
    (["img1", "img2"], np.ones((3, 3), np.float32)),  # fewer ids than rows
    (["img1", "img2", "img3", "img4"], np.ones((3, 3), np.float32)),
    (["img1", "img2", "img3"], np.ones(3, np.float32)),
    (["img1", "img2", "img3"], np.ones((3, 3))),  # float64
])
def test_a_feature_cache_whose_ids_and_rows_disagree_warns_and_is_parsed_again(tmp_path, caplog, ids, matrix):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    load_features(path)
    cache = path.with_name("features.txt.cache.npz")
    with np.load(cache) as data:
        checksum = data["checksum"]
    with open(cache, "wb") as fh:  # a valid archive under the current key
        text._savez(fh, {"ids": np.array(ids), "matrix": matrix, "checksum": checksum})
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        rows = _by_image(load_features(path))
    assert f"ignoring unreadable feature cache {cache} (" in caplog.text
    assert [rows[image].tobytes() for image in FEATURES] == [_float32(v).tobytes() for v in FEATURES.values()]


def test_a_failing_cache_write_still_returns_the_rows(tmp_path, caplog, monkeypatch):
    def refuse(file, *args, **kwargs):
        file.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np.lib.format, "write_array", refuse)  # what text.cached writes each cache member by
    features = _write_features(tmp_path / "features.txt", FEATURES)
    concepts = _write_concepts(tmp_path / "concepts.txt", CONCEPTS)
    qa = _write_text(tmp_path / "qa.jsonl", json.dumps(_QA_RECORD) + "\n")
    kb = _write_text(tmp_path / "kb" / "kb.tsv", "f1\tA\tIsA\tB\n")
    wordvec = _write_text(tmp_path / "wordvec.txt", "dog 1 2\n")
    with caplog.at_level(logging.WARNING, logger="factrank.dataio"):
        rows = _by_image(load_features(features))
        image_rows, matrix = load_concepts(concepts, len(LABELS))
        [instance] = load_qa(qa)
        assert vector_of(load_vectors(wordvec), "dog").tolist() == [1.0, 2.0]
    assert [rows[i].tobytes() for i in FEATURES] == [_float32(v).tobytes() for v in FEATURES.values()]
    assert [matrix[image_rows[i]].tolist() for i in CONCEPTS] == [_dense(hot).tolist() for hot in CONCEPTS.values()]
    assert (instance.question_id, instance.answer, instance.fold) == ("q1", "shade", 1)
    with caplog.at_level(logging.WARNING, logger="factrank.kb"):
        assert parse_kb(kb).fact("f1").obj == "B"
    for what in ("feature", "concept", "QA", "knowledge base", "word vector"):
        assert f"could not write {what} cache" in caplog.text
    # neither a cache nor its temporary file is left beside any source
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["concepts.txt", "features.txt", "kb", "kb.tsv", "qa.jsonl",
                                                         "wordvec.txt"]


# each loader that caches beside its file, a writer of a file that holds a one-digit variant, so that two
# variants are two contents of the same size, and a reader of the variant from what the loader returns
SOURCES = {
    "features": (load_features, lambda path, v: _write_features(path, {**FEATURES, "img2": [v, "0", "-0.0"]}),
                 lambda rows: format(_by_image(rows)["img2"][0], "g")),
    "kb": (parse_kb, lambda path, v: _write_text(path, f"f1\tDog\tIsA\tPet{v}\n"),
           lambda kb: kb.fact("f1").obj.removeprefix("Pet")),
    "qa": (load_qa, lambda path, v: _write_text(path, json.dumps({**_QA_RECORD, "answer": f"shade{v}"}) + "\n"),
           lambda qa: qa[0].answer.removeprefix("shade")),
    "concepts": (lambda path: load_concepts(path, 30), lambda path, v: _write_concepts(path, {**CONCEPTS, "img2": [v]}),
                 lambda concepts: str(np.flatnonzero(concepts[1][concepts[0]["img2"]])[0])),
    "wordvec": (load_vectors, lambda path, v: _write_text(path, f"dog 1 {v}\npet 2 3\n"),
                lambda table: format(vector_of(table, "dog")[1], "g")),
}
WHAT = {"features": "feature", "kb": "knowledge base", "qa": "QA", "concepts": "concept",
        "wordvec": "word vector"}  # as a warning names it


def _age(path, seconds):
    """Set ``path``'s mtime ``seconds`` into the past, as ``touch -d`` does."""
    ns = time.time_ns() - seconds * 10**9
    os.utime(path, ns=(ns, ns))


def _count_hashes(monkeypatch) -> list:
    """A list that gains an entry each time ``text`` starts a SHA-256."""
    calls, sha256 = [], hashlib.sha256
    monkeypatch.setattr(text.hashlib, "sha256", lambda *args: calls.append(args) or sha256(*args))
    return calls


def _stamped(path):
    """Whether ``path``'s cache bears its mtime, set by a stamp (the ctime) ``STAMP_AGE_NS`` after it."""
    cache = path.with_name(path.name + ".cache.npz").stat()
    return cache.st_mtime_ns == path.stat().st_mtime_ns and cache.st_ctime_ns - cache.st_mtime_ns >= text.STAMP_AGE_NS


@pytest.mark.parametrize("source", SOURCES)
def test_a_same_size_rewrite_with_a_new_mtime_is_parsed_again(tmp_path, source):
    load, write, read = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    _age(path, 10)
    assert read(load(path)) == "1" and _stamped(path)
    size = path.stat().st_size
    write(path, "2")
    _age(path, 5)
    assert path.stat().st_size == size and read(load(path)) == "2"


@pytest.mark.parametrize("source", SOURCES)
def test_a_rewrite_of_another_size_is_parsed_again_under_the_old_mtime(tmp_path, source):
    load, write, read = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    _age(path, 10)
    load(path)
    mtime = path.stat().st_mtime_ns
    write(path, "23")
    os.utime(path, ns=(mtime, mtime))  # as a tool that restores mtimes leaves it
    assert read(load(path)) == "23"


@pytest.mark.parametrize("source", SOURCES)
def test_a_touched_unchanged_file_is_hashed_once_and_its_cache_restamped(tmp_path, monkeypatch, source):
    load, write, read = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    _age(path, 10)
    load(path)
    cache, hashes = path.with_name(path.name + ".cache.npz"), _count_hashes(monkeypatch)
    written = cache.read_bytes()
    assert read(load(path)) == "1" and not hashes
    _age(path, 5)  # a new mtime, the same bytes
    assert not _stamped(path)
    assert read(load(path)) == "1" and len(hashes) == 1 and _stamped(path)
    assert read(load(path)) == "1" and len(hashes) == 1
    assert cache.read_bytes() == written


@pytest.mark.parametrize("source", SOURCES)
def test_a_file_modified_within_the_stamp_age_is_hashed_at_each_load(tmp_path, monkeypatch, source):
    # a same-size rewrite in the same mtime tick would look unchanged, so a cache bears no mtime that recent
    load, write, read = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    hashes = _count_hashes(monkeypatch)
    for count in (1, 2, 3):
        assert read(load(path)) == "1" and len(hashes) == count and not _stamped(path)
    _age(path, 10)  # once old enough, one more hash vouches for the cache that the first load wrote
    assert read(load(path)) == "1" and len(hashes) == 4 and _stamped(path)
    assert read(load(path)) == "1" and len(hashes) == 4


@pytest.mark.parametrize("source", SOURCES)
def test_a_cache_written_in_its_files_mtime_tick_is_not_trusted_by_its_mtime(tmp_path, source):
    load, write, read = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    load(path)
    mtime = path.stat().st_mtime_ns
    os.utime(path.with_name(path.name + ".cache.npz"), ns=(mtime, mtime))  # written in the file's tick
    write(path, "2")
    os.utime(path, ns=(mtime, mtime))  # a same-size rewrite in that tick
    assert read(load(path)) == "2"


@pytest.mark.parametrize("source", SOURCES)
def test_a_cache_that_cannot_be_restamped_is_still_read(tmp_path, monkeypatch, caplog, source):
    # a cache of another owner, or on a read-only mount, whose file was touched
    load, write, read = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    _age(path, 10)
    load(path)
    _age(path, 5)

    def refuse(*args, **kwargs):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(text.os, "utime", refuse)
    hashes = _count_hashes(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        assert read(load(path)) == "1" and len(hashes) == 1
    assert [r.getMessage().split(" (")[0] for r in caplog.records if r.name == "factrank.text"] == [
        f"could not stamp {WHAT[source]} cache "
        f"{path.with_name(path.name + '.cache.npz')}"]


@pytest.mark.parametrize("source", SOURCES)
def test_caches_written_from_one_file_under_two_mtimes_are_byte_identical(tmp_path, source):
    load, write, _ = SOURCES[source]
    path = write(tmp_path / "source.txt", "1")
    cache = path.with_name(path.name + ".cache.npz")
    _age(path, 10)
    load(path)
    first = cache.read_bytes()
    cache.unlink()
    _age(path, 5)
    load(path)
    assert cache.read_bytes() == first and _stamped(path)


def test_a_question_that_disagrees_with_its_fact_is_a_data_error_naming_both(store, tmp_path):
    kb = parse_kb(_write_text(tmp_path / "kb.tsv", "f1\tUmbrella\tUsedFor\tShade\nf2\tDog\tIsA\tPet\n"))
    record = {"question_id": "q1", "image_id": "img1", "question": "what is it used for", "answer": "shade",
              "fact_id": "f1", "relation": "UsedFor", "answer_source": "KnowledgeBase", "fold": 1}
    for change, message in [
        ({}, None),
        ({"answer": "umbrella", "answer_source": "Image"}, None),
        ({"fact_id": "f9"}, "question q1: fact id 'f9' not in knowledge base"),
        ({"relation": "IsA"}, "question q1: relation label IsA does not match fact relation UsedFor"),
        ({"answer_source": "Image"},
         "question q1: answer 'shade' does not match the fact's Image entity 'Umbrella'"),
        ({"fact_id": "f2", "relation": "IsA", "answer": "dog"},
         "question q1: answer 'dog' does not match the fact's KnowledgeBase entity 'Pet'"),
    ]:
        qa = _write_text(tmp_path / "qa.jsonl", json.dumps({**record, **change}) + "\n")
        if message is None:
            dataio.validate_dataset(load_qa(qa), store, kb)
            continue
        with pytest.raises(DataError) as raised:
            dataio.validate_dataset(load_qa(qa), store, kb)
        assert str(raised.value) == message


def _write_text(path, text):
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


_VALID_LINES = {  # a loader, and a well-formed line of its file given a line index
    "kb": (parse_kb, lambda i: f"f{i}\tA\tIsA\tB"),
    "wordvec": (load_vectors, lambda i: f"w{i} 0.5 -1"),
    "features": (load_features, lambda i: f"img{i} 2 0.5 -1"),
    "concepts": (lambda path: load_concepts(path, 4), lambda i: f"img{i} 0,3"),
    "qa": (load_qa, lambda i: json.dumps({"question_id": f"q{i}", "image_id": "img", "question": "what", "answer": "a",
                                          "fact_id": "f", "relation": "IsA", "answer_source": "Image", "fold": 1})),
    "concept-labels": (load_concept_labels, lambda i: f"label{i}"),
}


@pytest.mark.parametrize("kind", list(_VALID_LINES))
def test_an_undecodable_byte_is_a_load_error_naming_the_line(tmp_path, kind):
    # 2,000 lines put the byte past the first block that text mode decodes
    loader, line = _VALID_LINES[kind]
    path = tmp_path / "input.txt"
    path.write_bytes("".join(line(i) + "\n" for i in range(2000)).encode() + b"bad \xff byte\n" + line(2000).encode())
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:2001: not UTF-8 text \\(invalid start byte\\)$"):
        loader(path)


def _plain(value):
    """A loader's result as plain Python values, so that two loads compare with ``==``."""
    if isinstance(value, KnowledgeBase):
        return value.facts()
    if isinstance(value, WordVectorTable):
        return value.duplicate_count, *map(_plain, (value.tokens.column, value.tokens.sorted_rows, value.matrix))
    if isinstance(value, np.ndarray):
        return value.dtype, value.tolist()
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


@pytest.mark.parametrize("kind", list(_VALID_LINES))
def test_a_byte_order_mark_is_no_part_of_the_first_record(tmp_path, kind):
    # the mark would otherwise begin the first id, word or label, or make the first QA line bad JSON
    loader, line = _VALID_LINES[kind]
    text = "".join(line(i) + "\n" for i in range(3))
    plain, marked = tmp_path / "plain" / "input.txt", tmp_path / "marked" / "input.txt"
    _write_text(plain, text)
    _write_text(marked, "\ufeff" + text)
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = _plain(loader(plain))
    assert _plain(loader(marked)) == expected
    assert _plain(loader(marked)) == expected  # from the cache, for the loaders that keep one


def test_a_byte_order_mark_is_no_part_of_a_release_json_file(tmp_path):
    facts, written = _convert_one_fact(tmp_path / "plain", "f1", "UsedFor")
    questions = facts.with_name("questions.json")
    for path in (facts, questions):
        _write_text(tmp_path / "marked" / path.name, "\ufeff" + path.read_text(encoding="utf-8"))
    marked = dataio.convert_fvqa(tmp_path / "marked" / "questions.json", tmp_path / "marked" / "facts.json",
                                 tmp_path / "marked" / "out")
    for name, path in written.items():
        assert marked[name].read_bytes() == path.read_bytes(), name


def test_a_qa_record_line_reads_back_as_its_instance_parsed_and_from_the_cache(tmp_path):
    image, kb, words = AnswerSource.IMAGE, AnswerSource.KNOWLEDGE_BASE, "caf\u00e9 \u65e5\u672c"
    instances = [
        QAInstance("q1", "img1", f"what is {words}", words, "f1", Relation.IS_A, image, 1),
        QAInstance("q\0", "img\0", "what\0 is it", "it\0", "f\0", Relation.HAS_A, kb, 2),
        QAInstance("q\udc80", "\udc80", "what is \udc80 this", "\udc80", "f\ud800", Relation.USED_FOR, image, 3),
        QAInstance("12", "007", "what is 3", "3", "0042", Relation.COMPARATIVE, kb, 5),
    ]
    path = _write_text(tmp_path / "qa.jsonl", "".join(inst.line() + "\n" for inst in instances))
    for _ in ("parsed", "cache hit"):
        assert load_qa(path) == instances
    assert path.with_name("qa.jsonl.cache.npz").exists()


def test_concept_labels_break_only_at_newlines(tmp_path):
    # U+2028, U+0085 and a form feed stay inside a label, where str.splitlines would split; CR LF ends a line
    path = tmp_path / "labels.txt"
    path.write_bytes("dog\u2028house\r\n\ncat\x85s\nfork\x0cknife\n   \nlast".encode())
    assert load_concept_labels(path) == ["dog\u2028house", "cat\x85s", "fork\x0cknife", "last"]


def _release_json(kb_path, qa_path, out_dir):
    """A synth set's KB and QA files rewritten as the release's JSON objects keyed by id, in reverse order:
    facts with ``e1_label``/``r``/``e2_label``, questions with ``question``, ``answer``, ``img_file``, a
    ``fact`` list, ``answer_source`` and ``fold``. Returns the facts and the questions file."""
    facts = {}
    for line in reversed(kb_path.read_text(encoding="utf-8").splitlines()):
        fact_id, subject, relation, obj = line.split("\t")
        facts[fact_id] = {"e1_label": subject, "r": relation, "e2_label": obj}
    questions = {}
    for line in reversed(qa_path.read_text(encoding="utf-8").splitlines()):
        r = json.loads(line)
        questions[r["question_id"]] = {"question": r["question"], "answer": r["answer"], "img_file": r["image_id"],
                                       "fact": [r["fact_id"]], "answer_source": r["answer_source"], "fold": r["fold"]}
    paths = out_dir / "facts.json", out_dir / "questions.json"
    for path, records in zip(paths, (facts, questions)):
        _write_text(path, json.dumps(records))
    return paths


def test_the_converter_round_trips_a_synth_set_byte_for_byte(small_synth_dir, tmp_path):
    facts, questions = _release_json(small_synth_dir / "kb.tsv", small_synth_dir / "qa.jsonl", tmp_path)
    written = dataio.convert_fvqa(questions, facts, tmp_path / "out")
    for path in written.values():
        assert path.read_bytes() == (small_synth_dir / path.name).read_bytes(), path.name


def _convert_one_fact(tmp_path, fact_id, relation_token, fact=None, question=None):
    """Convert one fact and one question about it; ``fact`` and ``question`` override their records' fields."""
    facts = _write_text(tmp_path / "facts.json", json.dumps({fact_id: {"e1_label": "umbrella", "r": relation_token,
                                                                       "e2_label": "shade", **(fact or {})}}))
    questions = _write_text(tmp_path / "questions.json", json.dumps({
        "q1": {"question": "what gives shade", "answer": "umbrella", "img_file": "a.jpg", "fact": [fact_id],
               "answer_source": "Image", "fold": 2, **(question or {})}}))
    return facts, dataio.convert_fvqa(questions, facts, tmp_path / "out")


@pytest.mark.parametrize(("token", "relation", "obj"), [
    *((r.value, r, "shade") for r in Relation),
    ("Comparative-LargerThan", Relation.COMPARATIVE, "LargerThan shade"),
])
def test_the_release_relation_spellings_that_parse_and_convert(tmp_path, token, relation, obj):
    assert Relation.parse(token) == (relation, "LargerThan" if "-" in token else None)
    _, written = _convert_one_fact(tmp_path, "f1", token)
    assert written["kb"].read_text(encoding="utf-8") == f"f1\tumbrella\t{token}\tshade\n"
    fact = parse_kb(written["kb"]).fact("f1")
    assert (fact.relation, fact.obj) == (relation, obj)
    assert [(i.relation, i.answer) for i in load_qa(written["qa"])] == [(relation, "umbrella")]


@pytest.mark.parametrize("token", ["/r/IsA", "isa", "comparative-LargerThan"])
def test_relation_spellings_the_release_may_hold_but_the_package_rejects_name_the_fact(tmp_path, token):
    with pytest.raises(UsageError, match=f"unknown relation {re.escape(repr(token))}"):
        Relation.parse(token)
    with pytest.raises(LoadError, match=re.escape(f": fact 'f1': unknown relation {token!r}")):
        _convert_one_fact(tmp_path, "f1", token)
    assert not (tmp_path / "out").exists()


def test_a_nul_byte_in_a_fact_id_is_a_load_error_naming_the_fact(tmp_path):
    with pytest.raises(LoadError, match=re.escape(": fact 'f1\\x00': fact id 'f1\\x00' holds a NUL byte")):
        _convert_one_fact(tmp_path, "f1\x00", "IsA")
    assert not (tmp_path / "out").exists()


def test_a_fact_id_longer_than_the_bound_is_a_load_error_naming_the_fact(tmp_path):
    long_id = "f" * 1000
    message = f": fact {long_id!r}: fact id {long_id[:20]!r}... is longer than {MAX_FACT_ID_BYTES} UTF-8 bytes"
    with pytest.raises(LoadError, match=re.escape(message) + "$"):
        _convert_one_fact(tmp_path, long_id, "IsA")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("record", "field", "value", "kind"), [
    ("question", "question", None, "a string"),
    ("question", "answer", None, "a string"),
    ("question", "answer", 7, "a string"),
    ("question", "img_file", None, "a string or an integer"),
    ("question", "image_id", True, "a string or an integer"),
    ("question", "image_id", 1.5, "a string or an integer"),
    ("fact", "e1_label", None, "a string"),
    ("fact", "r", ["IsA"], "a string"),
    ("fact", "e2_label", 3, "a string"),
])
def test_a_release_field_of_the_wrong_json_type_is_a_load_error_naming_its_record(tmp_path, record, field, value,
                                                                                   kind):
    # str() once wrote a null question as the question "None", which load_qa then read as a string
    name = "question 'q1'" if record == "question" else "fact 'f1'"
    message = f": {name}: {field} must be {kind}, got {value!r}"
    with pytest.raises(LoadError, match=re.escape(message) + "$"):
        _convert_one_fact(tmp_path, "f1", "IsA", **{record: {field: value}})
    assert not (tmp_path / "out").exists()


def test_a_release_image_id_may_be_a_json_integer(tmp_path):
    _, written = _convert_one_fact(tmp_path, "f1", "IsA", question={"img_file": 12})
    assert [i.image_id for i in load_qa(written["qa"])] == ["12"]


_QA_RECORD = {"question_id": "q1", "image_id": "img1", "question": "what is it used for", "answer": "shade",
              "fact_id": "f1", "relation": "UsedFor", "answer_source": "KnowledgeBase", "fold": 1}


@pytest.mark.parametrize(("field", "value", "kind"), [
    ("question", None, "a string"),
    ("question", 7, "a string"),
    ("answer", None, "a string"),
    ("answer", ["shade"], "a string"),
    ("question_id", None, "a string or an integer"),
    ("question_id", True, "a string or an integer"),
    ("image_id", 1.5, "a string or an integer"),
    ("image_id", {"id": 1}, "a string or an integer"),
    ("fact_id", None, "a string or an integer"),
    ("fact_id", False, "a string or an integer"),
])
def test_a_qa_field_of_the_wrong_json_type_is_a_load_error_naming_it(tmp_path, field, value, kind):
    # a null question once loaded as the one-token question "none"
    lines = [json.dumps(_QA_RECORD), json.dumps({**_QA_RECORD, "question_id": "q2", field: value})]
    path = _write_text(tmp_path / "qa.jsonl", "\n".join(lines) + "\n")
    message = f"{path}:2: {field} must be {kind}, got {value!r}"
    with pytest.raises(LoadError, match=f"^{re.escape(message)}$"):
        load_qa(path)


def test_qa_ids_may_be_json_integers(tmp_path):
    record = {**_QA_RECORD, "question_id": 5, "image_id": 12, "fact_id": 0}
    [inst] = load_qa(_write_text(tmp_path / "qa.jsonl", json.dumps(record) + "\n"))
    assert (inst.question_id, inst.image_id, inst.fact_id) == ("5", "12", "0")


def test_a_qa_cache_hit_is_the_parsed_instances(tmp_path, monkeypatch):
    # non-ASCII text, a NUL, a lone surrogate and an empty answer round-trip; ids may be JSON integers
    records = [{**_QA_RECORD, "question_id": 5, "image_id": 12, "fact_id": 0, "fold": 3},
               {**_QA_RECORD, "question_id": "q\u00e9", "question": "caf\u00e9 \u2028 na\u00efve \u0000 \U0001f600?",
                "answer": "", "relation": "Comparative", "answer_source": "Image"},
               {**_QA_RECORD, "question_id": "q\ud800", "image_id": "", "question": "x\u0000", "answer": "\udc00"}]
    path = _write_text(tmp_path / "qa.jsonl", "\n\n".join(map(json.dumps, records)) + "\n")
    parsed = load_qa(path)
    assert [(i.question_id, i.image_id, i.fact_id, i.relation, i.source, i.fold) for i in parsed] == [
        ("5", "12", "0", Relation.USED_FOR, dataio.AnswerSource.KNOWLEDGE_BASE, 3),
        ("q\u00e9", "img1", "f1", Relation.COMPARATIVE, dataio.AnswerSource.IMAGE, 1),
        ("q\ud800", "", "f1", Relation.USED_FOR, dataio.AnswerSource.KNOWLEDGE_BASE, 1)]
    assert [i.question for i in parsed] == [r["question"] for r in records]
    monkeypatch.setattr(dataio, "_parse_qa", None)  # what follows is read from the cache
    assert load_qa(path) == parsed


def test_a_question_with_no_tokens_is_a_data_error_and_leaves_no_cache(tmp_path):
    lines = [json.dumps(_QA_RECORD), json.dumps({**_QA_RECORD, "question_id": "q2", "question": "?!"})]
    path = _write_text(tmp_path / "qa.jsonl", "\n".join(lines) + "\n")
    with pytest.raises(DataError, match="^question q2: question has no tokens$"):
        load_qa(path)
    # every record is read first, so a later record's fault is reported before it
    _write_text(path, "\n".join([*lines, "{bad"]) + "\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:3: bad JSON"):
        load_qa(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["qa.jsonl"]


def test_a_concept_cache_hit_checks_its_indices_against_the_label_count(tmp_path, caplog):
    path = _write_concepts(tmp_path / "concepts.txt", CONCEPTS)
    parsed = load_concepts(path, len(LABELS))
    # img1's index 5 is in range of six labels, out of range of five: the parse runs again to name its line
    with caplog.at_level(logging.WARNING, logger="factrank.text"):
        with pytest.raises(LoadError, match=rf"^{re.escape(str(path))}:1: concept index 5 out of range \[0, 5\)$"):
            load_concepts(path, 5)
    assert f"ignoring unreadable concept cache {path}.cache.npz (a concept index is out of range [0, 5))" in caplog.text
    wider = load_concepts(path, 8)
    assert wider[0] == parsed[0] == {image: row for row, image in enumerate(CONCEPTS)}
    assert wider[1].shape == (4, 8) and not wider[1].flags.writeable
    assert wider[1][:, :len(LABELS)].tolist() == parsed[1].tolist() and not wider[1][:, len(LABELS):].any()


@pytest.mark.parametrize(("changes", "message"), [
    ({}, None),
    # the first failing question in file order, by the first check it fails: fact id, relation, answer, image
    ({1: {"answer": "pet"}, 2: {"fact_id": "f9"}}, "question q1: answer 'pet' does not match the fact's "
                                                    "KnowledgeBase entity 'Shade  tree'"),
    ({1: {"fact_id": "f9", "image_id": "img9"}, 2: {"answer": "pet"}},
     "question q1: fact id 'f9' not in knowledge base"),
    ({0: {"image_id": "img9"}, 1: {"fact_id": "f9"}}, "no image feature for image id 'img9'"),
    ({2: {"relation": "UsedFor", "answer": "pet", "image_id": "img9"}},
     "question q2: relation label UsedFor does not match fact relation IsA"),
    ({2: {"answer": "pet", "image_id": "img9"}},
     "question q2: answer 'pet' does not match the fact's Image entity 'Dog'"),
    ({2: {"image_id": "img5"}}, "no concept vector for image id 'img5'"),
])
def test_validate_dataset_names_the_first_failing_question_and_check(tmp_path, changes, message):
    features = _write_features(tmp_path / "features.txt", {**FEATURES, "img5": ["1", "2", "3"]})
    store = FeatureStore(load_features(features),
                         load_concepts(_write_concepts(tmp_path / "concepts.txt", CONCEPTS), len(LABELS)))
    kb = parse_kb(_write_text(tmp_path / "kb.tsv", "f1\tUmbrella\tUsedFor\tShade  tree\nf2\tDog\tIsA\tPet\n"))
    records = [{**_QA_RECORD, "question_id": "q0", "answer": "SHADE-tree!"}, {**_QA_RECORD, "answer": "shade tree"},
               {**_QA_RECORD, "question_id": "q2", "fact_id": "f2", "relation": "IsA", "answer": "dog",
                "answer_source": "Image"}]
    instances = load_qa(_write_text(tmp_path / "qa.jsonl", "".join(
        json.dumps({**record, **changes.get(i, {})}) + "\n" for i, record in enumerate(records))))
    if message is None:
        dataio.validate_dataset(instances, store, kb)
        return
    with pytest.raises(DataError) as raised:
        dataio.validate_dataset(instances, store, kb)
    assert str(raised.value) == message


def test_validate_dataset_passes_no_questions_and_names_the_first_against_a_kb_with_no_facts(store, tmp_path):
    kb = parse_kb(_write_text(tmp_path / "kb.tsv", "f1\tUmbrella\tUsedFor\tShade\n"))
    dataio.validate_dataset([], store, kb)
    dataio.validate_dataset([], store, from_facts([]))
    instances = load_qa(_write_text(tmp_path / "qa.jsonl", "".join(
        json.dumps({**_QA_RECORD, "question_id": f"q{i}", "fact_id": f"f{i}"}) + "\n" for i in (1, 2))))
    with pytest.raises(DataError) as raised:
        dataio.validate_dataset(instances, store, from_facts([]))
    assert str(raised.value) == "question q1: fact id 'f1' not in knowledge base"


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
def test_a_qa_line_that_is_not_a_json_object_is_a_load_error(tmp_path, line):
    path = _write_text(tmp_path / "qa.jsonl", line + "\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}:1: expected a JSON object, got "):
        load_qa(path)


def test_a_boolean_fold_is_not_fold_1(tmp_path):
    record = {"question_id": "q1", "image_id": "img1", "question": "what is it used for", "answer": "shade",
              "fact_id": "f1", "relation": "UsedFor", "answer_source": "KnowledgeBase", "fold": True}
    with pytest.raises(DataError, match=r":1: fold must be in \[1, 2, 3, 4, 5\], got True$"):
        load_qa(_write_text(tmp_path / "qa.jsonl", json.dumps(record) + "\n"))
    # the converter gives such a question a fold by its image, as one with no fold
    facts = _write_text(tmp_path / "facts.json", json.dumps({"f1": {"e1_label": "umbrella", "r": "UsedFor",
                                                                    "e2_label": "shade"}}))
    questions = _write_text(tmp_path / "questions.json", json.dumps({
        "q1": {"question": "what gives shade", "answer": "umbrella", "img_file": "a.jpg", "fact": ["f1"],
               "answer_source": "Image", "fold": True}}))
    written = dataio.convert_fvqa(questions, facts, tmp_path / "out")
    assert [i.fold for i in load_qa(written["qa"])] == [1]  # load_qa raises on a written ``true``
