import json
import logging
import re

import numpy as np
import pytest

from factrank import dataio
from factrank.dataio import FeatureStore, load_concept_labels, load_concepts, load_features, load_qa
from factrank.errors import DataError, LoadError
from factrank.kb import parse_kb
from factrank.wordvec import load_vectors

LABELS = [f"label{i}" for i in range(6)]
CONCEPTS = {"img1": [0, 5], "img2": [], "img3": [3, 3], "img4": [2, 4, 1]}
FEATURES = {"img1": ["0.1", "-2.5e-3", "1e300"], "img2": ["1", "0", "-0.0"], "img3": ["3.3", "7", "1e-320"],
            "img4": ["-1", "2", "0.3333333333333333"]}


def _dense(indices):
    """The 0/1 concept vector as an ``np.zeros`` float64 row with its hot bits set."""
    vec = np.zeros(len(LABELS))
    for i in indices:
        vec[i] = 1.0
    return vec


def _write_concepts(path, rows):
    path.write_text("".join(f"{image} {','.join(map(str, hot))}\n" for image, hot in rows.items()), encoding="utf-8")
    return path


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


def test_concept_rows_are_bitwise_the_dense_float64_vectors(store):
    for image, hot in CONCEPTS.items():
        row = store.concept(image)
        assert row.dtype == np.float64
        assert row.tobytes() == _dense(hot).tobytes()
    assert store.concept_dim == len(LABELS)
    assert store.concept_matrix.sum() == 6  # img3's repeated index sets one bit


def test_stack_is_float64_and_stacks_feature_and_concept(store):
    images = ["img3", "img1", "img3", "img2"]
    feats, cons = store.stack(images)
    assert (feats.dtype, cons.dtype) == (np.float64, np.float64)
    assert feats.tobytes() == np.stack([store.feature(i) for i in images]).tobytes()
    assert cons.tobytes() == np.stack([store.concept(i) for i in images]).tobytes()


def test_an_unknown_image_is_a_data_error(store):
    with pytest.raises(DataError, match="no image feature for image id 'img9'"):
        store.stack(["img1", "img9"])
    with pytest.raises(DataError, match="no concept vector for image id 'img9'"):
        store.concept("img9")


def test_the_store_cannot_be_written_through_what_it_hands_out(tmp_path, store):
    # the first load parsed the text; this one reads the cache
    cached = load_features(tmp_path / "features.txt")
    for feature in (store.feature("img1"), cached["img1"]):
        with pytest.raises(ValueError, match="read-only"):
            feature[0] = 5.0
    store.concept("img2")[:] = 1.0
    store.stack(["img2"])[1][:] = 1.0
    assert store.concept("img2").tobytes() == _dense([]).tobytes()


def test_a_cache_hit_is_bitwise_the_parsed_rows(tmp_path):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    parsed = load_features(path)
    cache = path.with_name("features.txt.cache.npz")
    written = cache.stat().st_mtime_ns
    hit = load_features(path)
    assert cache.stat().st_mtime_ns == written
    assert list(hit) == list(parsed) == list(FEATURES)
    for image, values in FEATURES.items():
        assert hit[image].tobytes() == parsed[image].tobytes() == np.array(values, dtype=np.float64).tobytes()


def test_the_cache_is_read_while_its_checksum_matches_and_rebuilt_once_the_source_changes(tmp_path):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    load_features(path)
    cache = path.with_name("features.txt.cache.npz")
    with np.load(cache) as data:
        checksum, ids, matrix = data["checksum"], data["ids"], data["matrix"]
    np.savez(cache, checksum=checksum, ids=ids, matrix=matrix + 1.0)
    assert load_features(path)["img2"].tolist() == [2.0, 1.0, 1.0]
    _write_features(path, {**FEATURES, "img2": ["4", "5", "6"]})
    assert load_features(path)["img2"].tolist() == [4.0, 5.0, 6.0]
    with np.load(cache) as data:
        assert data["matrix"][1].tolist() == [4.0, 5.0, 6.0]


def test_a_corrupt_cache_warns_and_is_rebuilt(tmp_path, caplog):
    path = _write_features(tmp_path / "features.txt", FEATURES)
    cache = path.with_name("features.txt.cache.npz")
    cache.write_bytes(b"not an npz archive")
    with caplog.at_level(logging.WARNING, logger="factrank.dataio"):
        rows = load_features(path)
    assert "ignoring unreadable feature cache" in caplog.text
    assert rows["img1"].tobytes() == np.array(FEATURES["img1"], dtype=np.float64).tobytes()
    with np.load(cache) as data:
        assert data["matrix"].tobytes() == np.stack(list(rows.values())).tobytes()


def test_a_failing_cache_write_still_returns_the_rows(tmp_path, caplog, monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(dataio.np, "savez", refuse)
    path = _write_features(tmp_path / "features.txt", FEATURES)
    with caplog.at_level(logging.WARNING, logger="factrank.dataio"):
        rows = load_features(path)
    assert "could not write feature cache" in caplog.text
    assert not path.with_name("features.txt.cache.npz").exists()
    assert [rows[i].tobytes() for i in FEATURES] == [np.array(v, dtype=np.float64).tobytes() for v in FEATURES.values()]


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
    # 2,000 lines put the byte past the first block that text mode decodes; the label file is read whole
    loader, line = _VALID_LINES[kind]
    path = tmp_path / "input.txt"
    path.write_bytes("".join(line(i) + "\n" for i in range(2000)).encode() + b"bad \xff byte\n" + line(2000).encode())
    where = "" if kind == "concept-labels" else ":2001"
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}{where}: not UTF-8 text \\(invalid start byte\\)$"):
        loader(path)
