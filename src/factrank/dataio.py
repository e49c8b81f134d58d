"""Dataset ingestion: QA records, image features, concept vectors, folds.

The QA file is line-delimited JSON with the fields question_id, image_id,
question, answer, fact_id, relation, answer_source, and fold. Image
features are text rows ``image_id dim v1 .. v_dim`` and concept vectors
``image_id i1,i2,...`` hot-index rows positioned against a label file; each
loads as one table, an image id -> row index beside a read-only matrix of
float32 features (read by row from their cache on a hit, as a run reads
only its questions' images) or of 0/1 bool concepts. The store hands out the
rows it holds; the scorer casts a batch of them to its weights' dtype. Each
record's own checks, and whether its question has tokens, are
:func:`load_qa`'s; whether it agrees with the knowledge base and the two
tables (fact id, relation, answer, features, concepts) is
:func:`validate_dataset`'s, run at load, so nothing downstream assumes it.
The QA records, the features and the concept rows are cached beside their
files, as the knowledge base is, by the one checksum-keyed helper
:func:`text.cached`: each value is built from the cache's arrays on a hit
and after a parse alike, and the QA fields and both tables' image ids are
stored as :func:`text.join_strings` columns, which keep a trailing NUL.
The converter builds its knowledge base as :func:`kb.parse_kb` does,
through a :class:`kb.KBBuilder` into the one ``KnowledgeBase``
constructor, and writes its files through the writers that synth uses
too, each kept beside its format's reader: :func:`kb.fact_line` for a KB
line and :meth:`QAInstance.line` for a QA record.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, LoadError, UsageError
from .kb import RELATIONS, AnswerSource, KBBuilder, KnowledgeBase, Relation, fact_line, parse_fact, parse_kb
from .text import RowReader, cached, join_strings, normalize_phrase, read_lines, split_strings, tokenize, write_lines

logger = logging.getLogger(__name__)

Array = np.ndarray

FOLDS = (1, 2, 3, 4, 5)

# the JSON types a QA record's text and id fields may have, checked by type(), not isinstance: True is an int
_TEXT, _ID = ((str,), "a string"), ((str, int), "a string or an integer")
_QA_TYPES = {"question_id": _ID, "image_id": _ID, "question": _TEXT, "answer": _TEXT, "fact_id": _ID}
_QA_TEXT = tuple(_QA_TYPES)  # the string fields, which a QAInstance holds under the same names
QA_FIELDS = (*_QA_TEXT, "relation", "answer_source", "fold")


@dataclass
class QAInstance:
    question_id: str
    image_id: str
    question: str
    answer: str
    fact_id: str
    relation: Relation
    source: AnswerSource
    fold: int

    def line(self) -> str:
        """The record as a line of a QA file, as :func:`load_qa` reads it back: the one writer of the format."""
        return json.dumps({**{name: getattr(self, name) for name in _QA_TEXT}, "relation": self.relation.value,
                           "answer_source": self.source.value, "fold": self.fold}, sort_keys=True)


class FeatureStore:
    """Image id -> feature vector and concept vector, immutable after load: two tables, each an image id -> row
    index beside a read-only matrix (the features' a :class:`text.RowReader` of their cache on a hit), read
    through one lookup. It hands out the rows it holds, a feature as a read-only float32 row and a concept as a
    read-only bool row, and :meth:`stack` gathers both for many images, all their features before any concepts."""

    def __init__(self, features: tuple[dict[str, int], Array], concepts: tuple[dict[str, int], Array]):
        (self.feature_rows, self.feature_matrix), (self.concept_rows, self.concept_matrix) = features, concepts
        self.feature_dim, self.concept_dim = self.feature_matrix.shape[1], self.concept_matrix.shape[1]

    @staticmethod
    def _rows(index: dict[str, int], image_ids, what: str) -> list[int]:
        """Each image's row in ``index``; a DataError names the first image it lacks."""
        try:
            return [index[image_id] for image_id in image_ids]
        except KeyError as exc:
            raise DataError(f"no {what} for image id {exc.args[0]!r}") from None

    def feature(self, image_id: str) -> Array:
        return self.feature_matrix[self._rows(self.feature_rows, [image_id], "image feature")[0]]

    def concept(self, image_id: str) -> Array:
        return self.concept_matrix[self._rows(self.concept_rows, [image_id], "concept vector")[0]]

    def stack(self, image_ids: list[str]) -> tuple[Array, Array]:
        feats = self.feature_matrix[self._rows(self.feature_rows, image_ids, "image feature")]
        return feats, self.concept_matrix[self._rows(self.concept_rows, image_ids, "concept vector")]


def load_concept_labels(path: str | Path) -> list[str]:
    """One label a line, blank lines skipped; a line breaks only at a newline."""
    labels = [label for _, line in read_lines(path) if (label := line.rstrip("\n")).strip()]
    if not labels:
        raise LoadError(f"{path}: concept label file is empty")
    if len(set(labels)) != len(labels):
        raise LoadError(f"{path}: concept labels must be unique")
    return labels


def load_features(path: str | Path) -> tuple[dict[str, int], Array]:
    """Parse ``image_id dim v1..v_dim`` rows into an image id -> row index and a read-only float32 matrix,
    through the checksum-keyed cache of :func:`text.cached`, whose hit is a :class:`text.RowReader` of it. Each
    value is its text's float64 rounded to float32; one not finite or beyond float32's is a load error."""
    path = Path(path)
    return cached(path, "feature", lambda: _parse_features(path), _feature_rows, by_row=("matrix",))


def _feature_rows(arrays) -> tuple[dict[str, int], Array | RowReader]:
    ids, matrix = split_strings(arrays), arrays["matrix"]
    if len(matrix.shape) != 2 or matrix.dtype != np.float32 or len(ids) != len(matrix):
        raise ValueError("the feature matrix is not 2-d float32 with a row for each id")
    if isinstance(matrix, np.ndarray):  # a parse's; a hit's reader hands out read-only rows
        matrix.flags.writeable = False
    return dict(zip(ids, range(len(ids)))), matrix


def _parse_features(path: Path) -> dict[str, Array]:
    out: dict[str, Array] = {}
    dim = None
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        declared, _, vector = rest.partition(" ")
        try:
            declared = int(declared)
        except ValueError:
            raise LoadError(f"{path}:{lineno}: second field must be the vector length") from None
        try:
            values = np.array(vector.split(), dtype=np.float64)
        except ValueError:
            raise LoadError(f"{path}:{lineno}: non-numeric feature value") from None
        if values.size != declared:
            raise LoadError(f"{path}:{lineno}: expected {declared} values, got {values.size}")
        if not (np.abs(values) <= np.finfo(np.float32).max).all():  # NaN too
            raise LoadError(f"{path}:{lineno}: non-finite feature value, or one beyond float32's range")
        if dim is None:
            dim = declared
        elif declared != dim:
            raise LoadError(f"{path}:{lineno}: inconsistent feature length {declared} != {dim}")
        if head in out:
            raise LoadError(f"{path}:{lineno}: duplicate image id {head!r}")
        out[head] = values.astype(np.float32)
    if not out:
        raise LoadError(f"{path}: no feature rows")
    return {**join_strings(list(out)), "matrix": np.stack(list(out.values()))}


def load_concepts(path: str | Path, n_labels: int) -> tuple[dict[str, int], Array]:
    """Parse ``image_id i1,i2,...`` hot-index rows into an image id -> row index and a read-only 0/1 matrix,
    through the file-keyed cache of :func:`text.cached`. The cache holds the indices whatever ``n_labels`` is; a
    hit with one out of range is rejected, so the parse runs and names its line."""
    path = Path(path)
    return cached(path, "concept", lambda: _parse_concepts(path, n_labels),
                  lambda arrays: _concept_rows(arrays, n_labels))


def _concept_rows(arrays, n_labels: int) -> tuple[dict[str, int], Array]:
    images, labels = split_strings(arrays), arrays["labels"]
    if not ((0 <= labels) & (labels < n_labels)).all():
        raise ValueError(f"a concept index is out of range [0, {n_labels})")
    matrix = np.zeros((len(images), n_labels), dtype=bool)
    matrix[np.repeat(np.arange(len(images)), arrays["counts"]), labels] = True
    matrix.flags.writeable = False
    return dict(zip(images, range(len(images)))), matrix


def _parse_concepts(path: Path, n_labels: int) -> dict[str, Array]:
    images: dict[str, None] = {}
    counts, labels = [], []  # each image's count of hot indices, and the indices in file order
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        hot = rest.strip().split(",") if rest.strip() else []
        for tok in hot:
            try:
                idx = int(tok)
            except ValueError:
                raise LoadError(f"{path}:{lineno}: bad concept index {tok!r}") from None
            if not 0 <= idx < n_labels:
                raise LoadError(f"{path}:{lineno}: concept index {idx} out of range [0, {n_labels})")
            labels.append(idx)
        if head in images:
            raise LoadError(f"{path}:{lineno}: duplicate image id {head!r}")
        images[head] = None
        counts.append(len(hot))
    return {**join_strings(list(images)), "counts": np.array(counts, dtype=np.int32),
            "labels": np.array(labels, dtype=np.int32)}


_SOURCES = list(AnswerSource)  # a QA cache's source code indexes this, as its relation code indexes RELATIONS


def load_qa(path: str | Path) -> list[QAInstance]:
    """Parse the line-delimited JSON QA records, through the file-keyed cache of :func:`text.cached`. A record's
    faults are a LoadError naming ``path:line``, a fold outside :data:`FOLDS` a DataError naming it; once every
    record is read, a question with no tokens is a DataError naming the first. So only a file that passes every
    check has a cache. The cache holds the string fields as one text and relation, source and fold as codes."""
    path = Path(path)
    return cached(path, "QA", lambda: _parse_qa(path), _qa_instances)


def _qa_instances(arrays) -> list[QAInstance]:
    strings, n = split_strings(arrays), len(arrays["folds"])
    codes = [(arrays["relations"], RELATIONS), (arrays["sources"], _SOURCES)]  # a code indexes its list
    if len(strings) != len(_QA_TEXT) * n or not np.isin(arrays["folds"], FOLDS).all() or not all(
            len(column) == n and ((0 <= column) & (column < len(values))).all() for column, values in codes):
        raise ValueError("the QA columns differ in length, or hold a code out of range")
    return list(map(QAInstance, *(strings[i * n:(i + 1) * n] for i in range(len(_QA_TEXT))),
                    *(map(values.__getitem__, column.tolist()) for column, values in codes), arrays["folds"].tolist()))


def _parse_qa(path: Path) -> dict[str, Array]:
    columns: dict[str, list] = {name: [] for name in (*_QA_TEXT, "relations", "sources", "folds")}
    seen: set[str] = set()
    for lineno, raw in read_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise LoadError(f"{path}:{lineno}: bad JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise LoadError(f"{path}:{lineno}: expected a JSON object, got {rec!r}")
        missing = [f for f in QA_FIELDS if f not in rec]
        if missing:
            raise LoadError(f"{path}:{lineno}: missing fields {missing}")
        for name, (types, kind) in _QA_TYPES.items():
            if type(rec[name]) not in types:
                raise LoadError(f"{path}:{lineno}: {name} must be {kind}, got {rec[name]!r}")
        try:
            relation, suffix = Relation.parse(str(rec["relation"]))
            if suffix:
                raise UsageError("qualified Comparative labels are not valid QA relation labels")
            source = AnswerSource.parse(str(rec["answer_source"]))
        except UsageError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from None
        fold = rec["fold"]
        if type(fold) is not int or fold not in FOLDS:  # not isinstance: True is an int
            raise DataError(f"{path}:{lineno}: fold must be in {list(FOLDS)}, got {fold!r}")
        qid = str(rec["question_id"])
        if qid in seen:
            raise LoadError(f"{path}:{lineno}: duplicate question id {qid!r}")
        seen.add(qid)
        for name in _QA_TEXT:
            columns[name].append(str(rec[name]))
        columns["relations"].append(RELATIONS.index(relation))
        columns["sources"].append(_SOURCES.index(source))
        columns["folds"].append(fold)
    for qid, question in zip(columns["question_id"], columns["question"]):
        if not tokenize(question):
            raise DataError(f"question {qid}: question has no tokens")
    return {**join_strings([s for name in _QA_TEXT for s in columns[name]]),
            **{name: np.array(columns[name], dtype=np.int8) for name in ("relations", "sources", "folds")}}


def validate_dataset(instances: list[QAInstance], store: FeatureStore, kb: KnowledgeBase) -> None:
    """Referential integrity of the questions against the knowledge base and the feature store: a question's fact
    id resolves, its relation label is the fact's, its answer is the fact's entity by its answer source (compared
    in :func:`text.normalize_phrase` form), and its image has features and concepts. Facts, entities and answers
    are gathered once, then one pass in question order raises a DataError at the first failing question, for the
    first check it fails in that order. A record's own checks, and whether it has tokens, are :func:`load_qa`'s."""
    rows = kb.ids.rows([inst.fact_id for inst in instances])
    known = int(np.argmin(rows >= 0)) if (rows < 0).any() else len(rows)  # no later question is reached
    reached, at, image = instances[:known], rows[:known], AnswerSource.IMAGE
    entity = np.where([inst.source is image for inst in reached], kb.subjects[at], kb.objects[at])
    entities = _normalized_phrases(kb, entity)
    answers = {answer: normalize_phrase(answer) for answer in {inst.answer for inst in reached}}
    features, concepts = store.feature_rows, store.concept_rows
    relations = map(RELATIONS.__getitem__, kb.relations[at].tolist())
    for inst, relation, phrase in zip(reached, relations, map(entities.__getitem__, entity.tolist())):
        if relation is not inst.relation:
            raise DataError(f"question {inst.question_id}: relation label {inst.relation.value} "
                            f"does not match fact relation {relation.value}")
        if answers[inst.answer] != phrase:
            raise DataError(f"question {inst.question_id}: answer {inst.answer!r} does not match the fact's "
                            f"{inst.source.value} entity {kb.answer(kb.ids.row(inst.fact_id), inst.source)!r}")
        if inst.image_id not in features or inst.image_id not in concepts:
            store.stack([inst.image_id])  # the DataError of the first table that lacks it
    if known < len(instances):
        inst = instances[known]
        raise DataError(f"question {inst.question_id}: fact id {inst.fact_id!r} not in knowledge base")


def _normalized_phrases(kb: KnowledgeBase, codes: Array) -> dict[int, str]:
    """:func:`text.normalize_phrase` of each distinct KB phrase in ``codes``: its tokens joined by spaces, the
    tokens of all gathered at once."""
    codes = np.unique(codes)
    first, counts = kb.phrase_starts[codes], kb.phrase_starts[codes + 1] - kb.phrase_starts[codes]
    ends = np.cumsum(counts)
    words = kb.phrase_tokens[np.repeat(first - ends + counts, counts) + np.arange(counts.sum())].tolist()
    words, bounds = list(map(kb.tokens.__getitem__, words)), [0, *ends.tolist()]
    return dict(zip(codes.tolist(), (" ".join(words[a:b]) for a, b in zip(bounds, bounds[1:]))))


def load_dataset(
    kb_path: str | Path,
    qa_path: str | Path,
    features_path: str | Path,
    concepts_path: str | Path,
    concept_labels_path: str | Path,
) -> tuple[list[QAInstance], FeatureStore, KnowledgeBase]:
    """Load and cross-validate all dataset files."""
    kb = parse_kb(kb_path)
    labels = load_concept_labels(concept_labels_path)
    store = FeatureStore(load_features(features_path), load_concepts(concepts_path, len(labels)))
    instances = load_qa(qa_path)
    validate_dataset(instances, store, kb)
    return instances, store, kb


def split_fold(instances: list[QAInstance], fold_id: int) -> tuple[list[QAInstance], list[QAInstance]]:
    """(train, test): test is the fold's instances, train is everything else."""
    if fold_id not in FOLDS:
        raise UsageError(f"fold must be in {list(FOLDS)}, got {fold_id!r}")
    test = [i for i in instances if i.fold == fold_id]
    train = [i for i in instances if i.fold != fold_id]
    return train, test


# ----------------------------------------------------------------------
# converter for the original release layout
# ----------------------------------------------------------------------

# the keys a fact record may give its subject, relation and object under
_FVQA_FIELD_KEYS = (("e1_label", "e1", "subject", "arg1"), ("r", "rel", "relation"),
                    ("e2_label", "e2", "object", "arg2"))


def _first_key(record: dict, keys, where: str, rule=_TEXT, default: str | None = None) -> str:
    """The first of ``keys`` in ``record`` as a string, or ``default`` when none is there (with no default, a
    LoadError naming ``where``); a LoadError unless its JSON type is one ``rule`` allows, as in :func:`load_qa`."""
    key = next((k for k in keys if k in record), None)
    if key is None and default is None:
        raise LoadError(f"{where}: none of the keys {keys} present")
    value = default if key is None else record[key]
    if type(value) not in rule[0]:
        raise LoadError(f"{where}: {key} must be {rule[1]}, got {value!r}")
    return str(value)


def _json_record(records: dict, record_id: str, path: str | Path) -> dict:
    """Record ``record_id`` of an id-keyed file; LoadError naming both unless it is a JSON object."""
    rec = records[record_id]
    if not isinstance(rec, dict):
        raise LoadError(f"{path}: record {record_id!r} is not a JSON object")
    return rec


def _read_json_object(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LoadError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise LoadError(f"{path}: expected a JSON object keyed by id")
    return data


def convert_fvqa(questions_path: str | Path, facts_path: str | Path, out_dir: str | Path) -> dict[str, Path]:
    """One-shot converter from the original release's JSON dictionaries to
    this package's KB/QA files.

    Expected inputs: ``facts_path`` is a JSON object mapping fact id to a
    record with subject / relation / object fields (``e1_label``/``r``/
    ``e2_label`` or close variants); ``questions_path`` maps question id to
    a record with ``question``, ``answer``, ``img_file`` (or ``image_id``),
    ``fact`` (an id or a list of ids), and optionally ``relation``,
    ``answer_source`` and ``fold``. Missing answer sources are inferred by
    matching the answer against the fact's entities; entries whose answer
    matches neither entity are skipped with a warning. Missing folds are
    assigned round-robin by image id so all questions about one image share
    a fold. A field whose JSON type :func:`load_qa` would reject is a
    LoadError naming the fact or the question.
    """
    facts_raw, builder, kb_lines = _read_json_object(facts_path), KBBuilder(), []
    for fid in sorted(facts_raw):
        rec = _json_record(facts_raw, fid, facts_path)
        where = f"{facts_path}: fact {fid!r}"
        fields = [fid, *(_first_key(rec, keys, where) for keys in _FVQA_FIELD_KEYS)]
        try:
            kb_lines.append(fact_line(fields))
            builder.add(*parse_fact(fields))
        except LoadError as exc:
            raise LoadError(f"{where}: {exc}") from None
    kb = KnowledgeBase(builder.arrays())
    questions_raw = _read_json_object(questions_path)
    records = {qid: _json_record(questions_raw, qid, questions_path) for qid in sorted(questions_raw)}
    fact_refs = [rec.get("fact", rec.get("fact_id")) for rec in records.values()]
    fact_refs = [(ref[0] if ref else None) if isinstance(ref, list) else ref for ref in fact_refs]
    image_fold: dict[str, int] = {}
    qa_lines = []
    skipped = 0
    # an empty id is never a fact's, so a missing reference resolves to no row
    rows = kb.ids.rows([str(ref) if ref else "" for ref in fact_refs]).tolist()
    for (qid, rec), fact_ref, row in zip(records.items(), fact_refs, rows):
        where = f"{questions_path}: question {qid!r}"
        question, answer = (_first_key(rec, (name,), where, default="") for name in ("question", "answer"))
        image_id = _first_key(rec, ("image_id", "img_file"), where, _ID, "")
        if row < 0:
            logger.warning("question %s: unresolved fact %r, skipped", qid, fact_ref)
            skipped += 1
            continue
        source_token = rec.get("answer_source", rec.get("ans_source"))
        if source_token:
            try:
                source = AnswerSource.parse(str(source_token))
            except UsageError as exc:
                raise LoadError(f"{where}: {exc}") from None
        else:  # the first source whose entity the answer names: the subject, then the object
            wanted = normalize_phrase(answer)
            source = next((s for s in AnswerSource if normalize_phrase(kb.answer(row, s)) == wanted), None)
        if source is None:
            logger.warning("question %s: answer %r matches neither entity, skipped", qid, answer)
            skipped += 1
            continue
        if not image_id:
            logger.warning("question %s: no image id, skipped", qid)
            skipped += 1
            continue
        fold = rec.get("fold")
        if type(fold) is not int or fold not in FOLDS:
            if image_id not in image_fold:
                image_fold[image_id] = len(image_fold) % len(FOLDS) + 1
            fold = image_fold[image_id]
        qa_lines.append(QAInstance(qid, image_id, question, kb.answer(row, source), kb.ids[row],
                                   RELATIONS[kb.relations[row]], source, fold).line())
    if skipped:
        logger.warning("converter skipped %d questions", skipped)
    # both inputs are read and checked, so a failed conversion writes nothing
    paths = {"kb": Path(out_dir) / "kb.tsv", "qa": Path(out_dir) / "qa.jsonl"}
    paths["kb"].parent.mkdir(parents=True, exist_ok=True)
    write_lines(paths["kb"], kb_lines)
    write_lines(paths["qa"], qa_lines)
    return paths
