"""Dataset ingestion: QA records, image features, concept vectors, folds.

The QA file is line-delimited JSON with the fields question_id, image_id,
question, answer, fact_id, relation, answer_source, and fold. Image
features are text rows ``image_id dim v1 .. v_dim``; concept vectors are
``image_id i1,i2,...`` hot-index rows positioned against a label file.
Referential integrity (fact ids, features, label consistency) is checked
at load, never assumed downstream.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, LoadError, UsageError
from .kb import AnswerSource, KnowledgeBase, Relation, parse_fact, parse_kb
from .text import normalize_phrase, tokenize

logger = logging.getLogger(__name__)

Array = np.ndarray

FOLDS = (1, 2, 3, 4, 5)

QA_FIELDS = ("question_id", "image_id", "question", "answer", "fact_id", "relation", "answer_source", "fold")


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


class FeatureStore:
    """Image id -> feature vector and concept vector, immutable after load."""

    def __init__(self, features: dict[str, Array], concepts: dict[str, Array], concept_labels: list[str]):
        self.features = features
        self.concepts = concepts
        self.concept_labels = concept_labels
        self.feature_dim = len(next(iter(features.values()))) if features else 0
        self.concept_dim = len(concept_labels)

    def feature(self, image_id: str) -> Array:
        try:
            return self.features[image_id]
        except KeyError:
            raise DataError(f"no image feature for image id {image_id!r}") from None

    def concept(self, image_id: str) -> Array:
        try:
            return self.concepts[image_id]
        except KeyError:
            raise DataError(f"no concept vector for image id {image_id!r}") from None

    def stack(self, image_ids) -> tuple[Array, Array]:
        feats = np.stack([self.feature(i) for i in image_ids])
        cons = np.stack([self.concept(i) for i in image_ids])
        return feats, cons


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_concept_labels(path: str | Path) -> list[str]:
    path = Path(path)
    labels = [line.rstrip("\n") for line in path.read_text(encoding="utf-8").splitlines()]
    labels = [l for l in labels if l.strip()]
    if not labels:
        raise LoadError(f"{path}: concept label file is empty")
    if len(set(labels)) != len(labels):
        raise LoadError(f"{path}: concept labels must be unique")
    return labels


def load_features(path: str | Path) -> dict[str, Array]:
    """Parse ``image_id dim v1..v_dim`` rows, with a binary cache keyed to
    the source file's checksum for fast reloads."""
    path = Path(path)
    cache_path = path.with_name(path.name + ".cache.npz")
    checksum = _file_sha256(path)
    if cache_path.exists():
        try:
            data = np.load(cache_path, allow_pickle=False)
            if str(data["checksum"]) == checksum:
                ids = [str(s) for s in data["ids"]]
                return {i: row for i, row in zip(ids, data["matrix"])}
        except Exception:  # stale or corrupt cache: fall through and rebuild
            logger.warning("ignoring unreadable feature cache %s", cache_path)
    out: dict[str, Array] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
            if dim is None:
                dim = declared
            elif declared != dim:
                raise LoadError(f"{path}:{lineno}: inconsistent feature length {declared} != {dim}")
            if head in out:
                raise LoadError(f"{path}:{lineno}: duplicate image id {head!r}")
            out[head] = values
    if not out:
        raise LoadError(f"{path}: no feature rows")
    ids = list(out.keys())
    try:
        np.savez(cache_path, checksum=np.str_(checksum), ids=np.array(ids), matrix=np.stack([out[i] for i in ids]))
    except OSError:
        logger.warning("could not write feature cache %s", cache_path)
    return out


def load_concepts(path: str | Path, n_labels: int) -> dict[str, Array]:
    """Parse ``image_id i1,i2,...`` hot-index rows into dense 0/1 vectors."""
    path = Path(path)
    out: dict[str, Array] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            head, _, rest = line.partition(" ")
            vec = np.zeros(n_labels)
            if rest.strip():
                for tok in rest.strip().split(","):
                    try:
                        idx = int(tok)
                    except ValueError:
                        raise LoadError(f"{path}:{lineno}: bad concept index {tok!r}") from None
                    if not 0 <= idx < n_labels:
                        raise LoadError(f"{path}:{lineno}: concept index {idx} out of range [0, {n_labels})")
                    vec[idx] = 1.0
            if head in out:
                raise LoadError(f"{path}:{lineno}: duplicate image id {head!r}")
            out[head] = vec
    return out


def load_qa(path: str | Path) -> list[QAInstance]:
    path = Path(path)
    instances: list[QAInstance] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LoadError(f"{path}:{lineno}: bad JSON: {exc}") from None
            missing = [f for f in QA_FIELDS if f not in rec]
            if missing:
                raise LoadError(f"{path}:{lineno}: missing fields {missing}")
            try:
                relation, suffix = Relation.parse(str(rec["relation"]))
                if suffix:
                    raise UsageError("qualified Comparative labels are not valid QA relation labels")
                source = AnswerSource.parse(str(rec["answer_source"]))
            except UsageError as exc:
                raise LoadError(f"{path}:{lineno}: {exc}") from None
            fold = rec["fold"]
            if not isinstance(fold, int) or fold not in FOLDS:
                raise DataError(f"{path}:{lineno}: fold must be in {list(FOLDS)}, got {fold!r}")
            qid = str(rec["question_id"])
            if qid in seen:
                raise LoadError(f"{path}:{lineno}: duplicate question id {qid!r}")
            seen.add(qid)
            instances.append(
                QAInstance(
                    question_id=qid,
                    image_id=str(rec["image_id"]),
                    question=str(rec["question"]),
                    answer=str(rec["answer"]),
                    fact_id=str(rec["fact_id"]),
                    relation=relation,
                    source=source,
                    fold=fold,
                )
            )
    return instances


def validate_dataset(instances: list[QAInstance], store: FeatureStore, kb: KnowledgeBase) -> None:
    """Referential integrity: fact ids resolve, labels agree with the fact,
    every image has features and concepts, questions tokenize non-empty."""
    for inst in instances:
        if inst.fact_id not in kb:
            raise DataError(f"question {inst.question_id}: fact id {inst.fact_id!r} not in knowledge base")
        fact = kb.fact(inst.fact_id)
        if fact.relation is not inst.relation:
            raise DataError(
                f"question {inst.question_id}: relation label {inst.relation.value} "
                f"does not match fact relation {fact.relation.value}"
            )
        expected = fact.subject if inst.source is AnswerSource.IMAGE else fact.obj
        if normalize_phrase(inst.answer) != normalize_phrase(expected):
            raise DataError(
                f"question {inst.question_id}: answer {inst.answer!r} does not match "
                f"the fact's {inst.source.value} entity {expected!r}"
            )
        if not tokenize(inst.question):
            raise DataError(f"question {inst.question_id}: question has no tokens")
        store.feature(inst.image_id)
        store.concept(inst.image_id)


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
    store = FeatureStore(load_features(features_path), load_concepts(concepts_path, len(labels)), labels)
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


def _first_key(record: dict, keys, where: str):
    for k in keys:
        if k in record:
            return record[k]
    raise LoadError(f"{where}: none of the keys {keys} present")


def _json_record(records: dict, record_id: str, path: str | Path) -> dict:
    """Record ``record_id`` of an id-keyed file; LoadError naming both unless it is a JSON object."""
    rec = records[record_id]
    if not isinstance(rec, dict):
        raise LoadError(f"{path}: record {record_id!r} is not a JSON object")
    return rec


def _read_json_object(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
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
    a fold.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    facts_raw = _read_json_object(facts_path)
    kb_lines, facts = [], []
    for fid in sorted(facts_raw):
        rec = _json_record(facts_raw, fid, facts_path)
        where = f"{facts_path}: fact {fid!r}"
        fields = [fid, *(str(_first_key(rec, keys, where)) for keys in _FVQA_FIELD_KEYS)]
        for name, value in zip(("fact id", "subject", "relation", "object"), fields):
            if any(c in value for c in "\t\n\r"):
                raise LoadError(f"{where}: {name} {value!r} contains a tab or a line break")
        if fid.lstrip().startswith("#"):
            raise LoadError(f"{where}: a fact id starting with '#' would be read back as a comment line")
        try:
            facts.append(parse_fact(fields))
        except LoadError as exc:
            raise LoadError(f"{where}: {exc}") from None
        kb_lines.append("\t".join(fields))
    try:
        kb = KnowledgeBase(facts)
    except UsageError as exc:  # two ids equal once stripped
        raise LoadError(f"{facts_path}: {exc}") from None
    kb_path = out_dir / "kb.tsv"
    kb_path.write_text("\n".join(kb_lines) + "\n", encoding="utf-8")

    questions_raw = _read_json_object(questions_path)
    image_fold: dict[str, int] = {}
    qa_lines = []
    skipped = 0
    for qid in sorted(questions_raw):
        rec = _json_record(questions_raw, qid, questions_path)
        fact_ref = rec.get("fact", rec.get("fact_id"))
        if isinstance(fact_ref, list):
            fact_ref = fact_ref[0] if fact_ref else None
        if not fact_ref or str(fact_ref) not in kb:
            logger.warning("question %s: unresolved fact %r, skipped", qid, fact_ref)
            skipped += 1
            continue
        fact = kb.fact(str(fact_ref))
        answer = str(rec.get("answer", ""))
        source_token = rec.get("answer_source", rec.get("ans_source"))
        if source_token:
            try:
                source = AnswerSource.parse(str(source_token))
            except UsageError as exc:
                raise LoadError(f"{questions_path}: question {qid!r}: {exc}") from None
        elif normalize_phrase(answer) == normalize_phrase(fact.subject):
            source = AnswerSource.IMAGE
        elif normalize_phrase(answer) == normalize_phrase(fact.obj):
            source = AnswerSource.KNOWLEDGE_BASE
        else:
            logger.warning("question %s: answer %r matches neither entity, skipped", qid, answer)
            skipped += 1
            continue
        image_id = str(rec.get("image_id", rec.get("img_file", "")))
        if not image_id:
            logger.warning("question %s: no image id, skipped", qid)
            skipped += 1
            continue
        fold = rec.get("fold")
        if not isinstance(fold, int) or fold not in FOLDS:
            if image_id not in image_fold:
                image_fold[image_id] = len(image_fold) % len(FOLDS) + 1
            fold = image_fold[image_id]
        qa_lines.append(
            json.dumps(
                {
                    "question_id": qid,
                    "image_id": image_id,
                    "question": str(rec.get("question", "")),
                    "answer": fact.subject if source is AnswerSource.IMAGE else fact.obj,
                    "fact_id": fact.fact_id,
                    "relation": fact.relation.value,
                    "answer_source": source.value,
                    "fold": fold,
                },
                sort_keys=True,
            )
        )
    qa_path = out_dir / "qa.jsonl"
    qa_path.write_text("\n".join(qa_lines) + "\n", encoding="utf-8")
    if skipped:
        logger.warning("converter skipped %d questions", skipped)
    return {"kb": kb_path, "qa": qa_path}
