"""Fact triplets, the closed 13-relation vocabulary, and an indexed store.

A knowledge base is a set of (subject, relation, object) triplets loaded
from a tab-separated file. Facts are immutable after load and indexed both
by id and by relation, so relation-filtered retrieval is a bucket lookup.
Facts are slotted, and :func:`parse_kb` makes equal subject and object
strings one object, so an FVQA-scale KB holds each phrase once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .errors import LoadError, UsageError
from .text import has_token, tokenize


class Relation(enum.Enum):
    CATEGORY = "Category"
    COMPARATIVE = "Comparative"
    HAS_A = "HasA"
    IS_A = "IsA"
    HAS_PROPERTY = "HasProperty"
    CAPABLE_OF = "CapableOf"
    DESIRES = "Desires"
    RELATED_TO = "RelatedTo"
    AT_LOCATION = "AtLocation"
    PART_OF = "PartOf"
    RECEIVES_ACTION = "ReceivesAction"
    USED_FOR = "UsedFor"
    CREATED_BY = "CreatedBy"

    @classmethod
    def parse(cls, token: str) -> tuple["Relation", str | None]:
        """Parse a relation token, splitting a ``Comparative-X`` qualifier.

        Returns the relation and the qualifier suffix (``None`` for plain
        tokens). Unknown tokens raise ``UsageError``.
        """
        token = token.strip()
        if token.startswith("Comparative-"):
            return cls.COMPARATIVE, token[len("Comparative-") :]
        try:
            return _RELATION_BY_VALUE[token], None
        except KeyError:
            raise UsageError(f"unknown relation {token!r}") from None


_RELATION_BY_VALUE = {r.value: r for r in Relation}


class AnswerSource(enum.Enum):
    IMAGE = "Image"
    KNOWLEDGE_BASE = "KnowledgeBase"

    @classmethod
    def parse(cls, token: str) -> "AnswerSource":
        try:
            return _SOURCE_BY_VALUE[token.strip()]
        except KeyError:
            raise UsageError(f"unknown answer source {token!r}") from None


_SOURCE_BY_VALUE = {s.value: s for s in AnswerSource}


@dataclass(frozen=True, slots=True)
class Fact:
    """One triplet. Subject and object keep their verbatim surface form."""

    fact_id: str
    subject: str
    relation: Relation
    obj: str


class KnowledgeBase:
    """Immutable fact store with an id index and a relation index."""

    def __init__(self, facts: list[Fact]):
        self._facts: dict[str, Fact] = {}
        self._by_relation: dict[Relation, list[str]] = {r: [] for r in Relation}
        for f in facts:
            if f.fact_id in self._facts:
                raise UsageError(f"duplicate fact id {f.fact_id!r}")
            self._facts[f.fact_id] = f
            self._by_relation[f.relation].append(f.fact_id)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact_id: str) -> bool:
        return fact_id in self._facts

    def fact(self, fact_id: str) -> Fact:
        try:
            return self._facts[fact_id]
        except KeyError:
            raise UsageError(f"unknown fact id {fact_id!r}") from None

    def facts(self) -> list[Fact]:
        """All facts in load order."""
        return list(self._facts.values())

    def fact_ids(self) -> list[str]:
        return list(self._facts.keys())

    def facts_with_relation(self, relation: Relation) -> list[Fact]:
        """Facts whose relation is ``relation``, in stable load order."""
        return [self._facts[i] for i in self._by_relation[relation]]

    def ids_with_relation(self, relation: Relation) -> list[str]:
        return list(self._by_relation[relation])

    def count_with_relation(self, relation: Relation) -> int:
        return len(self._by_relation[relation])


def parse_kb(path: str | Path) -> KnowledgeBase:
    """Load a knowledge base from a tab-separated file.

    One fact per line: ``fact_id<TAB>subject<TAB>relation<TAB>object``.
    ``#``-prefixed lines and blank lines are ignored; each line is read by
    :func:`parse_fact`.
    """
    path = Path(path)
    facts: list[Fact] = []
    seen: set[str] = set()
    phrases: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise LoadError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
            try:
                fact = parse_fact(parts, phrases)
            except LoadError as exc:
                raise LoadError(f"{path}:{lineno}: {exc}") from None
            if fact.fact_id in seen:
                raise LoadError(f"{path}:{lineno}: duplicate fact id {fact.fact_id!r}")
            seen.add(fact.fact_id)
            facts.append(fact)
    return KnowledgeBase(facts)


def parse_fact(fields: list[str], phrases: dict[str, str] | None = None) -> Fact:
    """A fact from its id, subject, relation and object fields, or a
    LoadError saying which is invalid. A ``Comparative-X`` relation token
    maps to the Comparative relation and prepends ``X`` to the object.
    Subjects and objects equal to a string in ``phrases`` become that string."""
    fact_id, subject, rel_token, obj = (p.strip() for p in fields)
    if not fact_id:
        raise LoadError("empty fact id")
    try:
        relation, suffix = Relation.parse(rel_token)
    except UsageError as exc:
        raise LoadError(str(exc)) from None
    if suffix:
        obj = f"{suffix} {obj}".strip()
    if not has_token(subject):
        raise LoadError("subject has no tokens")
    if not has_token(obj):
        raise LoadError("object has no tokens")
    if phrases is not None:
        subject, obj = phrases.setdefault(subject, subject), phrases.setdefault(obj, obj)
    return Fact(fact_id, subject, relation, obj)


@dataclass
class KBStats:
    relation_counts: dict[Relation, int]
    total_facts: int
    vocabulary_size: int


def kb_stats(kb: KnowledgeBase) -> KBStats:
    """Per-relation counts, total size, and token vocabulary size."""
    counts = {r: kb.count_with_relation(r) for r in Relation}
    vocab: set[str] = set()
    for f in kb.facts():
        vocab.update(tokenize(f.subject))
        vocab.update(tokenize(f.obj))
    return KBStats(relation_counts=counts, total_facts=len(kb), vocabulary_size=len(vocab))
