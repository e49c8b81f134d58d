"""Fact triplets, the closed 13-relation vocabulary, and a columnar store.

A knowledge base is a set of (subject, relation, object) triplets loaded
from a tab-separated file, held as columns in the row order of
``wordvec.FactMatrix``: relation bucket after bucket, each in load order.
Subjects and objects are codes into one list of distinct phrases, each
tokenized once into codes of one list of distinct tokens. A :class:`Fact`
is made only when one is asked for: the ranking names rows, and
:meth:`KnowledgeBase.answer` reads a row's answer, its subject or object by
the answer source, the one place that rule is written. :func:`parse_kb`
caches the columns beside the file, as the feature loader does
(:func:`text.cached`).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import DegenerateInputError, LoadError, UsageError
from .text import cached, read_lines, tokenize


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
            return _PLAIN_RELATION[token]
        except KeyError:
            raise UsageError(f"unknown relation {token!r}") from None


_PLAIN_RELATION = {r.value: (r, None) for r in Relation}


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


RELATIONS = list(Relation)  # a relation's code is its index here (list.index, not Enum's Python-level hash)

# the arrays of a KnowledgeBase's cache: its columns, and its lists of strings as UTF-8 joined on line breaks
_COLUMNS = ("relations", "subjects", "objects", "phrase_starts", "phrase_tokens", "load_order")
_STRINGS = ("ids", "phrases", "tokens")


class _Phrases(dict):
    """Distinct phrase -> code, in first-seen order. A new phrase is
    tokenized once, as it is first looked up; one with no tokens looks up
    None. Phrase ``p``'s tokens are ``tokens[starts[p]:starts[p + 1]]``,
    each the one string of its ``distinct`` token."""

    def __init__(self):
        super().__init__()
        self.distinct: dict[str, str] = {}
        self.tokens: list[str] = []
        self.starts = array("q", [0])

    def __missing__(self, phrase: str) -> int | None:
        tokens = tokenize(phrase)
        if not tokens:
            return None
        self.tokens += map(self.distinct.setdefault, tokens, tokens)
        self.starts.append(len(self.tokens))
        code = self[phrase] = len(self)
        return code


class KnowledgeBase:
    """Immutable columnar fact store. Row ``r`` is fact ``ids[r]``, of relation ``RELATIONS[relations[r]]``,
    subject ``phrases[subjects[r]]`` and object ``phrases[objects[r]]``; ``position`` maps an id to its row,
    ``buckets`` a relation to its rows, and ``load_order[i]`` is the row of the ``i``-th fact loaded. Phrase
    ``p``'s tokens are ``tokens[c]`` for ``c`` in ``phrase_tokens[phrase_starts[p]:phrase_starts[p + 1]]``."""

    def __init__(self, facts: Iterable[Fact]):
        phrases, position, columns = _Phrases(), {}, [array("i") for _ in range(3)]
        for f in facts:
            if f.fact_id in position:
                raise UsageError(f"duplicate fact id {f.fact_id!r}")
            codes = RELATIONS.index(f.relation), phrases[f.subject], phrases[f.obj]
            if None in codes:
                raise DegenerateInputError(f"phrase {f.subject if codes[1] is None else f.obj!r} has no tokens")
            position[f.fact_id] = None
            for column, code in zip(columns, codes):
                column.append(code)
        self._fill(position, columns, phrases)

    def _fill(self, position: dict[str, None], columns: list[array], phrases: _Phrases) -> None:
        """Lay out the facts whose ids ``position`` holds in load order, with
        their relation, subject and object ``columns`` of codes, bucket after
        bucket; ``position`` comes to map each id to its row."""
        self.phrases, self.tokens, self.phrase_starts = list(phrases), list(phrases.distinct), np.array(phrases.starts)
        code = dict(zip(self.tokens, range(len(self.tokens))))
        self.phrase_tokens = np.fromiter(map(code.__getitem__, phrases.tokens), np.int32, len(phrases.tokens))
        phrases.clear()  # its codes' memory then holds the row numbers below
        relations, subjects, objects = (np.frombuffer(column, dtype=np.int32) for column in columns)
        order = np.argsort(relations, kind="stable")  # row -> load index
        loaded = list(position)
        self.ids = [loaded[i] for i in order.tolist()]
        position.update(zip(self.ids, range(len(self.ids))))
        self.position, self.load_order = position, np.argsort(order)
        self.relations, self.subjects, self.objects = relations[order], subjects[order], objects[order]
        self._bucket()

    def _bucket(self) -> None:
        ends = np.cumsum(np.bincount(self.relations, minlength=len(RELATIONS))).tolist()
        self.buckets = {r: slice(start, end) for r, start, end in zip(RELATIONS, [0, *ends], ends)}

    @classmethod
    def _from_arrays(cls, arrays) -> "KnowledgeBase":
        """The KB whose cache holds ``arrays``, or a ValueError naming the vectorized checks of their structure
        that they fail; arrays that pass them index as the parse that wrote them did."""
        kb = cls.__new__(cls)
        kb.__dict__.update((name, arrays[name]) for name in _COLUMNS)
        for name in _STRINGS:  # str.split, as splitlines() would also split at U+2028 or U+0085 within a field
            setattr(kb, name, text.split("\n") if (text := str(arrays[name], "utf-8")) else [])
        n, starts, phrases = len(kb.ids), kb.phrase_starts, len(kb.phrases)
        if len({n, len(kb.relations), len(kb.subjects), len(kb.objects), len(kb.load_order)}) > 1 \
                or len(starts) != phrases + 1:
            raise ValueError("column lengths differ")
        codes = [(kb.relations, len(RELATIONS)), (kb.subjects, phrases), (kb.objects, phrases),
                 (kb.phrase_tokens, len(kb.tokens))]
        failed = {
            "a code is out of range": not all(((0 <= c) & (c < bound)).all() for c, bound in codes),
            "relations are out of bucket order": (np.diff(kb.relations) < 0).any(),
            "phrase starts do not rise from 0 to the token count":
                starts[0] != 0 or starts[-1] != len(kb.phrase_tokens) or (np.diff(starts) <= 0).any(),
            "load order is not a permutation": not np.array_equal(np.sort(kb.load_order), np.arange(n)),
        }
        if problems := [problem for problem, fails in failed.items() if fails]:
            raise ValueError(", ".join(problems))
        kb.position = dict(zip(kb.fact_ids(), kb.load_order.tolist()))
        if len(kb.position) != n:
            raise ValueError("fact ids repeat")
        kb._bucket()
        return kb

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, fact_id: str) -> bool:
        return fact_id in self.position

    def fact(self, fact_id: str) -> Fact:
        try:
            row = self.position[fact_id]
        except KeyError:
            raise UsageError(f"unknown fact id {fact_id!r}") from None
        return Fact(fact_id, self.phrases[self.subjects[row]], RELATIONS[self.relations[row]],
                    self.phrases[self.objects[row]])

    def answer(self, row: int, source: AnswerSource) -> str:
        """Row ``row``'s verbatim subject for an Image answer, its object otherwise."""
        return self.phrases[(self.subjects if source is AnswerSource.IMAGE else self.objects)[row]]

    def facts(self) -> list[Fact]:
        """All facts in load order."""
        return [self.fact(fact_id) for fact_id in self.fact_ids()]

    def fact_ids(self) -> list[str]:
        """All fact ids in load order."""
        return [self.ids[row] for row in self.load_order.tolist()]

    def facts_with_relation(self, relation: Relation) -> list[Fact]:
        """Facts whose relation is ``relation``, in stable load order."""
        return [self.fact(fact_id) for fact_id in self.ids_with_relation(relation)]

    def ids_with_relation(self, relation: Relation) -> list[str]:
        return self.ids[self.buckets[relation]]


def parse_kb(path: str | Path) -> KnowledgeBase:
    """Load a knowledge base from a tab-separated file.

    One fact per line: ``fact_id<TAB>subject<TAB>relation<TAB>object``.
    ``#``-prefixed lines and blank lines are ignored; each line is read by
    :func:`parse_fact`, and each distinct phrase is tokenized once, the first
    time a line names it. While the file is unchanged, its cache stands in
    for the parse.
    """
    return cached(Path(path), "knowledge base", _parse, KnowledgeBase._from_arrays)


def _parse(path: Path) -> tuple[KnowledgeBase, dict[str, np.ndarray]]:
    phrases, position, columns = _Phrases(), {}, [array("i") for _ in range(3)]
    code, (relations, subjects, objects) = phrases.__getitem__, columns
    for lineno, line in read_lines(path):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")  # the last field keeps the line break, which parse_fact strips
        if len(parts) != 4:
            raise LoadError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        try:
            fact_id, subject, relation, obj = parse_fact(parts, code)
        except LoadError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from None
        if fact_id in position:
            raise LoadError(f"{path}:{lineno}: duplicate fact id {fact_id!r}")
        position[fact_id] = None
        relations.append(RELATIONS.index(relation))
        subjects.append(subject)
        objects.append(obj)
    kb = KnowledgeBase.__new__(KnowledgeBase)
    kb._fill(position, columns, phrases)
    return kb, {**{name: getattr(kb, name) for name in _COLUMNS},
                **{name: np.frombuffer("\n".join(getattr(kb, name)).encode(), np.uint8) for name in _STRINGS}}


def parse_fact(fields: list[str], phrase: Callable[[str], object] = lambda p: p if tokenize(p) else None) -> tuple:
    """The fact id, subject, relation and object of a line's four fields, or
    a LoadError saying which is invalid. A ``Comparative-X`` relation token
    maps to the Comparative relation and prepends ``X`` to the object. The
    subject and object come back through ``phrase``, None for a phrase with
    no tokens; by default each is itself."""
    fact_id, subject, rel_token, obj = fields
    fact_id, subject, rel_token, obj = fact_id.strip(), subject.strip(), rel_token.strip(), obj.strip()
    if not fact_id:
        raise LoadError("empty fact id")
    try:
        relation, suffix = _PLAIN_RELATION.get(rel_token) or Relation.parse(rel_token)
    except UsageError as exc:
        raise LoadError(str(exc)) from None
    if suffix:
        obj = f"{suffix} {obj}".strip()
    if (subject := phrase(subject)) is None:
        raise LoadError("subject has no tokens")
    if (obj := phrase(obj)) is None:
        raise LoadError("object has no tokens")
    return fact_id, subject, relation, obj


@dataclass
class KBStats:
    relation_counts: dict[Relation, int]
    total_facts: int
    vocabulary_size: int


def kb_stats(kb: KnowledgeBase) -> KBStats:
    """Per-relation counts, total size, and token vocabulary size."""
    counts = {r: bucket.stop - bucket.start for r, bucket in kb.buckets.items()}
    return KBStats(relation_counts=counts, total_facts=len(kb), vocabulary_size=len(kb.tokens))
