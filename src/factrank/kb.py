"""Fact triplets, the closed 13-relation vocabulary, and a columnar store.

A knowledge base is a set of (subject, relation, object) triplets loaded
from a tab-separated file, held as columns in the row order of
``wordvec.FactMatrix``: relation bucket after bucket, each in load order.
A fact's row is the one number it has: every list of facts, every
candidate set and every ranking is in rows or row order.
Subjects and objects are codes into the distinct phrases, each tokenized
once into codes of one list of distinct tokens. No Python object is held
per fact: the fact ids are a sorted byte column (:class:`text.Names`, the
word-vector tokens' lookup too) and the phrases one UTF-8 text with
offsets, and each stays bytes until a fact is named. Ranking breaks ties
on the ids' integer ranks, each row's place in sorted-id order, and an id
is found by a binary search of the column. A
:class:`Fact` is made only when one is asked for: the ranking names rows,
and :meth:`KnowledgeBase.answer` reads a row's answer, its subject or
object by the answer source, the one place that rule is written.

There is one way to build a KB: a :class:`KBBuilder` takes facts in load
order and lays them out as the arrays of the KB's cache, and the
:class:`KnowledgeBase` constructor takes only those arrays. A fresh parse,
a cache hit (:func:`parse_kb` caches the arrays beside the file through
:func:`text.cached`, as the feature loader does) and the converter all
run that one constructor. There is one way to write a KB line, too:
:func:`fact_line`, which refuses a fact that the parse would not read
back as it was written; the synthetic set and the converter both use it.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LoadError, UsageError
from .text import Names, cached, read_lines, sort_names, tokenize


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


MAX_FACT_ID_BYTES = 255  # the id column is as wide as its longest id, so one long id would widen every row
RELATIONS = list(Relation)  # a relation's code is its index here (list.index, not Enum's Python-level hash)

# the integer columns of a KnowledgeBase's cache; beside them it holds the ids as the arrays of a Names, the
# phrases as one UTF-8 text (whose offsets are text_starts) and the tokens UTF-8 joined on line breaks
_COLUMNS = ("relations", "subjects", "objects", "phrase_starts", "phrase_tokens", "text_starts")


class KBBuilder:
    """Facts taken one at a time, in load order, laid out by :meth:`arrays` as a KnowledgeBase's cache. Each
    distinct phrase is tokenized once, as it is first added; a phrase with no tokens, a repeated fact id, or one
    with a NUL byte (see :class:`text.Names`) or over :data:`MAX_FACT_ID_BYTES` UTF-8 bytes is a LoadError naming it."""

    def __init__(self):
        self.ids: dict[str, None] = {}  # in load order
        self.phrases: dict[str, int] = {}  # phrase -> code, in first-seen order
        self.tokens: dict[str, str] = {}  # each distinct token, in first-seen order
        self.phrase_tokens, self.phrase_starts = [], array("i", [0])  # phrase p's are [starts[p]:starts[p + 1]]
        self.columns = array("i"), array("i"), array("i")  # relation, subject and object codes

    def add(self, fact_id: str, subject: str, relation: Relation, obj: str) -> None:
        if fact_id in self.ids:
            raise LoadError(f"duplicate fact id {fact_id!r}")
        if "\0" in fact_id:
            raise LoadError(f"fact id {fact_id!r} holds a NUL byte")
        if len(fact_id.encode()) > MAX_FACT_ID_BYTES:
            raise LoadError(f"fact id {fact_id[:20]!r}... is longer than {MAX_FACT_ID_BYTES} UTF-8 bytes")
        codes = RELATIONS.index(relation), self._code(subject, "subject"), self._code(obj, "object")
        self.ids[fact_id] = None
        for column, code in zip(self.columns, codes):
            column.append(code)

    def _code(self, phrase: str, field: str) -> int:
        code = self.phrases.get(phrase)
        if code is None:
            if not (tokens := tokenize(phrase)):
                raise LoadError(f"{field} has no tokens")
            code = self.phrases[phrase] = len(self.phrases)
            self.phrase_tokens += map(self.tokens.setdefault, tokens, tokens)  # one string per distinct token
            self.phrase_starts.append(len(self.phrase_tokens))
        return code

    def arrays(self) -> dict[str, np.ndarray]:
        """The cache's arrays: the columns in bucket order (each bucket in load order), the ids sorted with each
        one's row, the phrases' text and offsets, and the tokens. Nothing encoded here is decoded."""
        relations, subjects, objects = (np.frombuffer(column, dtype=np.int32) for column in self.columns)
        order = np.argsort(relations, kind="stable")  # row -> load index
        ids, loaded_at = sort_names(self.ids)  # each sorted id's load index; argsort(order) is load index -> row
        text_starts = np.zeros(len(self.phrases) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, map(str.encode, self.phrases)), np.int64, len(self.phrases)),
                  out=text_starts[1:])
        code = dict(zip(self.tokens, range(len(self.tokens))))
        phrase_tokens = np.fromiter(map(code.__getitem__, self.phrase_tokens), np.int32, len(self.phrase_tokens))
        columns = (relations[order], subjects[order], objects[order],
                   np.frombuffer(self.phrase_starts, dtype=np.int32), phrase_tokens, text_starts)
        return {**dict(zip(_COLUMNS, columns)), "ids": ids, "id_rows": np.argsort(order)[loaded_at],
                "phrase_text": np.frombuffer("".join(self.phrases).encode(), np.uint8),
                "tokens": np.frombuffer("\n".join(self.tokens).encode(), np.uint8)}


class KnowledgeBase:
    """Immutable columnar fact store. Row ``r`` is fact ``ids[r]``, of relation ``RELATIONS[relations[r]]``,
    subject :meth:`phrase` ``(subjects[r])`` and object :meth:`phrase` ``(objects[r])``; ``ids`` is a
    :class:`text.Names`, the one id -> row lookup, and ``buckets`` maps a relation to its rows. Phrase ``p`` is
    the UTF-8 text ``phrase_text[text_starts[p]:text_starts[p + 1]]``, and its tokens are ``tokens[c]`` for
    ``c`` in ``phrase_tokens[phrase_starts[p]:phrase_starts[p + 1]]``. Ids and phrases stay bytes until a fact
    is named; no Python object is held per fact.

    Every KB is made from the arrays of its cache, as :meth:`KBBuilder.arrays` lays them out: a fresh parse,
    a cache hit and the converter all end here. Arrays that fail the vectorized checks of their structure are
    a ValueError naming them; arrays that pass them index as the parse that wrote them did."""

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        self.__dict__.update((name, arrays[name]) for name in _COLUMNS)
        self.path: Path | None = None  # the file it was parsed from, if any
        self.checksum = str(arrays["checksum"]) if "checksum" in arrays else None  # that file's cache key
        self.phrase_text = arrays["phrase_text"]
        self.tokens = text.split("\n") if (text := str(arrays["tokens"], "utf-8")) else []
        for utf8 in (arrays["ids"], self.phrase_text):  # a byte that does not decode fails here, not as a fact is named
            str(utf8, "utf-8")
        self.ids = Names(arrays["ids"], arrays["id_rows"], "fact id")
        starts, text_starts, phrases = self.phrase_starts, self.text_starts, len(self.phrase_starts) - 1
        lengths = {len(self.ids), len(self.relations), len(self.subjects), len(self.objects)}
        if len(lengths) > 1 or len(text_starts) != phrases + 1:
            raise ValueError("column lengths differ")
        codes = [(self.relations, len(RELATIONS)), (self.subjects, phrases), (self.objects, phrases),
                 (self.phrase_tokens, len(self.tokens))]
        failed = {
            "a code is out of range": not all(((0 <= c) & (c < bound)).all() for c, bound in codes),
            "relations are out of bucket order": (np.diff(self.relations) < 0).any(),
            "phrase starts do not rise from 0 to the token count":
                starts[0] != 0 or starts[-1] != len(self.phrase_tokens) or (np.diff(starts) <= 0).any(),
            "text starts do not rise from 0 to the text length":
                text_starts[0] != 0 or text_starts[-1] != len(self.phrase_text) or (np.diff(text_starts) <= 0).any(),
        }
        if problems := [problem for problem, fails in failed.items() if fails]:
            raise ValueError(", ".join(problems))
        ends = np.cumsum(np.bincount(self.relations, minlength=len(RELATIONS))).tolist()
        self.buckets = {r: slice(start, end) for r, start, end in zip(RELATIONS, [0, *ends], ends)}

    def __len__(self) -> int:
        return len(self.ids)

    def phrase(self, code: int) -> str:
        """Phrase ``code``, decoded."""
        return str(self.phrase_text[self.text_starts[code]:self.text_starts[code + 1]], "utf-8")

    def fact(self, fact_id: str) -> Fact:
        return self._facts([self.ids.row(fact_id)])[0]

    def _facts(self, rows) -> list[Fact]:
        # each distinct phrase of the rows is decoded once, and its facts share the string
        subjects, objects = self.subjects[rows].tolist(), self.objects[rows].tolist()
        phrases = {code: self.phrase(code) for code in {*subjects, *objects}}
        return [Fact(fact_id, phrases[s], RELATIONS[r], phrases[o])
                for fact_id, s, r, o in zip(self.ids[rows], subjects, self.relations[rows].tolist(), objects)]

    def answer(self, row: int, source: AnswerSource) -> str:
        """Row ``row``'s verbatim subject for an Image answer, its object otherwise."""
        return self.phrase((self.subjects if source is AnswerSource.IMAGE else self.objects)[row])

    def facts(self) -> list[Fact]:
        """All facts in row order: bucket after bucket, each bucket in load order."""
        return self._facts(slice(None))

    def facts_with_relation(self, relation: Relation) -> list[Fact]:
        """Facts whose relation is ``relation``, in row order, which is their load order."""
        return self._facts(self.buckets[relation])

    def ids_with_relation(self, relation: Relation) -> list[str]:
        return self.ids[self.buckets[relation]]


def parse_kb(path: str | Path) -> KnowledgeBase:
    """Load a knowledge base from a tab-separated file.

    One fact per line: ``fact_id<TAB>subject<TAB>relation<TAB>object``.
    ``#``-prefixed lines and blank lines are ignored; each line is read by
    :func:`parse_fact` into a :class:`KBBuilder`. While the file is
    unchanged, its cache stands in for the parse; either way the KB is
    built from the cache's arrays. The KB records ``path`` and the cache's
    ``checksum``, by which ``FactMatrix.build`` caches its rows beside it.
    """
    path = Path(path)
    kb = cached(path, "knowledge base", lambda: _parse(path), KnowledgeBase)
    kb.path = path
    return kb


def _parse(path: Path) -> dict[str, np.ndarray]:
    builder = KBBuilder()
    for lineno, line in read_lines(path):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")  # the last field keeps the line break, which parse_fact strips
        if len(parts) != 4:
            raise LoadError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(parts)}")
        try:
            builder.add(*parse_fact(parts))
        except LoadError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from None
    return builder.arrays()


def fact_line(fields: Sequence[str]) -> str:
    """A fact's four fields joined by tabs: the one writer of a KB line, which :func:`_parse` reads back as
    :func:`parse_fact` reads the fields. A field holding a tab or a line break, or a fact id that would start a
    comment line, is a LoadError naming it; each line is checked by a few C-level scans, not field by field."""
    line = "\t".join(fields)
    if line.count("\t") == 3 and "\n" not in line and "\r" not in line and not fields[0].lstrip().startswith("#"):
        return line
    for name, value in zip(("fact id", "subject", "relation", "object"), fields):
        if any(c in value for c in "\t\n\r"):
            raise LoadError(f"{name} {value!r} contains a tab or a line break")
    raise LoadError("a fact id starting with '#' would be read back as a comment line")


def parse_fact(fields: list[str]) -> tuple[str, str, Relation, str]:
    """The fact id, subject, relation and object of a line's four fields, or
    a LoadError saying which is invalid. A ``Comparative-X`` relation token
    maps to the Comparative relation and prepends ``X`` to the object.
    Whether a phrase has tokens is :meth:`KBBuilder.add`'s check."""
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
    return fact_id, subject, relation, obj
