"""Question sets, document collections, and relevance feedback.

File formats (all UTF-8):

* Question set: JSON array of objects ``{id, body, type, documents[],
  snippets[], ideal_answer[]}``. A top-level ``{"questions": [...]}``
  wrapper is also accepted. Snippet objects carry ``{document, section,
  offsetInBeginSection, offsetInEndSection, text}``, whose offsets are
  JSON integers. ``ideal_answer`` may be a single string or a list of
  strings. Unknown extra fields are ignored for forward compatibility.
* Documents: JSONL, one ``{id, sections: [{id, text}]}`` object per line.
* Feedback: JSON array of ``{question_id, items: [{kind, ref, polarity}]}``
  where kind is ``"document"`` (ref is a doc id) or ``"snippet"`` (ref is
  a snippet object without text) and polarity is ``"relevant"`` or
  ``"irrelevant"``.

In memory a :class:`DocumentCollection` is columns, with no Python
object per section:

* ``text``, one UTF-8 buffer of every section text in order, each
  followed by a newline (lone surrogates, which only an in-process
  record can hold, are encoded with ``surrogatepass``);
* ``ids``, the doc ids in insertion order, and ``ordinal``, id to place;
* ``doc_ptr``: document d owns sections ``doc_ptr[d]:doc_ptr[d + 1]``;
* per section: ``section_ids`` (interned), ``starts``, its int64 byte
  start (one more entry closes the last section), and ``lengths``, its
  int32 length in characters. A section is ASCII exactly when its byte
  and character lengths agree, and then offsets into it are byte offsets.

A :class:`DocumentRecord` is made only on demand: by
``collection[doc_id]``, by iteration and by
:func:`save_document_collection`. Indexing, answering and labelling
read the columns.

Loaded containers are immutable by convention and safe for concurrent
reads; loading itself is single threaded.
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import MalformedInput
from . import fileio
from .fileio import (
    ID, ID_LIST, INTEGER, LIST, STRING, STRING_LIST, open_output, read_json, read_jsonl, write_json,
)

QUESTION_TYPES = frozenset({"summary", "factoid", "yesno", "list"})

RELEVANT = "relevant"
IRRELEVANT = "irrelevant"

# A feedback filter mode: the judgments an item may have and stay (None: unjudged).
EXCLUDE_ALL_JUDGED = frozenset({None})
EXCLUDE_IRRELEVANT_ONLY = frozenset({None, RELEVANT})


@dataclass(frozen=True)
class SnippetSpan:
    """A character-offset-anchored passage within a document section."""

    doc_id: str
    section_id: str
    begin_char: int
    end_char: int
    text: str = ""

    def __post_init__(self) -> None:
        if not (0 <= self.begin_char < self.end_char):
            raise MalformedInput(
                f"snippet offsets [{self.begin_char}, {self.end_char}) invalid "
                f"for document {self.doc_id!r}"
            )

    def key(self) -> tuple[str, str, int, int]:
        """Identity used for feedback matching: exact offsets, text ignored."""
        return (self.doc_id, self.section_id, self.begin_char, self.end_char)


@dataclass(frozen=True)
class QuestionRecord:
    id: str
    body: str
    qtype: str
    gold_documents: tuple[str, ...] = ()
    gold_snippets: tuple[SnippetSpan, ...] = ()
    ideal_answers: tuple[str, ...] = ()


@dataclass(frozen=True)
class DocumentRecord:
    id: str
    sections: tuple[tuple[str, str], ...]  # ordered (section_id, text)

    def section_text(self, section_id: str) -> str | None:
        for sid, text in self.sections:
            if sid == section_id:
                return text
        return None


class QuestionSet:
    """Ordered collection of questions with unique ids; a repeated id is
    MalformedInput after ``where``."""

    def __init__(self, questions: Sequence[QuestionRecord], where: str = ""):
        self.questions = list(questions)
        self._by_id: dict[str, QuestionRecord] = {}
        for q in self.questions:
            if q.id in self._by_id:
                raise MalformedInput(f"{where}duplicate question id {q.id!r}")
            self._by_id[q.id] = q

    def __len__(self) -> int:
        return len(self.questions)

    def __iter__(self) -> Iterator[QuestionRecord]:
        return iter(self.questions)

    def __getitem__(self, question_id: str) -> QuestionRecord:
        return self._by_id[question_id]

    def __contains__(self, question_id: str) -> bool:
        return question_id in self._by_id


class DocumentCollection:
    """Documents keyed by id, insertion ordered, held as columns (module docstring)."""

    def __init__(self, docs: Iterable[DocumentRecord] = ()) -> None:
        self._fill(("", doc.id, doc.sections) for doc in docs)

    def _fill(self, entries: Iterable[tuple[str, str, Sequence[tuple[str, str]]]]) -> None:
        """The columns of ``(where, doc id, sections)`` entries; a repeated id is
        MalformedInput after ``where``."""
        ids: list[str] = []
        ordinal: dict[str, int] = {}
        section_ids: list[str] = []
        # Grown in place: a bytes copy at the end, or a list of chunks joined,
        # leaves a freed hole as big as the text in the heap.
        text = bytearray()
        starts, lengths, doc_ptr = array("q", [0]), array("i"), array("q", [0])
        for where, doc_id, sections in entries:
            if ordinal.setdefault(doc_id, len(ids)) != len(ids):
                raise MalformedInput(f"{where}duplicate document id {doc_id!r}")
            ids.append(doc_id)
            for section_id, section_text in sections:
                section_ids.append(sys.intern(section_id))
                text += section_text.encode("utf-8", "surrogatepass")
                text += b"\n"
                starts.append(len(text))
                lengths.append(len(section_text))
            doc_ptr.append(len(section_ids))
        self.ids, self.ordinal, self.section_ids, self.text = ids, ordinal, section_ids, text
        # numpy views for whole-column work; the arrays read one value faster.
        self._starts, self._lengths, self._doc_ptr = starts, lengths, doc_ptr
        self.starts, self.lengths, self.doc_ptr = (
            np.frombuffer(column, dtype=column.typecode) for column in (starts, lengths, doc_ptr)
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[DocumentRecord]:
        return map(self._record, range(len(self.ids)))

    def __getitem__(self, doc_id: str) -> DocumentRecord:
        return self._record(self.ordinal[doc_id])

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.ordinal

    def _record(self, d: int) -> DocumentRecord:
        return DocumentRecord(self.ids[d], tuple(
            (self.section_ids[s], self.chars(s, 0, self._lengths[s]))
            for s in range(self._doc_ptr[d], self._doc_ptr[d + 1])
        ))

    def find_section(self, d: int, section_id: str) -> int | None:
        """The number of document ``d``'s first section named ``section_id``, if any."""
        try:
            return self.section_ids.index(section_id, self._doc_ptr[d], self._doc_ptr[d + 1])
        except ValueError:
            return None

    def chars(self, s: int, begin: int, end: int) -> str:
        """Characters ``begin:end`` of section ``s``, clipped as a slice is; offsets are >= 0."""
        start, stop = self._starts[s], self._starts[s + 1] - 1
        if stop - start == self._lengths[s]:  # ASCII: character offsets are byte offsets
            # A begin past the end gives an empty slice, as the end is clipped.
            return self.text[start + begin : stop if start + end > stop else start + end].decode()
        return self.text[start:stop].decode("utf-8", "surrogatepass")[begin:end]

    def sections_of(self, ordinals: np.ndarray) -> np.ndarray:
        """The section numbers of the documents ``ordinals``, in order."""
        first = self.doc_ptr[ordinals]
        counts = self.doc_ptr[ordinals + 1] - first
        return np.arange(counts.sum()) + np.repeat(first - (np.cumsum(counts) - counts), counts)

    def joined(self, sections: np.ndarray) -> bytes:
        """The UTF-8 bytes of ``sections``, joined by newlines: one slice of
        ``text`` per run of consecutive section numbers."""
        if not len(sections):
            return b""
        cut = np.flatnonzero(np.diff(sections) != 1) + 1
        first, last = sections[np.r_[0, cut]], sections[np.r_[cut - 1, len(sections) - 1]]
        spans = zip(self.starts[first].tolist(), (self.starts[last + 1] - 1).tolist())
        return b"\n".join([self.text[a:e] for a, e in spans])

    def crc32(self, ordinals: Sequence[int]) -> np.ndarray:
        """Per document, the CRC32 of its bytes in ``text``: its section texts
        in order, each followed by a newline."""
        starts, doc_ptr, view = self._starts, self._doc_ptr, memoryview(self.text)
        return np.array([zlib.crc32(view[starts[doc_ptr[d]] : starts[doc_ptr[d + 1]]])
                         for d in ordinals], dtype=np.uint32)


def snippet_from_json(obj: dict, where: str) -> SnippetSpan:
    """The one snippet-object reader: questions, feedback and submissions."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"{where}: snippet is not an object")
    what, bad = f"{where}: snippet", f"{where}: bad snippet object"
    # A snippet without a document is a bad snippet object, as it is without an offset.
    doc_id = fileio.field(obj, "document", ID, what if "document" in obj else bad)
    section = fileio.field(obj, "section", STRING, what, "")
    text = fileio.field(obj, "text", STRING, what, "")
    begin = fileio.field(obj, "offsetInBeginSection", INTEGER, bad)
    end = fileio.field(obj, "offsetInEndSection", INTEGER, bad)
    try:
        return SnippetSpan(doc_id, section, begin, end, text)
    except MalformedInput as exc:
        raise MalformedInput(f"{bad}: {exc}") from exc


def snippet_to_json(span: SnippetSpan) -> dict:
    """The one snippet-object writer; inverse of :func:`snippet_from_json`."""
    return {
        "document": span.doc_id,
        "section": span.section_id,
        "offsetInBeginSection": span.begin_char,
        "offsetInEndSection": span.end_char,
        "text": span.text,
    }


def load_question_set(path: str | Path) -> QuestionSet:
    """Read and validate a question set file; order is preserved."""
    payload = read_json(path)
    if isinstance(payload, dict) and "questions" in payload:
        payload = payload["questions"]
    if not isinstance(payload, list):
        raise MalformedInput(f"{path}: expected a JSON array of questions")
    return QuestionSet([question_from_json(obj, str(path)) for obj in payload], f"{path}: ")


def question_from_json(obj: dict, where: str) -> QuestionRecord:
    """One question object of the file ``where``; every error names the file."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"{where}: question entry is not an object")
    if not obj.get("id"):
        raise MalformedInput(f"{where}: question with empty or missing id")
    qid = fileio.field(obj, "id", ID, where)
    where = f"{where}: question {qid!r}"
    qtype = fileio.field(obj, "type", STRING, where, None)
    if qtype not in QUESTION_TYPES:
        raise MalformedInput(f"{where} has unknown type {qtype!r}")
    ideal = obj.get("ideal_answer", [])
    if isinstance(ideal, str):
        ideal = [ideal]
    if not isinstance(ideal, list) or not all(isinstance(x, str) for x in ideal):
        raise MalformedInput(f"{where}: ideal_answer must be text or list")
    fileio.check(ideal, STRING_LIST, where, "ideal_answer")
    documents, snippets = obj.get("documents", []), obj.get("snippets", [])
    if not isinstance(documents, list) or not isinstance(snippets, list):
        raise MalformedInput(f"{where}: documents and snippets must be lists")
    return QuestionRecord(
        qid, fileio.field(obj, "body", STRING, where, ""), qtype,
        tuple(fileio.field(obj, "documents", ID_LIST, where, ())),
        tuple(snippet_from_json(x, where) for x in snippets), tuple(ideal),
    )


def question_set_to_json(questions: QuestionSet) -> list[dict]:
    return [
        {
            "id": q.id,
            "body": q.body,
            "type": q.qtype,
            "documents": list(q.gold_documents),
            "snippets": [snippet_to_json(s) for s in q.gold_snippets],
            "ideal_answer": list(q.ideal_answers),
        }
        for q in questions
    ]


def save_question_set(questions: QuestionSet, path: str | Path) -> None:
    write_json(path, question_set_to_json(questions))


def load_document_collection(path: str | Path) -> DocumentCollection:
    """Read a JSONL document collection into columns in one pass; section
    order is preserved."""
    collection = DocumentCollection()
    collection._fill((f"{where}: ", *document_from_json(obj, where))
                     for where, obj in read_jsonl(path))
    return collection


def document_from_json(obj: dict, where: str = "document") -> tuple[str, list[tuple[str, str]]]:
    """A document's id and its (section id, text) pairs, every field checked."""
    doc_id = fileio.field(obj, "id", ID, where)
    sections: list[tuple[str, str]] = []
    seen = set()
    for sec in fileio.field(obj, "sections", LIST, where, ()):
        sid = fileio.field(sec, "id", ID, where, name="section id")
        if sid in seen:
            raise MalformedInput(f"{where}: duplicate section id {sid!r}")
        seen.add(sid)
        sections.append((sid, fileio.field(sec, "text", STRING, f"{where}: section {sid!r}", "")))
    return doc_id, sections


def save_document_collection(collection: DocumentCollection, path: str | Path) -> None:
    with open_output(path) as fh:
        for doc in collection:
            obj = {
                "id": doc.id,
                "sections": [{"id": sid, "text": text} for sid, text in doc.sections],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


@dataclass
class FeedbackStore:
    """Per question, one map from each judged item's key to its polarity: a
    document's key is its id, a snippet's its :meth:`SnippetSpan.key` (exact
    offsets, text ignored). An item stays under a filter mode exactly when
    ``judgments(question_id).get(key) in mode``."""

    _judged: dict[str, dict[str | tuple[str, str, int, int], str]] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "FeedbackStore":
        return cls()

    @classmethod
    def load(cls, path: str | Path) -> "FeedbackStore":
        payload = read_json(path)
        if not isinstance(payload, list):
            raise MalformedInput(f"{path}: expected a JSON array")
        store = cls()
        for entry in payload:
            qid = fileio.field(entry, "question_id", ID, str(path))
            where = f"{path}: feedback for {qid!r}"
            for item in fileio.field(entry, "items", LIST, where, ()):
                polarity = fileio.field(item, "polarity", STRING, where, None)
                kind = fileio.field(item, "kind", STRING, where, None)
                if polarity not in (RELEVANT, IRRELEVANT):
                    raise MalformedInput(f"{path}: bad polarity {polarity!r} for question {qid!r}")
                if kind == "document":
                    key = fileio.field(item, "ref", ID, where)
                elif kind == "snippet":
                    key = snippet_from_json(item.get("ref"), where).key()
                else:
                    raise MalformedInput(f"{path}: bad item kind {kind!r}")
                store.add(qid, key, polarity, f"{path}: ")
        return store

    def add(self, question_id: str, key: str | tuple[str, str, int, int], polarity: str,
            where: str = "") -> None:
        """Judge the item ``key``; judging it again with the other polarity is
        MalformedInput, its message prefixed by ``where``."""
        judged = self._judged.setdefault(question_id, {})
        if judged.setdefault(key, polarity) != polarity:
            what = f"snippet {key}" if isinstance(key, tuple) else f"document {key!r}"
            raise MalformedInput(f"{where}conflicting feedback for {what} on {question_id!r}")

    def judgments(self, question_id: str) -> dict:
        """The question's polarities by item key; read only."""
        return self._judged.get(question_id, {})


def filter_judged(candidates: Sequence[str | SnippetSpan], feedback: FeedbackStore,
                  question_id: str, mode: frozenset) -> list:
    """The candidates, doc ids or SnippetSpans, whose judgment is in ``mode``
    (:class:`FeedbackStore`), in order, as a new list.

    :data:`EXCLUDE_ALL_JUDGED` keeps only unjudged items (what retrieval and
    snippets return); :data:`EXCLUDE_IRRELEVANT_ONLY` also keeps items judged
    relevant (what answers are scored from).
    """
    judged = feedback.judgments(question_id)
    return [item for item in candidates
            if judged.get(item.key() if isinstance(item, SnippetSpan) else item) in mode]
