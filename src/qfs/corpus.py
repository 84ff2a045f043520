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

Loaded containers are immutable by convention and safe for concurrent
reads; loading itself is single threaded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence, TypeVar

from .errors import MalformedInput
from . import fileio
from .fileio import (
    ID, ID_LIST, INTEGER, LIST, STRING, open_output, read_json, read_jsonl, write_json,
)

QUESTION_TYPES = frozenset({"summary", "factoid", "yesno", "list"})

EXCLUDE_ALL_JUDGED = "exclude_all_judged"
EXCLUDE_IRRELEVANT_ONLY = "exclude_irrelevant_only"

RELEVANT = "relevant"
IRRELEVANT = "irrelevant"


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
    """Ordered collection of questions with unique ids."""

    def __init__(self, questions: Sequence[QuestionRecord]):
        self.questions = list(questions)
        self._by_id: dict[str, QuestionRecord] = {}
        for q in self.questions:
            if q.id in self._by_id:
                raise MalformedInput(f"duplicate question id {q.id!r}")
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
    """Document records keyed by id, insertion ordered."""

    def __init__(self, docs: Sequence[DocumentRecord]):
        self.docs = list(docs)
        self._by_id: dict[str, DocumentRecord] = {}
        for d in self.docs:
            if d.id in self._by_id:
                raise MalformedInput(f"duplicate document id {d.id!r}")
            self._by_id[d.id] = d

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self) -> Iterator[DocumentRecord]:
        return iter(self.docs)

    def __getitem__(self, doc_id: str) -> DocumentRecord:
        return self._by_id[doc_id]

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id


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
    questions: dict[str, QuestionRecord] = {}
    for obj in payload:
        q = question_from_json(obj, str(path))
        if questions.setdefault(q.id, q) is not q:
            raise MalformedInput(f"{path}: duplicate question id {q.id!r}")
    return QuestionSet(list(questions.values()))


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
    """Read a JSONL document collection; section order is preserved."""
    docs: dict[str, DocumentRecord] = {}
    for where, obj in read_jsonl(path):
        doc = document_from_json(obj, where)
        if docs.setdefault(doc.id, doc) is not doc:
            raise MalformedInput(f"{where}: duplicate document id {doc.id!r}")
    return DocumentCollection(list(docs.values()))


def document_from_json(obj: dict, where: str = "document") -> DocumentRecord:
    doc_id = fileio.field(obj, "id", ID, where)
    sections: list[tuple[str, str]] = []
    seen = set()
    for sec in fileio.field(obj, "sections", LIST, where, ()):
        sid = fileio.field(sec, "id", ID, where, name="section id")
        if sid in seen:
            raise MalformedInput(f"{where}: duplicate section id {sid!r}")
        seen.add(sid)
        sections.append((sid, fileio.field(sec, "text", STRING, f"{where}: section {sid!r}", "")))
    return DocumentRecord(id=doc_id, sections=tuple(sections))


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
    """Per-question relevance judgments on documents and snippets."""

    _docs: dict[str, dict[str, str]] = field(default_factory=dict)
    _snippets: dict[str, dict[tuple[str, str, int, int], str]] = field(
        default_factory=dict
    )

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
                    store.add_document(qid, fileio.field(item, "ref", ID, where), polarity)
                elif kind == "snippet":
                    store.add_snippet(qid, snippet_from_json(item.get("ref"), where), polarity)
                else:
                    raise MalformedInput(f"{path}: bad item kind {kind!r}")
        return store

    def add_document(self, question_id: str, doc_id: str, polarity: str) -> None:
        judged = self._docs.setdefault(question_id, {})
        if judged.get(doc_id, polarity) != polarity:
            raise MalformedInput(
                f"conflicting feedback for document {doc_id!r} on {question_id!r}"
            )
        judged[doc_id] = polarity

    def add_snippet(self, question_id: str, span: SnippetSpan, polarity: str) -> None:
        judged = self._snippets.setdefault(question_id, {})
        key = span.key()
        if judged.get(key, polarity) != polarity:
            raise MalformedInput(
                f"conflicting feedback for snippet {key} on {question_id!r}"
            )
        judged[key] = polarity

    def judgments(self, question_id: str) -> tuple[dict, dict]:
        """The question's polarities by doc id and by snippet key; read only."""
        return self._docs.get(question_id, {}), self._snippets.get(question_id, {})


ItemT = TypeVar("ItemT", str, SnippetSpan)


def kept_polarities(mode: str) -> tuple[str | None, ...]:
    """The judgments a candidate may have and survive filter ``mode``; None is unjudged."""
    if mode not in (EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY):
        raise ValueError(f"unknown filter mode {mode!r}")
    return (None, RELEVANT) if mode == EXCLUDE_IRRELEVANT_ONLY else (None,)


def filter_judged(
    candidates: Sequence[ItemT],
    feedback: FeedbackStore,
    question_id: str,
    mode: str,
) -> list[ItemT]:
    """Drop judged candidates, preserving the order of survivors.

    ``exclude_all_judged`` removes every judged item (used before
    retrieval output); ``exclude_irrelevant_only`` removes only items
    judged irrelevant (used before answer generation). Items are doc-id
    strings or SnippetSpans; span matching is by exact offsets, so an
    overlapping-but-unequal span is not considered judged. An unjudged
    question gets a new list of all the candidates.
    """
    kept = kept_polarities(mode)
    docs, snippets = feedback.judgments(question_id)
    if not docs and not snippets:
        return list(candidates)
    return [
        item for item in candidates
        if (snippets.get(item.key()) if isinstance(item, SnippetSpan) else docs.get(item)) in kept
    ]
