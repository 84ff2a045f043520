"""Question sets, document collections, and relevance feedback.

File formats (all UTF-8):

* Question set: JSON array of objects ``{id, body, type, documents[],
  snippets[], ideal_answer[]}``. A top-level ``{"questions": [...]}``
  wrapper is also accepted. Snippet objects carry ``{document, section,
  offsetInBeginSection, offsetInEndSection, text}``. ``ideal_answer``
  may be a single string or a list of strings. Unknown extra fields are
  ignored for forward compatibility.
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

from .errors import DuplicateId, MalformedInput, UnknownQuestionType
from .fileio import read_json, read_jsonl, write_json

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
                raise DuplicateId(f"duplicate question id {q.id!r}")
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
                raise DuplicateId(f"duplicate document id {d.id!r}")
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
    try:
        return SnippetSpan(
            doc_id=str(obj["document"]),
            section_id=str(obj.get("section", "")),
            begin_char=int(obj["offsetInBeginSection"]),
            end_char=int(obj["offsetInEndSection"]),
            text=str(obj.get("text", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad snippet object in {where}: {exc}") from exc


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
    questions = [question_from_json(obj) for obj in payload]
    return QuestionSet(questions)


def question_from_json(obj: dict) -> QuestionRecord:
    if not isinstance(obj, dict):
        raise MalformedInput("question entry is not an object")
    qid = str(obj.get("id", ""))
    if not qid:
        raise MalformedInput("question with empty or missing id")
    qtype = obj.get("type")
    if qtype not in QUESTION_TYPES:
        raise UnknownQuestionType(f"question {qid!r} has unknown type {qtype!r}")
    ideal = obj.get("ideal_answer", [])
    if isinstance(ideal, str):
        ideal = [ideal]
    if not isinstance(ideal, list) or not all(isinstance(x, str) for x in ideal):
        raise MalformedInput(f"question {qid!r}: ideal_answer must be text or list")
    snippets = tuple(
        snippet_from_json(s, f"question {qid!r}") for s in obj.get("snippets", [])
    )
    documents = obj.get("documents", [])
    if not isinstance(documents, list):
        raise MalformedInput(f"question {qid!r}: documents must be a list")
    return QuestionRecord(
        id=qid,
        body=str(obj.get("body", "")),
        qtype=qtype,
        gold_documents=tuple(str(d) for d in documents),
        gold_snippets=snippets,
        ideal_answers=tuple(ideal),
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
    return DocumentCollection(
        [document_from_json(obj, where) for where, obj in read_jsonl(path)]
    )


def document_from_json(obj: dict, where: str = "document") -> DocumentRecord:
    if not isinstance(obj, dict) or "id" not in obj:
        raise MalformedInput(f"{where}: document object must carry an id")
    doc_id = str(obj["id"])
    sections: list[tuple[str, str]] = []
    seen = set()
    for sec in obj.get("sections", []):
        if not isinstance(sec, dict) or "id" not in sec:
            raise MalformedInput(f"{where}: section must carry an id")
        sid = str(sec["id"])
        if sid in seen:
            raise DuplicateId(f"{where}: duplicate section id {sid!r}")
        seen.add(sid)
        sections.append((sid, str(sec.get("text", ""))))
    return DocumentRecord(id=doc_id, sections=tuple(sections))


def save_document_collection(collection: DocumentCollection, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
            if not isinstance(entry, dict) or not isinstance(entry.get("items", []), list):
                raise MalformedInput(f"{path}: feedback entry must be an object with items")
            qid = str(entry.get("question_id", ""))
            if not qid:
                raise MalformedInput(f"{path}: feedback entry without question_id")
            for item in entry.get("items", []):
                if not isinstance(item, dict) or "ref" not in item:
                    raise MalformedInput(f"{path}: feedback item for {qid!r} without a ref")
                polarity = item.get("polarity")
                if polarity not in (RELEVANT, IRRELEVANT):
                    raise MalformedInput(
                        f"{path}: bad polarity {polarity!r} for question {qid!r}"
                    )
                kind = item.get("kind")
                if kind == "document":
                    store.add_document(qid, str(item["ref"]), polarity)
                elif kind == "snippet":
                    span = snippet_from_json(item["ref"], f"feedback for {qid!r}")
                    store.add_snippet(qid, span, polarity)
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

    def document_polarity(self, question_id: str, doc_id: str) -> str | None:
        return self._docs.get(question_id, {}).get(doc_id)

    def snippet_polarity(self, question_id: str, span: SnippetSpan) -> str | None:
        return self._snippets.get(question_id, {}).get(span.key())


ItemT = TypeVar("ItemT", str, SnippetSpan)


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
    overlapping-but-unequal span is not considered judged.
    """
    if mode not in (EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY):
        raise ValueError(f"unknown filter mode {mode!r}")
    survivors: list[ItemT] = []
    for item in candidates:
        if isinstance(item, SnippetSpan):
            polarity = feedback.snippet_polarity(question_id, item)
        else:
            polarity = feedback.document_polarity(question_id, item)
        if polarity is None:
            survivors.append(item)
        elif mode == EXCLUDE_IRRELEVANT_ONLY and polarity == RELEVANT:
            survivors.append(item)
    return survivors
