"""Shared fixture builders for the test suite."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from qfs.corpus import (
    DocumentCollection,
    DocumentRecord,
    QuestionRecord,
    QuestionSet,
    SnippetSpan,
)
from qfs.errors import MalformedInput, QfsError

# Terminators, closers, every kind of whitespace str.isspace knows, and
# letters and digits that are upper case, lower case, or neither.
SPLIT_ALPHABET = list('.!?"\')]’” \t\n\x0b\x0c\r\x1c\x1f\x85\xa0\u2003\u2028\u3000') + [
    "Dr", "e", "g", "U", "S", "no", "ab", "Z", "x", "3", "²", "Σ", "ß", "İ", "a_b", "approx",
    "Refs", "words",
]
split_texts = st.lists(st.sampled_from(SPLIT_ALPHABET), max_size=60).map("".join)
# ASCII only, with abbreviations in mixed case: text the splitter reads without
# stand-ins and the block build tokenizes as bytes.
ascii_split_texts = st.lists(
    st.sampled_from([c for c in SPLIT_ALPHABET if c.isascii()] + ["dR", "ApProx", "Eqs", "N", "k"]),
    max_size=60,
).map("".join)


def load_each_corruption(path, data: bytes, load) -> int:
    """Load every truncation of ``data``, then ``data`` with each byte inverted.

    Each load must return or raise a QfsError whose message names the file;
    any other exception fails the calling test. Returns how many corrupt
    files loaded without error.
    """
    truncations = [data[:end] for end in range(len(data))]
    flips = [data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :] for i in range(len(data))]
    loaded = 0
    for variant in truncations + flips:
        path.write_bytes(variant)
        try:
            load(path)
        except QfsError as exc:
            assert str(path) in str(exc), f"{exc} does not name the file"
            continue
        loaded += 1
    return loaded


def assert_refused_within_the_file(path, load) -> None:
    """``load(path)`` raises MalformedInput naming the file, with a tracemalloc
    peak under 1 MiB: a length field that claims more bytes than the file
    has left is refused before a buffer of that length is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}: "):
            load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes for a {path.stat().st_size}-byte file"


def make_doc(doc_id: str, *sections: tuple[str, str]) -> DocumentRecord:
    return DocumentRecord(id=doc_id, sections=tuple(sections))


def make_question(
    qid: str,
    body: str = "what is it",
    qtype: str = "summary",
    gold_documents: tuple[str, ...] = (),
    gold_snippets: tuple[SnippetSpan, ...] = (),
    ideal_answers: tuple[str, ...] = (),
) -> QuestionRecord:
    return QuestionRecord(
        id=qid,
        body=body,
        qtype=qtype,
        gold_documents=gold_documents,
        gold_snippets=gold_snippets,
        ideal_answers=ideal_answers,
    )


def snippet_for(doc: DocumentRecord, section_id: str, begin: int, end: int) -> SnippetSpan:
    text = doc.section_text(section_id)
    assert text is not None
    return SnippetSpan(doc.id, section_id, begin, end, text[begin:end])


@pytest.fixture
def micro_collection() -> DocumentCollection:
    """Three tiny documents with distinct vocabulary."""
    return DocumentCollection(
        [
            make_doc(
                "d1",
                ("title", "Vaccines reduce severe influenza."),
                ("abstract", "Vaccines work well. Influenza spreads in winter. Hand washing helps."),
            ),
            make_doc(
                "d2",
                ("title", "Antibiotics treat bacterial infection."),
                ("abstract", "Antibiotics do not treat viral illness. Resistance is rising."),
            ),
            make_doc(
                "d3",
                ("title", "Sleep improves immunity."),
                ("abstract", "Regular sleep supports the immune system. Adults need seven hours."),
            ),
        ]
    )


def random_unit_vectors(rng: np.random.Generator, ids: list[str], dim: int) -> dict[str, np.ndarray]:
    """Non-negative unit vectors, so cosines stay non-negative."""
    out = {}
    for doc_id in ids:
        v = rng.uniform(0.1, 1.0, size=dim)
        out[doc_id] = (v / np.linalg.norm(v)).astype(np.float32)
    return out


def term_rows(index) -> dict[str, int]:
    """Each term's posting row: the vocabulary id of each word with postings."""
    counted = np.diff(index.indptr) > 0
    return {w: r for r, w in enumerate(index.sentences.vocabulary) if counted[r]}


def posting_impacts(index) -> np.ndarray:
    """Every posting's BM25 impact in CSR order, read row by row through
    ``InvertedIndex.term_impacts`` (a dense row is read at its postings)."""
    values = []
    for row in range(len(index.indptr) - 1):
        docs, impact = index.term_impacts(row)
        at = index.post_doc[index.indptr[row] : index.indptr[row + 1]]
        values.append(impact[at] if docs is None else impact)
    return np.concatenate([np.zeros(0), *values])
