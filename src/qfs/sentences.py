"""The sentence store: documents split into sentences and tokenized once.

A :class:`SentenceTable` holds the sentences of a list of documents,
in document order and, within a document, in section and occurrence
order. Per sentence it keeps the document ordinal (the document's place
in that list), the index of its section in the document, and int32
begin/end character offsets into that section's text. The sentence's
tokens are ``token_ids[indptr[s]:indptr[s + 1]]`` (CSR form): ids into
``vocabulary``, which is sorted by string, so id order is term order.

Sentences follow :func:`qfs.textproc.sentence_bounds` and a sentence's
tokens are :func:`qfs.textproc.token_surfaces` of its text. Everything
outside the sentences is whitespace, so a section's tokens are its
sentences' tokens, concatenated.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .corpus import DocumentCollection
from .errors import UnknownDocument
from .textproc import sentence_bounds, sentence_tokens

# One sentence of a document: (section index, begin, end, tokens).
Row = tuple[int, int, int, list[str]]


def document_sentences(doc_id: str, collection: DocumentCollection) -> list[Row]:
    """Every sentence of a document, in occurrence order, with its tokens."""
    if doc_id not in collection:
        raise UnknownDocument(f"document {doc_id!r} is not in the collection")
    rows: list[Row] = []
    for i, (_, text) in enumerate(collection[doc_id].sections):
        bounds = sentence_bounds(text)
        rows.extend((i, b, e, words) for (b, e), words in zip(bounds, sentence_tokens(text, bounds)))
    return rows


class _FirstSeen(dict):
    """Word -> id, numbering new words as they come."""

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n


@dataclass(eq=False)
class SentenceTable:
    """Sentence rows with CSR token ids; immutable after build."""

    doc: np.ndarray
    section: np.ndarray
    begin: np.ndarray
    end: np.ndarray
    indptr: np.ndarray
    token_ids: np.ndarray
    vocabulary: list[str]
    n_docs: int
    # Document d owns sentences doc_ptr[d]:doc_ptr[d + 1].
    doc_ptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.doc_ptr = np.zeros(self.n_docs + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.doc, minlength=self.n_docs), out=self.doc_ptr[1:])

    def __len__(self) -> int:
        return len(self.doc)

    @classmethod
    def build(cls, documents: Iterable[Sequence[Row]]) -> "SentenceTable":
        """A table of each document's :func:`document_sentences`, in the order given.

        Every column grows in one typed array that the table then views,
        so building makes no collection-sized copy.
        """
        ids = _FirstSeen()
        doc, section, begin, end, length, tokens = (array("i") for _ in range(6))
        n_docs = 0
        for rows in documents:
            if rows:
                sections, begins, ends, words = zip(*rows)
                doc.extend([n_docs] * len(rows))
                section.extend(sections)
                begin.extend(begins)
                end.extend(ends)
                length.extend(map(len, words))
                tokens.extend(map(ids.__getitem__, chain.from_iterable(words)))
            n_docs += 1
        vocabulary = sorted(ids)
        rank = np.empty(len(ids), dtype=np.int32)
        rank[[ids[w] for w in vocabulary]] = np.arange(len(ids), dtype=np.int32)
        token_ids = np.frombuffer(tokens, dtype=np.int32)
        for start in range(0, len(token_ids), 1 << 16):  # first-seen ids -> sorted ids
            block = token_ids[start : start + (1 << 16)]
            block[:] = rank[block]
        indptr = np.zeros(len(length) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(length, dtype=np.int32), out=indptr[1:])
        columns = [np.frombuffer(col, dtype=np.int32) for col in (doc, section, begin, end)]
        return cls(*columns, indptr, token_ids, vocabulary, n_docs)

    def word_ids(self, words: Iterable[str]) -> np.ndarray:
        """Vocabulary ids of the words that are in the vocabulary, in order."""
        found = []
        for word in words:
            i = bisect_left(self.vocabulary, word)
            if i < len(self.vocabulary) and self.vocabulary[i] == word:
                found.append(i)
        return np.array(found, dtype=np.int32)
