"""The sentence store: documents split into sentences and tokenized once.

A :class:`SentenceTable` holds the sentences of a list of documents,
in document order and, within a document, in section and occurrence
order. Per sentence it keeps the document ordinal (the document's place
in that list), the index of its section in the document, and int32
begin/end character offsets into that section's text. The sentence's
tokens are ``token_ids[indptr[s]:indptr[s + 1]]`` (CSR form): ids into
``vocabulary``, which is sorted by string, so id order is term order.

Sentences follow :func:`qfs.textproc.sentence_bounds` and a sentence's
tokens are :func:`qfs.textproc.token_surfaces` of its text. The table is
built from blocks of whole documents cut by the one block rule,
:func:`doc_blocks`, which the index's postings build and load share: here
its unit is a byte of the collection's UTF-8 buffer, and a block starts at
each document holding a byte whose offset is a multiple of ``_BLOCK_CHARS``.
Block bounds change no column, as ids are remapped at the end. A block's sections,
joined by newlines with each section start a cut, are split as one text
(the join rule of :func:`qfs.textproc.sentence_bounds`) and, where ASCII,
tokenized as one through :data:`qfs.textproc.TOKEN_BYTES`, with numpy for
spans and counts.
The joined bytes are sliced from the collection's UTF-8 buffer, one
slice per run of consecutive sections, and are the text itself when the
block is all ASCII; a block with other sections is decoded. Those
sections are tokenized one sentence at a time, and their tokens joined
as UTF-8 bytes, so ids are found the same way for both.

A token's id is found by its ``uint64`` key (:func:`qfs.textproc.split_words`),
a block of keys at a time, in one sorted key table (sort-based
inversion): a word of up to 8 UTF-8 bytes is packed without a Python
string, a longer one is sliced out as bytes and keyed by its number in a
dict. Ids are numbered first-seen during the build and remapped at its
end to the words' ranks in the sorted vocabulary. Temporaries are block
sized; the columns grow in typed arrays that the table then views.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, count, islice
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .corpus import DocumentCollection
from .errors import MissingInput
from .textproc import (
    ASCII_STAND_INS, LONG_WORD_KEYS, TOKEN_BYTES, sentence_breaks, split_words, token_surfaces,
)

# Bytes of section text per block (:func:`doc_blocks`), counted in the
# collection's UTF-8 buffer with one separator byte per section. Each block
# pays fixed numpy calls and, when it holds a new word, one copy of the key
# table; its temporaries are a few bytes per character. On seed-2468
# abstracts-bm25 (2 CPUs, median of 3 in process) build_index took 1.32,
# 1.22, 1.18, 1.17 and 1.31 s at 2**15 to 2**19 characters, and the bench's
# peak_rss_mb read 134.6-136.0 MB at 2**15 to 2**18 alike: 2**17 is the
# smallest block within the noise of the fastest.
_BLOCK_CHARS = 1 << 17
# Per byte: 0 if an ASCII character that ``str.isspace`` accepts, else 1.
_SOLID_BYTES = bytes(0 if c < 128 and chr(c).isspace() else 1 for c in range(256))


class _WordIds:
    """First-seen ids of the words of one build, by their keys
    (:func:`qfs.textproc.split_words`), in one sorted key table."""

    def __init__(self) -> None:
        self.counter = count()
        # Sorted, ending in an all-ones key that no word has, so every search
        # lands inside the table.
        self.keys = np.array([np.iinfo(np.uint64).max], dtype=np.uint64)
        self.key_ids = np.array([-1], dtype=np.int32)
        self.long: defaultdict[bytes, int] = defaultdict(count().__next__)

    def __call__(self, words: bytes) -> tuple[np.ndarray, np.ndarray]:
        """Where each space-separated token of ``words`` starts, and its id."""
        begin, keys = split_words(words, self.long)
        unique, inverse = np.unique(keys, return_inverse=True)
        at = np.searchsorted(self.keys, unique)
        new = self.keys[at] != unique
        unique_ids = self.key_ids[at]
        if new.any():
            unique_ids[new] = np.fromiter(islice(self.counter, np.count_nonzero(new)), np.int32)
            self.keys = np.insert(self.keys, at[new], unique[new])
            self.key_ids = np.insert(self.key_ids, at[new], unique_ids[new])
        return begin, unique_ids[inverse]

    def by_word(self) -> dict[str, int]:
        """Every word seen, as ``str``, with its id."""
        # Long words' keys sort last, in the order ``self.long`` numbered them.
        short = self.keys[self.keys < LONG_WORD_KEYS].astype(">u8").view("S8").tolist()
        words = [word.decode() for word in chain(short, self.long)]  # S8 drops the padding
        return dict(zip(words, self.key_ids[:-1].tolist()))


def _block_sentences(collection: DocumentCollection, sections: np.ndarray,
                     ids: _WordIds) -> tuple[np.ndarray, ...]:
    """Per sentence of the collection's ``sections``, in order, its place in
    ``sections``, begin, end and token count; and all their token ids,
    numbered first-seen in ``ids``."""
    lengths = collection.lengths[sections]
    starts = np.zeros(len(sections) + 1, dtype=np.int64)
    np.cumsum(lengths + 1, out=starts[1:])
    raw = collection.joined(sections)
    # A section is ASCII when its bytes are as many as its characters.
    other_text = collection.starts[sections + 1] - collection.starts[sections] - 1 != lengths
    if other_text.any():
        joined = raw.decode("utf-8", "surrogatepass")
        data = joined.encode("ascii", ASCII_STAND_INS)  # one byte per character
    else:
        joined, data = raw.decode("ascii"), raw
    # A sentence is what a span between two cuts (text starts and breaks)
    # holds of runs of non-space characters, if anything. No cut falls
    # inside a run, so a repeated cut spans nothing.
    cuts = np.sort(np.concatenate([starts, np.array(sentence_breaks(joined), dtype=np.int64)]))
    solid = np.frombuffer(b"\0" + data.translate(_SOLID_BYTES) + b"\0", dtype=bool)
    run_edges = np.flatnonzero(solid[1:] != solid[:-1])
    run_begin, run_end = run_edges[::2], run_edges[1::2]
    first = np.searchsorted(run_end, cuts[:-1], "right")  # first run ending after the cut
    last = np.searchsorted(run_begin, cuts[1:]) - 1  # last run beginning before the next
    found = first <= last
    begin = np.maximum(run_begin[first[found]], cuts[:-1][found])
    end = np.minimum(run_end[last[found]], cuts[1:][found])
    text = np.searchsorted(starts, begin, "right") - 1
    # Other texts are blanked here and tokenized one sentence at a time.
    other = other_text[text]
    if other.any():
        blanked = np.frombuffer(data, dtype=np.uint8).copy()
        blanked[np.repeat(other_text, lengths + 1)[: len(data)]] = ord(" ")
        data = blanked.tobytes()
    token_starts, token_ids = ids(data.translate(TOKEN_BYTES))
    counts = np.diff(np.searchsorted(token_starts, end), prepend=0)
    more = []
    for s in np.flatnonzero(other).tolist():
        tokens = token_surfaces(joined[begin[s] : end[s]])
        counts[s] = len(tokens)
        more.extend(tokens)
    from_other = np.repeat(other, counts)
    merged = np.empty(len(from_other), dtype=np.int32)
    merged[~from_other] = token_ids
    if more:
        merged[from_other] = ids(" ".join(more).encode())[1]
    return text, begin - starts[text], end - starts[text], counts, merged


def doc_blocks(bounds: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Runs of whole documents, as (first, last + 1) places: document d spans
    units ``bounds[d]:bounds[d + 1]``, and a run starts at document 0 and at
    each document holding a unit whose offset is a multiple of ``size``."""
    cuts = np.searchsorted(bounds, np.arange(size, bounds[-1], size), "right") - 1
    cuts = np.unique(np.r_[0, cuts, len(bounds) - 1]).tolist()
    return list(zip(cuts, cuts[1:]))


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
    def build(cls, collection: DocumentCollection, doc_ids: Sequence[str]) -> "SentenceTable":
        """A table of the documents ``doc_ids`` of ``collection``, in that order."""
        for doc_id in doc_ids:
            if doc_id not in collection:
                raise MissingInput(f"document {doc_id!r} is not in the collection")
        ordinals = np.array([collection.ordinal[doc_id] for doc_id in doc_ids], dtype=np.int64)
        word_ids = _WordIds()
        doc, section, begin, end, length, tokens = (array("i") for _ in range(6))
        starts = collection.starts[collection.doc_ptr]  # each document's first section byte
        ends = np.cumsum(starts[ordinals + 1] - starts[ordinals])
        for run_first, run_last in doc_blocks(np.r_[0, ends], _BLOCK_CHARS):
            block = ordinals[run_first:run_last]
            first = collection.doc_ptr[block]
            counts = collection.doc_ptr[block + 1] - first
            sections = collection.sections_of(block)
            text_doc = np.repeat(np.arange(run_first, run_last), counts)
            text_section = sections - np.repeat(first, counts)
            text, *columns, token_ids = _block_sentences(collection, sections, word_ids)
            for out, values in zip((doc, section, begin, end, length),
                                   (text_doc[text], text_section[text], *columns)):
                out.frombytes(values.astype(np.int32).tobytes())
            tokens.frombytes(token_ids.tobytes())
        ids = word_ids.by_word()
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
        return cls(*columns, indptr, token_ids, vocabulary, len(ordinals))

    def word_ids(self, words: Iterable[str]) -> np.ndarray:
        """Vocabulary ids of the words that are in the vocabulary, in order."""
        found = []
        for word in words:
            i = bisect_left(self.vocabulary, word)
            if i < len(self.vocabulary) and self.vocabulary[i] == word:
                found.append(i)
        return np.array(found, dtype=np.int32)
