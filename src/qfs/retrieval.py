"""Inverted-index BM25 search, dense cosine scoring, and interpolation.

Document relevance for hybrid (NIR) search is ``lambda * bm25_norm +
(1 - lambda) * dense_cos`` where BM25 scores are min-max normalized per
query over the candidate pool and dense cosines are clamped at 0 from
below. :func:`bm25_top` and :func:`nir_top` take the query's vocabulary
ids and rank index ordinals, as ``(ordinals, scores)`` arrays; the
id-level :func:`bm25_search` and :func:`nir_search` look up the query's
tokens and return (doc_id, score) pairs. All ranked output is strictly
sorted under (-score, ordinal), which is (-score, doc_id), so searches
are deterministic.

A document matches a BM25 query exactly when its score is > 0: it sums
impacts ``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))``,
each > 0 as ``idf = ln(1 + (N - df + 0.5) / (df + 0.5)) > 0`` (``df <= N``),
``tf >= 1``, ``k1 + 1 > 0`` and the denominator is at least ``tf``;
``k1 <= MAX_K1`` keeps every factor finite. Unmatched documents score 0.

The index is compressed sparse rows: word ``w`` of the vocabulary owns
postings ``indptr[w]:indptr[w + 1]`` (none for a stopword), whose BM25
impacts are computed from the caller's ``k1`` and ``b`` when an index is
built or loaded: a snapshot holds term frequencies, not impacts, k1, b
or document lengths (each its postings' tf sum). A term in at least
half the documents (``2 * df >= n_docs``) is *dense*: its impacts are
one float64 row over all documents (0.0 where it is absent), at most
``(n_docs - df) * 8`` bytes more than per-posting ones.
Documents are numbered in ascending id order, so ordinal order is the
tie order. An index also holds the collection's
:class:`~qfs.sentences.SentenceTable` under the same ordinals: every
document is split and tokenized once, at build time, and the postings
are counted from the table's token ids.

Binary formats (little-endian):

* DVEC dense vectors: magic ``DVEC``, u32 version=1, u32 dim, then
  records of u32 id-length, UTF-8 id bytes, dim x f32.
* QIDX index snapshot: magic ``QIDX``, u32 version=5, u32 n_docs,
  u64 n_postings, u32 n_words, u32 n_sections, u32 n_sentences,
  u64 n_tokens; then u32 byte lengths of the doc ids and of the
  vocabulary words, followed by their UTF-8 bytes (both lists strictly
  ascending); then the raw arrays i64 indptr[n_words + 1],
  i32 post_doc[n_postings], i32 post_tf[n_postings],
  i32 section_count[n_docs], i32 section_len[n_sections] (each
  document's section text lengths, in characters), u32 doc_crc[n_docs]
  (the CRC32 of each document's bytes in the collection's UTF-8 buffer:
  its section texts in section order, each followed by a newline; a
  loaded collection holds no lone surrogate, and one built in process
  encodes its lone surrogates with ``surrogatepass``), the sentence
  table i32 doc, section, begin and end[n_sentences],
  i64 indptr[n_sentences + 1] and i32 token_ids[n_tokens]; then u32
  CRC32 of all preceding bytes. Versions 1 to 4 are rejected: an index
  is a derived file, rebuilt with ``qfs index``.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .corpus import DocumentCollection
from .embeddings import DenseStore
from .errors import DimensionMismatch, EmptyInput, MalformedInput
from .fileio import BinaryReader, open_output
from .sentences import SentenceTable, doc_blocks, term_pairs
from .textproc import run_edges

logger = logging.getLogger(__name__)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
MAX_K1 = 1e6  # far above any useful k1, and no impact overflows to inf or NaN

_DVEC_MAGIC = b"DVEC"
_QIDX_MAGIC = b"QIDX"
_QIDX_VERSION = 5
_QIDX_FIELDS = "<IQIIIQ"  # the counts that follow the magic and version
_QIDX_HEADER = struct.Struct("<4sI" + _QIDX_FIELDS[1:])


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus their BM25 impacts under ``k1`` and ``b``; immutable.

    Row ``w`` holds the postings of word ``w`` of ``sentences.vocabulary``;
    a stopword's row is empty. ``section_counts``, ``section_lengths`` and
    ``doc_crc`` record the text the index was built from, for
    :func:`check_collection`.
    """

    doc_ids: list[str]
    doc_len: np.ndarray
    indptr: np.ndarray
    post_doc: np.ndarray
    post_tf: np.ndarray
    sentences: SentenceTable
    # The text the sentence offsets point into: per document its number
    # of sections, and per section its length in characters.
    section_counts: np.ndarray
    section_lengths: np.ndarray
    doc_crc: np.ndarray  # per document, the CRC32 of its bytes (_text_columns)
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    n_docs: int = field(init=False)
    avgdl: float = field(init=False)
    # Impact rows of the dense terms (ascending rows); the other terms' impacts
    # in posting order, less the dense postings skipped before each dense row.
    dense_terms: list[int] = field(init=False, repr=False)
    dense: np.ndarray = field(init=False, repr=False)
    impact: np.ndarray = field(init=False, repr=False)
    skipped: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n_docs = n_docs = len(self.doc_ids)
        self.avgdl = int(self.doc_len.sum()) / n_docs
        df = np.diff(self.indptr)
        # idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)) in this
        # operand order, with math.log (np.log may differ in the last bit).
        distinct, of_df = np.unique(df, return_inverse=True)
        idf = np.array([math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5))
                        for d in distinct.tolist()])[of_df]
        # avgdl is 0 only when every document is empty, with no postings.
        norm = self.k1 * (1.0 - self.b + self.b * self.doc_len / (self.avgdl or 1.0))
        is_dense = 2 * df >= n_docs
        self.dense_terms = dense = np.flatnonzero(is_dense).tolist()
        self.skipped = skipped = [0, *np.cumsum(df[is_dense]).tolist()]
        self.dense = np.zeros((len(dense), n_docs))
        self.impact = np.repeat(idf, np.where(is_dense, 0, df))  # idf, scaled below
        # Postings bounds[2j]:bounds[2j + 1] precede dense row j; the next run is its.
        spans = np.column_stack((self.indptr[:-1][is_dense], self.indptr[1:][is_dense]))
        bounds = [0, *spans.ravel().tolist(), int(self.indptr[-1])]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            j, in_dense = divmod(i, 2)
            for start in range(lo, hi, 1 << 16):  # bounded temporaries
                at = slice(start, min(start + (1 << 16), hi))
                values = (np.full(at.stop - start, idf[dense[j]]) if in_dense
                          else self.impact[start - skipped[j] : at.stop - skipped[j]])
                values *= self.post_tf[at]
                values *= self.k1 + 1.0
                values /= norm[self.post_doc[at]] + self.post_tf[at]
                if in_dense:
                    self.dense[j, self.post_doc[at]] = values

    def term_impacts(self, row: int) -> tuple[np.ndarray | None, np.ndarray]:
        """Word ``row``'s impacts: ``(None, its impact per document)`` if it is
        dense, else ``(its posting docs, their impacts)``."""
        j = bisect_left(self.dense_terms, row)
        if j < len(self.dense_terms) and self.dense_terms[j] == row:
            return None, self.dense[j]
        lo, hi = self.indptr[row : row + 2].tolist()
        return self.post_doc[lo:hi], self.impact[lo - self.skipped[j] : hi - self.skipped[j]]


RankedList = list[tuple[str, float]]


def check_bm25(k1: float, b: float) -> None:
    """ValueError unless 0 <= k1 <= MAX_K1 and 0 <= b <= 1 (NaN fails both)."""
    if not (0.0 <= k1 <= MAX_K1 and 0.0 <= b <= 1.0):
        raise ValueError(f"BM25 needs 0 <= k1 <= {MAX_K1:g} and 0 <= b <= 1, got k1={k1}, b={b}")


def build_index(
    docs: DocumentCollection,
    stopwords: frozenset[str] | None = None,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> InvertedIndex:
    """Index a collection, concatenating all sections of each document.

    The sentence table is built a block of documents at a time and the
    postings are counted from its token ids in blocks of about 2**16
    tokens, so beyond the index every temporary is block sized.
    """
    check_bm25(k1, b)
    if len(docs) == 0:
        raise EmptyInput("cannot index an empty collection")
    stop = stopwords or frozenset()
    doc_ids = sorted(docs.ids)
    table = SentenceTable.build(docs, doc_ids)
    counted = np.array([word not in stop for word in table.vocabulary], dtype=bool)
    return InvertedIndex(
        doc_ids, *_postings(table, counted),
        table, *_text_columns(docs, [docs.ordinal[doc_id] for doc_id in doc_ids]), k1, b,
    )


def _text_columns(collection: DocumentCollection, ordinals: list[int]) -> tuple[np.ndarray, ...]:
    """Per document of ``ordinals`` its section count, per section its length
    in characters, and per document the CRC32 of its bytes
    (:meth:`~qfs.corpus.DocumentCollection.crc32`); all read from the collection's columns."""
    at = np.array(ordinals, dtype=np.int64)
    counts = collection.doc_ptr[at + 1] - collection.doc_ptr[at]
    return (counts.astype(np.int32), collection.lengths[collection.sections_of(at)],
            collection.crc32(ordinals))


def _token_docs(bounds: np.ndarray, first: int, last: int) -> np.ndarray:
    """For each token of documents first..last-1, its int32 document ordinal minus ``first``."""
    return np.repeat(np.arange(last - first, dtype=np.int32), np.diff(bounds[first : last + 1]))


def _postings(table: SentenceTable, counted: np.ndarray):
    """doc_len, indptr, post_doc and post_tf of the table's tokens of the
    ``counted`` words (a row per word, empty for the others).

    Documents are taken in blocks of about 2**16 tokens, so temporaries
    stay block sized. A first pass counts each word's documents; the
    second fills every row in document order, one block at a time.
    """
    n_words = len(counted)
    bounds = table.indptr[table.doc_ptr]
    blocks = doc_blocks(bounds, 1 << 16)

    def pairs(first: int, last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique (word, doc) pairs of docs first..last-1 by word then doc, and tfs."""
        words = table.token_ids[bounds[first] : bounds[last]]
        term = counted[words]
        rows, docs, tf = term_pairs(_token_docs(bounds, first, last)[term], last - first,
                                    words[term])
        return rows, docs + first, tf

    df = np.zeros(n_words, dtype=np.int64)
    for first, last in blocks:
        df += np.bincount(pairs(first, last)[0], minlength=n_words)
    indptr = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(df, out=indptr[1:])
    post_doc = np.empty(indptr[-1], dtype=np.int32)
    post_tf = np.empty(indptr[-1], dtype=np.int32)
    doc_len = np.zeros(table.n_docs, dtype=np.int32)
    cursor = indptr[:-1].copy()
    for first, last in blocks:
        rows, docs, tf = pairs(first, last)
        edges = run_edges(rows)  # one run per word
        starts, sizes = edges[:-1], edges[1:] - edges[:-1]
        at = cursor[rows] + np.arange(len(rows)) - np.repeat(starts, sizes)
        post_doc[at] = docs
        post_tf[at] = tf
        cursor[rows[starts]] += sizes
        doc_len[first:last] = np.bincount(docs - first, weights=tf, minlength=last - first)
    return doc_len, indptr, post_doc, post_tf


def _bm25(index: InvertedIndex, words: np.ndarray) -> np.ndarray:
    """BM25 score of every document for the query's vocabulary ids ``words``;
    the matched documents are those scoring > 0.

    One unique query term at a time, in query order: a dense row by ``+=``,
    another term's impacts at its postings by ``np.add.at`` (unbuffered). So
    each document's impacts are added in query order, as a loop over the
    postings adds them: a dense row's 0.0 leaves a score (>= 0) unchanged.
    """
    scores = np.zeros(index.n_docs)
    for row in dict.fromkeys(words.tolist()):
        docs, impact = index.term_impacts(row)
        if docs is None:
            scores += impact
        else:
            np.add.at(scores, docs, impact)
    return scores


def _top_k(scores: np.ndarray, k: int, floor: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of the first k scores above ``floor``, under (-score, position).

    One partition finds the k-th best score. Only the scores at or above
    it are sorted (all that tie with it, for the position tie-break), or
    all those above the floor when the k-th best is not.
    """
    kth = floor
    if 0 < k < len(scores):
        part = scores.copy()
        part.partition(len(scores) - k)
        kth = part[len(scores) - k]
    keep = (scores >= kth if kth > floor else scores > floor).nonzero()[0]
    top = keep[np.lexsort((keep, -scores[keep]))[:k]]
    return top, scores[top]


def _ranked(index: InvertedIndex, ordinals: np.ndarray, scores: np.ndarray) -> RankedList:
    return [(index.doc_ids[i], s) for i, s in zip(ordinals.tolist(), scores.tolist())]


def bm25_top(index: InvertedIndex, words: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Ordinals and scores of the top-k documents by BM25 for the vocabulary
    ids ``words``; ties broken by ascending ordinal."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _top_k(_bm25(index, words), k, floor=0.0)


def bm25_search(index: InvertedIndex, query: Sequence[str], k: int) -> RankedList:
    """Top-k documents by BM25 (:func:`bm25_top`); ties broken by ascending doc id."""
    return _ranked(index, *bm25_top(index, index.sentences.word_ids(query), k))


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Scale scores to [0, 1]; an all-equal array maps to all 1.0."""
    if not len(scores):
        raise EmptyInput("cannot normalize an empty score list")
    lo, hi = np.minimum.reduce(scores), np.maximum.reduce(scores)
    if hi == lo:
        return np.ones(len(scores))
    return (scores - lo) / (hi - lo)


def interpolate(bm25_norm: float | np.ndarray, dense_cos: float | np.ndarray, lam: float):
    """lambda-weighted mix of normalized BM25 and dense cosine scores (or arrays)."""
    if not 0.0 <= lam <= 1.0:
        raise MalformedInput(f"lambda must be in [0, 1], got {lam}")
    return lam * bm25_norm + (1.0 - lam) * dense_cos


def load_dense_store(path: str | Path) -> DenseStore:
    """Read a DVEC file; vectors are renormalized to unit norm on load.

    A repeated id warns, and its last vector takes the id's first position.
    """
    with BinaryReader(path) as reader:
        version = reader.version(_DVEC_MAGIC)
        if version != 1:
            raise MalformedInput(f"{path}: unsupported DVEC version {version}")
        dim = reader.u32("header")
        if dim < 1:
            raise MalformedInput(f"{path}: dimension must be positive")
        vectors: dict[str, np.ndarray] = {}
        while reader.left:
            doc_id = reader.text("record id")
            if doc_id in vectors:
                logger.warning("duplicate vector id %r; last occurrence wins", doc_id)
            vectors[doc_id] = reader.array("<f4", dim, f"vector for {doc_id!r}")
    if not vectors:
        raise MalformedInput(f"{path}: DVEC file holds no vectors")
    return DenseStore.from_vectors(vectors)


def save_dense_store(store: DenseStore, path: str | Path) -> None:
    """Write a DVEC file; round-trip partner of :func:`load_dense_store`."""
    with open_output(path, "wb") as fh:
        fh.write(_DVEC_MAGIC)
        fh.write(struct.pack("<II", 1, store.dim))
        for doc_id, vec in zip(store.ids, store.matrix):
            raw = doc_id.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def _check_query_vector(dense: DenseStore, query_vector: np.ndarray) -> np.ndarray:
    vec = np.asarray(query_vector, dtype=np.float64)
    if vec.shape != (dense.dim,):
        raise DimensionMismatch(
            f"query vector has shape {vec.shape}, store dim is {dense.dim}"
        )
    norm = math.sqrt(vec.dot(vec))  # np.linalg.norm's value for a real vector
    if norm == 0.0 or not math.isfinite(norm):
        raise MalformedInput("query vector cannot be normalized")
    return vec / norm


def nir_top(index: InvertedIndex, dense: DenseStore, words: np.ndarray, query_vector: np.ndarray,
            k: int, lam: float, pool_size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ordinals and scores of the top-k documents by hybrid search for the
    vocabulary ids ``words``, over the whole collection or over a BM25 pool.

    With ``pool_size=None`` every indexed document is a candidate;
    otherwise the BM25 top ``pool_size`` matched documents are (no match
    gives empty arrays). BM25 scores are min-max normalized over the
    candidates before interpolation; a document without a vector has
    cosine 0. Cosines come from :meth:`DenseStore.index_matrix`, the
    store's float64 copy in ordinal order, made on the first query with
    ``index``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vec = _check_query_vector(dense, query_vector)
    scores, matrix, pool = _bm25(index, words), dense.index_matrix(index), None
    if pool_size is not None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        # In ordinal order, so that the position tie-break below is the ordinal one.
        pool = _top_k(scores, pool_size, floor=0.0)[0]
        pool.sort()
        if not len(pool):
            return pool, scores[pool]
        scores, matrix = scores[pool], matrix[pool]
    # vecdot takes each row's dot product as np.dot does (matrix @ vec may
    # differ in the last bit); 0.0 first clamps -0.0 to 0.0 as max() does,
    # so a zero row scores 0.0.
    cosines = np.maximum(0.0, np.vecdot(matrix, vec))
    top, combined = _top_k(interpolate(_minmax(scores), cosines, lam), k)
    return (top if pool is None else pool[top]), combined


def nir_search(index: InvertedIndex, dense: DenseStore, query_tokens: Sequence[str],
               query_vector: np.ndarray, k: int, lam: float,
               pool_size: int | None = None) -> RankedList:
    """Hybrid search (:func:`nir_top`) for the query's tokens, as (doc id, score) pairs."""
    words = index.sentences.word_ids(query_tokens)
    return _ranked(index, *nir_top(index, dense, words, query_vector, k, lam, pool_size))


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Persist an index as a QIDX v5 snapshot."""
    table = index.sentences
    names = (*index.doc_ids, *table.vocabulary)
    parts = [
        _QIDX_HEADER.pack(_QIDX_MAGIC, _QIDX_VERSION, index.n_docs,
                          len(index.post_doc), len(table.vocabulary),
                          len(index.section_lengths), len(table), len(table.token_ids)),
        np.fromiter((len(name.encode("utf-8")) for name in names), "<u4", len(names)),
        "".join(names).encode("utf-8"),
        *(np.ascontiguousarray(values, dtype=dtype) for values, dtype in (
            (index.indptr, "<i8"), (index.post_doc, "<i4"), (index.post_tf, "<i4"),
            (index.section_counts, "<i4"), (index.section_lengths, "<i4"),
            (index.doc_crc, "<u4"), (table.doc, "<i4"), (table.section, "<i4"),
            (table.begin, "<i4"), (table.end, "<i4"), (table.indptr, "<i8"),
            (table.token_ids, "<i4"),
        )),
    ]
    crc = 0
    with open_output(path, "wb") as fh:
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc))


def load_index(path: str | Path, k1: float = DEFAULT_K1, b: float = DEFAULT_B) -> InvertedIndex:
    """Read a QIDX v5 snapshot written by :func:`save_index`; impacts use ``k1`` and ``b``.

    Each array is read into its own buffer, checked against the bytes the
    file has left before it is allocated. Behind a valid CRC, each row's
    documents must strictly rise, and each document's and each counted
    word's tf sum must be its number of counted tokens in the sentence
    table. A change of two or more values that keeps all of these still
    loads: tf(w1, d1) and tf(w2, d2) one up, tf(w1, d2) and tf(w2, d1) one
    down, say; only postings counted from the tokens would tell.
    """
    check_bm25(k1, b)
    with BinaryReader(path, crc=True) as reader:
        version = reader.version(_QIDX_MAGIC)
        if 1 <= version < _QIDX_VERSION:
            raise MalformedInput(
                f"{path}: QIDX version {version} is no longer read; "
                "rebuild the index with `qfs index`"
            )
        if version != _QIDX_VERSION:
            raise MalformedInput(f"{path}: unsupported QIDX version {version}")
        (n_docs, n_post, n_words, n_sections, n_sents,
         n_tokens) = reader.unpack(_QIDX_FIELDS, "header")
        text_lengths = reader.array("<u4", n_docs + n_words, "text lengths")
        blob = reader.read(int(text_lengths.sum()), "doc ids and words")
        indptr = reader.array("<i8", n_words + 1, "indptr")
        post_doc = reader.array("<i4", n_post, "posting docs")
        post_tf = reader.array("<i4", n_post, "posting tfs")
        section_counts = reader.array("<i4", n_docs, "section counts")
        section_lengths = reader.array("<i4", n_sections, "section lengths")
        doc_crc = reader.array("<u4", n_docs, "document CRCs")
        sent_doc, section, begin, end = (
            reader.array("<i4", n_sents, f"sentence {what}")
            for what in ("docs", "sections", "begins", "ends")
        )
        sent_indptr = reader.array("<i8", n_sents + 1, "sentence indptr")
        token_ids = reader.array("<i4", n_tokens, "token ids")
        reader.finish()

    def require(ok, problem: str) -> None:
        if not ok:
            raise MalformedInput(f"{path}: {problem}")

    require(n_docs > 0, "snapshot holds no documents")
    ends = np.cumsum(text_lengths, dtype=np.int64).tolist()
    try:
        texts = [blob[a:e].decode("utf-8") for a, e in zip([0, *ends], ends)]
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: doc id or word is not UTF-8: {exc}") from exc
    doc_ids, vocabulary = texts[:n_docs], texts[n_docs:]
    for what, names in (("doc ids", doc_ids), ("words", vocabulary)):
        require(all(x < y for x, y in zip(names, names[1:])), f"{what} are not strictly ascending")
    require(indptr[0] == 0 and indptr[-1] == n_post and np.all(np.diff(indptr) >= 0),
            f"indptr must rise from 0 to {n_post}")
    require(not n_post or (post_doc.min() >= 0 and post_doc.max() < n_docs and post_tf.min() >= 1),
            f"postings need doc ordinals below {n_docs} and tf >= 1")
    require(section_counts.min() >= 0 and section_counts.sum() == n_sections
            and (not n_sections or section_lengths.min() >= 0),
            f"section counts must add up to {n_sections}")
    require(not n_sents or (sent_doc[0] >= 0 and sent_doc[-1] < n_docs
                            and np.all(np.diff(sent_doc) >= 0)),
            f"sentence docs must be ascending ordinals below {n_docs}")
    first_section = np.cumsum(section_counts, dtype=np.int64) - section_counts
    require(np.all((section >= 0) & (section < section_counts[sent_doc])),
            "a sentence names a section its document does not have")
    require(np.all((0 <= begin) & (begin < end)
                   & (end <= section_lengths[first_section[sent_doc] + section])),
            "sentence offsets must satisfy 0 <= begin < end <= section length")
    require(sent_indptr[0] == 0 and sent_indptr[-1] == n_tokens
            and np.all(np.diff(sent_indptr) >= 0), f"sentence indptr must rise from 0 to {n_tokens}")
    require(not n_tokens or (token_ids.min() >= 0 and token_ids.max() < n_words),
            f"token ids must be below {n_words}")
    table = SentenceTable(sent_doc, section, begin, end, sent_indptr, token_ids, vocabulary, n_docs)
    tf_sums, falls = np.zeros(n_docs), [indptr[:0]]  # the document lengths; where docs fall
    for start in range(0, n_post, 1 << 16):  # bounded temporaries
        block = slice(start, start + (1 << 16))
        tf_sums += np.bincount(post_doc[block], weights=post_tf[block], minlength=n_docs)
        docs = post_doc[start : block.stop + 1]
        falls.append(np.flatnonzero(docs[1:] <= docs[:-1]) + (start + 1))
    falls = np.concatenate(falls)
    require(np.array_equal(indptr[indptr.searchsorted(falls)], falls),
            "a posting row's documents must strictly rise")
    # Every word occurs in some document, so the words with postings are the counted ones.
    counted, bounds = np.diff(indptr) > 0, sent_indptr[table.doc_ptr]
    doc_tokens, word_tokens = [], np.zeros(n_words, dtype=np.int64)
    for first, last in doc_blocks(bounds, 1 << 16):
        words = token_ids[bounds[first] : bounds[last]]
        doc_tokens.append(np.bincount(_token_docs(bounds, first, last), minlength=last - first,
                                      weights=counted[words]))
        word_tokens += np.bincount(words, minlength=n_words)
    word_tf = np.add.reduceat(post_tf, indptr[:-1][counted], dtype=np.int64)
    require(np.array_equal(np.concatenate(doc_tokens), tf_sums)
            and np.array_equal(word_tokens[counted], word_tf),
            "postings disagree with the sentence tokens")
    del falls, word_tokens, word_tf  # else they raise the peak while impacts are built
    return InvertedIndex(
        doc_ids, tf_sums.astype(np.int32), indptr, post_doc, post_tf,
        table, section_counts, section_lengths, doc_crc, k1, b,
    )


def check_collection(index: InvertedIndex, collection: DocumentCollection, path) -> None:
    """Every indexed document must still have the section texts it was indexed with.

    Sentence offsets slice the collection's section texts, so a document
    whose section count, section lengths or text (by its CRC32) changed
    after ``qfs index`` is MalformedInput, named with the first such
    document.
    """
    ordinals = [collection.ordinal.get(doc_id) for doc_id in index.doc_ids]
    counts, lengths, crcs = (column.tolist() for column in _text_columns(
        collection, [o for o in ordinals if o is not None]))
    now = zip(_per_doc(lengths, counts), crcs)
    was = zip(_per_doc(index.section_lengths.tolist(), index.section_counts.tolist()),
              index.doc_crc.tolist())
    for doc_id, o, (indexed, crc) in zip(index.doc_ids, ordinals, was):
        if o is None:
            problem = "is not in the collection"
        else:
            now_lengths, now_crc = next(now)
            if now_lengths != indexed:
                problem = "has other sections than when it was indexed"
            elif now_crc != crc:
                problem = "has other text than when it was indexed"
            else:
                continue
        raise MalformedInput(
            f"{path}: document {doc_id!r} {problem}; rebuild the index with `qfs index`"
        )


def _per_doc(values: list, counts: list[int]) -> Iterator[list]:
    """``values`` cut into consecutive runs of ``counts`` entries."""
    start = 0
    for count in counts:
        yield values[start : start + count]
        start += count
