"""Inverted-index BM25 search, dense cosine scoring, and interpolation.

Document relevance for hybrid (NIR) search is ``lambda * bm25_norm +
(1 - lambda) * dense_cos`` where BM25 scores are min-max normalized per
query over the candidate pool and dense cosines are clamped at 0 from
below. All ranked output is strictly sorted under (-score, doc_id), so
searches are deterministic.

A document matches a BM25 query exactly when its score is > 0: it sums
impacts ``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))``,
each > 0 as ``idf = ln(1 + (N - df + 0.5) / (df + 0.5)) > 0`` (``df <= N``),
``tf >= 1``, ``k1 + 1 > 0`` and the denominator is at least ``tf``;
``k1 <= MAX_K1`` keeps every factor finite. Unmatched documents score 0.

The index is compressed sparse rows: term row ``r`` owns postings
``indptr[r]:indptr[r + 1]``, whose BM25 impacts are fixed at build time
by ``k1`` and ``b``. Documents are numbered in ascending id order, so
ordinal order is the tie order. An index also holds the collection's
:class:`~qfs.sentences.SentenceTable` under the same ordinals: every
document is split and tokenized once, at build time, and the postings
are counted from the table's token ids.

Binary formats (little-endian):

* DVEC dense vectors: magic ``DVEC``, u32 version=1, u32 dim, then
  records of u32 id-length, UTF-8 id bytes, dim x f32.
* QIDX index snapshot: magic ``QIDX``, u32 version=3, f64 k1, f64 b,
  u32 n_docs, u32 n_terms, u64 n_postings, u32 n_words, u32
  n_sections, u32 n_sentences, u64 n_tokens; then u32 byte lengths of
  the doc ids and of the vocabulary words, followed by their UTF-8
  bytes (both lists strictly ascending); then the raw arrays
  u8 is_term[n_words] (1 for the n_terms words with postings, 0 for
  stopwords), i32 doc_len[n_docs], i64 indptr[n_terms + 1],
  i32 post_doc[n_postings], i32 post_tf[n_postings],
  i32 section_count[n_docs], i32 section_len[n_sections] (each
  document's section text lengths, in characters), the sentence table
  i32 doc, section, begin and end[n_sentences],
  i64 indptr[n_sentences + 1] and i32 token_ids[n_tokens]; then u32
  CRC32 of all preceding bytes. Impacts are recomputed on load.
  Versions 1 and 2 are rejected: an index is a derived file, rebuilt
  with ``qfs index``.
"""

from __future__ import annotations

import logging
import math
import os
import struct
import weakref
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import DocumentCollection
from .errors import DimensionMismatch, EmptyInput, MalformedInput
from .fileio import open_input, open_output, read_exact, record_ids
from .sentences import SentenceTable

logger = logging.getLogger(__name__)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75
MAX_K1 = 1e6  # far above any useful k1, and no impact overflows to inf or NaN

_DVEC_MAGIC = b"DVEC"
_QIDX_MAGIC = b"QIDX"
_QIDX_VERSION = 3
_QIDX_HEADER = struct.Struct("<4sIddIIQIIIQ")


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus precomputed BM25 impacts; immutable after build."""

    doc_ids: list[str]
    doc_len: np.ndarray
    terms: dict[str, int]
    indptr: np.ndarray
    post_doc: np.ndarray
    post_tf: np.ndarray
    sentences: SentenceTable
    # The text the sentence offsets point into: per document its number
    # of sections, and per section its length in characters.
    section_counts: np.ndarray
    section_lengths: np.ndarray
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    n_docs: int = field(init=False)
    avgdl: float = field(init=False)
    impact: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.n_docs = n_docs = len(self.doc_ids)
        self.avgdl = int(self.doc_len.sum()) / n_docs
        df = np.diff(self.indptr)
        # idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)) in this
        # operand order, with math.log (np.log may differ in the last bit).
        idf = [math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5)) for d in df.tolist()]
        # avgdl is 0 only when every document is empty, with no postings.
        norm = self.k1 * (1.0 - self.b + self.b * self.doc_len / (self.avgdl or 1.0))
        impact = np.repeat(np.array(idf), df)
        impact *= self.post_tf
        impact *= self.k1 + 1.0
        for start in range(0, len(impact), 1 << 16):  # bounded temporaries
            block = slice(start, start + (1 << 16))
            impact[block] /= norm[self.post_doc[block]] + self.post_tf[block]
        self.impact = impact

    @property
    def vocabulary_size(self) -> int:
        return len(self.terms)


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
    doc_ids = sorted(doc.id for doc in docs)
    table = SentenceTable.build(docs, doc_ids)
    is_term = np.array([word not in stop for word in table.vocabulary], dtype=bool)
    terms = [word for word, keep in zip(table.vocabulary, is_term.tolist()) if keep]
    doc_len, indptr, post_doc, post_tf = _postings(table, is_term)
    sections = [docs[doc_id].sections for doc_id in doc_ids]
    return InvertedIndex(
        doc_ids, doc_len, {term: r for r, term in enumerate(terms)}, indptr, post_doc, post_tf,
        table, np.array([len(s) for s in sections], dtype=np.int32),
        np.array([len(text) for s in sections for _, text in s], dtype=np.int32), k1, b,
    )


def _doc_blocks(bounds: np.ndarray) -> list[tuple[int, int]]:
    """Runs of whole documents of about 2**16 tokens, as (first, last + 1) ordinals.

    Document d holds tokens ``bounds[d]:bounds[d + 1]``. A run starts at
    document 0 and at each document holding a token whose index is a
    multiple of 2**16.
    """
    cuts = np.searchsorted(bounds, np.arange(1 << 16, bounds[-1], 1 << 16), "right") - 1
    cuts = np.unique(np.r_[0, cuts, len(bounds) - 1]).tolist()
    return list(zip(cuts, cuts[1:]))


def _token_docs(bounds: np.ndarray, first: int, last: int) -> np.ndarray:
    """For each token of documents first..last-1, its document ordinal minus ``first``."""
    return np.repeat(np.arange(last - first), np.diff(bounds[first : last + 1]))


def _postings(table: SentenceTable, is_term: np.ndarray):
    """doc_len, indptr, post_doc and post_tf of the table's term tokens.

    Documents are taken in blocks of about 2**16 tokens, so temporaries
    stay block sized. A first pass counts each term's documents; the
    second fills every term row in document order, one block at a time.
    """
    n_terms = int(is_term.sum())
    row_of = np.cumsum(is_term, dtype=np.int32) - 1
    row_of[~is_term] = -1
    bounds = table.indptr[table.doc_ptr]
    blocks = _doc_blocks(bounds)

    def pairs(first: int, last: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique (term row, doc) pairs of docs first..last-1 by row then doc, and tfs."""
        rows = row_of[table.token_ids[bounds[first] : bounds[last]]]
        term, n = rows >= 0, last - first
        keys = rows[term].astype(np.int64) * n + _token_docs(bounds, first, last)[term]
        keys, tf = np.unique(keys, return_counts=True)
        rows, docs = np.divmod(keys, n)
        return rows, docs + first, tf

    df = np.zeros(n_terms, dtype=np.int64)
    for first, last in blocks:
        df += np.bincount(pairs(first, last)[0], minlength=n_terms)
    indptr = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(df, out=indptr[1:])
    post_doc = np.empty(indptr[-1], dtype=np.int32)
    post_tf = np.empty(indptr[-1], dtype=np.int32)
    doc_len = np.zeros(table.n_docs, dtype=np.int32)
    cursor = indptr[:-1].copy()
    for first, last in blocks:
        rows, docs, tf = pairs(first, last)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        sizes = np.diff(np.r_[starts, len(rows)])
        at = cursor[rows] + np.arange(len(rows)) - np.repeat(starts, sizes)
        post_doc[at] = docs
        post_tf[at] = tf
        cursor[rows[starts]] += sizes
        doc_len[first:last] = np.bincount(docs - first, weights=tf, minlength=last - first)
    return doc_len, indptr, post_doc, post_tf


def _bm25(index: InvertedIndex, query: Sequence[str]) -> np.ndarray:
    """BM25 score of every document; the matched ones are those scoring > 0.

    Unique query terms add their impacts in query order: each document
    gets the same float additions as a term-by-term loop would make.
    """
    rows = [index.terms[t] for t in dict.fromkeys(query) if t in index.terms]
    spans = [slice(index.indptr[r], index.indptr[r + 1]) for r in rows]
    docs = np.concatenate([index.post_doc[:0], *(index.post_doc[s] for s in spans)])
    impact = np.concatenate([index.impact[:0], *(index.impact[s] for s in spans)])
    return np.bincount(docs, weights=impact, minlength=index.n_docs)


def _top_k(scores: np.ndarray, k: int, floor: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Positions and values of the first k scores above ``floor``, under (-score, position).

    One partition finds the k-th best score. Only the scores at or above
    it are sorted (all that tie with it, for the position tie-break), or
    all those above the floor when the k-th best is not.
    """
    kth = np.partition(scores, len(scores) - k)[len(scores) - k] if 0 < k < len(scores) else floor
    keep = np.flatnonzero(scores >= kth if kth > floor else scores > floor)
    top = keep[np.lexsort((keep, -scores[keep]))[:k]]
    return top, scores[top]


def _ranked(index: InvertedIndex, ordinals: np.ndarray, scores: np.ndarray) -> RankedList:
    return [(index.doc_ids[i], s) for i, s in zip(ordinals.tolist(), scores.tolist())]


def bm25_search(index: InvertedIndex, query: Sequence[str], k: int) -> RankedList:
    """Top-k documents by BM25; ties broken by ascending doc id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _ranked(index, *_top_k(_bm25(index, query), k, floor=0.0))


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Scale scores to [0, 1]; an all-equal array maps to all 1.0."""
    if not len(scores):
        raise EmptyInput("cannot normalize an empty score list")
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.ones(len(scores))
    return (scores - lo) / (hi - lo)


def interpolate(bm25_norm: float | np.ndarray, dense_cos: float | np.ndarray, lam: float):
    """lambda-weighted mix of normalized BM25 and dense cosine scores (or arrays)."""
    if not 0.0 <= lam <= 1.0:
        raise MalformedInput(f"lambda must be in [0, 1], got {lam}")
    return lam * bm25_norm + (1.0 - lam) * dense_cos


class DenseStore:
    """Unit-norm vectors as the rows of one ``(n, dim)`` float32 matrix, keyed by id.

    Search reads the vectors through :meth:`index_matrix`: per index, a
    float64 copy in the index's ordinal order, built on the first query
    and kept while the index lives (``n_docs * dim * 8`` bytes each).
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        self.ids = list(ids)
        self.matrix = matrix
        self._row = {doc_id: r for r, doc_id in enumerate(self.ids)}
        self._index_matrix = weakref.WeakKeyDictionary()

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._row

    def __getitem__(self, doc_id: str) -> np.ndarray:
        return self.matrix[self._row[doc_id]]

    def index_matrix(self, index: InvertedIndex) -> np.ndarray:
        """The vectors in ordinal order of ``index`` as float64, a zero row for a
        document without one; built on first use and kept while the index lives."""
        matrix = self._index_matrix.get(index)
        if matrix is None:
            rows = np.array([self._row.get(d, -1) for d in index.doc_ids], dtype=np.intp)
            matrix = np.zeros((index.n_docs, self.dim))
            matrix[rows >= 0] = self.matrix[rows[rows >= 0]]
            self._index_matrix[index] = matrix
        return matrix

    @classmethod
    def from_vectors(cls, raw: Mapping[str, np.ndarray]) -> "DenseStore":
        """Build a store from arbitrary vectors, normalizing to unit length."""
        if not raw:
            raise MalformedInput("dense store needs at least one vector")
        dim = len(next(iter(raw.values())))
        vectors = []
        for doc_id, vec in raw.items():
            vec = np.asarray(vec, dtype=np.float32)
            if vec.shape != (dim,):
                raise DimensionMismatch(
                    f"vector for {doc_id!r} has shape {vec.shape}, expected ({dim},)"
                )
            vectors.append(_unit(vec, doc_id))
        return cls(list(raw), np.stack(vectors))


def _unit(vec: np.ndarray, doc_id: str) -> np.ndarray:
    norm = float(np.linalg.norm(vec.astype(np.float64)))
    if norm == 0.0 or not math.isfinite(norm):
        raise MalformedInput(f"vector for {doc_id!r} cannot be normalized")
    # Skip renormalization inside the unit-norm tolerance so that
    # save -> load -> save is byte stable.
    if abs(norm - 1.0) <= 1e-6:
        return vec
    return (vec.astype(np.float64) / norm).astype(np.float32)


def load_dense_store(path: str | Path) -> DenseStore:
    """Read a DVEC file; vectors are renormalized to unit norm on load.

    A repeated id warns, and its last vector takes the id's first position.
    """
    with open_input(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _DVEC_MAGIC:
            raise MalformedInput(f"{path}: bad magic {magic!r}, expected DVEC")
        version, dim = struct.unpack("<II", read_exact(fh, 8, path, "header"))
        if version != 1:
            raise MalformedInput(f"{path}: unsupported DVEC version {version}")
        if dim < 1:
            raise MalformedInput(f"{path}: dimension must be positive")
        vectors: dict[str, np.ndarray] = {}
        for doc_id in record_ids(fh, path):
            payload = read_exact(fh, 4 * dim, path, f"vector for {doc_id!r}")
            if doc_id in vectors:
                logger.warning("duplicate vector id %r; last occurrence wins", doc_id)
            vectors[doc_id] = np.frombuffer(payload, dtype="<f4")
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
    norm = float(np.linalg.norm(vec))
    if norm == 0.0 or not math.isfinite(norm):
        raise MalformedInput("query vector cannot be normalized")
    return vec / norm


def nir_search(
    index: InvertedIndex,
    dense: DenseStore,
    query_tokens: Sequence[str],
    query_vector: np.ndarray,
    k: int,
    lam: float,
    pool_size: int | None = None,
) -> RankedList:
    """Hybrid search over the whole collection, or over a BM25 pool.

    With ``pool_size=None`` every indexed document is a candidate;
    otherwise the BM25 top ``pool_size`` matched documents are (no match
    gives an empty list). BM25 scores are min-max normalized over the
    candidates before interpolation; a document without a vector has
    cosine 0. Cosines come from :meth:`DenseStore.index_matrix`, the
    store's float64 copy in ordinal order, made on the first query with
    ``index``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vec = _check_query_vector(dense, query_vector)
    scores, matrix, pool = _bm25(index, query_tokens), dense.index_matrix(index), None
    if pool_size is not None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        # In ordinal order, so that the position tie-break below is the ordinal one.
        pool = np.sort(_top_k(scores, pool_size, floor=0.0)[0])
        if not len(pool):
            return []
        scores, matrix = scores[pool], matrix[pool]
    # vecdot takes each row's dot product as np.dot does (matrix @ vec may
    # differ in the last bit); 0.0 first clamps -0.0 to 0.0 as max() does,
    # so a zero row scores 0.0.
    cosines = np.maximum(0.0, np.vecdot(matrix, vec))
    top, combined = _top_k(interpolate(_minmax(scores), cosines, lam), k)
    return _ranked(index, top if pool is None else pool[top], combined)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Persist an index as a QIDX v3 snapshot."""
    table = index.sentences
    names = (*index.doc_ids, *table.vocabulary)
    parts = [
        _QIDX_HEADER.pack(_QIDX_MAGIC, _QIDX_VERSION, index.k1, index.b,
                          index.n_docs, len(index.terms), len(index.post_doc),
                          len(table.vocabulary), len(index.section_lengths), len(table),
                          len(table.token_ids)),
        np.fromiter((len(name.encode("utf-8")) for name in names), "<u4", len(names)),
        "".join(names).encode("utf-8"),
        np.fromiter((word in index.terms for word in table.vocabulary), "u1",
                    len(table.vocabulary)),
        *(np.ascontiguousarray(values, dtype=dtype) for values, dtype in (
            (index.doc_len, "<i4"), (index.indptr, "<i8"),
            (index.post_doc, "<i4"), (index.post_tf, "<i4"),
            (index.section_counts, "<i4"), (index.section_lengths, "<i4"),
            (table.doc, "<i4"), (table.section, "<i4"), (table.begin, "<i4"),
            (table.end, "<i4"), (table.indptr, "<i8"), (table.token_ids, "<i4"),
        )),
    ]
    crc = 0
    with open_output(path, "wb") as fh:
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc))


def load_index(path: str | Path) -> InvertedIndex:
    """Read a QIDX v3 snapshot written by :func:`save_index`.

    Each array is read into its own buffer, checked against the file
    size before it is allocated; the CRC is taken as they are read.
    """
    with open_input(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_QIDX_HEADER.size)
        if head[:4] != _QIDX_MAGIC:
            raise MalformedInput(f"{path}: bad magic {head[:4]!r}, expected QIDX")
        version = int.from_bytes(head[4:8], "little")
        if version in (1, 2):
            raise MalformedInput(
                f"{path}: QIDX version {version} is no longer read; "
                "rebuild the index with `qfs index`"
            )
        if version != _QIDX_VERSION:
            raise MalformedInput(f"{path}: unsupported QIDX version {version}")
        if size < _QIDX_HEADER.size + 4:
            raise MalformedInput(f"{path}: truncated header")
        (_, _, k1, b, n_docs, n_terms, n_post,
         n_words, n_sections, n_sents, n_tokens) = _QIDX_HEADER.unpack(head)
        pos, crc = len(head), zlib.crc32(head)

        def take(dtype: str, count: int, what: str) -> np.ndarray:
            nonlocal pos, crc
            nbytes = count * np.dtype(dtype).itemsize
            if nbytes > size - 4 - pos:
                raise MalformedInput(f"{path}: truncated {what} at byte offset {pos}")
            values = np.empty(count, dtype=dtype)
            if fh.readinto(values) != nbytes:
                raise MalformedInput(f"{path}: truncated {what} at byte offset {pos}")
            pos, crc = pos + nbytes, zlib.crc32(values, crc)
            return values

        text_lengths = take("<u4", n_docs + n_words, "text lengths")
        blob = take("u1", int(text_lengths.sum()), "doc ids and words").tobytes()
        is_term = take("u1", n_words, "term flags")
        doc_len = take("<i4", n_docs, "doc lengths")
        indptr = take("<i8", n_terms + 1, "indptr")
        post_doc = take("<i4", n_post, "posting docs")
        post_tf = take("<i4", n_post, "posting tfs")
        section_counts = take("<i4", n_docs, "section counts")
        section_lengths = take("<i4", n_sections, "section lengths")
        sent_doc, section, begin, end = (
            take("<i4", n_sents, f"sentence {what}")
            for what in ("docs", "sections", "begins", "ends")
        )
        sent_indptr = take("<i8", n_sents + 1, "sentence indptr")
        token_ids = take("<i4", n_tokens, "token ids")
        if pos != size - 4:
            raise MalformedInput(f"{path}: {size - 4 - pos} trailing bytes")
        if crc != int.from_bytes(fh.read(4), "little"):
            raise MalformedInput(f"{path}: CRC mismatch, file is truncated or corrupted")

    def require(ok, problem: str) -> None:
        if not ok:
            raise MalformedInput(f"{path}: {problem}")

    require(n_docs > 0, "snapshot holds no documents")
    try:
        check_bm25(k1, b)
    except ValueError as exc:
        raise MalformedInput(f"{path}: {exc}") from None
    ends = np.cumsum(text_lengths, dtype=np.int64).tolist()
    try:
        texts = [blob[a:e].decode("utf-8") for a, e in zip([0, *ends], ends)]
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: doc id or word is not UTF-8: {exc}") from exc
    doc_ids, vocabulary = texts[:n_docs], texts[n_docs:]
    for what, names in (("doc ids", doc_ids), ("words", vocabulary)):
        require(all(x < y for x, y in zip(names, names[1:])), f"{what} are not strictly ascending")
    require(n_words == 0 or is_term.max() <= 1, "term flags must be 0 or 1")
    require(int(is_term.sum()) == n_terms, f"term flags must mark {n_terms} terms")
    require(indptr[0] == 0 and indptr[-1] == n_post and np.all(np.diff(indptr) >= 0),
            f"indptr must rise from 0 to {n_post}")
    require(not n_post or (post_doc.min() >= 0 and post_doc.max() < n_docs and post_tf.min() >= 1),
            f"postings need doc ordinals below {n_docs} and tf >= 1")
    tf_sums = np.zeros(n_docs)
    for start in range(0, n_post, 1 << 16):  # bounded temporaries
        block = slice(start, start + (1 << 16))
        tf_sums += np.bincount(post_doc[block], weights=post_tf[block], minlength=n_docs)
    require(np.array_equal(tf_sums, doc_len), "doc lengths disagree with the postings")
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
    bounds = sent_indptr[table.doc_ptr]
    term_tokens = [
        np.bincount(_token_docs(bounds, first, last), minlength=last - first,
                    weights=is_term[token_ids[bounds[first] : bounds[last]]])
        for first, last in _doc_blocks(bounds)
    ]
    require(np.array_equal(np.concatenate(term_tokens), doc_len),
            "doc lengths disagree with the sentence tokens")
    terms = [word for word, flag in zip(vocabulary, is_term.tolist()) if flag]
    return InvertedIndex(
        doc_ids, doc_len, {term: r for r, term in enumerate(terms)}, indptr, post_doc, post_tf,
        table, section_counts, section_lengths, k1, b,
    )


def check_collection(index: InvertedIndex, collection: DocumentCollection, path) -> None:
    """Every indexed document must still have the sections it was indexed with.

    Sentence offsets slice the collection's section texts, so a document
    whose section count or section lengths changed after ``qfs index``
    is MalformedInput, named with the first such document.
    """
    lengths = index.section_lengths.tolist()
    start = 0
    for doc_id, count in zip(index.doc_ids, index.section_counts.tolist()):
        indexed, start = lengths[start : start + count], start + count
        if doc_id not in collection:
            problem = "is not in the collection"
        elif [len(text) for _, text in collection[doc_id].sections] != indexed:
            problem = "has other sections than when it was indexed"
        else:
            continue
        raise MalformedInput(
            f"{path}: document {doc_id!r} {problem}; rebuild the index with `qfs index`"
        )
