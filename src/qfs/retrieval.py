"""Inverted-index BM25 search, dense cosine scoring, and interpolation.

Document relevance for hybrid (NIR) search is ``lambda * bm25_norm +
(1 - lambda) * dense_cos`` where BM25 scores are min-max normalized per
query over the candidate pool and dense cosines are clamped at 0 from
below. All ranked output is strictly sorted under (-score, doc_id), so
searches are deterministic.

The index is compressed sparse rows: term row ``r`` owns postings
``indptr[r]:indptr[r + 1]``, whose BM25 impacts are fixed at build time
by ``k1`` and ``b``. Documents are numbered in ascending id order, so
ordinal order is the tie order.

Binary formats (little-endian):

* DVEC dense vectors: magic ``DVEC``, u32 version=1, u32 dim, then
  records of u32 id-length, UTF-8 id bytes, dim x f32.
* QIDX index snapshot: magic ``QIDX``, u32 version=2, f64 k1, f64 b,
  u32 n_docs, u32 n_terms, u64 n_postings; then u32 byte lengths of
  the doc ids and of the terms, followed by their UTF-8 bytes (both
  lists strictly ascending); then the raw arrays i32 doc_len[n_docs],
  i64 indptr[n_terms + 1], i32 post_doc[n_postings] and
  i32 post_tf[n_postings]; then u32 CRC32 of all preceding bytes.
  Impacts are recomputed on load. Version 1 files are rejected: an
  index is a derived file, rebuilt with ``qfs index``.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import DocumentCollection
from .errors import (
    DimensionMismatch,
    EmptyCollection,
    EmptyList,
    LambdaOutOfRange,
    MalformedInput,
)
from .fileio import decode_utf8, open_input, read_exact
from .textproc import token_surfaces

logger = logging.getLogger(__name__)

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_DVEC_MAGIC = b"DVEC"
_QIDX_MAGIC = b"QIDX"
_QIDX_VERSION = 2
_QIDX_HEADER = struct.Struct("<4sIddIIQ")


@dataclass(eq=False)
class InvertedIndex:
    """CSR postings plus precomputed BM25 impacts; immutable after build."""

    doc_ids: list[str]
    doc_len: np.ndarray
    terms: dict[str, int]
    indptr: np.ndarray
    post_doc: np.ndarray
    post_tf: np.ndarray
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


def build_index(
    docs: DocumentCollection,
    stopwords: frozenset[str] | None = None,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> InvertedIndex:
    """Index a collection, concatenating all sections of each document."""
    if len(docs) == 0:
        raise EmptyCollection("cannot index an empty collection")
    stop = stopwords or frozenset()
    doc_ids = sorted(doc.id for doc in docs)
    doc_len = array("i")
    # Interleaved (ordinal, tf) pairs per term: typed arrays, not tuples, bound memory.
    rows: defaultdict[str, array] = defaultdict(lambda: array("i"))
    for ordinal, doc_id in enumerate(doc_ids):
        tokens = [
            t for _, text in docs[doc_id].sections for t in token_surfaces(text) if t not in stop
        ]
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            rows[term].extend((ordinal, tf))
    terms = sorted(rows)
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum([len(rows[t]) // 2 for t in terms], out=indptr[1:])
    joined = np.frombuffer(b"".join([rows.pop(t) for t in terms]), dtype=np.int32)
    post_doc, post_tf = joined.reshape(-1, 2).T.copy()
    del joined
    return InvertedIndex(
        doc_ids, np.array(doc_len, dtype=np.int32), {term: r for r, term in enumerate(terms)},
        indptr, post_doc, post_tf, k1, b,
    )


def _bm25(index: InvertedIndex, query: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """BM25 score of every document, and the ordinals of matched ones.

    Unique query terms add their impacts in query order: each document
    gets the same float additions as a term-by-term loop would make.
    """
    rows = [index.terms[t] for t in dict.fromkeys(query) if t in index.terms]
    spans = [slice(index.indptr[r], index.indptr[r + 1]) for r in rows]
    docs = np.concatenate([index.post_doc[:0], *(index.post_doc[s] for s in spans)])
    impact = np.concatenate([index.impact[:0], *(index.impact[s] for s in spans)])
    scores = np.bincount(docs, weights=impact, minlength=index.n_docs)
    matched = np.zeros(index.n_docs, dtype=bool)
    matched[docs] = True
    return scores, np.flatnonzero(matched)


def _top_k(ordinals: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k (ordinal, score) pairs under (-score, ordinal)."""
    if 0 < k < len(scores):
        # Keep every candidate tied with the k-th best score, so the
        # ordinal tie-break below sees all of them.
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        keep = scores >= kth
        ordinals, scores = ordinals[keep], scores[keep]
    order = np.lexsort((ordinals, -scores))[:k]
    return ordinals[order], scores[order]


def _ranked(index: InvertedIndex, ordinals: np.ndarray, scores: np.ndarray) -> RankedList:
    return [(index.doc_ids[i], s) for i, s in zip(ordinals.tolist(), scores.tolist())]


def bm25_search(index: InvertedIndex, query: Sequence[str], k: int) -> RankedList:
    """Top-k documents by BM25; ties broken by ascending doc id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    scores, matched = _bm25(index, query)
    return _ranked(index, *_top_k(matched, scores[matched], k))


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Scale scores to [0, 1]; an all-equal array maps to all 1.0."""
    if not len(scores):
        raise EmptyList("cannot normalize an empty score list")
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.ones(len(scores))
    return (scores - lo) / (hi - lo)


def interpolate(bm25_norm: float | np.ndarray, dense_cos: float | np.ndarray, lam: float):
    """lambda-weighted mix of normalized BM25 and dense cosine scores (or arrays)."""
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(f"lambda must be in [0, 1], got {lam}")
    return lam * bm25_norm + (1.0 - lam) * dense_cos


class DenseStore:
    """Unit-norm document vectors keyed by doc id."""

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray]):
        self.dim = dim
        self.vectors: dict[str, np.ndarray] = dict(vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.vectors

    @classmethod
    def from_vectors(cls, raw: Mapping[str, np.ndarray]) -> "DenseStore":
        """Build a store from arbitrary vectors, normalizing to unit length."""
        if not raw:
            raise MalformedInput("dense store needs at least one vector")
        dim = len(next(iter(raw.values())))
        vectors = {}
        for doc_id, vec in raw.items():
            vec = np.asarray(vec, dtype=np.float32)
            if vec.shape != (dim,):
                raise DimensionMismatch(
                    f"vector for {doc_id!r} has shape {vec.shape}, expected ({dim},)"
                )
            vectors[doc_id] = _unit(vec, doc_id)
        return cls(dim=dim, vectors=vectors)

    def cosine(self, doc_id: str, query_vector: np.ndarray) -> float:
        """Cosine against a unit query vector, clamped at 0; missing doc -> 0."""
        vec = self.vectors.get(doc_id)
        if vec is None:
            return 0.0
        return max(0.0, float(np.dot(vec, query_vector)))


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
    """Read a DVEC file; vectors are renormalized to unit norm on load."""
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
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise MalformedInput(
                    f"{path}: truncated record header at byte offset {fh.tell() - len(head)}"
                )
            (id_len,) = struct.unpack("<I", head)
            doc_id = decode_utf8(read_exact(fh, id_len, path, "record id"), path, "record id")
            payload = read_exact(fh, 4 * dim, path, f"vector for {doc_id!r}")
            vec = np.frombuffer(payload, dtype="<f4").astype(np.float32)
            if doc_id in vectors:
                logger.warning("duplicate vector id %r; last occurrence wins", doc_id)
            vectors[doc_id] = _unit(vec, doc_id)
    if not vectors:
        raise MalformedInput(f"{path}: DVEC file holds no vectors")
    return DenseStore(dim=dim, vectors=vectors)


def save_dense_store(store: DenseStore, path: str | Path) -> None:
    """Write a DVEC file; round-trip partner of :func:`load_dense_store`."""
    with open(path, "wb") as fh:
        fh.write(_DVEC_MAGIC)
        fh.write(struct.pack("<II", 1, store.dim))
        for doc_id, vec in store.vectors.items():
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
    """Hybrid search over the whole collection (or a BM25-limited pool).

    With ``pool_size=None`` every indexed document is a candidate; BM25
    scores are min-max normalized over that pool before interpolation.
    """
    vec = _check_query_vector(dense, query_vector)
    scores, matched = _bm25(index, query_tokens)
    if pool_size is None:
        pool = np.arange(index.n_docs)
    else:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        pool, _ = _top_k(matched, scores[matched], pool_size)
        if not len(pool):
            return []
    cosines = np.array([dense.cosine(index.doc_ids[i], vec) for i in pool.tolist()])
    combined = interpolate(_minmax(scores[pool]), cosines, lam)
    return _ranked(index, *_top_k(pool, combined, k))


def rerank_top(
    index: InvertedIndex,
    dense: DenseStore,
    query_tokens: Sequence[str],
    query_vector: np.ndarray,
    k: int,
    lam: float,
    pool_size: int = 200,
) -> RankedList:
    """Re-score only the BM25 top ``pool_size`` documents (default 200)."""
    if pool_size < k:
        raise ValueError(f"pool_size {pool_size} must be >= k {k}")
    return nir_search(index, dense, query_tokens, query_vector, k, lam, pool_size=pool_size)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Persist an index as a QIDX v2 snapshot."""
    texts = [text.encode("utf-8") for text in (*index.doc_ids, *index.terms)]
    parts = [
        _QIDX_HEADER.pack(_QIDX_MAGIC, _QIDX_VERSION, index.k1, index.b,
                          index.n_docs, len(index.terms), len(index.post_doc)),
        np.array([len(raw) for raw in texts], dtype="<u4"),
        b"".join(texts),
        *(np.ascontiguousarray(values, dtype=dtype) for values, dtype in (
            (index.doc_len, "<i4"), (index.indptr, "<i8"),
            (index.post_doc, "<i4"), (index.post_tf, "<i4"),
        )),
    ]
    crc = 0
    with open(path, "wb") as fh:
        for part in parts:
            crc = zlib.crc32(part, crc)
            fh.write(part)
        fh.write(struct.pack("<I", crc))


def load_index(path: str | Path) -> InvertedIndex:
    """Read a QIDX v2 snapshot written by :func:`save_index`."""
    with open_input(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _QIDX_MAGIC:
        raise MalformedInput(f"{path}: bad magic {data[:4]!r}, expected QIDX")
    version = int.from_bytes(data[4:8], "little")
    if version == 1:
        raise MalformedInput(
            f"{path}: QIDX version 1 is no longer read; rebuild the index with `qfs index`"
        )
    if version != _QIDX_VERSION:
        raise MalformedInput(f"{path}: unsupported QIDX version {version}")
    body = memoryview(data)[:-4]
    if len(body) < _QIDX_HEADER.size or zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
        raise MalformedInput(f"{path}: CRC mismatch, file is truncated or corrupted")
    _, _, k1, b, n_docs, n_terms, n_post = _QIDX_HEADER.unpack_from(body)
    if n_docs == 0:
        raise MalformedInput(f"{path}: snapshot holds no documents")
    pos = _QIDX_HEADER.size

    def take(dtype: str, count: int, what: str) -> np.ndarray:
        nonlocal pos
        size = count * np.dtype(dtype).itemsize
        if size > len(body) - pos:
            raise MalformedInput(f"{path}: truncated {what} at byte offset {pos}")
        pos += size
        return np.frombuffer(body[pos - size : pos], dtype=dtype)

    ends = np.cumsum(take("<u4", n_docs + n_terms, "text lengths"), dtype=np.int64).tolist()
    blob = take("u1", ends[-1], "doc ids and terms").tobytes()
    try:
        texts = [blob[a:e].decode("utf-8") for a, e in zip([0, *ends], ends)]
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: doc id or term is not UTF-8: {exc}") from exc
    doc_ids, terms = texts[:n_docs], texts[n_docs:]
    doc_len = take("<i4", n_docs, "doc lengths")
    indptr = take("<i8", n_terms + 1, "indptr")
    post_doc = take("<i4", n_post, "posting docs")
    post_tf = take("<i4", n_post, "posting tfs")
    if pos != len(body):
        raise MalformedInput(f"{path}: {len(body) - pos} trailing bytes")
    for what, names in (("doc ids", doc_ids), ("terms", terms)):
        if any(x >= y for x, y in zip(names, names[1:])):
            raise MalformedInput(f"{path}: {what} are not strictly ascending")
    if indptr[0] != 0 or indptr[-1] != n_post or np.any(np.diff(indptr) < 0):
        raise MalformedInput(f"{path}: indptr must rise from 0 to {n_post}")
    if n_post and (post_doc.min() < 0 or post_doc.max() >= n_docs or post_tf.min() < 1):
        raise MalformedInput(f"{path}: postings need doc ordinals below {n_docs} and tf >= 1")
    if not np.array_equal(np.bincount(post_doc, weights=post_tf, minlength=n_docs), doc_len):
        raise MalformedInput(f"{path}: doc lengths disagree with the postings")
    terms_by_row = {term: r for r, term in enumerate(terms)}
    return InvertedIndex(doc_ids, doc_len, terms_by_row, indptr, post_doc, post_tf, k1, b)
