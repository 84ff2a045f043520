"""The BM25 term loop against the kernel it replaced, bit for bit, and its memory.

``_bm25`` adds one unique query term at a time in query order: a term in
at least half the documents as one dense row, any other with
``np.add.at`` over its postings. The oracle below is the kernel before
it: every posting's impact in one CSR array (computed as
``InvertedIndex.__post_init__`` computed it), the query's postings
concatenated in query order, and one ``np.bincount``.
"""

from __future__ import annotations

import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qfs import retrieval
from qfs.corpus import DocumentCollection
from qfs.retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    MAX_K1,
    DenseStore,
    InvertedIndex,
    bm25_search,
    bm25_top,
    build_index,
    load_index,
    nir_search,
    nir_top,
    save_index,
)

from conftest import make_doc, posting_impacts, random_unit_vectors, term_rows

BLOCK = 1 << 16  # postings per block in InvertedIndex.__post_init__


def oracle_impact(index) -> np.ndarray:
    """Every posting's impact in CSR order: the full array the index held before."""
    n_docs, df = index.n_docs, np.diff(index.indptr)
    idf = [math.log(1.0 + (n_docs - d + 0.5) / (d + 0.5)) for d in df.tolist()]
    norm = index.k1 * (1.0 - index.b + index.b * index.doc_len / (index.avgdl or 1.0))
    impact = np.repeat(np.array(idf), df)
    impact *= index.post_tf
    impact *= index.k1 + 1.0
    for start in range(0, len(impact), BLOCK):
        block = slice(start, start + BLOCK)
        impact[block] /= norm[index.post_doc[block]] + index.post_tf[block]
    return impact


def oracle_bm25(index, words) -> np.ndarray:
    """The concatenate-and-bincount kernel over the query's vocabulary ids:
    bincount adds in input order."""
    impact = oracle_impact(index)
    terms = term_rows(index)
    query = [index.sentences.vocabulary[w] for w in words.tolist()]
    rows = [terms[t] for t in dict.fromkeys(query) if t in terms]
    spans = [slice(index.indptr[r], index.indptr[r + 1]) for r in rows]
    docs = np.concatenate([index.post_doc[:0], *(index.post_doc[s] for s in spans)])
    weights = np.concatenate([impact[:0], *(impact[s] for s in spans)])
    return np.bincount(docs, weights=weights, minlength=index.n_docs)


@st.composite
def kernel_cases(draw):
    """A collection whose planted terms sit on both sides of 2 * df >= n_docs, and a query."""
    n = draw(st.integers(1, 10))
    edge = sorted({1, n, max(1, n // 2 - 1), max(1, n // 2), (n + 1) // 2})
    dfs = draw(st.lists(st.sampled_from(edge) | st.integers(1, n), min_size=1, max_size=6))
    tokens: list[list[str]] = [[] for _ in range(n)]
    for t, df in enumerate(dfs):
        for d in draw(st.permutations(range(n)))[:df]:
            tokens[d] += [f"t{t}"] * draw(st.integers(1, 3))
    docs = [
        make_doc(f"d{d}", ("body", " ".join(draw(st.permutations(
            words + draw(st.lists(st.sampled_from(["x", "y"]), max_size=4))
        ))))) for d, words in enumerate(tokens)
    ]
    vocabulary = [f"t{t}" for t in range(len(dfs))] + ["x", "y", "unknown"]
    query = draw(st.lists(st.sampled_from(vocabulary), max_size=8))  # repeats, none, unknown
    return DocumentCollection(docs), query, draw(st.integers(0, 2**16))


def searches(index, dense, query, vec):
    return [bm25_search(index, query, 3), nir_search(index, dense, query, vec, 3, 0.5),
            nir_search(index, dense, query, vec, 2, 0.3, pool_size=3)]


# "c" and "b" are in every document and "a" in one: "a" last rounds one score
# differently than "a" first.
ORDER_CASE = (DocumentCollection([
    make_doc("d0", ("body", "a b y c")), make_doc("d1", ("body", "x b b c x")),
    make_doc("d2", ("body", "x b x c y y")),
]), ["c", "b", "a"], 0)


@settings(max_examples=200, deadline=None)
@example(ORDER_CASE, DEFAULT_K1, DEFAULT_B)
@given(kernel_cases(), st.sampled_from([0.0, DEFAULT_K1, MAX_K1]), st.sampled_from([0.0, 1.0]))
def test_term_loop_matches_the_bincount_kernel(case, k1, b):
    collection, query, seed = case
    built = build_index(collection, k1=k1, b=b)
    with tempfile.TemporaryDirectory() as work:
        save_index(built, Path(work) / "i.qidx")
        loaded = load_index(Path(work) / "i.qidx", k1=k1, b=b)
    rng = np.random.default_rng(seed)
    dense = DenseStore.from_vectors(random_unit_vectors(rng, built.doc_ids, 3))
    vec = rng.uniform(0.1, 1.0, size=3)
    df = np.diff(built.indptr)
    for index in (built, loaded):
        assert index.dense_terms == np.flatnonzero(2 * df >= index.n_docs).tolist()
        assert posting_impacts(index).tobytes() == oracle_impact(index).tobytes()
        words = index.sentences.word_ids(query)
        assert retrieval._bm25(index, words).tobytes() == oracle_bm25(index, words).tobytes()
        got = searches(index, dense, query, vec)
        with mock.patch.object(retrieval, "_bm25", oracle_bm25):
            assert got == searches(index, dense, query, vec)


@settings(max_examples=200, deadline=None)
@example((*ORDER_CASE[:2], 1), 2, 1, 0.5)
@example((ORDER_CASE[0], ["unknown", "unknown"], 2), 3, 2, 0.5)  # an empty rerank pool
@given(kernel_cases(), st.integers(1, 12), st.integers(1, 12), st.sampled_from([0.0, 0.3, 1.0]))
def test_ordinal_searches_are_the_id_searches(case, k, pool_size, lam):
    """bm25_top and nir_top, their ordinals mapped through doc_ids, give the id
    searches' lists: same documents, same order, == scores."""
    collection, query, seed = case
    index = build_index(collection)
    rng = np.random.default_rng(seed)
    dense = DenseStore.from_vectors(random_unit_vectors(rng, index.doc_ids, 3))
    vec = rng.uniform(0.1, 1.0, size=3)
    words = index.sentences.word_ids(query)

    def ids(ordinals, scores):
        assert ordinals.dtype.kind == "i" and scores.dtype == np.float64
        return [(index.doc_ids[o], s) for o, s in zip(ordinals.tolist(), scores.tolist())]

    assert ids(*bm25_top(index, words, k)) == bm25_search(index, query, k)
    for pool in (None, pool_size):
        got = ids(*nir_top(index, dense, words, vec, k, lam, pool))
        assert got == nir_search(index, dense, query, vec, k, lam, pool)
        # Only a rerank pool can be empty: when no document matches the query.
        assert bool(got) == (pool is None or bool(bm25_search(index, query, 1)))


def test_dense_rows_are_zero_where_the_term_is_absent():
    index = build_index(DocumentCollection(
        [make_doc("d1", ("body", "a b")), make_doc("d2", ("body", "a")),
         make_doc("d3", ("body", "c"))]
    ))
    terms = term_rows(index)
    assert list(terms) == ["a", "b", "c"]
    assert index.dense_terms == [terms["a"]]  # df 2 of 3 documents
    docs, row = index.term_impacts(terms["a"])
    assert docs is None and row[2] == 0.0 and row[0] > 0.0 and row[1] > 0.0
    docs, impact = index.term_impacts(terms["c"])
    assert docs.tolist() == [2] and len(impact) == 1


def synthetic_postings(n_docs=5000, n_terms=3000, seed=0):
    """CSR postings of about 1M entries: 24 terms in half the documents or
    more, the rest in under an eighth of them."""
    rng = np.random.default_rng(seed)
    df = np.r_[rng.integers(n_docs // 2, n_docs + 1, 24), rng.integers(1, n_docs // 8, n_terms - 24)]
    rng.shuffle(df)
    offsets = rng.integers(0, n_docs, n_terms)
    post_doc = np.concatenate(
        [np.sort((o + np.arange(d)) % n_docs) for o, d in zip(offsets, df)]
    ).astype(np.int32)
    post_tf = rng.integers(1, 5, len(post_doc)).astype(np.int32)
    indptr = np.r_[0, np.cumsum(df)].astype(np.int64)
    doc_len = np.bincount(post_doc, weights=post_tf, minlength=n_docs).astype(np.int32)
    return df, ([f"d{i:05d}" for i in range(n_docs)], doc_len,
                np.ones(n_terms, dtype=bool), indptr, post_doc, post_tf)


def test_impact_storage_and_build_peak_are_bounded():
    """Dense rows cost at most (n_docs - df) * 8 bytes more than the impacts they
    replace, and no full CSR impact array exists while they are built."""
    df, arrays = synthetic_postings()
    n_docs, n_terms = len(arrays[0]), len(df)
    dense_df = df[2 * df >= n_docs]
    bound = 8 * len(arrays[4]) + 8 * int((n_docs - dense_df).sum())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        # Only the BM25 fields are read when impacts are computed.
        index = InvertedIndex(*arrays, None, None, None, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(index.dense_terms) == len(dense_df) == 24
    assert index.dense.nbytes + index.impact.nbytes <= bound
    # Temporaries: a few block-sized arrays, and a few per term and per document.
    temporaries = 4 * 8 * BLOCK + 48 * n_terms + 32 * n_docs
    assert peak <= bound + temporaries, (peak, bound, temporaries)
    assert posting_impacts(index).tobytes() == oracle_impact(index).tobytes()
