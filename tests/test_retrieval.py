"""BM25, normalization, interpolation, and binary snapshot tests."""

from __future__ import annotations

import gc
import logging
import math
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfs.corpus import DocumentCollection
from qfs.errors import DimensionMismatch, EmptyInput, MalformedInput
from qfs.retrieval import (
    DEFAULT_B,
    DEFAULT_K1,
    MAX_K1,
    DenseStore,
    bm25_search,
    build_index,
    interpolate,
    load_dense_store,
    _minmax,
    load_index,
    nir_search,
    save_dense_store,
    save_index,
)
from qfs.textproc import token_surfaces

from conftest import load_each_corruption, make_doc, random_unit_vectors


def collection_of(*texts: str) -> DocumentCollection:
    return DocumentCollection(
        [make_doc(f"d{i}", ("body", text)) for i, text in enumerate(texts, 1)]
    )


def postings(index, term: str) -> list[tuple[str, int]]:
    """One term's (doc id, tf) pairs, read from the CSR arrays."""
    row = index.terms[term]
    span = slice(index.indptr[row], index.indptr[row + 1])
    docs, tfs = index.post_doc[span].tolist(), index.post_tf[span].tolist()
    return [(index.doc_ids[d], tf) for d, tf in zip(docs, tfs)]


def doc_length(index, doc_id: str) -> int:
    return int(index.doc_len[index.doc_ids.index(doc_id)])


class TestBuildIndex:
    def test_postings_and_avgdl(self):
        index = build_index(collection_of("a b a"))
        assert postings(index, "a") == [("d1", 2)]
        assert postings(index, "b") == [("d1", 1)]
        assert index.avgdl == 3.0

    def test_avgdl_is_mean(self):
        index = build_index(collection_of("a b", "a b c d"))
        assert index.avgdl == 3.0

    def test_stopwords_absent_from_postings(self):
        index = build_index(collection_of("the cat sat"), stopwords=frozenset({"the"}))
        assert "the" not in index.terms
        assert doc_length(index, "d1") == 2

    def test_sections_concatenated(self):
        doc = make_doc("d1", ("title", "alpha beta"), ("abstract", "beta gamma"))
        index = build_index(DocumentCollection([doc]))
        assert postings(index, "beta") == [("d1", 2)]
        assert doc_length(index, "d1") == 4

    def test_empty_collection_rejected(self):
        with pytest.raises(EmptyInput, match="^cannot index an empty collection$"):
            build_index(DocumentCollection([]))

    @pytest.mark.parametrize("k1, b", [
        (-1.2, 0.75), (math.nan, 0.75), (math.inf, 0.75), (1.2, -0.1), (1.2, 1.5), (1.2, math.nan),
        (2 * MAX_K1, 0.75),
    ])
    def test_bm25_parameters_out_of_range_rejected(self, k1, b):
        with pytest.raises(ValueError, match="BM25 needs"):
            build_index(collection_of("a"), k1=k1, b=b)


class TestBm25Search:
    def test_hand_computed_score(self):
        # N=2, df=1, tf=1, |d| = avgdl, k1=1.2, b=0.75:
        # idf = ln(1 + (2-1+0.5)/(1+0.5)) = ln 2; tf part = 2.2/2.2 = 1
        index = build_index(collection_of("apple banana", "cherry durian"))
        ranked = bm25_search(index, ["apple"], k=5)
        assert ranked == [("d1", pytest.approx(math.log(2.0), abs=1e-6))]

    def test_absent_term_contributes_zero(self):
        index = build_index(collection_of("apple banana", "cherry durian"))
        ranked = bm25_search(index, ["apple", "zzz"], k=5)
        assert ranked[0][1] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_tie_broken_by_ascending_doc_id(self):
        index = build_index(collection_of("same text", "same text"))
        ranked = bm25_search(index, ["same"], k=5)
        assert [d for d, _ in ranked] == ["d1", "d2"]
        assert ranked[0][1] == pytest.approx(ranked[1][1])

    def test_empty_query_gives_empty_list(self):
        index = build_index(collection_of("a"))
        assert bm25_search(index, [], k=3) == []

    def test_scores_non_negative_and_k_respected(self):
        index = build_index(collection_of("a b", "a c", "a d", "b c"))
        ranked = bm25_search(index, ["a", "b"], k=2)
        assert len(ranked) == 2
        assert all(score >= 0.0 for _, score in ranked)

    def test_repeated_query_term_counts_once(self):
        index = build_index(collection_of("apple banana", "cherry durian"))
        once = bm25_search(index, ["apple"], k=5)
        twice = bm25_search(index, ["apple", "apple"], k=5)
        assert once == twice


def reference_minmax(scores: list[float]) -> list[float]:
    """List min-max scaling, the oracle for ``_minmax``."""
    lo, hi = min(scores), max(scores)
    return [1.0] * len(scores) if hi == lo else [(x - lo) / (hi - lo) for x in scores]


def minmax_normalize(scores: list[float]) -> list[float]:
    return _minmax(np.asarray(scores, dtype=np.float64)).tolist()


class TestMinmaxNormalize:
    def test_basic(self):
        assert minmax_normalize([2, 4, 6]) == [0.0, 0.5, 1.0]

    def test_all_equal_maps_to_ones(self):
        assert minmax_normalize([5, 5]) == [1.0, 1.0]

    def test_unit_interval_fixed(self):
        assert minmax_normalize([0, 1]) == [0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput, match="^cannot normalize an empty score list$"):
            minmax_normalize([])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
    def test_bounds(self, scores):
        normed = minmax_normalize(scores)
        assert normed == reference_minmax(scores)
        assert all(0.0 <= x <= 1.0 for x in normed)


class TestInterpolate:
    def test_midpoint(self):
        assert interpolate(1.0, 0.0, 0.5) == pytest.approx(0.5)

    def test_lambda_one_returns_bm25(self):
        assert interpolate(0.73, 0.2, 1.0) == pytest.approx(0.73)

    def test_lambda_zero_returns_dense(self):
        assert interpolate(0.73, 0.2, 0.0) == pytest.approx(0.2)

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedInput, match=re.escape("lambda must be in [0, 1], got 1.5")):
            interpolate(0.5, 0.5, 1.5)

    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        st.floats(0, 1), st.floats(0, 1),
    )
    def test_monotone_in_each_argument(self, b1, b2, d1, d2, lam):
        lo_b, hi_b = sorted([b1, b2])
        lo_d, hi_d = sorted([d1, d2])
        assert interpolate(lo_b, lo_d, lam) <= interpolate(hi_b, lo_d, lam) + 1e-12
        assert interpolate(lo_b, lo_d, lam) <= interpolate(lo_b, hi_d, lam) + 1e-12


def reference_cosine(dense, doc_id: str, vec: np.ndarray) -> float:
    """One document's clamped cosine by np.dot, the per-document loop nir_search replaced."""
    return max(0.0, float(np.dot(dense[doc_id], vec))) if doc_id in dense else 0.0


def hybrid_fixture(n_docs=6, dim=4, seed=3):
    """A corpus where every document matches the query with distinct scores."""
    texts = []
    for i in range(n_docs):
        # "shared" appears i+1 times next to unique filler, so BM25 varies
        texts.append(" ".join(["shared"] * (i + 1) + [f"unique{i} filler{i}"]))
    collection = collection_of(*texts)
    index = build_index(collection)
    rng = np.random.default_rng(seed)
    dense = DenseStore.from_vectors(
        random_unit_vectors(rng, [d.id for d in collection], dim)
    )
    q = rng.uniform(0.1, 1.0, size=dim)
    q_vec = q / np.linalg.norm(q)
    return index, dense, ["shared"], q_vec


class TestNirSearch:
    def test_lambda_one_matches_bm25_argsort(self):
        index, dense, query, q_vec = hybrid_fixture()
        pure = [d for d, _ in bm25_search(index, query, k=6)]
        hybrid = [d for d, _ in nir_search(index, dense, query, q_vec, k=6, lam=1.0)]
        assert hybrid == pure

    def test_lambda_zero_matches_cosine_argsort(self):
        index, dense, query, q_vec = hybrid_fixture()
        by_cos = sorted(dense.ids, key=lambda d: (-reference_cosine(dense, d, q_vec), d))
        hybrid = [d for d, _ in nir_search(index, dense, query, q_vec, k=6, lam=0.0)]
        assert hybrid == by_cos

    def test_midpoint_on_two_doc_disagreement(self):
        # BM25 prefers d1 (more query term hits); cosine prefers d2.
        collection = collection_of("shared shared shared pad", "shared pad pad pad")
        index = build_index(collection)
        dense = DenseStore.from_vectors(
            {"d1": np.array([1.0, 0.0]), "d2": np.array([0.0, 1.0])}
        )
        q_vec = np.array([0.0, 1.0])
        ranked = nir_search(index, dense, ["shared"], q_vec, k=2, lam=0.5)
        # hand computation: bm25_norm d1=1, d2=0; cos d1=0, d2=1
        # both get 0.5 -> tie broken by ascending id
        assert [d for d, _ in ranked] == ["d1", "d2"]
        assert ranked[0][1] == pytest.approx(0.5)
        # tipping lambda slightly toward dense flips the order
        ranked = nir_search(index, dense, ["shared"], q_vec, k=2, lam=0.4)
        assert [d for d, _ in ranked] == ["d2", "d1"]

    def test_a_document_without_a_vector_has_a_zero_row_and_cosine_zero(self):
        collection = collection_of("shared a", "shared b", "shared c", "shared d")
        index = build_index(collection)
        # d2 and d4 have no vector; "x" has one but is not indexed.
        dense = DenseStore.from_vectors(
            {"x": np.array([0.0, 1.0]), "d3": np.array([1.0, 0.0]), "d1": np.array([0.6, 0.8])}
        )
        matrix = dense.index_matrix(index)
        assert matrix.dtype == np.float64
        assert matrix.tolist() == [dense["d1"].tolist(), [0.0, 0.0], dense["d3"].tolist(),
                                   [0.0, 0.0]]
        q_vec = np.array([1.0, 0.0])
        ranked = nir_search(index, dense, ["shared"], q_vec, k=4, lam=0.0)
        assert ranked == [("d3", 1.0), ("d1", pytest.approx(0.6)), ("d2", 0.0), ("d4", 0.0)]
        assert ranked == reference_hybrid(collection, dense, ["shared"], q_vec, 4, 0.0)

    def test_two_indexes_over_one_store(self):
        rng = np.random.default_rng(11)
        dense = DenseStore.from_vectors(random_unit_vectors(rng, ["d1", "d2", "d3", "d4"], 3))
        first = collection_of("alpha beta", "beta", "alpha gamma")
        second = DocumentCollection(
            [make_doc("d4", ("body", "alpha")), make_doc("d0", ("body", "beta alpha")),
             make_doc("d2", ("body", "gamma"))]
        )
        indexes = [build_index(first), build_index(second)]
        matrices = [dense.index_matrix(index) for index in indexes]
        assert matrices[0] is not matrices[1]
        assert matrices[0].tolist() == [dense[d].tolist() for d in ("d1", "d2", "d3")]
        assert matrices[1].tolist() == [[0.0] * 3, dense["d2"].tolist(), dense["d4"].tolist()]
        q_vec = np.array([0.3, -0.2, 0.9])
        for collection, index in [*zip([first, second], indexes)] * 2:
            for pool_size in (None, 2):
                assert nir_search(
                    index, dense, ["alpha"], q_vec, 3, 0.4, pool_size
                ) == reference_hybrid(collection, dense, ["alpha"], q_vec, 3, 0.4, pool_size)
        assert all(dense.index_matrix(index) is m for index, m in zip(indexes, matrices))
        # The cache holds an index weakly: dropping it frees its matrix.
        del indexes, index, matrices
        gc.collect()
        assert len(dense._index_matrix) == 0

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize("pool_size", [None, 2])
    def test_k_below_one_is_refused(self, k, pool_size):
        index, dense, query, q_vec = hybrid_fixture()
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            nir_search(index, dense, query, q_vec, k=k, lam=0.5, pool_size=pool_size)

    def test_dimension_mismatch_rejected(self):
        index, dense, query, _ = hybrid_fixture(dim=4)
        with pytest.raises(DimensionMismatch):
            nir_search(index, dense, query, np.ones(3), k=2, lam=0.5)


class TestRerankTop:
    """The ``rerank`` method: nir_search over the BM25 top ``pool_size`` documents."""

    def test_pool_confines_output(self):
        index, dense, query, q_vec = hybrid_fixture(n_docs=8)
        pool = {d for d, _ in bm25_search(index, query, k=3)}
        ranked = nir_search(index, dense, query, q_vec, k=3, lam=0.0, pool_size=3)
        assert {d for d, _ in ranked} <= pool

    def test_lambda_one_equals_bm25_top_k(self):
        index, dense, query, q_vec = hybrid_fixture(n_docs=8)
        expected = [d for d, _ in bm25_search(index, query, k=4)]
        ranked = nir_search(index, dense, query, q_vec, k=4, lam=1.0, pool_size=6)
        assert [d for d, _ in ranked] == expected


def reference_bm25(collection, query, stopwords=frozenset(), k1=DEFAULT_K1, b=DEFAULT_B):
    """Plain-Python BM25 over dict postings: the loop the CSR index replaced."""
    plists: dict[str, list[tuple[str, int]]] = {}
    lengths: dict[str, int] = {}
    for doc in collection:
        tokens = [
            t for _, text in doc.sections for t in token_surfaces(text) if t not in stopwords
        ]
        lengths[doc.id] = len(tokens)
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        for term, tf in counts.items():
            plists.setdefault(term, []).append((doc.id, tf))
    n, avgdl = len(lengths), sum(lengths.values()) / len(lengths)
    scores: dict[str, float] = {}
    for term in dict.fromkeys(query):
        plist = plists.get(term)
        if not plist:
            continue
        idf = math.log(1.0 + (n - len(plist) + 0.5) / (len(plist) + 0.5))
        for doc_id, tf in plist:
            norm = k1 * (1.0 - b + b * lengths[doc_id] / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)
    return scores


def reference_rank(scores, k):
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def reference_hybrid(
    collection, dense, query, q_vec, k, lam, pool_size=None, stopwords=frozenset(),
    k1=DEFAULT_K1, b=DEFAULT_B,
):
    raw = reference_bm25(collection, query, stopwords, k1, b)
    vec = np.asarray(q_vec, dtype=np.float64)
    vec = vec / float(np.linalg.norm(vec))
    if pool_size is None:
        pool = sorted(doc.id for doc in collection)
    else:
        pool = [doc_id for doc_id, _ in reference_rank(raw, pool_size)]
        if not pool:
            return []
    normed = reference_minmax([raw.get(doc_id, 0.0) for doc_id in pool])
    combined = {
        doc_id: lam * bm + (1.0 - lam) * reference_cosine(dense, doc_id, vec)
        for doc_id, bm in zip(pool, normed)
    }
    return reference_rank(combined, k)


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "the", "of"]
STOPWORDS = frozenset({"the", "of"})


@st.composite
def search_cases(draw):
    """A shuffled collection with duplicate documents, a query and vectors."""
    text = st.lists(st.sampled_from(WORDS), max_size=9).map(" ".join)
    texts = draw(st.lists(text, min_size=1, max_size=7))
    texts += draw(st.lists(st.sampled_from(texts), max_size=5))  # equal scores
    order = draw(st.permutations(range(len(texts))))
    docs = [make_doc(f"d{j}", ("body", texts[j])) for j in order]
    query = draw(st.lists(st.sampled_from(WORDS + ["unknown"]), max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Few distinct vectors, so equal cosines also join different BM25 scores.
    # At 64 dimensions a matrix product sums in another order than np.dot.
    dim = draw(st.sampled_from([3, 64]))
    vectors = random_unit_vectors(rng, ["v0", "v1", "v2"], dim)
    by_text = {t: vectors[draw(st.sampled_from(sorted(vectors)))] for t in sorted(set(texts))}
    # Some documents have no vector, so their cosine is 0.
    dense = DenseStore.from_vectors(
        {f"d{j}": by_text[t] for j, t in enumerate(texts) if j == 0 or draw(st.booleans())}
    )
    q_vec = rng.uniform(-0.2, 1.0, size=dim)
    stopwords = draw(st.sampled_from([frozenset(), STOPWORDS]))
    return DocumentCollection(docs), query, dense, q_vec, stopwords


K1S = st.sampled_from([0.0, 0.5, DEFAULT_K1, 3.0])
BS = st.sampled_from([0.0, 0.5, 1.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(WORDS), max_size=30).map(" ".join), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=MAX_K1) | st.sampled_from([0.0, 5e-324, MAX_K1]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_every_impact_is_positive(texts, k1, b):
    # So a document matches a query exactly when it scores > 0.
    index = build_index(collection_of(*texts), k1=k1, b=b)
    assert np.all(index.impact > 0.0)


def cut_points(matched: int) -> list[int]:
    return sorted({k for k in (1, matched - 1, matched, matched + 5) if k >= 1})


class TestMatchesReference:
    """Every ranked list equals the plain-Python loop's, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(search_cases(), K1S, BS)
    def test_bm25_search(self, case, k1, b):
        collection, query, _, _, stopwords = case
        index = build_index(collection, stopwords, k1, b)
        ref = reference_bm25(collection, query, stopwords, k1, b)
        for k in cut_points(len(ref)):
            assert bm25_search(index, query, k) == reference_rank(ref, k)

    @settings(max_examples=100, deadline=None)
    @given(search_cases(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), K1S, BS)
    def test_nir_search_and_rerank_top(self, case, lam, k1, b):
        collection, query, dense, q_vec, stopwords = case
        index = build_index(collection, stopwords, k1, b)
        matched = len(reference_bm25(collection, query, stopwords, k1, b))
        for k in cut_points(len(collection)):
            assert nir_search(index, dense, query, q_vec, k, lam) == reference_hybrid(
                collection, dense, query, q_vec, k, lam, None, stopwords, k1, b
            )
        for pool in cut_points(matched):
            for k in cut_points(pool):
                if k <= pool:
                    assert nir_search(
                        index, dense, query, q_vec, k, lam, pool_size=pool
                    ) == reference_hybrid(
                        collection, dense, query, q_vec, k, lam, pool, stopwords, k1, b
                    )

    @pytest.mark.parametrize("query", [[], ["unknown", "words"], ["the", "of"]])
    def test_queries_without_known_terms(self, query):
        collection = collection_of("the alpha", "of beta", "alpha beta")
        index = build_index(collection, STOPWORDS)
        rng = np.random.default_rng(5)
        dense = DenseStore.from_vectors(random_unit_vectors(rng, ["d1", "d2", "d3"], 3))
        q_vec = np.array([0.2, 0.5, 0.7])
        assert bm25_search(index, query, 3) == []
        assert nir_search(index, dense, query, q_vec, 2, 0.5, pool_size=3) == []
        expected = reference_hybrid(collection, dense, query, q_vec, 3, 0.5, stopwords=STOPWORDS)
        assert nir_search(index, dense, query, q_vec, 3, 0.5) == expected
        assert len(expected) == 3

    def test_every_document_frequency(self):
        # Doc i holds words w0..wi, so wj has df = n - j: every df from 1 to n.
        n = 29
        collection = collection_of(*(" ".join(f"w{j}" for j in range(i + 1)) for i in range(n)))
        index = build_index(collection)
        for j in range(n):
            ref = reference_bm25(collection, [f"w{j}"])
            assert bm25_search(index, [f"w{j}"], n) == reference_rank(ref, n)

    def test_ordinals_follow_doc_id_order(self):
        collection = DocumentCollection(
            [make_doc(i, ("body", "alpha")) for i in ["d2", "d10", "d1"]]
        )
        index = build_index(collection)
        assert index.doc_ids == ["d1", "d10", "d2"]
        assert postings(index, "alpha") == [("d1", 1), ("d10", 1), ("d2", 1)]
        assert [d for d, _ in bm25_search(index, ["alpha"], 2)] == ["d1", "d10"]


class TestDenseStoreIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        store = DenseStore.from_vectors(random_unit_vectors(rng, ["a", "b"], 3))
        path = tmp_path / "v.dvec"
        save_dense_store(store, path)
        loaded = load_dense_store(path)
        assert loaded.dim == 3 and len(loaded) == 2
        assert loaded.ids == store.ids
        assert np.array_equal(loaded.matrix, store.matrix)

    def test_every_truncation_and_flipped_byte_is_an_error_or_loads(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "v.dvec"
        save_dense_store(DenseStore.from_vectors(random_unit_vectors(rng, ["a", "bc"], 3)), path)
        load_each_corruption(path, path.read_bytes(), load_dense_store)

    def test_zero_vector_rejected(self, tmp_path):
        import struct

        path = tmp_path / "z.dvec"
        with open(path, "wb") as fh:
            fh.write(b"DVEC")
            fh.write(struct.pack("<II", 1, 2))
            fh.write(struct.pack("<I", 1) + b"a")
            fh.write(np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(MalformedInput):
            load_dense_store(path)

    def test_truncated_record_rejected(self, tmp_path):
        import struct

        path = tmp_path / "t.dvec"
        with open(path, "wb") as fh:
            fh.write(b"DVEC")
            fh.write(struct.pack("<II", 1, 4))
            fh.write(struct.pack("<I", 1) + b"a")
            fh.write(np.ones(3, dtype="<f4").tobytes())  # one float short
        with pytest.raises(MalformedInput) as err:
            load_dense_store(path)
        assert "byte offset" in str(err.value)

    def test_loader_renormalizes(self, tmp_path):
        import struct

        path = tmp_path / "n.dvec"
        with open(path, "wb") as fh:
            fh.write(b"DVEC")
            fh.write(struct.pack("<II", 1, 2))
            fh.write(struct.pack("<I", 1) + b"a")
            fh.write(np.array([3.0, 4.0], dtype="<f4").tobytes())
        store = load_dense_store(path)
        assert np.linalg.norm(store["a"]) == pytest.approx(1.0, abs=1e-6)

    def test_duplicate_id_keeps_the_last_vector_at_the_first_position(self, tmp_path, caplog):
        path = tmp_path / "dup.dvec"
        with open(path, "wb") as fh:
            fh.write(b"DVEC" + struct.pack("<II", 1, 2))
            for doc_id, vec in [("a", [3.0, 4.0]), ("b", [1.0, 0.0]), ("a", [0.0, 2.0])]:
                fh.write(struct.pack("<I", 1) + doc_id.encode() + np.array(vec, "<f4").tobytes())
        with caplog.at_level(logging.WARNING, logger="qfs.retrieval"):
            store = load_dense_store(path)
        assert [r.getMessage() for r in caplog.records] == [
            "duplicate vector id 'a'; last occurrence wins"
        ]
        assert store.ids == ["a", "b"]
        assert np.array_equal(store["a"], np.array([0.0, 1.0], dtype=np.float32))
        save_dense_store(store, tmp_path / "once.dvec")
        data = (tmp_path / "once.dvec").read_bytes()
        assert len(data) == 12 + 2 * (4 + 1 + 4 * 2)  # header, then a and b once each
        save_dense_store(load_dense_store(tmp_path / "once.dvec"), tmp_path / "again.dvec")
        assert (tmp_path / "again.dvec").read_bytes() == data


def restamp(data: bytes) -> bytes:
    """Recompute the trailing CRC32, so only the structure checks can object."""
    return data[:-4] + struct.pack("<I", zlib.crc32(data[:-4]))


def qidx_offsets(index) -> dict[str, int]:
    """Byte offset of each section of a QIDX v3 snapshot of ``index``."""
    table = index.sentences
    n_docs, n_terms, n_post = index.n_docs, len(index.terms), len(index.post_doc)
    n_words, n_sents = len(table.vocabulary), len(table)
    blob = sum(len(t.encode("utf-8")) for t in [*index.doc_ids, *table.vocabulary])
    offsets = {"k1": 8, "b": 16, "n_docs": 24, "n_terms": 28, "n_post": 32, "n_words": 40,
               "n_sections": 44, "n_sents": 48, "n_tokens": 52, "lengths": 60}
    sizes = [
        ("lengths", 4 * (n_docs + n_words)), ("blob", blob), ("is_term", n_words),
        ("doc_len", 4 * n_docs), ("indptr", 8 * (n_terms + 1)), ("post_doc", 4 * n_post),
        ("post_tf", 4 * n_post), ("section_counts", 4 * n_docs),
        ("section_lengths", 4 * len(index.section_lengths)), ("sent_doc", 4 * n_sents),
        ("sent_section", 4 * n_sents), ("sent_begin", 4 * n_sents), ("sent_end", 4 * n_sents),
        ("sent_indptr", 8 * (n_sents + 1)), ("token_ids", 4 * len(table.token_ids)),
    ]
    for (name, size), (following, _) in zip(sizes, sizes[1:]):
        offsets[following] = offsets[name] + size
    return offsets


def patch_i32(data: bytearray, offset: int, fn) -> None:
    (value,) = struct.unpack_from("<i", data, offset)
    struct.pack_into("<i", data, offset, fn(value))


def patch_i64(data: bytearray, offset: int, fn) -> None:
    (value,) = struct.unpack_from("<q", data, offset)
    struct.pack_into("<q", data, offset, fn(value))


def _count(name, delta):
    return lambda data, at, index: patch_i32(data, at[name], lambda v: v + delta)


# Each corrupts one field of the small snapshot; the CRC is then restamped.
STRUCTURE_DEFECTS = {
    "k1<0": lambda data, at, index: struct.pack_into("<d", data, at["k1"], -1.2),
    "k1=nan": lambda data, at, index: struct.pack_into("<d", data, at["k1"], math.nan),
    "b>1": lambda data, at, index: struct.pack_into("<d", data, at["b"], 1.5),
    "n_docs+1": _count("n_docs", 1),
    "n_docs-1": _count("n_docs", -1),
    "n_docs=0": lambda data, at, index: patch_i32(data, at["n_docs"], lambda v: 0),
    "n_terms+1": _count("n_terms", 1),
    "n_terms-1": _count("n_terms", -1),
    "n_post+1": _count("n_post", 1),
    "n_post-1": _count("n_post", -1),
    "indptr[0]=1": lambda data, at, index: patch_i64(data, at["indptr"], lambda v: 1),
    "indptr[-1] short": lambda data, at, index: patch_i64(
        data, at["post_doc"] - 8, lambda v: v - 1
    ),
    "n_words+1": _count("n_words", 1),
    "n_sents-1": _count("n_sents", -1),
    "n_tokens+1": _count("n_tokens", 1),
    "term flag=2": lambda data, at, index: data.__setitem__(at["is_term"], 2),
    "term flag=0": lambda data, at, index: data.__setitem__(at["is_term"], 0),
    "section count+1": lambda data, at, index: patch_i32(
        data, at["section_counts"], lambda v: v + 1
    ),
    "section length short": lambda data, at, index: patch_i32(
        data, at["section_lengths"], lambda v: v - 1
    ),
    "sentence doc=n_docs": lambda data, at, index: patch_i32(
        data, at["sent_section"] - 4, lambda v: index.n_docs
    ),
    "sentence docs fall": lambda data, at, index: patch_i32(
        data, at["sent_section"] - 4, lambda v: 0
    ),
    "sentence section=1": lambda data, at, index: patch_i32(
        data, at["sent_section"], lambda v: 1
    ),
    "begin=end": lambda data, at, index: patch_i32(
        data, at["sent_begin"], lambda v: int(index.sentences.end[0])
    ),
    "begin<0": lambda data, at, index: patch_i32(data, at["sent_begin"], lambda v: -1),
    "sentence indptr falls": lambda data, at, index: patch_i64(
        data, at["sent_indptr"] + 8, lambda v: len(index.sentences.token_ids) + 1
    ),
    "sentence indptr[0]=1": lambda data, at, index: patch_i64(
        data, at["sent_indptr"], lambda v: 1
    ),
    "token id=n_words": lambda data, at, index: patch_i32(
        data, at["token_ids"], lambda v: len(index.sentences.vocabulary)
    ),
    "token id<0": lambda data, at, index: patch_i32(data, at["token_ids"], lambda v: -1),
    # Moves the first sentence's last token into the second document.
    "doc token counts": lambda data, at, index: patch_i64(
        data, at["sent_indptr"] + 8, lambda v: v - 1
    ),
    "indptr falls": lambda data, at, index: patch_i64(
        data, at["indptr"] + 8, lambda v: len(index.post_doc) + 1
    ),
    "post_doc=n_docs": lambda data, at, index: patch_i32(
        data, at["post_doc"], lambda v: index.n_docs
    ),
    "post_doc<0": lambda data, at, index: patch_i32(data, at["post_doc"], lambda v: -1),
    "tf=0": lambda data, at, index: patch_i32(data, at["post_tf"], lambda v: 0),
    "doc_len+1": lambda data, at, index: patch_i32(data, at["doc_len"], lambda v: v + 1),
    "doc ids unsorted": lambda data, at, index: data.__setitem__(at["blob"] + 1, ord("9")),
    "bad utf-8": lambda data, at, index: data.__setitem__(at["blob"], 0xFF),
    "trailing byte": lambda data, at, index: data.__setitem__(slice(-4, -4), b"\x00"),
}


class TestIndexSnapshot:
    def small_snapshot(self, tmp_path):
        index = build_index(collection_of("a b a", "b c", "c d a"))
        path = tmp_path / "idx.qidx"
        save_index(index, path)
        return index, path, path.read_bytes()

    def test_roundtrip_preserves_search(self, tmp_path):
        index = build_index(collection_of("a b a", "b c", "c d a"))
        path = tmp_path / "idx.qidx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.n_docs == index.n_docs
        assert loaded.avgdl == pytest.approx(index.avgdl)
        assert bm25_search(loaded, ["a", "c"], k=3) == bm25_search(index, ["a", "c"], k=3)

    def test_save_load_save_is_byte_stable(self, tmp_path):
        _, path, data = self.small_snapshot(tmp_path)
        loaded = load_index(path)
        save_index(loaded, tmp_path / "again.qidx")
        assert (tmp_path / "again.qidx").read_bytes() == data
        assert np.array_equal(loaded.impact, build_index(
            collection_of("a b a", "b c", "c d a")
        ).impact)

    def test_newline_and_non_ascii_ids_round_trip(self, tmp_path):
        ids = ["line\nbreak", "caf\u00e9", "\u4e2d\u6587", "tab\tid"]
        collection = DocumentCollection(
            [make_doc(doc_id, ("body", f"shared na\u00efve w{n}")) for n, doc_id in enumerate(ids)]
        )
        index = build_index(collection)
        save_index(index, tmp_path / "u.qidx")
        loaded = load_index(tmp_path / "u.qidx")
        assert loaded.doc_ids == sorted(ids)
        assert loaded.terms == index.terms
        query = ["na\u00efve", "w2"]
        assert bm25_search(loaded, query, 4) == bm25_search(index, query, 4)

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        _, path, data = self.small_snapshot(tmp_path)
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(MalformedInput):
                load_index(path)

    def test_every_flipped_byte_rejected(self, tmp_path):
        _, path, data = self.small_snapshot(tmp_path)
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0x01
            path.write_bytes(bytes(flipped))
            with pytest.raises(MalformedInput):
                load_index(path)

    @pytest.mark.parametrize("defect", sorted(STRUCTURE_DEFECTS))
    def test_structure_checked_behind_a_valid_crc(self, tmp_path, defect):
        index, path, data = self.small_snapshot(tmp_path)
        corrupted = bytearray(data)
        STRUCTURE_DEFECTS[defect](corrupted, qidx_offsets(index), index)
        path.write_bytes(restamp(bytes(corrupted)))
        with pytest.raises(MalformedInput):
            load_index(path)

    def test_version_1_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "old.qidx"
        path.write_bytes(b"QIDX" + struct.pack("<Idd", 1, DEFAULT_K1, DEFAULT_B) + b"\x00" * 8)
        with pytest.raises(MalformedInput, match="qfs index"):
            load_index(path)

    def test_version_2_asks_for_a_rebuild(self, tmp_path):
        _, path, data = self.small_snapshot(tmp_path)
        path.write_bytes(restamp(data[:4] + struct.pack("<I", 2) + data[8:]))
        with pytest.raises(MalformedInput, match="version 2 .*rebuild the index with `qfs index`"):
            load_index(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.qidx"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(MalformedInput):
            load_index(path)
