"""The keyed-vector store, word-vector loading and CEMB interchange round-trips."""

from __future__ import annotations

import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs.corpus import DocumentCollection
from qfs.embeddings import (
    ContextEmbeddingRecord,
    DenseStore,
    load_context_embeddings,
    load_word_embeddings,
    read_context_embeddings,
    write_context_embeddings,
)
from qfs.errors import DimensionMismatch, MalformedInput
from qfs.neural import KINDS
from qfs.retrieval import build_index

from conftest import assert_refused_within_the_file, load_each_corruption, make_doc


def write_vectors(tmp_path, text, name="vectors.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadWordEmbeddings:
    def test_basic_load(self, tmp_path):
        path = write_vectors(tmp_path, "2 3\ncat 1 2 3\ndog 4 5 6\n")
        store = load_word_embeddings(path)
        assert len(store) == 2 and store.dim == 3 and store.matrix.dtype == np.float64
        assert store.ids == ["cat", "dog"]
        assert np.array_equal(store["cat"], [1.0, 2.0, 3.0])

    def test_short_line_rejected(self, tmp_path):
        path = write_vectors(tmp_path, "1 3\ncat 1 2\n")
        with pytest.raises(DimensionMismatch):
            load_word_embeddings(path)

    def test_duplicate_word_last_wins(self, tmp_path, caplog):
        path = write_vectors(tmp_path, "2 2\ncat 1 1\ndog 2 2\ncat 9 9\n")
        with caplog.at_level("WARNING"):
            store = load_word_embeddings(path)
        assert store.ids == ["cat", "dog"]
        assert store.matrix.tolist() == [[9.0, 9.0], [2.0, 2.0]]
        assert any("duplicate" in r.message for r in caplog.records)

    def test_count_mismatch_rejected(self, tmp_path):
        path = write_vectors(tmp_path, "3 2\ncat 1 1\n")
        with pytest.raises(MalformedInput):
            load_word_embeddings(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write_vectors(tmp_path, "hello\n")
        with pytest.raises(MalformedInput):
            load_word_embeddings(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_names_line_and_word(self, tmp_path, value):
        path = write_vectors(tmp_path, f"2 2\ncat 1 1\ndog 1 {value}\n")
        message = re.escape(f"{path}:3: non-finite value for 'dog'")
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            load_word_embeddings(path)

    def test_every_truncation_and_flipped_byte_is_an_error_or_loads(self, tmp_path):
        path = write_vectors(tmp_path, "3 2\ncat 1 2\ndog 3 4\nemu 5 6\n")

        def load(path):
            store = load_word_embeddings(path)
            assert store.matrix.shape == (3, 2) and np.isfinite(store.matrix).all()

        # Only the file cut before its last newline still loads.
        assert load_each_corruption(path, path.read_bytes(), load) == 1

    def test_file_without_words_loads_as_zero_rows(self, tmp_path):
        store = load_word_embeddings(write_vectors(tmp_path, "0 3\n"))
        assert store.matrix.shape == (0, 3) and store.matrix.dtype == np.float64

    def test_load_holds_each_vector_once(self, tmp_path):
        # 20,000 words at 32-d: 4.9 MiB of float64 vectors. Keeping each
        # vector as its own array until one stack at the end reads 3.4x that.
        n_words, dim = 20_000, 32
        values = np.random.default_rng(11).normal(size=(n_words, dim))
        lines = [f"w{i} " + " ".join(map(repr, row)) for i, row in enumerate(values.tolist())]
        path = write_vectors(tmp_path, f"{n_words} {dim}\n" + "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            store = load_word_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(store.matrix, values)
        assert peak < 2 * store.matrix.nbytes, f"peak {peak} bytes"


class TestEmbedTokens:
    def test_clip_length(self, tmp_path):
        path = write_vectors(tmp_path, "1 2\nw 1 1\n")
        store = load_word_embeddings(path)
        q, s, _ = KINDS["nnc"].input(store, ["w"] * 350, ["w"] * 3, None, 0, 300)
        assert q.shape == (300, 2) and s.shape == (3, 2)

    def test_oov_rows_share_vector(self, tmp_path):
        path = write_vectors(tmp_path, "1 2\nw 1 1\n")
        store = load_word_embeddings(path)
        matrix = store.gather(["x", "y"])
        assert np.array_equal(matrix[0], matrix[1])
        assert np.array_equal(matrix[0], np.zeros(2))

    def test_empty_tokens(self, tmp_path):
        path = write_vectors(tmp_path, "1 2\nw 1 1\n")
        store = load_word_embeddings(path)
        assert store.gather([]).shape == (0, 2)

    def test_rows_match_lookups(self, tmp_path):
        path = write_vectors(tmp_path, "2 2\na 1 2\nb 3 4\n")
        store = load_word_embeddings(path)
        matrix = store.gather(["b", "a"])
        assert np.array_equal(matrix[0], store["b"])
        assert np.array_equal(matrix[1], store["a"])


KEYS = ["a", "b", "c", "d", "e"]


@st.composite
def stores(draw):
    """A store over a subset of KEYS, float32 or float64, with seeded rows."""
    ids = draw(st.lists(st.sampled_from(KEYS), unique=True))
    dim = draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return DenseStore(ids, rng.normal(size=(len(ids), dim)).astype(dtype))


def gather_oracle(store: DenseStore, keys: list[str]) -> np.ndarray:
    """One row per key, looked up on its own."""
    rows = [
        np.asarray(store[key], dtype=np.float64) if key in store else np.zeros(store.dim)
        for key in keys
    ]
    return np.stack(rows) if rows else np.zeros((0, store.dim))


class TestGather:
    @settings(max_examples=200, deadline=None)
    @given(stores(), st.lists(st.sampled_from(KEYS + ["missing"])))
    def test_matches_per_key_oracle(self, store, keys):
        matrix = store.gather(keys)
        assert matrix.dtype == np.float64 and matrix.shape == (len(keys), store.dim)
        assert np.array_equal(matrix, gather_oracle(store, keys))

    @settings(max_examples=50, deadline=None)
    @given(stores(), st.lists(st.sampled_from(KEYS), min_size=1, unique=True))
    def test_index_matrix_is_the_cached_gather_of_the_doc_ids(self, store, doc_ids):
        index = build_index(DocumentCollection([make_doc(d, ("body", "flu")) for d in doc_ids]))
        matrix = store.index_matrix(index)
        assert np.array_equal(matrix, store.gather(index.doc_ids))
        assert store.index_matrix(index) is matrix


def random_record(rng: np.random.Generator, pair_id: str, dim: int) -> ContextEmbeddingRecord:
    n = int(rng.integers(1, 7))
    mask = rng.random(n) < 0.5
    if not mask.any():
        mask[int(rng.integers(0, n))] = True
    return ContextEmbeddingRecord(
        pair_id=pair_id,
        tokens=rng.normal(size=(n, dim)).astype(np.float32),
        sentence_mask=mask,
    )


class TestCembRoundTrip:
    def test_single_record(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = ContextEmbeddingRecord(
            pair_id="q1#0",
            tokens=rng.normal(size=(4, 8)).astype(np.float32),
            sentence_mask=np.array([True, False, True, True]),
        )
        path = tmp_path / "one.cemb"
        assert write_context_embeddings(path, [rec]) == 1
        loaded = list(read_context_embeddings(path))
        assert loaded == [rec]

    def test_three_records_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        records = [random_record(rng, f"q#{i}", 6) for i in range(3)]
        path = tmp_path / "three.cemb"
        assert write_context_embeddings(path, records) == 3
        assert list(read_context_embeddings(path)) == records

    def test_every_truncation_and_flipped_byte_is_an_error_or_loads(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "two.cemb"
        write_context_embeddings(path, [random_record(rng, f"q#{i}", 2) for i in range(2)])

        def load(path):
            for vector in load_context_embeddings(path).matrix:
                assert vector.shape == (2,) and np.isfinite(vector).all()

        load_each_corruption(path, path.read_bytes(), load)

    def test_empty_file_roundtrip(self, tmp_path):
        path = tmp_path / "empty.cemb"
        assert write_context_embeddings(path, []) == 0
        assert list(read_context_embeddings(path)) == []

    def test_mixed_dims_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [random_record(rng, "a#0", 4), random_record(rng, "a#1", 5)]
        with pytest.raises(DimensionMismatch):
            write_context_embeddings(tmp_path / "bad.cemb", records)

    def test_all_false_mask_rejected_on_read(self, tmp_path):
        # build the record bytes by hand; the constructor would refuse it
        path = tmp_path / "mask.cemb"
        with open(path, "wb") as fh:
            fh.write(b"CEMB")
            fh.write(struct.pack("<II", 1, 2))
            fh.write(struct.pack("<I", 3) + b"x#0")
            fh.write(struct.pack("<I", 2))
            fh.write(b"\x00")  # 2-token mask, no bits set
            fh.write(np.zeros((2, 2), dtype="<f4").tobytes())
        message = f"^{re.escape(str(path))}: record 'x#0': mask marks no tokens$"
        with pytest.raises(MalformedInput, match=message):
            list(read_context_embeddings(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_token_rejected_on_read(self, tmp_path, value):
        # build the record bytes by hand; the constructor would refuse it
        path = tmp_path / "nan.cemb"
        path.write_bytes(
            b"CEMB" + struct.pack("<II", 1, 2) + struct.pack("<I", 3) + b"x#0"
            + struct.pack("<IB", 1, 1) + np.array([0.5, value], dtype="<f4").tobytes()
        )
        message = f"^{re.escape(str(path))}: record 'x#0': non-finite token value$"
        with pytest.raises(MalformedInput, match=message):
            list(read_context_embeddings(path))

    def test_truncated_record_names_offset(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "trunc.cemb"
        write_context_embeddings(path, [random_record(rng, "q#0", 4)])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(MalformedInput) as err:
            list(read_context_embeddings(path))
        assert "byte offset" in str(err.value)

    def test_huge_token_count_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.cemb"
        path.write_bytes(
            b"CEMB" + struct.pack("<II", 1, 768) + struct.pack("<I", 3) + b"x#0"
            + struct.pack("<I", 2**31) + b"\x01" * 64
        )
        assert_refused_within_the_file(path, lambda path: list(read_context_embeddings(path)))

    def test_records_under_dim_0_rejected(self, tmp_path):
        # A dim-0 header is what an empty write leaves; a record under it has no columns.
        path = tmp_path / "dim0.cemb"
        path.write_bytes(
            b"CEMB" + struct.pack("<II", 1, 0) + struct.pack("<I", 3) + b"x#0"
            + struct.pack("<IB", 2, 1)
        )
        message = re.escape(f"{path}: record 'x#0': token matrix must be (n>=1, dim>=1)")
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            list(read_context_embeddings(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.cemb"
        path.write_bytes(b"XEMB" + b"\x00" * 8)
        with pytest.raises(MalformedInput):
            list(read_context_embeddings(path))

    def test_load_as_mapping(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [random_record(rng, f"q1#{i}", 3) for i in range(4)]
        path = tmp_path / "map.cemb"
        write_context_embeddings(path, records)
        store = load_context_embeddings(path)
        assert store.ids == [rec.pair_id for rec in records]
        assert store.matrix.shape == (4, 3) and store.matrix.dtype == np.float64
        for rec, row in zip(records, store.matrix):
            expected = rec.tokens[rec.sentence_mask].astype(np.float64).mean(axis=0)
            assert np.array_equal(row, expected)


def load_pooled(tmp_path, *records) -> list[np.ndarray]:
    """The loaded rows of ``records``, (rows, mask) pairs, written to one CEMB file."""
    path = tmp_path / "pooled.cemb"
    write_context_embeddings(path, [
        ContextEmbeddingRecord(f"p#{i}", np.asarray(rows, dtype=np.float32), mask)
        for i, (rows, mask) in enumerate(records)
    ])
    store = load_context_embeddings(path)
    assert store.ids == [f"p#{i}" for i in range(len(records))]
    return [store[pair_id] for pair_id in store.ids]


class TestPooledLoad:
    def test_masked_mean(self, tmp_path):
        two, one = load_pooled(tmp_path, ([[1, 3], [3, 5]], [True, True]), ([[2, 4]], [True]))
        assert two.dtype == np.float64
        assert np.array_equal(two, one) and np.array_equal(two, [2.0, 4.0])

    def test_single_masked_row_is_identity(self, tmp_path):
        (vector,) = load_pooled(tmp_path, ([[9, 9, 9], [1, 2, 3]], [False, True]))
        assert np.array_equal(vector, [1.0, 2.0, 3.0])

    def test_permutation_invariant_over_masked_rows(self, tmp_path):
        a, b = load_pooled(
            tmp_path,
            ([[1, 0], [0, 1], [5, 5]], [True, True, False]),
            ([[0, 1], [1, 0], [5, 5]], [True, True, False]),
        )
        assert np.allclose(a, b)

    def test_duplicate_id_keeps_the_last_vector_at_the_first_position(self, tmp_path, caplog):
        path = tmp_path / "dup.cemb"
        write_context_embeddings(path, [
            ContextEmbeddingRecord(pair_id, np.full((1, 2), value, dtype=np.float32), [True])
            for pair_id, value in (("a#0", 1.0), ("b#0", 2.0), ("a#0", 3.0))
        ])
        with caplog.at_level("WARNING"):
            store = load_context_embeddings(path)
        assert store.ids == ["a#0", "b#0"]
        assert store.matrix.tolist() == [[3.0, 3.0], [2.0, 2.0]]
        assert any("duplicate pair id 'a#0'" in r.message for r in caplog.records)

    def test_load_holds_one_record_at_a_time(self, tmp_path):
        # 1,000 pairs of 40 tokens at 768-d: 123 MB of float32 tokens in the
        # file, 6.1 MB of pooled float64 vectors.
        n_pairs, n_tokens, dim = 1000, 40, 768
        tokens = np.random.default_rng(9).normal(size=(n_tokens, dim)).astype(np.float32)
        mask = np.arange(n_tokens) >= 12
        path = tmp_path / "big.cemb"
        write_context_embeddings(
            path, (ContextEmbeddingRecord(f"q#{i}", tokens, mask) for i in range(n_pairs)))
        tracemalloc.start()
        try:
            store = load_context_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == n_pairs
        assert peak < 8 << 20, f"peak {peak} bytes"


class TestRecordValidation:
    def test_mask_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ContextEmbeddingRecord(
                pair_id="x",
                tokens=np.zeros((3, 2), dtype=np.float32),
                sentence_mask=np.array([True, False]),
            )

    def test_empty_matrix_rejected(self):
        with pytest.raises(MalformedInput):
            ContextEmbeddingRecord(
                pair_id="x",
                tokens=np.zeros((0, 2), dtype=np.float32),
                sentence_mask=np.zeros(0, dtype=bool),
            )

    # 1e40 and -1e40 are finite in float64 but beyond the float32 range.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e40, -1e40])
    def test_non_finite_token_rejected(self, value):
        with pytest.raises(MalformedInput, match="^record 'x': non-finite token value$"):
            ContextEmbeddingRecord(
                pair_id="x",
                tokens=np.array([[1.0, 2.0], [3.0, value]]),
                sentence_mask=np.array([True, False]),
            )

    def test_pooled_is_masked_mean(self, tmp_path):
        (vector,) = load_pooled(tmp_path, ([[1, 3], [3, 5], [100, 100]], [True, True, False]))
        assert np.allclose(vector, [2.0, 4.0])
