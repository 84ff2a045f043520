"""Vectors keyed by a string, and the files they are read from.

:class:`DenseStore` holds every such set: the word vectors nnc reads,
the pooled context embeddings the pooled classifier reads, and the DVEC
vectors of hybrid search (:mod:`qfs.retrieval`). Every loader keeps a
repeated id's last vector at the id's first position, and warns.

Contextual token embeddings are consumed from CEMB files produced
offline by a frozen encoder, so no transformer runs in-process. A CEMB
record carries the full concatenated question+sentence token matrix
plus a boolean sentence mask marking the candidate-sentence tokens.
:func:`load_context_embeddings` mean-pools each record over its
candidate-sentence tokens as it reads it, and keeps only that vector.

CEMB binary layout (little-endian): magic ``CEMB``, u32 version=1,
u32 dim, then records of u32 id-length, UTF-8 id bytes, u32 n_tokens,
ceil(n/8) mask bytes (LSB-first), n x dim f32.

Word vectors use the plain text format: a ``count dim`` header line,
then one ``word v1 ... v_dim`` line per entry.
"""

from __future__ import annotations

import logging
import struct
import weakref
from array import array
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedInput
from .fileio import BinaryReader, open_output, read_lines

if TYPE_CHECKING:
    from .retrieval import InvertedIndex

logger = logging.getLogger(__name__)

_CEMB_MAGIC = b"CEMB"
_FLOAT32_MAX = float(np.finfo(np.float32).max)


class DenseStore:
    """Vectors keyed by id: the rows of one ``(n, dim)`` matrix in its loader's
    dtype, float64 for word and pooled vectors and float32 for DVEC. Only
    :meth:`from_vectors`, which DVEC loading uses, makes the rows unit norm.
    Search reads :meth:`index_matrix`, kept per index while the index lives
    (``n_docs * dim * 8`` bytes each).
    """

    def __init__(self, ids: Iterable[str], matrix: np.ndarray):
        self.ids = list(ids)
        self.matrix = matrix
        self._row = {key: r for r, key in enumerate(self.ids)}
        self._index_matrix = weakref.WeakKeyDictionary()

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key: str) -> bool:
        return key in self._row

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self._row[key]]

    def gather(self, keys: Sequence[str]) -> np.ndarray:
        """The rows of ``keys`` as a float64 ``(len(keys), dim)`` matrix,
        a zero row for a key without a vector."""
        rows = np.array([self._row.get(key, -1) for key in keys], dtype=np.intp)
        matrix = np.zeros((len(rows), self.dim))
        matrix[rows >= 0] = self.matrix[rows[rows >= 0]]
        return matrix

    def index_matrix(self, index: InvertedIndex) -> np.ndarray:
        """``gather(index.doc_ids)``: the vectors in ordinal order of ``index``,
        built on first use and kept while the index lives."""
        matrix = self._index_matrix.get(index)
        if matrix is None:
            matrix = self._index_matrix[index] = self.gather(index.doc_ids)
        return matrix

    @classmethod
    def from_vectors(cls, raw: Mapping[str, np.ndarray]) -> "DenseStore":
        """Build a float32 store from arbitrary vectors, normalizing to unit length."""
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
            vectors.append(vec)
        matrix = np.stack(vectors)
        m64 = matrix.astype(np.float64)
        # vecdot takes each row's dot product as np.linalg.norm does for one
        # vector (norm(axis=1) may differ from it in the last bit).
        norms = np.sqrt(np.vecdot(m64, m64))
        bad = (norms == 0.0) | ~np.isfinite(norms)
        if bad.any():
            doc_id = list(raw)[int(np.argmax(bad))]
            raise MalformedInput(f"vector for {doc_id!r} cannot be normalized")
        # Skip renormalization inside the unit-norm tolerance so that
        # save -> load -> save is byte stable.
        off = np.abs(norms - 1.0) > 1e-6
        matrix[off] = m64[off] / norms[off, None]
        return cls(list(raw), matrix)


def load_word_embeddings(path: str | Path) -> DenseStore:
    """Read a word-vector text file as a float64 store. The vectors grow in
    one ``array("d")``, which the store's matrix then views."""
    with closing(read_lines(path)) as lines:
        header = next(lines, "").split()
        if len(header) != 2:
            raise MalformedInput(f"{path}: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise MalformedInput(f"{path}: non-numeric header: {exc}") from exc
        if dim < 1:
            raise MalformedInput(f"{path}: dimension must be positive")
        rows: dict[str, int] = {}
        vectors = array("d")
        for lineno, line in enumerate(lines, start=2):
            parts = line.split()
            if not parts:
                continue
            word, values = parts[0], parts[1:]
            if len(values) != dim:
                raise DimensionMismatch(
                    f"{path}:{lineno}: {len(values)} values for {word!r}, expected {dim}"
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise MalformedInput(f"{path}:{lineno}: bad float: {exc}") from exc
            if not np.isfinite(vec).all():
                raise MalformedInput(f"{path}:{lineno}: non-finite value for {word!r}")
            at = rows.setdefault(word, len(rows)) * dim
            if at < len(vectors):
                logger.warning("duplicate word %r at line %d; last wins", word, lineno)
                vectors[at : at + dim] = array("d", vec.tobytes())
            else:
                vectors.frombytes(vec.tobytes())
    if len(rows) != count:
        raise MalformedInput(
            f"{path}: header declares {count} words, file holds {len(rows)}"
        )
    return DenseStore(rows, np.frombuffer(vectors).reshape(len(rows), dim))


@dataclass
class ContextEmbeddingRecord:
    """One question+sentence token matrix with a candidate-sentence mask.

    ``pair_id`` is the join key "<question_id>#<sentence ordinal>" used
    to line records up with labeled examples.
    """

    pair_id: str
    tokens: np.ndarray  # (n, dim) float32
    sentence_mask: np.ndarray  # (n,) bool

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens)
        self.sentence_mask = np.asarray(self.sentence_mask, dtype=bool)
        if tokens.ndim != 2 or tokens.shape[0] < 1 or tokens.shape[1] < 1:
            raise MalformedInput(
                f"record {self.pair_id!r}: token matrix must be (n>=1, dim>=1)"
            )
        if self.sentence_mask.shape != (tokens.shape[0],):
            raise DimensionMismatch(
                f"record {self.pair_id!r}: mask length {self.sentence_mask.shape} "
                f"does not match {tokens.shape[0]} token rows"
            )
        if not self.sentence_mask.any():
            raise MalformedInput(f"record {self.pair_id!r}: mask marks no tokens")
        # Before the cast, which would overflow a value such as 1e40 to inf with a warning.
        if not (np.abs(tokens) <= _FLOAT32_MAX).all():
            raise MalformedInput(f"record {self.pair_id!r}: non-finite token value")
        self.tokens = np.ascontiguousarray(tokens, dtype=np.float32)

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextEmbeddingRecord):
            return NotImplemented
        return (
            self.pair_id == other.pair_id
            and np.array_equal(self.tokens, other.tokens)
            and np.array_equal(self.sentence_mask, other.sentence_mask)
        )


def _pack_mask(mask: np.ndarray) -> bytes:
    return np.packbits(mask, bitorder="little").tobytes()


def write_context_embeddings(
    path: str | Path, records: Iterable[ContextEmbeddingRecord]
) -> int:
    """Write records to a CEMB file; returns the number written.

    All records must share one dimension; the first record fixes it.
    An empty record list produces a header-only file with dim 0.
    """
    count = 0
    dim: int | None = None
    with open_output(path, "wb") as fh:
        fh.write(_CEMB_MAGIC)
        header_pos = fh.tell()
        fh.write(struct.pack("<II", 1, 0))
        for rec in records:
            if dim is None:
                dim = rec.dim
            elif rec.dim != dim:
                raise DimensionMismatch(
                    f"record {rec.pair_id!r} has dim {rec.dim}, file dim is {dim}"
                )
            raw_id = rec.pair_id.encode("utf-8")
            n = rec.tokens.shape[0]
            fh.write(struct.pack("<I", len(raw_id)))
            fh.write(raw_id)
            fh.write(struct.pack("<I", n))
            fh.write(_pack_mask(rec.sentence_mask))
            fh.write(np.ascontiguousarray(rec.tokens, dtype="<f4").tobytes())
            count += 1
        if dim is not None:
            fh.seek(header_pos)
            fh.write(struct.pack("<II", 1, dim))
    return count


def read_context_embeddings(path: str | Path) -> Iterator[ContextEmbeddingRecord]:
    """Stream records from a CEMB file in file order, validating each."""
    with BinaryReader(path) as reader:
        version = reader.version(_CEMB_MAGIC)
        if version != 1:
            raise MalformedInput(f"{path}: unsupported CEMB version {version}")
        dim = reader.u32("header")
        while reader.left:
            pair_id = reader.text("record id")
            n = reader.u32(f"token count of {pair_id!r}")
            if n < 1:
                raise MalformedInput(f"{path}: record {pair_id!r} has no tokens")
            mask_bits = reader.array("u1", (n + 7) // 8, f"mask of {pair_id!r}")
            mask = np.unpackbits(mask_bits, count=n, bitorder="little").astype(bool)
            tokens = reader.array("<f4", n * dim, f"matrix of {pair_id!r}").reshape(n, dim)
            try:
                record = ContextEmbeddingRecord(pair_id, tokens, mask)
            except MalformedInput as exc:
                raise MalformedInput(f"{path}: {exc}") from exc
            yield record


def load_context_embeddings(path: str | Path) -> DenseStore:
    """A CEMB file as a float64 store: pair id -> the mean of the record's
    masked (candidate sentence) token rows, pooled as each record is read.
    A file without records gives an empty store of dim 0. The vectors grow in
    one ``array("d")``, which the store's matrix then views."""
    rows: dict[str, int] = {}
    pooled = array("d")
    for rec in read_context_embeddings(path):
        vector = rec.tokens[rec.sentence_mask].astype(np.float64).mean(axis=0).tobytes()
        at = rows.setdefault(rec.pair_id, len(rows)) * rec.dim
        if at < len(pooled):
            logger.warning("duplicate pair id %r; last occurrence wins", rec.pair_id)
            pooled[at : at + rec.dim] = array("d", vector)
        else:
            pooled.frombytes(vector)
    return DenseStore(rows, np.frombuffer(pooled).reshape(len(rows), -1 if rows else 0))
