"""Static word embeddings and the contextual-embedding interchange format.

Contextual token embeddings are consumed from CEMB files produced
offline by a frozen encoder, so no transformer runs in-process. A CEMB
record carries the full concatenated question+sentence token matrix
plus a boolean sentence mask marking the candidate-sentence tokens, so
mean pooling over the candidate sentence stays computable downstream.

CEMB binary layout (little-endian): magic ``CEMB``, u32 version=1,
u32 dim, then records of u32 id-length, UTF-8 id bytes, u32 n_tokens,
ceil(n/8) mask bytes (LSB-first), n x dim f32.

Word vectors use the plain text format: a ``count dim`` header line,
then one ``word v1 ... v_dim`` line per entry.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedInput, MaskAllFalse
from .fileio import open_input, read_exact

logger = logging.getLogger(__name__)

_CEMB_MAGIC = b"CEMB"


@dataclass
class EmbeddingTable:
    """Fixed-dimension word vectors with a shared out-of-vocabulary vector."""

    dim: int
    table: dict[str, np.ndarray]
    oov_vector: np.ndarray

    def __contains__(self, word: str) -> bool:
        return word in self.table

    def __len__(self) -> int:
        return len(self.table)

    def lookup(self, word: str) -> np.ndarray:
        return self.table.get(word, self.oov_vector)


def load_word_embeddings(
    path: str | Path, oov_vector: np.ndarray | None = None
) -> EmbeddingTable:
    """Read a word-vector text file; duplicate words keep the last entry."""
    with open_input(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise MalformedInput(f"{path}: header must be 'count dim'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise MalformedInput(f"{path}: non-numeric header: {exc}") from exc
        if dim < 1:
            raise MalformedInput(f"{path}: dimension must be positive")
        table: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
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
            if word in table:
                logger.warning("duplicate word %r at line %d; last wins", word, lineno)
            table[word] = vec
    if len(table) != count:
        raise MalformedInput(
            f"{path}: header declares {count} words, file holds {len(table)}"
        )
    if oov_vector is None:
        oov = np.zeros(dim, dtype=np.float64)
    else:
        oov = np.asarray(oov_vector, dtype=np.float64)
        if oov.shape != (dim,):
            raise DimensionMismatch("oov vector dimension does not match table")
    return EmbeddingTable(dim=dim, table=table, oov_vector=oov)


def random_oov_vector(dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic alternative to the zero out-of-vocabulary vector."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.05, 0.05, size=dim)


def embed_tokens(
    table: EmbeddingTable, tokens: Sequence[str], clip_len: int
) -> np.ndarray:
    """Token matrix of shape (min(len, clip_len), dim)."""
    if clip_len < 1:
        raise ValueError("clip_len must be >= 1")
    rows = [table.lookup(t) for t in tokens[:clip_len]]
    if not rows:
        return np.zeros((0, table.dim), dtype=np.float64)
    return np.stack(rows)


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
        self.tokens = np.ascontiguousarray(self.tokens, dtype=np.float32)
        self.sentence_mask = np.asarray(self.sentence_mask, dtype=bool)
        if self.tokens.ndim != 2 or self.tokens.shape[0] < 1:
            raise MalformedInput(
                f"record {self.pair_id!r}: token matrix must be (n>=1, dim)"
            )
        if self.sentence_mask.shape != (self.tokens.shape[0],):
            raise DimensionMismatch(
                f"record {self.pair_id!r}: mask length {self.sentence_mask.shape} "
                f"does not match {self.tokens.shape[0]} token rows"
            )
        if not self.sentence_mask.any():
            raise MaskAllFalse(f"record {self.pair_id!r}: mask marks no tokens")

    @property
    def dim(self) -> int:
        return self.tokens.shape[1]

    def pooled(self) -> np.ndarray:
        """Mean of the masked (candidate sentence) token rows, float64."""
        return self.tokens[self.sentence_mask].astype(np.float64).mean(axis=0)

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


def _unpack_mask(raw: bytes, n: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def write_context_embeddings(
    path: str | Path, records: Iterable[ContextEmbeddingRecord]
) -> int:
    """Write records to a CEMB file; returns the number written.

    All records must share one dimension; the first record fixes it.
    An empty record list produces a header-only file with dim 0.
    """
    count = 0
    dim: int | None = None
    with open(path, "wb") as fh:
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
    with open_input(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CEMB_MAGIC:
            raise MalformedInput(f"{path}: bad magic {magic!r}, expected CEMB")
        version, dim = struct.unpack("<II", read_exact(fh, 8, path, "header"))
        if version != 1:
            raise MalformedInput(f"{path}: unsupported CEMB version {version}")
        while True:
            head = fh.read(4)
            if not head:
                return
            if len(head) != 4:
                raise MalformedInput(
                    f"{path}: truncated record header at byte offset {fh.tell() - len(head)}"
                )
            (id_len,) = struct.unpack("<I", head)
            pair_id = read_exact(fh, id_len, path, "record id").decode("utf-8")
            (n,) = struct.unpack("<I", read_exact(fh, 4, path, "token count"))
            if n < 1:
                raise MalformedInput(f"{path}: record {pair_id!r} has no tokens")
            mask_bytes = read_exact(fh, (n + 7) // 8, path, f"mask of {pair_id!r}")
            mask = _unpack_mask(mask_bytes, n)
            payload = read_exact(fh, 4 * n * dim, path, f"matrix of {pair_id!r}")
            tokens = np.frombuffer(payload, dtype="<f4").reshape(n, dim)
            yield ContextEmbeddingRecord(
                pair_id=pair_id, tokens=tokens.copy(), sentence_mask=mask
            )


def load_context_embeddings(path: str | Path) -> dict[str, ContextEmbeddingRecord]:
    """Materialize a CEMB file as a pair_id -> record mapping."""
    store: dict[str, ContextEmbeddingRecord] = {}
    for rec in read_context_embeddings(path):
        if rec.pair_id in store:
            logger.warning("duplicate pair id %r; last occurrence wins", rec.pair_id)
        store[rec.pair_id] = rec
    return store
