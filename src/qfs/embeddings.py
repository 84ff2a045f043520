"""Static word embeddings and the contextual-embedding interchange format.

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
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedInput
from .fileio import BinaryReader, open_output, read_lines

logger = logging.getLogger(__name__)

_CEMB_MAGIC = b"CEMB"
_FLOAT32_MAX = float(np.finfo(np.float32).max)


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


def load_word_embeddings(path: str | Path) -> EmbeddingTable:
    """Read a word-vector text file; duplicate words keep the last entry.

    Out-of-vocabulary words map to the zero vector.
    """
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
        table: dict[str, np.ndarray] = {}
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
            if word in table:
                logger.warning("duplicate word %r at line %d; last wins", word, lineno)
            table[word] = vec
    if len(table) != count:
        raise MalformedInput(
            f"{path}: header declares {count} words, file holds {len(table)}"
        )
    return EmbeddingTable(dim=dim, table=table, oov_vector=np.zeros(dim, dtype=np.float64))


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


def load_context_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """A CEMB file as pair_id -> the float64 mean of the record's masked
    (candidate sentence) token rows; each record is pooled as it is read."""
    store: dict[str, np.ndarray] = {}
    for rec in read_context_embeddings(path):
        if rec.pair_id in store:
            logger.warning("duplicate pair id %r; last occurrence wins", rec.pair_id)
        store[rec.pair_id] = rec.tokens[rec.sentence_mask].astype(np.float64).mean(axis=0)
    return store
