"""Parameter persistence: the QFSM binary format.

Layout (little-endian): magic ``QFSM``, u32 version=1, u8 kind (1 =
interaction model, 2 = pooled classifier), u64 seed, kind-specific u32
dims, then every parameter block as raveled f64, and a trailing u32
CRC32 of all preceding bytes.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import KindMismatch, MalformedInput
from ..fileio import open_input
from .lstm import LstmParams
from .models import (
    NNC_KIND,
    POOLED_KIND,
    DenseParams,
    NncParams,
    PooledClassifierParams,
)

_MAGIC = b"QFSM"
_KIND_CODES = {NNC_KIND: 1, POOLED_KIND: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def _blocks(params: NncParams | PooledClassifierParams) -> list[np.ndarray]:
    return list(params.flat().values())


def save_params(params: NncParams | PooledClassifierParams, path: str | Path) -> None:
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<IBQ", 1, _KIND_CODES[params.kind], params.seed)
    if isinstance(params, NncParams):
        out += struct.pack(
            "<III", params.embedding_dim, params.lstm_hidden, params.dense_hidden
        )
    else:
        out += struct.pack("<II", params.input_dim, params.dense_hidden)
    for block in _blocks(params):
        out += np.ascontiguousarray(block, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def _take(data: bytes, offset: int, count: int, path: str | Path) -> tuple[bytes, int]:
    if offset + count > len(data):
        raise MalformedInput(f"{path}: truncated parameter file at byte {offset}")
    return data[offset : offset + count], offset + count


def _read_block(
    data: bytes, offset: int, shape: tuple[int, ...], path: str | Path
) -> tuple[np.ndarray, int]:
    count = int(np.prod(shape))
    raw, offset = _take(data, offset, 8 * count, path)
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy(), offset


def load_params(
    path: str | Path, expected_kind: str | None = None
) -> NncParams | PooledClassifierParams:
    """Read a QFSM file; raises KindMismatch if expected_kind disagrees."""
    with open_input(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != _MAGIC:
        raise MalformedInput(f"{path}: bad magic, expected QFSM")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise MalformedInput(f"{path}: CRC mismatch, file is corrupted")
    body = data[:-4]
    offset = 4
    raw, offset = _take(body, offset, struct.calcsize("<IBQ"), path)
    version, kind_code, seed = struct.unpack("<IBQ", raw)
    if version != 1:
        raise MalformedInput(f"{path}: unsupported version {version}")
    kind = _KIND_NAMES.get(kind_code)
    if kind is None:
        raise MalformedInput(f"{path}: unknown model kind code {kind_code}")
    if expected_kind is not None and kind != expected_kind:
        raise KindMismatch(f"{path}: holds a {kind} model, expected {expected_kind}")

    if kind == NNC_KIND:
        raw, offset = _take(body, offset, 12, path)
        emb_dim, lstm_hidden, dense_hidden = struct.unpack("<III", raw)
        shapes = [
            (4 * lstm_hidden, emb_dim),
            (4 * lstm_hidden, lstm_hidden),
            (4 * lstm_hidden,),
            (4 * lstm_hidden, emb_dim),
            (4 * lstm_hidden, lstm_hidden),
            (4 * lstm_hidden,),
            (dense_hidden, 4 * lstm_hidden + 1),
            (dense_hidden,),
            (1, dense_hidden),
            (1,),
        ]
        arrays = []
        for shape in shapes:
            arr, offset = _read_block(body, offset, shape, path)
            arrays.append(arr)
        if offset != len(body):
            raise MalformedInput(f"{path}: {len(body) - offset} trailing bytes")
        return NncParams(
            lstm_fwd=LstmParams(w_x=arrays[0], w_h=arrays[1], b=arrays[2]),
            lstm_bwd=LstmParams(w_x=arrays[3], w_h=arrays[4], b=arrays[5]),
            hidden=DenseParams(w=arrays[6], b=arrays[7]),
            output=DenseParams(w=arrays[8], b=arrays[9]),
            seed=seed,
        )

    raw, offset = _take(body, offset, 8, path)
    input_dim, dense_hidden = struct.unpack("<II", raw)
    shapes = [
        (dense_hidden, input_dim + 1),
        (dense_hidden,),
        (1, dense_hidden),
        (1,),
    ]
    arrays = []
    for shape in shapes:
        arr, offset = _read_block(body, offset, shape, path)
        arrays.append(arr)
    if offset != len(body):
        raise MalformedInput(f"{path}: {len(body) - offset} trailing bytes")
    return PooledClassifierParams(
        hidden=DenseParams(w=arrays[0], b=arrays[1]),
        output=DenseParams(w=arrays[2], b=arrays[3]),
        seed=seed,
    )
