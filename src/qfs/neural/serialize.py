"""Parameter persistence: the QFSM binary format.

Layout (little-endian): magic ``QFSM``, u32 version=2, u8 kind (1 =
interaction model, 2 = pooled classifier), u64 seed, the kind's u32
header dims (``ModelKind.header``), u32 ``clip_len`` the model was
trained with, then every parameter block of ``flat()`` as raveled f64,
and a trailing u32 CRC32 of all preceding bytes. Block shapes are those
of the kind's ``init`` at the header dims. Version 1 files have no
``clip_len`` field; they load with the kind's default ``clip_len``.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import KindMismatch, MalformedInput
from ..fileio import open_input
from .models import KINDS, ModelKind, NncParams, PooledClassifierParams

_MAGIC = b"QFSM"
_HEAD = struct.Struct("<IBQ")  # version, kind code, seed
_VERSION = 2
_CLIP = struct.Struct("<I")
_BY_CODE = {kind.code: kind for kind in KINDS.values()}


def save_params(
    params: NncParams | PooledClassifierParams, path: str | Path, clip_len: int | None = None
) -> None:
    """Write a QFSM file; ``clip_len`` defaults to the kind's training default."""
    kind = KINDS[params.kind]
    dims = [getattr(params, name) for name in kind.header]
    out = bytearray(_MAGIC)
    out += _HEAD.pack(_VERSION, kind.code, params.seed)
    out += struct.pack(f"<{len(dims)}I", *dims)
    out += _CLIP.pack(kind.train_defaults.clip_len if clip_len is None else clip_len)
    for block in params.flat().values():
        out += np.ascontiguousarray(block, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def _value_count(kind: ModelKind, dims: dict[str, int]) -> int:
    """How many f64 values a model with these header dims holds.

    Found without building the model, which a corrupt header could make
    huge: every block axis is affine in the dims (``4H``, ``4H + 1``,
    ``E``, ``1``), so the models at zero dims and at each unit dim give
    its coefficients.
    """

    def shapes(**ones: int) -> list[tuple[int, ...]]:
        params = kind.init(**{**dict.fromkeys(kind.header, 0), **ones})
        return [block.shape for block in params.flat().values()]

    base = shapes()
    unit = {name: shapes(**{name: 1}) for name in kind.header}
    return sum(
        math.prod(
            axis + sum(dims[name] * (unit[name][i][j] - axis) for name in kind.header)
            for j, axis in enumerate(shape)
        )
        for i, shape in enumerate(base)
    )


def load_params(
    path: str | Path, expected_kind: str | None = None
) -> tuple[NncParams | PooledClassifierParams, int]:
    """Read a QFSM file: the parameters and the ``clip_len`` they were trained with.

    Raises KindMismatch if expected_kind disagrees.
    """
    with open_input(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != _MAGIC:
        raise MalformedInput(f"{path}: bad magic, expected QFSM")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise MalformedInput(f"{path}: CRC mismatch, file is corrupted")
    body, offset = data[:-4], len(_MAGIC) + _HEAD.size
    if len(body) < offset:
        raise MalformedInput(f"{path}: truncated parameter file")
    version, kind_code, seed = _HEAD.unpack_from(body, len(_MAGIC))
    if version not in (1, _VERSION):
        raise MalformedInput(f"{path}: unsupported version {version}")
    kind = _BY_CODE.get(kind_code)
    if kind is None:
        raise MalformedInput(f"{path}: unknown model kind code {kind_code}")
    if expected_kind is not None and kind.name != expected_kind:
        raise KindMismatch(f"{path}: holds a {kind.name} model, expected {expected_kind}")
    header = struct.Struct(f"<{len(kind.header)}I")
    if len(body) < offset + header.size:
        raise MalformedInput(f"{path}: truncated parameter file")
    dims = dict(zip(kind.header, header.unpack_from(body, offset)))
    offset += header.size
    clip_len = kind.train_defaults.clip_len
    if version == _VERSION:
        if len(body) < offset + _CLIP.size:
            raise MalformedInput(f"{path}: truncated parameter file")
        (clip_len,) = _CLIP.unpack_from(body, offset)
        offset += _CLIP.size
        if clip_len < 1:
            raise MalformedInput(f"{path}: clip_len {clip_len}, expected >= 1")
    expected = 8 * _value_count(kind, dims)
    if len(body) - offset != expected:
        raise MalformedInput(
            f"{path}: {len(body) - offset} bytes of parameters, {expected} for its dims"
        )
    params = kind.init(**dims, seed=seed)
    values = np.frombuffer(body, dtype="<f8", offset=offset)
    start = 0
    for block in params.flat().values():
        block[...] = values[start : start + block.size].reshape(block.shape)
        start += block.size
    return params, clip_len
