"""Parameter persistence: the QFSM binary format.

Layout (little-endian): magic ``QFSM``, u32 version=2, u8 kind (1 =
interaction model, 2 = pooled classifier), u64 seed, the kind's u32
header dims (``ModelKind.header``), u32 ``clip_len`` the model was
trained with, then every parameter block as raveled f64, in the kind's
``shapes`` order and at the shapes it gives for the header dims, and a
trailing u32 CRC32 of all preceding bytes. Version 1 files have no
``clip_len`` field; they load with the kind's default ``clip_len``.
A parameter that is NaN or infinite is ``MalformedInput`` behind a valid
CRC, so a model that diverged cannot score.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import MalformedInput
from ..fileio import BinaryReader, open_output
from .models import KINDS, Params

_MAGIC = b"QFSM"
_HEAD = struct.Struct("<IBQ")  # version, kind code, seed
_VERSION = 2
_CLIP = struct.Struct("<I")
_BY_CODE = {kind.code: kind for kind in KINDS.values()}


def save_params(params: Params, path: str | Path, clip_len: int | None = None) -> None:
    """Write a QFSM file; ``clip_len`` defaults to the kind's training default."""
    kind = KINDS[params.kind]
    out = bytearray(_MAGIC)
    out += _HEAD.pack(_VERSION, kind.code, params.seed)
    out += struct.pack(f"<{len(kind.header)}I", *(params.dims[name] for name in kind.header))
    out += _CLIP.pack(kind.train_defaults.clip_len if clip_len is None else clip_len)
    for block in params.blocks.values():
        out += np.ascontiguousarray(block, dtype="<f8").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    with open_output(path, "wb") as fh:
        fh.write(bytes(out))


def load_params(path: str | Path, expected_kind: str | None = None) -> tuple[Params, int]:
    """Read a QFSM file: the parameters and the ``clip_len`` they were trained with.

    Raises ``MalformedInput`` if the file holds a kind other than ``expected_kind``.
    """
    with BinaryReader(path, crc=True) as reader:
        version = reader.version(_MAGIC)
        if version not in (1, _VERSION):
            raise MalformedInput(f"{path}: unsupported version {version}")
        kind_code, seed = reader.unpack("<BQ", "header")
        kind = _BY_CODE.get(kind_code)
        if kind is None:
            raise MalformedInput(f"{path}: unknown model kind code {kind_code}")
        if expected_kind is not None and kind.name != expected_kind:
            raise MalformedInput(f"{path}: holds a {kind.name} model, expected {expected_kind}")
        dims = dict(zip(kind.header, reader.unpack(f"<{len(kind.header)}I", "dims")))
        clip_len = kind.train_defaults.clip_len
        if version == _VERSION:
            clip_len = reader.u32("clip_len")
            if clip_len < 1:
                raise MalformedInput(f"{path}: clip_len {clip_len}, expected >= 1")
        # The shapes are plain ints, so a corrupt header's huge dims cost nothing here.
        shapes = kind.shapes(**dims)
        expected = 8 * sum(math.prod(shape) for shape in shapes.values())
        if reader.left != expected:
            raise MalformedInput(
                f"{path}: {reader.left} bytes of parameters, {expected} for its dims"
            )
        blocks = {
            name: reader.array("<f8", math.prod(shape), name).reshape(shape)
            for name, shape in shapes.items()
        }
        reader.finish()
    if bad := [name for name, block in blocks.items() if not np.isfinite(block).all()]:
        raise MalformedInput(f"{path}: parameter block {bad[0]!r} holds a non-finite value")
    return Params(kind.name, dims, blocks, seed), clip_len
