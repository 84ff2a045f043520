"""Reading and writing the package's files.

Every reader goes through :func:`open_input`, so a missing, unreadable
or undecodable input is a :class:`MalformedInput` (exit code 2 at the
command line), never a bare ``OSError``, ``JSONDecodeError`` or
``UnicodeDecodeError``: text files are read through :func:`read_lines`
or :func:`read_json`, and binary files through :class:`BinaryReader`, which
checks every read against the bytes the file has left. An output that cannot
be created is a :class:`QfsError` naming the path, from :func:`open_output`
or, up front, :func:`check_output`.
Every field of a JSON input is read by :func:`field`, so a value of the wrong
type is a :class:`MalformedInput` naming the file, the field and the value.
"""

from __future__ import annotations

import json
import os
import reprlib
import struct
import sys
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .errors import MalformedInput, QfsError


def open_input(path: str | Path, mode: str = "r") -> IO:
    """Open a file for reading (text is UTF-8); failure is MalformedInput."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def open_output(path: str | Path, mode: str = "w") -> IO:
    """Open a file for writing (text is UTF-8); failure is a QfsError naming it."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise QfsError(f"cannot write {path}: {exc}") from exc


def check_output(path: str | Path) -> str | Path:
    """``path`` if it can be written, else :func:`open_output`'s error; creates no file."""
    existed = os.path.lexists(path)
    open_output(path, "a").close()
    if not existed:
        os.remove(path)
    return path


class BinaryReader:
    """Reads a binary file front to back, as a context manager.

    Each read is checked against the bytes the file has left before any
    buffer is allocated, so a corrupt length field is a MalformedInput
    ``"<path>: truncated <what> at byte offset <n>"``, not an allocation of
    that length. A file read with ``crc=True`` ends in the u32 CRC32 of all
    bytes before it: reads stop short of it and add to a running CRC32,
    which :meth:`finish` checks.
    """

    def __init__(self, path: str | Path, *, crc: bool = False) -> None:
        self.path, self._pos, self._crc = path, 0, (0 if crc else None)
        self._fh = open_input(path, "rb")
        self._end = max(0, os.fstat(self._fh.fileno()).st_size - 4 * crc)

    def __enter__(self) -> BinaryReader:
        return self

    def __exit__(self, *exc_info) -> None:
        self._fh.close()

    @property
    def left(self) -> int:
        """The bytes left to read, the CRC not counted."""
        return self._end - self._pos

    def read(self, count: int, what: str) -> bytearray:
        """The next ``count`` bytes."""
        if count > self._end - self._pos or self._fh.readinto(buf := bytearray(count)) != count:
            raise MalformedInput(f"{self.path}: truncated {what} at byte offset {self._pos}")
        self._pos += count
        if self._crc is not None:
            self._crc = zlib.crc32(buf, self._crc)
        return buf

    def version(self, magic: bytes) -> int:
        """The u32 version that follows ``magic``, which must open the file."""
        found = self.read(min(len(magic), self.left), "magic")
        if found != magic:
            raise MalformedInput(
                f"{self.path}: bad magic {bytes(found)!r}, expected {magic.decode()}"
            )
        return self.u32("header")

    def unpack(self, layout: str, what: str) -> tuple:
        """The fields of a ``struct`` layout."""
        return struct.unpack(layout, self.read(struct.calcsize(layout), what))

    def u32(self, what: str) -> int:
        return int.from_bytes(self.read(4, what), "little")

    def text(self, what: str) -> str:
        """UTF-8 text after its u32 byte length."""
        raw = self.read(self.u32(what), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{self.path}: {what} is not UTF-8: {exc}") from exc

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """``count`` values of a little-endian ``dtype``, in a buffer of their own."""
        return np.frombuffer(self.read(count * np.dtype(dtype).itemsize, what), dtype)

    def finish(self) -> None:
        """Check that nothing is left to read and, if the file has one, its CRC."""
        if self.left:
            raise MalformedInput(f"{self.path}: {self.left} trailing bytes")
        if self._crc is not None and self._crc != int.from_bytes(self._fh.read(4), "little"):
            raise MalformedInput(f"{self.path}: CRC mismatch, file is truncated or corrupted")


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file; bytes that are not UTF-8 are MalformedInput."""
    with open_input(path) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{path}: not UTF-8: {exc}") from exc


def read_json(path: str | Path):
    """Parse one JSON document from a file."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc


def read_jsonl(path: str | Path) -> Iterator[tuple[str, object]]:
    """Yield ``("path:line", object)`` for each non-blank line of a JSONL file."""
    for lineno, line in enumerate(read_lines(path), start=1):
        if line.strip():
            try:
                obj = json.loads(line)
            except ValueError as exc:
                raise MalformedInput(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            yield f"{path}:{lineno}", obj


def write_json(path: str | Path, payload, sort_keys: bool = False) -> None:
    """Write JSON as every output file does: UTF-8, indent 1."""
    with open_output(path) as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=1, sort_keys=sort_keys)


@dataclass(frozen=True, slots=True)
class Rule:
    """What :func:`field` accepts: a value whose type is one of ``types``
    exactly, so that a bool is no integer, and that passes ``test``, if set.
    ``noun`` names the rule in a message and ``show`` renders a refused value;
    ``entry``, if set, is the rule each entry of an accepted list follows."""

    noun: str
    types: tuple[type, ...]
    test: Callable[[object], bool] | None = None
    show: Callable[[object], str] = reprlib.repr
    entry: Rule | None = None

    def refuses(self, value) -> bool:
        return type(value) not in self.types or self.test is not None and not self.test(value)


# Ids are written back out, and UTF-8 encodes all but surrogates (JSON's "\ud800").
ID = Rule("a non-empty string", (str,),
          lambda v: v != "" and (v.isascii() or not any("\ud800" <= c <= "\udfff" for c in v)),
          show=lambda v: reprlib.repr(v) + (", which UTF-8 cannot encode" if v and type(v) is str
                                            else ""))
STRING = Rule("a string", (str,), show=lambda v: type(v).__name__)
INTEGER = Rule("an integer", (int,))
COUNT = Rule("an integer >= 1", (int,), lambda v: v >= 1)
# An int beyond the float range is not a finite number.
NUMBER = Rule("a finite number", (int, float), lambda v: abs(v) <= sys.float_info.max)
OBJECT = Rule("an object", (dict,))
LIST = Rule("a list", (list,))
ID_LIST = replace(LIST, entry=ID)


_REQUIRED = object()


def field(obj: dict, key: str, rule: Rule, where: str, default=_REQUIRED, *, name: str = ""):
    """``obj[key]`` if ``obj`` is an object and the value follows ``rule``, else
    MalformedInput naming ``where`` (the file, or ``path:line``, and the object
    in it), the field and the value.

    An absent key is an error unless a ``default`` is given; the default is
    returned unchecked, also when the key holds it, so ``default=None`` lets
    a JSON null through. ``name`` is the field's name in a message, if not ``key``.
    """
    try:
        value = obj.get(key, default)
    except AttributeError:  # obj is a JSON value other than an object
        raise MalformedInput(
            f"{where}: cannot read {name or key!r} from {reprlib.repr(obj)}, which is not an object"
        ) from None
    if type(value) in rule.types and rule.entry is None and (rule.test is None or rule.test(value)):
        return value  # the common case, checked first
    if value is default:
        if default is _REQUIRED:
            raise MalformedInput(f"{where}: {name or key!r} is missing")
        return value
    if rule.refuses(value):
        raise MalformedInput(f"{where}: {name or key} must be {rule.noun}, not {rule.show(value)}")
    entry = rule.entry
    for item in value if entry is not None else ():
        if entry.refuses(item):
            raise MalformedInput(
                f"{where}: {name or key} entry must be {entry.noun}, not {entry.show(item)}"
            )
    return value
