"""Reading and writing the package's files.

Every reader goes through :func:`open_input`, so a missing, unreadable
or undecodable input is a :class:`MalformedInput` (exit code 2 at the
command line), never a bare ``OSError`` or ``JSONDecodeError``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator

from .errors import MalformedInput


def open_input(path: str | Path, mode: str = "r") -> IO:
    """Open a file for reading (text is UTF-8); failure is MalformedInput."""
    try:
        return open(path, mode, encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc


def read_exact(fh: IO[bytes], count: int, path: str | Path, what: str) -> bytes:
    """Exactly ``count`` bytes from a binary file, or MalformedInput."""
    data = fh.read(count)
    if len(data) != count:
        raise MalformedInput(
            f"{path}: truncated {what} at byte offset {fh.tell() - len(data)}"
        )
    return data


def read_json(path: str | Path):
    """Parse one JSON document from a file."""
    with open_input(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise MalformedInput(f"invalid JSON in {path}: {exc}") from exc


def read_jsonl(path: str | Path) -> Iterator[tuple[str, object]]:
    """Yield ``("path:line", object)`` for each non-blank line of a JSONL file."""
    with open_input(path) as fh:
        lineno = 1
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield f"{path}:{lineno}", json.loads(line)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise MalformedInput(f"{path}:{lineno}: invalid JSON: {exc}") from exc


def write_json(path: str | Path, payload, sort_keys: bool = False) -> None:
    """Write JSON as every output file does: UTF-8, indent 1."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=1, sort_keys=sort_keys)
