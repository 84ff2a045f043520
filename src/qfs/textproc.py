"""Deterministic tokenization, sentence splitting, and stopword lists.

Everything here is a pure function of its inputs: same text in, byte
identical output out. The sentence splitter is rule based (terminator
followed by whitespace and an uppercase letter or digit, with a fixed
abbreviation exception list) so that character offsets are exact and no
trained model is involved. Its rules are two regular expressions over
ASCII text; other text is split through an ASCII copy of the same
length, in which every other character stands in for its kind.

Tokens are maximal runs of letters and digits, lowercased. ASCII text is
tokenized by ``bytes.translate`` through one byte table, ``TOKEN_BYTES``,
which the sentence table's block build and the SU4 kernel share; other
text by a regex. Both number tokens through :func:`split_words`, which
keeps the per-call rule of :mod:`qfs`: the SU4 kernel calls it per chunk.
"""

from __future__ import annotations

import codecs
import functools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .fileio import read_lines

# Maximal runs of Unicode letters/digits; underscore is excluded on purpose.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# The same rule per byte: an ASCII letter or digit to its lowercase, else a space.
TOKEN_BYTES = bytes(c if bytes([c]).isalnum() else 32 for c in range(256)).lower()

# Lowercased abbreviations that never end a sentence when followed by a
# period. Dotted acronyms such as "e.g." or "U.S." are caught separately.
ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "st", "jr", "sr",
    "vs", "cf", "al", "fig", "figs", "eq", "eqs", "no", "nos", "sec",
    "secs", "ref", "refs", "resp", "approx", "dept", "univ", "inc",
    "ltd", "co", "corp",
})

# The rules over ASCII text. A break ends a terminator run (closers
# included) followed by whitespace and then an uppercase letter or digit,
# or by the end of the text; it is matched where "!" and "?" read as ".",
# as a pattern that starts with one literal character scans much faster.
_ASCII_BREAK_RE = re.compile(r"\.\.*[\"')\]]*(?=\s\s*[A-Z0-9]|\Z)")
# A lone period that ends an abbreviation (the whole run of letters before
# it, in any case) or a single letter after a period, as in "e.g.", does
# not break: one lookbehind per word length.
_ASCII_ABBREVIATION_RE = re.compile(r"\.(?![.!?\"')\]])(?:%s|(?<=\.[A-Za-z]\.))" % "|".join(
    rf"(?<=(?<![A-Za-z])(?i:{'|'.join(sorted(w for w in ABBREVIATIONS if len(w) == n))})\.)"
    for n in sorted(set(map(len, ABBREVIATIONS)))
))


@functools.cache
def _stand_in(c: str) -> str:
    """An ASCII character of the same kind as ``c`` to the splitting rules:
    whitespace, a closer, an upper or other letter (as "Z" or "z", in no
    abbreviation, like any word with a non-ASCII letter), an upper case
    or digit non-letter, or none of these."""
    if c in "’”":
        return "'" if c == "’" else '"'
    if c.isspace():
        return " "
    if c.isalpha():
        return "Z" if c.isupper() else "z"
    return "0" if c.isupper() or c.isdigit() else "#"


# ``text.encode("ascii", ASCII_STAND_INS)`` puts stand-ins for the
# non-ASCII characters, so offsets do not move.
ASCII_STAND_INS = "qfs.ascii_stand_ins"
codecs.register_error(ASCII_STAND_INS, lambda error: (
    "".join(map(_stand_in, error.object[error.start : error.end])), error.end
))


@dataclass(frozen=True)
class SentenceSpan:
    """A sentence with 0-based ordinal and character offsets."""

    index: int
    begin: int
    end: int
    text: str


def token_surfaces(text: str) -> list[str]:
    """Maximal runs of letters/digits, lowercased."""
    if text.isascii():
        return text.encode().translate(TOKEN_BYTES).decode().split()
    return list(map(str.lower, _TOKEN_RE.findall(text)))


# The top k bytes of a uint64, for a word of k <= 8 bytes.
_WORD_MASKS = np.array([(1 << 64) - (1 << 64 - 8 * k) for k in range(9)], np.uint64)
# The keys of words over 8 bytes start here: 0xFF is no UTF-8 byte.
LONG_WORD_KEYS = 0xFF << 56


def split_words(words: bytes, long_words: dict[bytes, int]) -> tuple[np.ndarray, np.ndarray]:
    """Where each space-separated token of ``words`` starts, and its key: up to
    8 bytes, the bytes big-endian in a ``uint64``, zero-padded (distinct, as no
    token holds a zero byte or a space); more, ``LONG_WORD_KEYS`` plus its
    number in ``long_words``, a ``defaultdict`` that numbers a new word."""
    # A space before the tokens ends a run at the start; eight after end one
    # at the end and leave every token 8 bytes to read from its start.
    padded = b"".join((b" ", words, b" " * 8))
    in_word = np.frombuffer(padded, dtype=np.uint8) != ord(" ")
    edges = (in_word[1:] != in_word[:-1]).nonzero()[0]
    begin = edges[::2]  # offsets into ``words``
    size = edges[1::2] - begin
    # The 8 bytes from each offset after the leading space, as one integer.
    window = np.ndarray(len(padded) - 9, ">u8", padded, offset=1, strides=(1,))
    keys = window[begin] & _WORD_MASKS[np.minimum(size, 8)]
    at = (size > 8).nonzero()[0]
    if len(at):
        found = [padded[b + 1 : b + 1 + n] for b, n in zip(begin[at].tolist(), size[at].tolist())]
        keys[at] = LONG_WORD_KEYS + np.fromiter(map(long_words.__getitem__, found), np.uint64)
    return begin, keys


def run_edges(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts, then ``len(keys)``."""
    edge = np.empty(len(keys) + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def sentence_breaks(text: str) -> list[int]:
    """End offsets (exclusive) of every detected sentence boundary."""
    if not text.isascii():
        text = text.encode("ascii", ASCII_STAND_INS).decode("ascii")
    ends = [m.end() for m in _ASCII_BREAK_RE.finditer(text.replace("!", ".").replace("?", "."))]
    skip = {m.end() for m in _ASCII_ABBREVIATION_RE.finditer(text)}
    return [end for end in ends if end not in skip] if skip else ends


def sentence_bounds(text: str, cuts: Iterable[int] = ()) -> list[tuple[int, int]]:
    """(begin, end) offsets of the sentences, covering all non-whitespace content:
    what lies between two breaks or ``cuts`` (or an end of the text), stripped,
    if not empty.

    The join rule: texts joined by ``"\\n"``, each text's start a cut, split
    as each text alone does. A break the join adds falls where only
    whitespace follows in its text, and a start cut ends the text before it
    as that text's end does.
    """
    cuts = sorted({0, *sentence_breaks(text), *cuts, len(text)})
    bounds = []
    for cut, next_cut in zip(cuts, cuts[1:]):
        chunk = text[cut:next_cut]
        begin, end = cut + len(chunk) - len(chunk.lstrip()), cut + len(chunk.rstrip())
        if begin < end:
            bounds.append((begin, end))
    return bounds


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split text into sentence spans covering all non-whitespace content.

    ``bench/gen.py`` builds its corpora with this function: removing it, or
    changing its signature, fails every benchmark run until ``bench/`` moves.
    """
    return [SentenceSpan(i, b, e, text[b:e]) for i, (b, e) in enumerate(sentence_bounds(text))]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one lowercase token per line, UTF-8."""
    return frozenset(line.strip().lower() for line in read_lines(path) if line.strip())
