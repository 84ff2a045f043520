"""Deterministic tokenization, sentence splitting, and stopword lists.

Everything here is a pure function of its inputs: same text in, byte
identical output out. The sentence splitter is rule based (terminator
followed by whitespace and an uppercase letter or digit, with a fixed
abbreviation exception list) so that character offsets are exact and no
trained model is involved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .fileio import read_lines

# Maximal runs of Unicode letters/digits; underscore is excluded on purpose.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# A terminator run plus any closing quotes/brackets that belong to it,
# matched in a copy of the text where "!" and "?" read as ".": a pattern
# that starts with one literal character is scanned for much faster.
_BOUNDARY_RE = re.compile(r"\.\.*[\"'’”)\]]*")

# A whitespace run (``\s`` is exactly ``str.isspace``).
_SPACE_RE = re.compile(r"\s*")

# Lowercased abbreviations that never end a sentence when followed by a
# period. Dotted acronyms such as "e.g." or "U.S." are caught separately.
ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "st", "jr", "sr",
    "vs", "cf", "al", "fig", "figs", "eq", "eqs", "no", "nos", "sec",
    "secs", "ref", "refs", "resp", "approx", "dept", "univ", "inc",
    "ltd", "co", "corp",
})
_LONGEST_ABBREVIATION = max(map(len, ABBREVIATIONS))


@dataclass(frozen=True)
class SentenceSpan:
    """A sentence with 0-based ordinal and character offsets."""

    index: int
    begin: int
    end: int
    text: str


def token_surfaces(text: str) -> list[str]:
    """Maximal runs of letters/digits, lowercased."""
    if text.isascii():  # lowercasing ASCII keeps every letter a letter, in place
        return _TOKEN_RE.findall(text.lower())
    return list(map(str.lower, _TOKEN_RE.findall(text)))


def sentence_tokens(text: str, bounds: Sequence[tuple[int, int]]) -> list[list[str]]:
    """:func:`token_surfaces` of ``text[begin:end]`` for each (begin, end) of ``bounds``."""
    if text.isascii():  # one lowercasing for the whole text, as above
        lowered = text.lower()
        return [_TOKEN_RE.findall(lowered, begin, end) for begin, end in bounds]
    return [token_surfaces(text[begin:end]) for begin, end in bounds]


def _is_abbreviation(text: str, period_pos: int) -> bool:
    """True when the period at ``period_pos`` ends a known abbreviation."""
    # More letters than the longest abbreviation are no abbreviation.
    window = text[max(0, period_pos - _LONGEST_ABBREVIATION - 1) : period_pos]
    if len(window) > _LONGEST_ABBREVIATION and window.isalpha():
        return False
    j = period_pos
    i = j
    while i > 0 and text[i - 1].isalpha():
        i -= 1
    word = text[i:j]
    if not word:
        return False
    if word.lower() in ABBREVIATIONS:
        return True
    # Single letter preceded by a dot: internal period of "e.g.", "U.S.".
    if len(word) == 1 and i > 0 and text[i - 1] == ".":
        return True
    return False


def _sentence_breaks(text: str) -> list[int]:
    """End offsets (exclusive) of every detected sentence boundary."""
    breaks = []
    for m in _BOUNDARY_RE.finditer(text.replace("!", ".").replace("?", ".")):
        start, end = m.span()
        # A lone period defers to the abbreviation list.
        if end - start == 1 and text[start] == "." and _is_abbreviation(text, start):
            continue
        if end >= len(text):
            breaks.append(end)
            continue
        if not text[end].isspace():
            continue
        # Matching the whitespace in place keeps the scan linear in the text.
        nxt = _SPACE_RE.match(text, end).end()
        if nxt < len(text) and (text[nxt].isupper() or text[nxt].isdigit()):
            breaks.append(end)
    return breaks


def sentence_bounds(text: str) -> list[tuple[int, int]]:
    """(begin, end) offsets of the sentences, covering all non-whitespace content."""
    bounds: list[tuple[int, int]] = []
    cursor = 0
    for brk in _sentence_breaks(text):
        begin = _SPACE_RE.match(text, cursor).end()  # a break follows a non-space
        if begin < brk:
            bounds.append((begin, brk))
        cursor = brk
    begin = _SPACE_RE.match(text, cursor).end()
    end = begin + len(text[begin:].rstrip())
    if begin < end:
        bounds.append((begin, end))
    return bounds


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split text into sentence spans covering all non-whitespace content."""
    return [SentenceSpan(i, b, e, text[b:e]) for i, (b, e) in enumerate(sentence_bounds(text))]


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one lowercase token per line, UTF-8."""
    return frozenset(line.strip().lower() for line in read_lines(path) if line.strip())
