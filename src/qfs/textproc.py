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

from .fileio import read_lines

# Maximal runs of Unicode letters/digits; underscore is excluded on purpose.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# A terminator run plus any closing quotes/brackets that belong to it.
_BOUNDARY_RE = re.compile(r"[.!?]+[\"'’”)\]]*")

# Lowercased abbreviations that never end a sentence when followed by a
# period. Dotted acronyms such as "e.g." or "U.S." are caught separately.
ABBREVIATIONS = frozenset({
    "dr", "mr", "mrs", "ms", "prof", "rev", "hon", "st", "jr", "sr",
    "vs", "cf", "al", "fig", "figs", "eq", "eqs", "no", "nos", "sec",
    "secs", "ref", "refs", "resp", "approx", "dept", "univ", "inc",
    "ltd", "co", "corp",
})


@dataclass(frozen=True)
class SentenceSpan:
    """A sentence with 0-based ordinal and character offsets."""

    index: int
    begin: int
    end: int
    text: str


def token_surfaces(text: str) -> list[str]:
    """Maximal runs of letters/digits, lowercased."""
    return [m.group().lower() for m in _TOKEN_RE.finditer(text)]


def _is_abbreviation(text: str, period_pos: int) -> bool:
    """True when the period at ``period_pos`` ends a known abbreviation."""
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
    for m in _BOUNDARY_RE.finditer(text):
        end = m.end()
        run = m.group()
        # Period-only runs defer to the abbreviation list.
        if set(run) <= {"."} and run.count(".") == 1:
            if _is_abbreviation(text, m.start()):
                continue
        if end >= len(text):
            breaks.append(end)
            continue
        if not text[end].isspace():
            continue
        rest = text[end:].lstrip()
        if rest and (rest[0].isupper() or rest[0].isdigit()):
            breaks.append(end)
    return breaks


def split_sentences(text: str) -> list[SentenceSpan]:
    """Split text into sentence spans covering all non-whitespace content."""
    spans: list[SentenceSpan] = []
    cursor = 0
    for brk in _sentence_breaks(text):
        chunk = text[cursor:brk]
        begin = cursor + len(chunk) - len(chunk.lstrip())
        if begin < brk:
            spans.append(SentenceSpan(len(spans), begin, brk, text[begin:brk]))
        cursor = brk
    tail = text[cursor:]
    stripped = tail.strip()
    if stripped:
        begin = cursor + len(tail) - len(tail.lstrip())
        end = begin + len(stripped)
        spans.append(SentenceSpan(len(spans), begin, end, text[begin:end]))
    return spans


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one lowercase token per line, UTF-8."""
    return frozenset(line.strip().lower() for line in read_lines(path) if line.strip())
