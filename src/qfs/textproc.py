"""Deterministic tokenization, sentence splitting, and tf-idf vectors.

Everything here is a pure function of its inputs: same text in, byte
identical output out. The sentence splitter is rule based (terminator
followed by whitespace and an uppercase letter or digit, with a fixed
abbreviation exception list) so that character offsets are exact and no
trained model is involved.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import EmptyCorpus
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
class TokenSpan:
    """A lowercased token anchored to its source character offsets."""

    surface: str
    begin: int
    end: int


@dataclass(frozen=True)
class SentenceSpan:
    """A sentence with 0-based ordinal and character offsets."""

    index: int
    begin: int
    end: int
    text: str


def tokenize(text: str) -> list[TokenSpan]:
    """Split text into maximal runs of letters/digits, lowercased."""
    return [
        TokenSpan(m.group().lower(), m.start(), m.end())
        for m in _TOKEN_RE.finditer(text)
    ]


def token_surfaces(text: str) -> list[str]:
    """Just the lowercased token strings of ``tokenize(text)``."""
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


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector as (index, weight) entries with increasing indices."""

    entries: tuple[tuple[int, float], ...]

    def __bool__(self) -> bool:
        return bool(self.entries)


EMPTY_VECTOR = SparseVector(())


@dataclass(frozen=True)
class TfidfModel:
    """Vocabulary with smoothed idf weights; immutable after fit."""

    vocabulary: dict[str, int]
    idf: dict[str, float]
    n_docs: int


def tfidf_fit(docs: list[list[str]]) -> TfidfModel:
    """Fit idf(t) = ln((1 + n) / (1 + df(t))) + 1 over token lists."""
    if not docs:
        raise EmptyCorpus("tfidf_fit requires at least one document")
    df: Counter[str] = Counter()
    for tokens in docs:
        df.update(set(tokens))
    n = len(docs)
    vocabulary = {term: i for i, term in enumerate(sorted(df))}
    idf = {term: math.log((1 + n) / (1 + df[term])) + 1.0 for term in df}
    return TfidfModel(vocabulary=vocabulary, idf=idf, n_docs=n)


def tfidf_vector(model: TfidfModel, tokens: list[str]) -> SparseVector:
    """Raw-tf times idf, L2 normalized; out-of-vocabulary tokens ignored."""
    counts = Counter(t for t in tokens if t in model.vocabulary)
    if not counts:
        return EMPTY_VECTOR
    entries = sorted(
        (model.vocabulary[t], tf * model.idf[t]) for t, tf in counts.items()
    )
    norm = math.sqrt(sum(w * w for _, w in entries))
    return SparseVector(tuple((i, w / norm) for i, w in entries))


def cosine(a: SparseVector, b: SparseVector) -> float:
    """Dot product of two L2-normalized sparse vectors, in [0, 1]."""
    if not a or not b:
        return 0.0
    bi = dict(b.entries)
    dot = sum(w * bi[i] for i, w in a.entries if i in bi)
    return min(1.0, max(0.0, dot))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one lowercase token per line, UTF-8."""
    return frozenset(line.strip().lower() for line in read_lines(path) if line.strip())
