"""ROUGE-style summary metrics and retrieval evaluation.

ROUGE-SU4 (Lin 2004) counts unigrams plus ordered skip-bigrams with at
most four intervening tokens (the "-2 4 -u" convention), with multiset
clipping so repeated candidate units cannot inflate precision. No
begin-of-sentence marker is added. Scoring tokenization is
``textproc.token_surfaces`` (lowercased alphanumeric runs), no stemming.

Labels, the oracle scorer, cross-validation and :func:`evaluate_run`
score through :func:`su4_scores`, every candidate against every
reference of a question in one call. With its V distinct tokens as
first-seen ids 0..V-1, a unigram's key is its id a and a skip-bigram
(a, b) at gap 1..5 within one text is V + a*V + b. A unit of text t
(candidates first, then references) packs as key << S | t, where S is
the bit width of the largest text number, and is checked to stay below
2**63. The units come from one gap-major (6, N) array over the N
tokens, row g holding each token with the token g later, so every row
is long. Sorting the packed units and cutting them into runs counts
each text's units. The join: runs of one key are one key group, each
reference's count of every group is scattered into a reference-major
(references, groups) table, and each run gathers its group's column,
so ``np.minimum`` with its own count and ``np.bincount`` by (text,
reference) give the clipped matches; the references' own runs fall in
bins past the candidates' and are dropped. Those are exact integers,
and precision, recall and F1 follow :meth:`RougeScore.from_pr`'s
float64 operations in its order, so every score is exact. A text
without tokens scores zero.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import EmptyInput, MalformedInput
from .textproc import token_surfaces

SU4_SKIP = 4
_INT64_SPAN = 2**63


@dataclass(frozen=True)
class RougeScore:
    """Precision/recall/F1 triple, all in [0, 1]."""

    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return cls(precision, recall, f1)

    @classmethod
    def zero(cls) -> "RougeScore":
        return cls(0.0, 0.0, 0.0)


def _later(a: np.ndarray, n: int) -> np.ndarray:
    """Rows g = 0 .. SU4_SKIP + 1 of ``a[g : g + n]``, a view: ``a`` has
    ``SU4_SKIP + 1`` more values than ``n``."""
    return np.ndarray((SU4_SKIP + 2, n), a.dtype, a, 0, (a.itemsize, a.itemsize))


def su4_scores(
    candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SU4 precision, recall and F1 of every candidate against every reference.

    Texts are token sequences; each result is a float64 array of shape
    ``(len(candidates), len(references))``.
    """
    texts = [*candidates, *references]
    n_c, n_r, n_t = len(candidates), len(references), len(texts)
    lengths = list(map(len, texts))
    n = sum(lengths)
    vocab: defaultdict[str, int] = defaultdict(count().__next__)  # a new token: the next id
    ids = np.zeros(n + SU4_SKIP + 1, np.int64)  # padded, so that every token has 5 later
    ids[:n] = np.fromiter(map(vocab.__getitem__, chain.from_iterable(texts)), np.int64, n)
    v, shift = len(vocab), max(n_t - 1, 0).bit_length()
    if v * (v + 1) << shift > _INT64_SPAN:
        raise ValueError(f"{v} distinct tokens in {n_t} texts overflow the SU4 unit keys")
    owner = np.repeat(np.arange(n_t + 1), [*lengths, SU4_SKIP + 1])  # the padding's text: n_t
    pair_base = (ids[:n] + 1) * (v << shift)  # (v + a * v) << shift
    ids <<= shift
    # Row 0: each token's unigram; row g: its pair with the token g later.
    units = _later(ids, n) + owner[:n]
    units[1:] += pair_base
    units = units[_later(owner, n) == owner[:n]]  # both tokens in one text
    units.sort()
    edge = np.ones(len(units) + 1, bool)  # run boundaries of equal (unit, text)
    np.not_equal(units[1:], units[:-1], out=edge[1:-1])
    edges = np.flatnonzero(edge)
    counts, units = edges[1:] - edges[:-1], units[edges[:-1]]
    text = units & ((1 << shift) - 1)
    total = np.bincount(text, counts, n_t)

    # Each run's key group, and every reference's count of each group.
    key = units >> shift
    group = np.zeros(len(units), np.int64)
    group[1:] = key[1:] != key[:-1]
    np.cumsum(group, out=group)
    per_ref = np.zeros((n_r + 1, group[-1] + 1 if len(group) else 0), np.int64)
    per_ref[np.maximum(text + 1 - n_c, 0), group] = counts  # row 0 takes the candidates
    clipped = per_ref[1:].take(group, axis=1)
    np.minimum(clipped, counts, out=clipped)
    pair = text * n_r + np.arange(n_r)[:, None]
    matches = np.bincount(pair.ravel(), clipped.ravel(), n_t * n_r)[: n_c * n_r]
    matches = matches.reshape(n_c, n_r)

    # No units or no match scores 0.0: divide by 1 there, never by zero.
    precision = matches / np.maximum(total[:n_c, None], 1)
    recall = matches / np.maximum(total[n_c:], 1)
    f1 = 2.0 * precision * recall / np.where(matches > 0, precision + recall, 1.0)
    return precision, recall, f1


def _first_candidate_score(scores: tuple[np.ndarray, ...], ref: int) -> RougeScore:
    return RougeScore(*(float(a[0, ref]) for a in scores))


def rouge_su4_f1(candidate: str, reference: str) -> RougeScore:
    """Skip-bigram (gap <= 4) plus unigram F1 between two texts."""
    scores = su4_scores([token_surfaces(candidate)], [token_surfaces(reference)])
    return _first_candidate_score(scores, 0)


def best_reference_f1s(
    candidates: Sequence[Sequence[str]], references: Sequence[Sequence[str]]
) -> list[float]:
    """Each token-sequence candidate's max SU4-F1 over a non-empty reference list."""
    if not references:
        raise EmptyInput("at least one reference text is required")
    return su4_scores(candidates, references)[2].max(axis=1).tolist()


def best_reference_f1(candidate: str, references: Sequence[str]) -> float:
    """Max SU4-F1 of the candidate text over a non-empty list of reference texts."""
    refs = [token_surfaces(r) for r in references]
    return best_reference_f1s([token_surfaces(candidate)], refs)[0]


def document_f1(returned: Sequence[str], gold: Iterable[str]) -> RougeScore:
    """Set precision/recall/F1 over document ids."""
    if len(returned) != len(set(returned)):
        raise MalformedInput("returned document list contains duplicates")
    gold_set = set(gold)
    hits = sum(1 for d in returned if d in gold_set)
    precision = hits / len(returned) if returned else 0.0
    recall = hits / len(gold_set) if gold_set else 0.0
    return RougeScore.from_pr(precision, recall)


def _merged_length(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, -math.inf
    for begin, end in sorted(intervals):
        if end > reach:
            total += end - max(begin, reach)
            reach = end
    return total


def _by_section(spans: Sequence[Any]) -> dict[tuple[str, str], list[tuple[int, int]]]:
    groups: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for span in spans:
        groups.setdefault((span.doc_id, span.section_id), []).append(
            (span.begin_char, span.end_char)
        )
    return groups


def snippet_f1(returned: Sequence[Any], gold: Sequence[Any]) -> RougeScore:
    """Character-overlap F1 between snippet span lists.

    Characters are grouped per (document, section) and counted once per
    side (union semantics), so overlapping spans on the same side do not
    double count. Per group, |A ∩ B| = |A| + |B| - |A ∪ B|.
    """
    ret, ref = _by_section(returned), _by_section(gold)
    ret_len = {key: _merged_length(v) for key, v in ret.items()}
    ref_len = {key: _merged_length(v) for key, v in ref.items()}
    overlap = sum(
        ret_len[key] + ref_len[key] - _merged_length(ret[key] + ref[key])
        for key in ret.keys() & ref.keys()
    )
    returned_total, gold_total = sum(ret_len.values()), sum(ref_len.values())
    precision = overlap / returned_total if returned_total else 0.0
    recall = overlap / gold_total if gold_total else 0.0
    return RougeScore.from_pr(precision, recall)


@dataclass
class QuestionEval:
    """Per-question evaluation row."""

    question_id: str
    document: RougeScore
    snippet: RougeScore
    ideal_su4: RougeScore


@dataclass
class EvalReport:
    """Per-question rows plus macro averages (arithmetic means)."""

    per_question: list[QuestionEval] = field(default_factory=list)

    @property
    def macro_document_f1(self) -> float:
        return _mean([q.document.f1 for q in self.per_question])

    @property
    def macro_snippet_f1(self) -> float:
        return _mean([q.snippet.f1 for q in self.per_question])

    @property
    def macro_su4_f1(self) -> float:
        return _mean([q.ideal_su4.f1 for q in self.per_question])

    def to_json(self) -> dict:
        return {
            "per_question": [
                {
                    "id": q.question_id,
                    "document_f1": q.document.f1,
                    "snippet_f1": q.snippet.f1,
                    "ideal_su4_f1": q.ideal_su4.f1,
                }
                for q in self.per_question
            ],
            "macro": {
                "document_f1": self.macro_document_f1,
                "snippet_f1": self.macro_snippet_f1,
                "ideal_su4_f1": self.macro_su4_f1,
            },
        }

    def to_table(self) -> str:
        header = f"{'question':<28} {'doc_f1':>8} {'snip_f1':>8} {'su4_f1':>8}"
        lines = [header, "-" * len(header)]
        for q in self.per_question:
            lines.append(
                f"{q.question_id:<28} {q.document.f1:>8.4f} "
                f"{q.snippet.f1:>8.4f} {q.ideal_su4.f1:>8.4f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'MACRO':<28} {self.macro_document_f1:>8.4f} "
            f"{self.macro_snippet_f1:>8.4f} {self.macro_su4_f1:>8.4f}"
        )
        return "\n".join(lines)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def evaluate_run(question_set: Iterable[Any], answers: Iterable[Any]) -> EvalReport:
    """Score a batch of answers against gold questions.

    ``answers`` yields objects with question_id/documents/snippets/
    ideal_answer attributes. Gold questions missing from the run score
    zero; answers for unknown question ids are ignored.
    """
    by_id = {a.question_id: a for a in answers}
    report = EvalReport()
    for q in question_set:
        answer = by_id.get(q.id)
        if answer is None:
            report.per_question.append(
                QuestionEval(q.id, RougeScore.zero(), RougeScore.zero(), RougeScore.zero())
            )
            continue
        doc = document_f1(list(answer.documents), q.gold_documents)
        snip = snippet_f1(list(answer.snippets), q.gold_snippets)
        if q.ideal_answers and answer.ideal_answer:
            refs = [token_surfaces(ref) for ref in q.ideal_answers]
            scores = su4_scores([token_surfaces(answer.ideal_answer)], refs)
            su4 = _first_candidate_score(scores, int(scores[2][0].argmax()))  # first best on ties
        else:
            su4 = RougeScore.zero()
        report.per_question.append(QuestionEval(q.id, doc, snip, su4))
    return report
