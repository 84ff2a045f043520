"""ROUGE-style summary metrics and retrieval evaluation.

``rouge_su4_f1`` counts unigrams plus ordered skip-bigrams with at most
four intervening tokens (the "-2 4 -u" convention), with multiset
clipping so repeated candidate units cannot inflate precision. No
begin-of-sentence marker is added. Scoring tokenization is
``textproc.tokenize`` (lowercased alphanumeric runs), no stemming.

Each text's unit multiset is built once, as an :class:`Su4Units`:
``best_reference_f1`` and ``evaluate_run`` count the candidate once per
call, not once per reference, and ``best_reference_f1`` also takes
references prepared once by :func:`su4_references`, so a caller that
scores many candidates against one question's ideal answers counts
those answers once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .errors import DuplicateInReturned, EmptyReferenceList
from .textproc import token_surfaces

SU4_SKIP = 4


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


def su_units(tokens: Sequence[str], dskip: int) -> Counter:
    """Multiset of unigrams plus ordered pairs with gap <= dskip.

    Unigrams are 1-tuples and pairs are 2-tuples, so the two kinds never
    collide in the multiset.
    """
    if dskip < 0:
        raise ValueError("dskip must be >= 0")
    units = Counter(zip(tokens))
    for gap in range(1, dskip + 2):
        units.update(zip(tokens, tokens[gap:]))
    return units


@dataclass(frozen=True)
class Su4Units:
    """One text's SU4 unit multiset and its size, built once per text."""

    units: Counter
    total: int

    @classmethod
    def of(cls, text: str) -> "Su4Units":
        units = su_units(token_surfaces(text), SU4_SKIP)
        return cls(units, units.total())


def su4_references(texts: Iterable[str]) -> tuple[Su4Units, ...]:
    """Reference texts prepared once, for many ``best_reference_f1`` calls."""
    return tuple(Su4Units.of(text) for text in texts)


def _clipped_overlap(cand: Counter, ref: Counter) -> int:
    return sum(min(count, ref[unit]) for unit, count in cand.items() if unit in ref)


def _su4_score(cand: Su4Units, ref: Su4Units) -> RougeScore:
    if cand.total == 0 or ref.total == 0:
        return RougeScore.zero()
    matches = _clipped_overlap(cand.units, ref.units)
    return RougeScore.from_pr(matches / cand.total, matches / ref.total)


def rouge_su4_f1(candidate: str, reference: str) -> RougeScore:
    """Skip-bigram (gap <= 4) plus unigram F1 between two texts."""
    return _su4_score(Su4Units.of(candidate), Su4Units.of(reference))


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n_f1(candidate: str, reference: str, n: int) -> RougeScore:
    """Clipped n-gram overlap F1; diagnostic companion to SU4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cand = _ngrams(token_surfaces(candidate), n)
    ref = _ngrams(token_surfaces(reference), n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 or ref_total == 0:
        return RougeScore.zero()
    matches = _clipped_overlap(cand, ref)
    return RougeScore.from_pr(matches / cand_total, matches / ref_total)


def best_reference_f1(candidate: str, references: Sequence[str | Su4Units]) -> float:
    """Max SU4-F1 of the candidate over a non-empty reference list.

    References are texts, or texts prepared once by :func:`su4_references`.
    """
    if not references:
        raise EmptyReferenceList("at least one reference text is required")
    cand = Su4Units.of(candidate)
    return max(
        _su4_score(cand, ref if isinstance(ref, Su4Units) else Su4Units.of(ref)).f1
        for ref in references
    )


def document_f1(returned: Sequence[str], gold: Iterable[str]) -> RougeScore:
    """Set precision/recall/F1 over document ids."""
    if len(returned) != len(set(returned)):
        raise DuplicateInReturned("returned document list contains duplicates")
    gold_set = set(gold)
    hits = sum(1 for d in returned if d in gold_set)
    precision = hits / len(returned) if returned else 0.0
    recall = hits / len(gold_set) if gold_set else 0.0
    return RougeScore.from_pr(precision, recall)


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of half-open intervals as a sorted disjoint list."""
    merged: list[tuple[int, int]] = []
    for begin, end in sorted(intervals):
        if merged and begin <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((begin, end))
    return merged


def _merged_length(intervals: list[tuple[int, int]]) -> int:
    return sum(end - begin for begin, end in _merge_intervals(intervals))


def _intersection_length(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> int:
    """Length of union(a) intersected with union(b), by two-pointer sweep."""
    am, bm = _merge_intervals(a), _merge_intervals(b)
    i = j = total = 0
    while i < len(am) and j < len(bm):
        lo = max(am[i][0], bm[j][0])
        hi = min(am[i][1], bm[j][1])
        if lo < hi:
            total += hi - lo
        if am[i][1] <= bm[j][1]:
            i += 1
        else:
            j += 1
    return total


def snippet_f1(returned: Sequence[Any], gold: Sequence[Any]) -> RougeScore:
    """Character-overlap F1 between snippet span lists.

    Characters are grouped per (document, section) and counted once per
    side (union semantics), so overlapping spans on the same side do not
    double count.
    """
    by_key_returned: dict[tuple[str, str], list[tuple[int, int]]] = {}
    by_key_gold: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for span in returned:
        key = (span.doc_id, span.section_id)
        by_key_returned.setdefault(key, []).append((span.begin_char, span.end_char))
    for span in gold:
        key = (span.doc_id, span.section_id)
        by_key_gold.setdefault(key, []).append((span.begin_char, span.end_char))

    returned_total = sum(_merged_length(v) for v in by_key_returned.values())
    gold_total = sum(_merged_length(v) for v in by_key_gold.values())
    overlap = sum(
        _intersection_length(by_key_returned[key], by_key_gold[key])
        for key in by_key_returned.keys() & by_key_gold.keys()
    )
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
            cand = Su4Units.of(answer.ideal_answer)
            su4 = max(
                (_su4_score(cand, ref) for ref in su4_references(q.ideal_answers)),
                key=lambda s: s.f1,
            )
        else:
            su4 = RougeScore.zero()
        report.per_question.append(QuestionEval(q.id, doc, snip, su4))
    return report
