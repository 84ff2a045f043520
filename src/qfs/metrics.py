"""ROUGE-style summary metrics and retrieval evaluation.

ROUGE-SU4 (Lin 2004) counts unigrams plus ordered skip-bigrams with at
most four intervening tokens (the "-2 4 -u" convention), with multiset
clipping so repeated candidate units cannot inflate precision. No
begin-of-sentence marker is added. Scoring tokenization is
``textproc.token_surfaces`` (lowercased alphanumeric runs), no stemming.

Every SU4 score comes from one kernel, which scores each candidate of a
question against each reference of the same question, for many
questions at once. It takes texts, so no caller tokenizes anything.
:func:`grouped_su4_scores` runs it chunk by chunk; labelling,
cross-validation (one call per fold) and :func:`evaluate_run` pass it
all their questions. :func:`su4_scores` is one chunk of one question.

Questions are taken in chunks of at most ``_CHUNK_SIZE`` (a question
counts 1, plus 1 per text, plus its characters); a larger question is a
chunk of its own. A chunk's texts are tokenized in one numpy pass over
their bytes, joined by spaces: ASCII texts through one
``bytes.translate`` with ``textproc.TOKEN_BYTES``, others as each text's
``token_surfaces`` in UTF-8. Each token's text is a ``searchsorted`` on
the text ends. A token's id is its key's rank among the V distinct keys
(:func:`qfs.textproc.split_words`: the packed bytes, or a number from a
dict of the chunk for a word over 8 bytes), 0..V-1: one ``argsort`` of
the keys, then a running count of the changes between consecutive sorted
keys, written back at the tokens' places, which are the ids of
``np.unique(keys, return_inverse=True)``. Which id a token gets changes
no score, though: counts and matches only compare ids, and V only sets
the key packing. A unigram's key is its id a and a skip-bigram (a, b)
at gap 1..5 within one text is V + a*V + b.
Texts are numbered one way, in every chunk, as q << L | local:
reference j of question q is local j and its candidate c is local R + c,
where R is the most references any question of the chunk has and L the
bit width of the largest local number. A unit packs as key << S | text,
where S is L plus the bit width of the largest question number, and is
checked to stay below 2**63. A chunk of Q >= 2 questions, T texts and A
characters has Q + T + A <= 2**15; a text of a characters holds at most
(a + 1) / 2 tokens, so V <= (A + T) / 2 < 2**14, and 2**S < 2T * 2Q <=
(T + Q)**2 <= 2**30. Its keys stay below V(V + 1) * 2**S < 2**58: only a
question larger than a chunk, scored alone, can reach the bound. The
units come from one gap-major (6, N) array over the N tokens, row g
holding each token with the token g later, so every row is long. Sorting
the packed units and cutting them into runs
(:func:`qfs.textproc.run_edges`) counts each text's units. The join:
runs of one key in one question (one value of unit >> L) are one key
group, each reference slot's count of every group is scattered into a
slot-major (R, groups) table, and each run gathers its group's column,
so ``np.minimum`` with its own count and ``np.bincount`` by (text, slot)
give the clipped matches. A candidate is matched only against its own
question's references; the references' own runs fall in rows of no
candidate and are dropped. Those are exact integers, and precision,
recall and F1 follow :meth:`RougeScore.from_pr`'s float64 operations in
its order, on a (questions, locals, R) block from which each question's
(candidates, references) slice is cut, so every score is exact and does
not depend on the chunk. A text without tokens scores zero. The kernel
keeps the per-call rule of :mod:`qfs`.

A question may have several ideal answers. A candidate's score for the
question is its best over them: labels and the oracle scorer rank by the
largest F1, and cross-validation scores an answer by it. :func:`evaluate_run`
reports precision, recall and F1 against the first ideal answer with the
largest F1.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import EmptyInput, MalformedInput
from .textproc import TOKEN_BYTES, run_edges, split_words, token_surfaces

SU4_SKIP = 4
_INT64_SPAN = 2**63
# A question's size in a chunk: 1, plus 1 per text, plus its characters (see
# the module docstring). A chunk pays ~50 fixed numpy calls, and its sort and
# its padded (questions, locals, slots) blocks grow with it. On seed-2468 bench
# inputs (2 shared CPUs, in process, min of 31 interleaved runs) at 2**12 to
# 2**16: evaluate_run on abstracts-bm25 took 19.9, 17.3, 17.5, 17.3 and 22.5
# ms; all of labels-cv's generate_labels 92.3, 75.5, 72.0, 69.6 and 90.0 ms;
# its 10-fold oracle cross_validate 121.1, 96.1, 89.7, 84.8 and 100.6 ms.
# 2**15 is fastest on each.
_CHUNK_SIZE = 1 << 15


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


Scores = tuple[np.ndarray, np.ndarray, np.ndarray]  # precision, recall, F1
Question = tuple[Sequence[str], Sequence[str]]  # candidate texts, reference texts


def su4_scores(candidates: Sequence[str], references: Sequence[str]) -> Scores:
    """SU4 precision, recall and F1 of every candidate text against every reference text.

    Each result is a float64 array of shape ``(len(candidates), len(references))``.
    This is :func:`grouped_su4_scores` of one question: a chunk of its own.
    """
    return _su4_chunk([(candidates, references)])[0]


def grouped_su4_scores(questions: Iterable[Question]) -> list[Scores]:
    """:func:`su4_scores` of each ``(candidates, references)`` question, in order,
    from one kernel call per chunk of at most ``_CHUNK_SIZE`` (or one question)."""
    out: list[Scores] = []
    chunk: list[Question] = []
    size = 0
    for question in questions:
        n = 1 + sum(map(len, question)) + sum(map(len, chain(*question)))
        if chunk and size + n > _CHUNK_SIZE:
            out += _su4_chunk(chunk)
            chunk, size = [], 0
        chunk.append(question)
        size += n
    return out + _su4_chunk(chunk) if chunk else out


def _su4_chunk(questions: Sequence[Question]) -> list[Scores]:
    """:func:`su4_scores` of each of a non-empty list of questions, in one :func:`_su4`."""
    slots = max([len(references) for _, references in questions])
    local_bits = max(slots + max([len(c) for c, _ in questions]) - 1, 0).bit_length()
    texts: list[str] = []
    numbers: list[int] = []
    for q, (candidates, references) in enumerate(questions):
        base = q << local_bits
        texts += references
        texts += candidates
        numbers += range(base, base + len(references))
        numbers += range(base + slots, base + slots + len(candidates))
    numbers.append(len(questions) << local_bits)
    blocks = _su4(texts, np.array(numbers), len(questions), slots, local_bits)
    return [
        tuple(a[q, slots : slots + len(candidates), : len(references)] for a in blocks)
        for q, (candidates, references) in enumerate(questions)
    ]


def _token_ids(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, int]:
    """Each token's text (its place in ``texts``) and id, one of 0..V-1 for
    the V distinct tokens, in token order and then ``SU4_SKIP + 1`` padding
    slots of text ``len(texts)`` and id 0; and V."""
    joined = " ".join(texts)
    if joined.isascii():
        words, pieces = joined.encode().translate(TOKEN_BYTES), texts
    else:  # each text's tokens, joined as UTF-8
        pieces = [" ".join(token_surfaces(text)).encode() for text in texts]
        words = b" ".join(pieces)
    begin, keys = split_words(words, defaultdict(count().__next__))
    n = len(keys)
    # Piece i ends with the space after it: the first i + 1 lengths, plus i + 1.
    ends = (np.fromiter(map(len, pieces), np.int64, len(pieces)) + 1).cumsum()
    text = np.empty(n + SU4_SKIP + 1, np.int64)
    text[n:] = len(texts)
    text[:n] = ends.searchsorted(begin, "right")
    order = keys.argsort()
    keys = keys[order]
    rank = (keys[1:] != keys[:-1]).cumsum()
    ids = np.zeros(n + SU4_SKIP + 1, np.int64)
    ids[order[1:]] = rank  # the first sorted key's rank is 0
    return text, ids, int(rank[-1]) + 1 if len(rank) else n


def _su4(
    texts: Sequence[str], numbers: np.ndarray, n_q: int, slots: int, local_bits: int,
) -> Scores:
    """The SU4 kernel over ``n_q`` questions' texts.

    Text i is number ``numbers[i]``, ``q << local_bits | local``: reference
    j of question q is local j < ``slots``, its candidates follow. The last
    number, no text's, owns the padding. Each result is a float64 array of
    shape ``(n_q, 1 << local_bits, slots)``, indexed by question, local
    number and reference slot; rows that are not candidates hold junk.
    """
    shift = local_bits + (n_q - 1).bit_length()
    text, ids, v = _token_ids(texts)  # padded, so that every token has 5 later
    n = len(ids) - SU4_SKIP - 1
    if v * (v + 1) << shift > _INT64_SPAN:
        raise ValueError(f"{v} distinct tokens in {len(texts)} texts overflow the SU4 unit keys")
    owner = numbers[text]
    pair_base = (ids[:n] + 1) * (v << shift)  # (v + a * v) << shift
    ids <<= shift
    # Row 0: each token's unigram; row g: its pair with the token g later.
    units = _later(ids, n) + owner[:n]
    units[1:] += pair_base
    units = units[_later(owner, n) == owner[:n]]  # both tokens in one text
    units.sort()
    edges = run_edges(units)  # one run per (unit, text)
    counts, units = edges[1:] - edges[:-1], units[edges[:-1]]
    text = units & ((1 << shift) - 1)
    total = np.bincount(text, counts, n_q << local_bits)

    # Runs of one key in one question are a key group; every reference
    # slot's count of each group is scattered into a slot-major table.
    key = units >> local_bits
    step = np.zeros(len(units), bool)
    np.not_equal(key[1:], key[:-1], out=step[1:])
    group = np.add.accumulate(step, dtype=np.int64)
    n_groups = group[-1] + 1 if len(group) else 0
    per_ref = np.zeros((slots + 1) * n_groups, np.int64)  # row slots takes the candidates
    per_ref[np.minimum(text & ((1 << local_bits) - 1), slots) * n_groups + group] = counts
    clipped = per_ref.reshape(slots + 1, n_groups)[:slots].take(group, axis=1)
    np.minimum(clipped, counts, out=clipped)
    pair = text * slots + np.arange(slots)[:, None]
    matches = np.bincount(pair.ravel(), clipped.ravel(), len(total) * slots)
    matches = matches.reshape(n_q, 1 << local_bits, slots)

    # No units or no match scores 0.0: divide by 1 there, never by zero.
    total = np.maximum(total, 1).reshape(n_q, 1 << local_bits)
    precision = matches / total[:, :, None]
    recall = matches / total[:, None, :slots]
    f1 = 2.0 * precision * recall / np.where(matches > 0, precision + recall, 1.0)
    return precision, recall, f1


def _first_candidate_score(scores: tuple[np.ndarray, ...], ref: int) -> RougeScore:
    return RougeScore(*(float(a[0, ref]) for a in scores))


def rouge_su4_f1(candidate: str, reference: str) -> RougeScore:
    """Skip-bigram (gap <= 4) plus unigram F1 between two texts."""
    return _first_candidate_score(su4_scores([candidate], [reference]), 0)


def best_reference_f1(candidate: str, references: Sequence[str]) -> float:
    """Max SU4-F1 of the candidate text over a non-empty list of reference texts."""
    if not references:
        raise EmptyInput("at least one reference text is required")
    return float(su4_scores([candidate], references)[2].max())


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
    scored = []
    for q in question_set:
        answer = by_id.get(q.id)
        if answer is None:
            report.per_question.append(
                QuestionEval(q.id, RougeScore.zero(), RougeScore.zero(), RougeScore.zero())
            )
            continue
        doc = document_f1(list(answer.documents), q.gold_documents)
        snip = snippet_f1(list(answer.snippets), q.gold_snippets)
        report.per_question.append(QuestionEval(q.id, doc, snip, RougeScore.zero()))
        if q.ideal_answers and answer.ideal_answer:
            scored.append((report.per_question[-1], answer.ideal_answer, q.ideal_answers))
    texts = (([text], refs) for _, text, refs in scored)
    for (row, *_), scores in zip(scored, grouped_su4_scores(texts)):
        row.ideal_su4 = _first_candidate_score(scores, int(scores[2][0].argmax()))  # first best
    return report
