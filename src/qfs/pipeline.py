"""End-to-end answering: snippets, labels, answer assembly, cross-validation.

A question is answered by three stages, which ``answer_question``, the
command line and ``cross_validate`` compose:

* :func:`retrieve` ranks documents and drops the judged ones;
* :func:`select_snippets` picks sentences of the top documents;
* answer scoring scores the candidates left after feedback filtering,
  and :func:`assemble_answer` joins the best into the ideal answer.
  Phase B (``cross_validate``) starts here, from gold snippet sentences.

Every sentence score comes from a :class:`SentenceScorer`: tf-idf
cosine, the SU4 oracle, or a trained classifier (:class:`ModelScorer`,
either kind, with inputs built as in training).

Snippets and answers are scored from the index's
:class:`~qfs.sentences.SentenceTable`: every document was split and
tokenized once, when the index was built, so a question only slices
the table rows of its ranked documents. Snippet selection (:func:`_snip`)
scores that pool at once and returns the kept rows. With tf-idf cosine,
it sorts the pool's token ids once into (term, sentence, tf) triples
(:func:`_term_pairs`), and answer scoring takes the candidates' triples
from those, renumbered (:func:`_subset`): answering tokenizes no
sentence and sorts no token twice. Any other scorer gets the texts,
slices of the section texts at the table's offsets, and a snippet's
position is its place among all sentences of its document.
:func:`snip_cosine` does the same for a collection without an index,
splitting just the ranked documents. Rows become :class:`SnippetSpan`
objects (:func:`_spans`) only where returned: :func:`select_snippets`
and :func:`snip_cosine` make all kept rows, :func:`answer_question` only
the first ``final_snippet_cap`` left by feedback filtering, which reads
row keys through :func:`qfs.corpus.kept_polarities`. The answer is picked
by index (:func:`_answer_places`); no :class:`ScoredSentence` is made here.

``CosineScorer.score_sentences`` is the text adapter, for gold
candidates (which have no table rows) and for ``bench/``. It composes
the same two functions, :func:`_term_pairs` and :func:`_cosines`, so
there is one kernel, and both paths score ``==``: a row's ids are the
tokens of its text, both vocabularies sort by term, and the kernel reads
only term order and equality. The sort is sized by the snippet pool's
tokens, the scoring by its triples; no array is collection- or
vocabulary-sized. The sums are sequential: every norm and dot product
adds its terms one at a time in sorted term order, never pairwise, so
scores are the same bit for bit on every platform.

Candidate sentences keep their *occurrence index*, the 0-based position
in the post-retrieval candidate list. Tie-breaking everywhere favors
the earlier occurrence, which keeps every stage deterministic. Answer
candidates get their positions after feedback filtering, i.e. in the
order the scorer actually sees them.

The benchmark (``bench/``) uses :func:`snip_cosine`, ``CosineScorer.score_sentences(
question, texts, positions)``, :class:`ScoredSentence`, :func:`assemble_answer`,
:class:`OracleModelSpec`, :func:`candidate_sentences`, :func:`qfs.metrics.best_reference_f1`
and :func:`qfs.textproc.split_sentences`: removing any of them, or changing its signature,
fails every benchmark run until ``bench/`` moves. ``bench/run.py`` replays answering with
``ScoredSentence`` and ``assemble_answer``, which is why both stay public.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, count
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import (
    EXCLUDE_ALL_JUDGED,
    EXCLUDE_IRRELEVANT_ONLY,
    DocumentCollection,
    DocumentRecord,
    FeedbackStore,
    QuestionRecord,
    QuestionSet,
    SnippetSpan,
    filter_judged,
    kept_polarities,
    snippet_from_json,
    snippet_to_json,
)
from .embeddings import DenseStore
from .errors import EmptyInput, MalformedInput, MissingInput
from . import fileio
from .fileio import ID, INTEGER, STRING, open_output, read_json, read_jsonl, write_json
from .metrics import best_reference_f1, best_reference_f1s
from .neural import KINDS, LabeledExample, TrainConfig, forward, train
from .retrieval import (
    InvertedIndex,
    RankedList,
    bm25_search,
    nir_search,
)
from .sentences import SentenceTable
from .textproc import sentence_bounds, token_surfaces

logger = logging.getLogger(__name__)

# Sentences selected per question type when assembling the ideal answer.
DEFAULT_ANSWER_LENGTHS: dict[str, int] = {
    "summary": 6,
    "factoid": 2,
    "yesno": 2,
    "list": 3,
}

POSITIVE_LABELS_PER_QUESTION = 5
FINAL_DOC_CAP = 10
FINAL_SNIPPET_CAP = 10
SNIPPETS_PER_DOC = 3


@dataclass(frozen=True)
class ScoredSentence:
    """A candidate answer sentence with its model score."""

    text: str
    source: SnippetSpan
    occurrence_index: int
    score: float


@dataclass
class AnswerResult:
    """Final per-question output: capped evidence lists plus the answer."""

    question_id: str
    documents: list[str] = field(default_factory=list)
    snippets: list[SnippetSpan] = field(default_factory=list)
    ideal_answer: str = ""


def submission_to_json(results: Sequence[AnswerResult]) -> dict:
    """Submission-file shape: a questions array with evidence and answer."""
    return {
        "questions": [
            {
                "id": r.question_id,
                "documents": list(r.documents),
                "snippets": [snippet_to_json(s) for s in r.snippets],
                "ideal_answer": r.ideal_answer,
            }
            for r in results
        ]
    }


def load_submission(path: str | Path) -> list[AnswerResult]:
    """A submission file's answers; a missing ideal answer is "", a non-string
    one or a repeated question id an error. Every error names the file."""
    payload = read_json(path)
    questions = payload.get("questions", []) if isinstance(payload, dict) else None
    if not isinstance(questions, list):
        raise MalformedInput(f"{path}: expected an object with a questions array")
    results, seen = [], set()
    for obj in questions:
        if not isinstance(obj, dict) or "id" not in obj:
            raise MalformedInput(f"{path}: submission question entry without an id")
        qid = fileio.field(obj, "id", ID, str(path), name="submission question id")
        if qid in seen:
            raise MalformedInput(f"{path}: duplicate submission question id {qid!r}")
        seen.add(qid)
        where = f"{path}: submission question {qid!r}"
        documents, snippets = obj.get("documents", []), obj.get("snippets", [])
        if not isinstance(documents, list) or not isinstance(snippets, list):
            raise MalformedInput(f"{where}: documents and snippets must be lists")
        ideal_answer = obj.get("ideal_answer", "")
        if not all(isinstance(x, str) for x in [ideal_answer, *documents]):
            raise MalformedInput(f"{where}: document ids and ideal_answer must be strings")
        if len(set(documents)) < len(documents):
            raise MalformedInput(f"{where}: returned document list contains duplicates")
        snippets = [snippet_from_json(s, where) for s in snippets]
        results.append(AnswerResult(qid, list(documents), snippets, ideal_answer))
    return results


def save_submission(results: Sequence[AnswerResult], path: str | Path) -> None:
    write_json(path, submission_to_json(results))


def save_labels(examples: Sequence[LabeledExample], path: str | Path) -> None:
    """Write labeled examples as JSONL with raw texts for re-tokenization."""
    with open_output(path) as fh:
        for ex in examples:
            record = {
                "pair_id": ex.pair_id, "question": ex.question_text,
                "sentence": ex.sentence_text, "position": ex.position, "label": ex.label,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def load_labels(path: str | Path) -> list[LabeledExample]:
    """Labeled examples written by :func:`save_labels`; a field of the wrong
    type or value is ``MalformedInput`` naming ``path:line``."""
    examples = []
    for where, obj in read_jsonl(path):
        where = f"{where}: bad labeled example"
        question, sentence = (fileio.field(obj, k, STRING, where) for k in ("question", "sentence"))
        label, position = (fileio.field(obj, k, INTEGER, where) for k in ("label", "position"))
        if label not in (0, 1):
            raise MalformedInput(f"{where}: label must be 0 or 1, not {label!r}")
        if position < 0:
            raise MalformedInput(f"{where}: position must be >= 0, not {position!r}")
        pid = fileio.field(obj, "pair_id", STRING, where, None)
        examples.append(LabeledExample(
            tuple(token_surfaces(question)), tuple(token_surfaces(sentence)),
            position, label, pid, question, sentence,
        ))
    return examples


class SentenceScorer(Protocol):
    """Scores candidate sentences for one question; higher is better."""

    def score_sentences(
        self, question: QuestionRecord, texts: Sequence[str], positions: Sequence[int]
    ) -> list[float]: ...


class ConstantScorer:
    """Scores every sentence 0.5; ties then resolve by occurrence."""

    def score_sentences(
        self, question: QuestionRecord, texts: Sequence[str], positions: Sequence[int]
    ) -> list[float]:
        return [0.5] * len(texts)


def _run_edges(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts, then ``len(keys)``."""
    edge = np.ones(len(keys) + 1, bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _term_pairs(lengths: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct (term, sentence, tf) triples of n sentences, as three arrays
    sorted by term, then sentence: one sort of a (term, sentence) key per token.

    Sentence i holds the next ``lengths[i]`` ids of ``terms``; ids are
    ordered as their terms sort.
    """
    n = len(lengths)
    bits = n.bit_length()  # a key is term << bits | sentence
    # int32 keys sort about twice as fast as int64 ones, when they fit.
    narrow = not len(terms) or int(terms.max()) < 1 << (31 - bits)
    keys = terms.astype(np.int32 if narrow else np.int64)  # a copy, so built in place
    keys <<= bits
    keys |= np.repeat(np.arange(n, dtype=keys.dtype), lengths)
    keys.sort()
    edges = _run_edges(keys)  # one run per (term, sentence) pair
    pairs = keys[edges[:-1]]
    return pairs >> bits, pairs & ((1 << bits) - 1), np.diff(edges)


def _subset(pairs: tuple[np.ndarray, ...], keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """The triples of the sentences where boolean ``keep`` is true, those
    renumbered 0, 1, ... in order; still sorted by term, then sentence."""
    term, sentence, tf = pairs
    at = np.flatnonzero(keep.take(sentence))  # take: half the time of fancy indexing here
    return term.take(at), (np.cumsum(keep) - 1).take(sentence.take(at)), tf.take(at)


def _cosines(asked: np.ndarray, n: int, pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """tf-idf cosine of each of n sentences against a question, clipped to [0, 1].

    ``pairs`` are the sentences' :func:`_term_pairs`; ``asked`` holds the
    question's token ids, and ids no sentence holds are ignored. Every
    array is sized by the pairs, never by the vocabulary. Sums: the pairs
    are in term order and ``np.bincount`` adds in input order, so each
    norm and dot product adds its terms one at a time in term order; idf
    is ``math.log`` of each distinct df.
    """
    pair_term, pair_sent, tf = pairs
    if not len(pair_term):
        return np.zeros(n)
    term_edges = _run_edges(pair_term)  # one run per distinct term
    words, df = pair_term[term_edges[:-1]], np.diff(term_edges)
    present = np.flatnonzero(np.bincount(df))
    idf_of_df = np.zeros(present[-1] + 1)
    idf_of_df[present] = [math.log((1 + n) / (1 + d)) + 1.0 for d in present.tolist()]
    idf = idf_of_df[df]
    weight = tf * np.repeat(idf, df)
    norms = np.sqrt(np.bincount(pair_sent, weight * weight, n))

    at = np.minimum(np.searchsorted(words, asked), len(words) - 1)
    q_tf = np.bincount(at[words[at] == asked], minlength=len(words))
    q_term = np.flatnonzero(q_tf)
    if not len(q_term):
        return np.zeros(n)
    q_weight = q_tf[q_term] * idf[q_term]
    q_weight /= np.sqrt(np.cumsum(q_weight * q_weight)[-1])
    begin, size = term_edges[q_term], df[q_term]
    # The pairs of the question's terms: one ragged arange over their runs.
    shared = np.arange(size.sum()) + np.repeat(begin - (np.cumsum(size) - size), size)
    rows = pair_sent[shared]
    products = np.repeat(q_weight, size) * (weight[shared] / norms[rows])
    return np.minimum(np.bincount(rows, products, n), 1.0)  # each sum is >= 0


class CosineScorer:
    """tf-idf cosine against the question, fitted on the candidate pool.

    Over the n pool sentences, idf(t) = ln((1 + n) / (1 + df(t))) + 1. A
    text's weights are raw tf times idf, L2-normalized; question terms
    outside the pool are ignored. Norms and dot products add terms one
    at a time in sorted term order (:func:`_cosines`), so a score is the
    same on every platform. Scores are clipped to [0, 1].

    Answering never calls this text method: :func:`_snip` sorts the
    token ids of the snippet pool's table rows into :func:`_term_pairs`
    once, and the answer candidates, rows too, are scored from a subset
    of those pairs. The scores are ``==``, as both vocabularies sort by
    term and the kernel reads only term order and equality. This method,
    the adapter for gold candidates and for ``bench/``, composes the
    same two functions.
    """

    def score_sentences(
        self, question: QuestionRecord, texts: Sequence[str], positions: Sequence[int]
    ) -> list[float]:
        token_lists = [token_surfaces(t) for t in texts]
        tokens = list(chain.from_iterable(token_lists))
        vocab = dict(zip(sorted(set(tokens)), count()))  # ids in term order
        pairs = _term_pairs(np.fromiter(map(len, token_lists), np.intp, len(token_lists)),
                            np.fromiter(map(vocab.__getitem__, tokens), np.intp, len(tokens)))
        asked = np.array([vocab[t] for t in token_surfaces(question.body) if t in vocab], np.intp)
        return _cosines(asked, len(token_lists), pairs).tolist()


class OracleScorer:
    """Scores a sentence by its true SU4-F1 against the ideal answers.

    An upper-bound scorer for harness comparisons; never used in a
    production run. It scores a question's sentences in one
    :func:`qfs.metrics.su4_scores` call.
    """

    def score_sentences(
        self, question: QuestionRecord, texts: Sequence[str], positions: Sequence[int]
    ) -> list[float]:
        if not question.ideal_answers:
            return [0.0] * len(texts)
        references = [token_surfaces(a) for a in question.ideal_answers]
        return best_reference_f1s([token_surfaces(t) for t in texts], references)


def pair_id(question_id: str, position: int) -> str:
    """The key joining a candidate sentence to its context-embedding record."""
    return f"{question_id}#{position}"


class ModelScorer:
    """A trained classifier's probability, over inputs built as in training."""

    def __init__(self, params, source: DenseStore, clip_len: int):
        self.params = params
        self.kind = KINDS[params.kind]
        self.source = source
        self.clip_len = clip_len

    def score_sentences(
        self, question: QuestionRecord, texts: Sequence[str], positions: Sequence[int]
    ) -> list[float]:
        q_tokens = token_surfaces(question.body)
        return [
            forward(self.params, *self.kind.input(
                self.source, q_tokens, token_surfaces(text), pair_id(question.id, pos),
                pos, self.clip_len,
            ))
            for text, pos in zip(texts, positions)
        ]


def _ordinal(index: InvertedIndex, doc_id: str) -> int:
    """A document's place in the index (doc ids are sorted)."""
    i = bisect_left(index.doc_ids, doc_id)
    if i == index.n_docs or index.doc_ids[i] != doc_id:
        raise MissingInput(f"document {doc_id!r} is not in the index")
    return i


def _rows(table: SentenceTable, docs: Mapping[int, DocumentRecord], rows: np.ndarray):
    """Per row of ``table`` in ``rows``: its document id, section id, begin, end and
    text, the slice of its section text; ``docs`` maps table document ordinals to records."""
    columns = (c[rows].tolist() for c in (table.doc, table.section, table.begin, table.end))
    for d, section, b, e in zip(*columns):
        section_id, text = docs[d].sections[section]
        yield docs[d].id, section_id, b, e, text[b:e]


def _spans(table: SentenceTable, docs: Mapping[int, DocumentRecord], rows) -> list[SnippetSpan]:
    return [SnippetSpan(*row) for row in _rows(table, docs, rows)]


def _snip(question: QuestionRecord, table: SentenceTable, ordinals: Sequence[int],
          docs: Mapping[int, DocumentRecord], scorer: SentenceScorer,
          per_doc: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...] | None, np.ndarray]:
    """Snippets by one scoring over the sentences of every ranked document:
    the ``table`` rows of the kept pool sentences in occurrence order, a mask
    of them over the pool, the pool's term pairs and the question's word ids
    in ``table``.

    ``ordinals`` are the ranked documents' places in ``table``, in rank
    order, and ``docs`` maps each to its record. A :class:`CosineScorer`
    scores the pool's token ids through :func:`_term_pairs`, which are
    returned for answer scoring; any other scorer gets the texts, with
    per-document ordinals as positions, and the pairs are ``None``. Per
    document the top ``per_doc`` sentences (ties to the earlier one) are
    kept in occurrence order; per-document groups are collated in
    document-relevance order. No :class:`SnippetSpan` is made here: the
    caller makes them of the rows it returns (:func:`_spans`).
    """
    ordinals = np.asarray(ordinals, dtype=np.intp)
    first = table.doc_ptr[ordinals]
    counts = table.doc_ptr[ordinals + 1] - first
    owner = np.repeat(np.arange(len(ordinals)), counts)  # pool sentence -> ranked document
    starts = np.cumsum(counts) - counts  # pool place of each document's first sentence
    rows = np.arange(len(owner)) + (first - starts)[owner]
    asked = table.word_ids(token_surfaces(question.body))
    pairs = None
    if isinstance(scorer, CosineScorer):
        # A document's sentences are consecutive rows, so its tokens are one slice.
        tokens = zip(table.indptr[first].tolist(), table.indptr[first + counts].tolist())
        terms = np.concatenate([table.token_ids[:0], *(table.token_ids[a:e] for a, e in tokens)])
        pairs = _term_pairs(table.indptr[rows + 1] - table.indptr[rows], terms)
        scores = _cosines(asked, len(rows), pairs)
    else:
        texts = [text for *_, text in _rows(table, docs, rows)]
        positions = (rows - first[owner]).tolist()
        scores = np.asarray(scorer.score_sentences(question, texts, positions), dtype=float)
    order = np.lexsort((-scores, owner))  # stable; order[i] is in document owner[i]
    kept = np.empty(len(order), dtype=bool)
    kept[order] = np.arange(len(order)) - starts[owner] < per_doc
    return rows[kept], kept, pairs, asked


def snip_cosine(
    question: QuestionRecord,
    ranked_docs: RankedList,
    collection: DocumentCollection,
    per_doc: int = SNIPPETS_PER_DOC,
) -> list[SnippetSpan]:
    """Baseline snippet strategy: tf-idf cosine against the question.

    The tf-idf model is fitted on the sentences of all ranked documents,
    so scores are comparable across documents. The ranked documents are
    split and tokenized here into their own sentence table; answering
    reads the index's table instead (:func:`select_snippets`), with the
    same result.
    """
    table = SentenceTable.build(collection, [d for d, _ in ranked_docs])
    docs = dict(enumerate(collection[d] for d, _ in ranked_docs))
    rows = _snip(question, table, range(len(docs)), docs, CosineScorer(), per_doc)[0]
    return _spans(table, docs, rows)


def candidate_sentences(question: QuestionRecord) -> list[SnippetSpan]:
    """Sentences of the question's gold snippets, in snippet order.

    Multi-sentence snippets are split; each sentence inherits offsets
    relative to its snippet's section. The snippet texts are joined by
    ``"\\n"`` and split in one :func:`qfs.textproc.sentence_bounds` pass,
    with each snippet's start as a cut, which splits each as it splits alone.
    """
    snippets = question.gold_snippets
    joined = "\n".join(s.text for s in snippets)
    starts = list(accumulate((len(s.text) + 1 for s in snippets[:-1]), initial=0))
    out = []
    for b, e in sentence_bounds(joined, starts):
        i = bisect_right(starts, b) - 1
        s, offset = snippets[i], snippets[i].begin_char - starts[i]
        out.append(SnippetSpan(s.doc_id, s.section_id, offset + b, offset + e, joined[b:e]))
    return out


def _gold_candidates(question: QuestionRecord) -> list[SnippetSpan]:
    """Candidate sentences of a question that also has ideal answers."""
    if not question.ideal_answers:
        raise MissingInput(f"question {question.id!r} has no ideal answers")
    candidates = candidate_sentences(question)
    if not candidates:
        raise EmptyInput(f"question {question.id!r} has no candidate sentences")
    return candidates


def _check_gold_offsets(question: QuestionRecord, collection: DocumentCollection) -> None:
    """Every gold snippet must be the exact slice of its section text."""
    for s in question.gold_snippets:
        if s.doc_id not in collection:
            problem = "is not in the collection"
        else:
            text = collection[s.doc_id].section_text(s.section_id)
            if text is None:
                problem = f"has no section {s.section_id!r}"
            elif text[s.begin_char : s.end_char] != s.text:
                problem = (
                    f"section {s.section_id!r} does not hold the snippet text "
                    f"at offsets {s.begin_char}-{s.end_char}"
                )
            else:
                continue
        raise MalformedInput(
            f"question {question.id!r}: gold snippet document {s.doc_id!r} {problem}"
        )


def generate_labels(
    questions: QuestionSet | Sequence[QuestionRecord],
    collection: DocumentCollection | None = None,
) -> list[LabeledExample]:
    """Binary labels from gold snippets: 1 for the top-5 sentences by SU4-F1.

    Candidates are the sentences of the gold snippets in order, each
    scored by its best reference in one :func:`qfs.metrics.su4_scores`
    call per question; ties at the cut-off rank resolve in favor of the
    earlier occurrence. When a collection is given, every gold snippet
    must be the exact slice of its section text, or ``MalformedInput``
    names the question and the document.
    """
    examples: list[LabeledExample] = []
    for question in questions:
        if collection is not None:
            _check_gold_offsets(question, collection)
        candidates = _gold_candidates(question)
        tokens = [tuple(token_surfaces(c.text)) for c in candidates]
        f1s = best_reference_f1s(tokens, [token_surfaces(a) for a in question.ideal_answers])
        ranked = sorted(range(len(candidates)), key=lambda i: (-f1s[i], i))
        positive = set(ranked[:POSITIVE_LABELS_PER_QUESTION])
        q_tokens = tuple(token_surfaces(question.body))
        examples.extend(
            LabeledExample(q_tokens, tokens[i], i, int(i in positive), pair_id(question.id, i),
                           question.body, cand.text)
            for i, cand in enumerate(candidates)
        )
    return examples


def _answer_places(qtype: str, scores: Sequence[float], table: Mapping[str, int] | None,
                   place: Sequence[int] | None = None) -> list[int]:
    """The indices of the answer's sentences in place order: the best n scores for
    the question type in ``table`` (the defaults if None), ties to the earlier
    place. Sentence i's place is ``place[i]``, or i."""
    if not len(scores):
        raise EmptyInput("cannot assemble an answer from no sentences")
    place = range(len(scores)) if place is None else place
    best = sorted(range(len(scores)), key=lambda i: (-scores[i], place[i]))
    return sorted(best[: (DEFAULT_ANSWER_LENGTHS if table is None else table)[qtype]],
                  key=place.__getitem__)


def assemble_answer(
    qtype: str,
    scored: Sequence[ScoredSentence],
    table: Mapping[str, int] | None = None,
) -> str:
    """Join the top-n sentences for the question type in occurrence order."""
    place = [s.occurrence_index for s in scored]
    return " ".join(scored[i].text for i in _answer_places(qtype, [s.score for s in scored],
                                                           table, place))


@dataclass
class Resources:
    """Read-only inputs shared by every question in a run.

    The index must have been built from ``collection``: snippets slice
    its section texts at the offsets in the index's sentence table
    (:func:`qfs.retrieval.check_collection` checks a loaded index's
    section lengths and text CRCs). Its BM25 impacts use the k1 and b it
    was built or loaded with; the command line passes the config's.
    """

    collection: DocumentCollection
    index: InvertedIndex
    scorer: SentenceScorer
    dense: DenseStore | None = None
    query_vectors: DenseStore | None = None
    feedback: FeedbackStore = field(default_factory=FeedbackStore.empty)


def retrieve(question: QuestionRecord, config, resources: Resources) -> RankedList:
    """The round's ranked (doc_id, score) pairs, judged documents removed."""
    tokens = token_surfaces(question.body)
    k = config.retrieval.docs_for_round(config.round)
    method = config.retrieval.method
    if method == "bm25":
        ranked = bm25_search(resources.index, tokens, k)
    else:
        if resources.dense is None or resources.query_vectors is None:
            raise MissingInput(f"retrieval method {method!r} needs dense vectors and query vectors")
        if question.id not in resources.query_vectors:
            raise MissingInput(f"no query vector for question {question.id!r}")
        pool_size = None if method == "nir" else max(config.retrieval.pool_size, k)
        ranked = nir_search(
            resources.index, resources.dense, tokens, resources.query_vectors[question.id],
            k, config.retrieval.lam, pool_size,
        )
    doc_ids = [d for d, _ in ranked]
    unjudged = set(filter_judged(doc_ids, resources.feedback, question.id, EXCLUDE_ALL_JUDGED))
    return [(d, s) for d, s in ranked if d in unjudged]


def _select(question: QuestionRecord, ranked: RankedList, config, resources: Resources):
    """The ranked documents by index ordinal, and :func:`_snip`'s result for them.

    A :class:`CosineScorer` in ``resources`` scores the snippets too,
    so answer scoring by cosine always finds the pool's term pairs."""
    index = resources.index
    scorer = CosineScorer() if config.snippets.strategy == "cosine" else resources.scorer
    ordinals = [_ordinal(index, doc_id) for doc_id, _ in ranked]
    docs = {o: resources.collection[doc_id] for o, (doc_id, _) in zip(ordinals, ranked)}
    return docs, _snip(question, index.sentences, ordinals, docs, scorer,
                       config.snippets.per_doc)


def select_snippets(
    question: QuestionRecord, ranked: RankedList, config, resources: Resources
) -> list[SnippetSpan]:
    """Snippets of the ranked documents by the configured strategy, unfiltered."""
    docs, (rows, *_) = _select(question, ranked, config, resources)
    return _spans(resources.index.sentences, docs, rows)


def answer_question(question: QuestionRecord, config, resources: Resources) -> AnswerResult:
    """Retrieve, snip, filter, score, and assemble one question's answer."""
    ranked = retrieve(question, config, resources)[: config.retrieval.final_doc_cap]
    table = resources.index.sentences
    docs, (rows, kept, pairs, asked) = _select(question, ranked, config, resources)
    returned = candidates = rows
    if judged := resources.feedback.judgments(question.id)[1]:  # some snippets are judged
        polarity = [judged.get(row[:4]) for row in _rows(table, docs, rows)]  # by span key
        shown, left = (np.array([p in keep for p in polarity], dtype=bool) for keep in
                       map(kept_polarities, (EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY)))
        returned, candidates = rows[shown], rows[left]
        kept[kept] = left  # now marks the candidates
    if isinstance(resources.scorer, CosineScorer):
        scores = _cosines(asked, len(candidates), _subset(pairs, kept)).tolist()
    else:
        texts = [text for *_, text in _rows(table, docs, candidates)]
        scores = resources.scorer.score_sentences(question, texts, list(range(len(texts))))
    best = candidates[_answer_places(question.qtype, scores, config.answer_table)]
    return AnswerResult(question.id, [d for d, _ in ranked],
                        _spans(table, docs, returned[: config.retrieval.final_snippet_cap]),
                        " ".join(text for *_, text in _rows(table, docs, best)))


class ModelSpec(Protocol):
    """Builds a sentence scorer from a training split."""

    def fit(
        self, questions: Sequence[QuestionRecord], collection: DocumentCollection | None
    ) -> SentenceScorer: ...


class ConstantModelSpec:
    def fit(self, questions, collection) -> SentenceScorer:
        return ConstantScorer()


class OracleModelSpec:
    def fit(self, questions, collection) -> SentenceScorer:
        return OracleScorer()


@dataclass
class TrainedModelSpec:
    """Trains a classifier of ``kind`` on the labels of each training split."""

    kind: str
    source: DenseStore
    config: TrainConfig

    def fit(self, questions, collection) -> SentenceScorer:
        examples = generate_labels(questions, collection)
        result = train(self.kind, examples, self.source, self.config)
        return ModelScorer(result.params, self.source, self.config.clip_len)


@dataclass
class CvResult:
    """Cross-validation outcome: per-fold means plus the overall mean."""

    fold_sizes: list[int]
    fold_mean_f1: list[float]
    mean_f1: float
    per_question: dict[str, float]

    def to_json(self) -> dict:
        return {
            "fold_sizes": self.fold_sizes,
            "fold_mean_su4_f1": self.fold_mean_f1,
            "mean_su4_f1": self.mean_f1,
            "per_question": self.per_question,
        }


def cross_validate(
    questions: QuestionSet | Sequence[QuestionRecord],
    collection: DocumentCollection | None,
    model_spec: ModelSpec,
    answer_table: Mapping[str, int] | None = None,
    k: int = 10,
    seed: int = 0,
) -> CvResult:
    """Seeded k-fold protocol over questions with gold snippets.

    Folds partition the shuffled questions with sizes differing by at
    most one. Each fold's questions are answered from their own gold
    snippets by a scorer fitted on the other folds, then scored with
    best-reference SU4-F1 against the ideal answers. The overall mean
    is over all questions (folds may differ in size by one).
    """
    if k < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {k}")
    question_list = list(questions)
    if len(question_list) < k:
        raise EmptyInput(f"{len(question_list)} questions for {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(question_list))
    folds = np.array_split(order, k)

    per_question: dict[str, float] = {}
    fold_means: list[float] = []
    for fold_idx, fold in enumerate(folds):
        held_out = {int(i) for i in fold}
        train_questions = [q for i, q in enumerate(question_list) if i not in held_out]
        scorer = model_spec.fit(train_questions, collection)
        fold_scores = []
        for i in sorted(held_out):
            question = question_list[i]
            texts = [c.text for c in _gold_candidates(question)]
            scores = scorer.score_sentences(question, texts, list(range(len(texts))))
            best = _answer_places(question.qtype, scores, answer_table)
            f1 = best_reference_f1(" ".join(texts[j] for j in best), question.ideal_answers)
            per_question[question.id] = f1
            fold_scores.append(f1)
        fold_means.append(sum(fold_scores) / len(fold_scores))
        logger.info("fold %d/%d: mean SU4-F1 %.4f", fold_idx + 1, k, fold_means[-1])
    mean_f1 = sum(per_question.values()) / len(per_question)
    return CvResult([len(f) for f in folds], fold_means, mean_f1, per_question)
