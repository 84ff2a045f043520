"""End-to-end answering: snippets, labels, answer assembly, cross-validation.

A question is answered by three stages, which :func:`answer_question`
composes; the command line composes :func:`retrieve` (``qfs retrieve``)
and :func:`answer_question` (``qfs snippets`` and ``qfs answer``):

* :func:`retrieve` ranks documents and drops the judged ones;
* snippet selection (:func:`_snip`) picks sentences of the top documents;
* answer scoring scores the candidates left after feedback filtering,
  and the best are joined into the ideal answer.
  Phase B starts here, from gold snippet sentences: :func:`generate_labels`
  labels them, and :func:`cross_validate` answers from them.

Every sentence score comes from a :class:`SentenceScorer` that :data:`SCORERS`
names.

Candidate sentences keep their *occurrence index*, the 0-based position
in the post-retrieval candidate list. Tie-breaking everywhere favors
the earlier occurrence, which keeps every stage deterministic. Answer
candidates get their positions after feedback filtering, i.e. in the
order the scorer actually sees them.

The benchmark (``bench/``) uses :func:`snip_cosine`, ``CosineScorer.score_sentences(
question, texts, positions)``, :class:`ScoredSentence`, :func:`assemble_answer`,
``OracleModelSpec``, :func:`candidate_sentences`, :func:`best_reference_f1`,
:func:`qfs.metrics.best_reference_f1`, :func:`qfs.metrics.rouge_su4_f1` and
:func:`qfs.textproc.split_sentences`: removing any of them, or changing its signature,
fails every benchmark run until ``bench/`` moves. ``bench/run.py`` replays answering with
``ScoredSentence`` and ``assemble_answer``, so both stay public.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, count
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import (
    EXCLUDE_ALL_JUDGED,
    EXCLUDE_IRRELEVANT_ONLY,
    DocumentCollection,
    FeedbackStore,
    QuestionRecord,
    QuestionSet,
    SnippetSpan,
    snippet_from_json,
    snippet_to_json,
)
from .embeddings import DenseStore
from .errors import EmptyInput, MalformedInput, MissingInput
from . import fileio
from .fileio import (
    ID, INTEGER, STRING, STRING_LIST, open_output, read_json, read_jsonl,
)
from .metrics import grouped_su4_scores
from .neural import KINDS, LabeledExample, TrainConfig, forward, train
from .retrieval import InvertedIndex, RankedList, _ranked, bm25_top, nir_top
from .sentences import SentenceTable
from .textproc import run_edges, sentence_bounds, token_surfaces

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

    def to_json(self) -> dict:
        """One question of a submission file: its evidence and answer."""
        return {
            "id": self.question_id,
            "documents": list(self.documents),
            "snippets": [snippet_to_json(s) for s in self.snippets],
            "ideal_answer": self.ideal_answer,
        }


def submission_to_json(results: Sequence[AnswerResult]) -> dict:
    """Submission-file shape: a questions array with evidence and answer."""
    return {"questions": [r.to_json() for r in results]}


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
        fileio.check(ideal_answer, STRING, where, "ideal_answer")
        fileio.check(documents, STRING_LIST, where, "documents")
        if len(set(documents)) < len(documents):
            raise MalformedInput(f"{where}: returned document list contains duplicates")
        snippets = [snippet_from_json(s, where) for s in snippets]
        results.append(AnswerResult(qid, list(documents), snippets, ideal_answer))
    return results


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
    type, or a value :class:`LabeledExample` refuses, is ``MalformedInput``
    naming ``path:line``."""
    examples = []
    for where, obj in read_jsonl(path):
        where = f"{where}: bad labeled example"
        question, sentence = (fileio.field(obj, k, STRING, where) for k in ("question", "sentence"))
        label, position = (fileio.field(obj, k, INTEGER, where) for k in ("label", "position"))
        pid = fileio.field(obj, "pair_id", STRING, where, None)
        try:
            examples.append(LabeledExample(question, sentence, position, label, pid))
        except ValueError as exc:
            raise MalformedInput(f"{where}: {exc}") from exc
    return examples


class SentenceScorer(Protocol):
    """Scores a batch of questions' candidate sentences; higher is better.

    ``texts[i]`` and ``positions[i]`` are question i's candidates, and its
    scores are those of a one-question batch. Only :class:`OracleScorer`
    groups a batch's work; the others score question by question."""

    def score_questions(self, questions: Sequence[QuestionRecord], texts: Sequence[Sequence[str]],
                        positions: Sequence[Sequence[int]]) -> list[list[float]]: ...


class ConstantScorer:
    """Scores every sentence 0.5; ties then resolve by occurrence."""

    def score_questions(self, questions: Sequence[QuestionRecord], texts: Sequence[Sequence[str]],
                        positions: Sequence[Sequence[int]]) -> list[list[float]]:
        return [[0.5] * len(t) for t in texts]


def _term_pairs(lengths: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct (term, sentence, tf) triples of n sentences, as three arrays
    sorted by term, then sentence: one sort of a (term, sentence) key per token.

    Sentence i holds the next ``lengths[i]`` ids of ``terms``; ids are
    ordered as their terms sort.
    """
    n = len(lengths)
    bits = n.bit_length()  # a key is term << bits | sentence
    # int32 keys sort about twice as fast as int64 ones, when they fit.
    narrow = not len(terms) or int(np.maximum.reduce(terms)) < 1 << (31 - bits)
    keys = terms.astype(np.int32 if narrow else np.int64)  # a copy, so built in place
    keys <<= bits
    keys |= np.arange(n, dtype=keys.dtype).repeat(lengths)
    keys.sort()
    edges = run_edges(keys)  # one run per (term, sentence) pair
    pairs = keys[edges[:-1]]
    return pairs >> bits, pairs & ((1 << bits) - 1), edges[1:] - edges[:-1]


def _subset(pairs: tuple[np.ndarray, ...], keep: np.ndarray) -> tuple[np.ndarray, ...]:
    """The triples of the sentences where boolean ``keep`` is true, those
    renumbered 0, 1, ... in order; still sorted by term, then sentence."""
    term, sentence, tf = pairs
    at = keep.take(sentence).nonzero()[0]  # take: half the time of fancy indexing here
    return term.take(at), (keep.cumsum() - 1).take(sentence.take(at)), tf.take(at)


def _cosines(asked: np.ndarray, n: int, pairs: tuple[np.ndarray, ...]) -> np.ndarray:
    """tf-idf cosine of each of n sentences against a question, clipped to [0, 1].

    ``pairs`` are the sentences' :func:`_term_pairs`; ``asked`` holds the
    question's token ids, and ids no sentence holds are ignored. Every
    array is sized by the pairs, never by the vocabulary. Sums: the pairs
    are in term order and ``np.bincount`` adds in input order, so each
    norm and dot product adds its terms one at a time in term order. idf is
    1 + ``math.log`` (``np.log`` may differ in the last bit) of each distinct df's
    ``(1 + n) / (1 + df)``: numpy divides these small integers as Python does, as
    both are exact doubles and the IEEE division is correctly rounded.
    """
    pair_term, pair_sent, tf = pairs
    if not len(pair_term):
        return np.zeros(n)
    term_edges = run_edges(pair_term)  # one run per distinct term
    words, df = pair_term[term_edges[:-1]], term_edges[1:] - term_edges[:-1]
    present = np.bincount(df).nonzero()[0]
    log_of_df = np.zeros(present[-1] + 1)
    log_of_df[present] = list(map(math.log, ((1 + n) / (1 + present)).tolist()))
    idf = log_of_df[df] + 1.0
    weight = tf * idf.repeat(df)
    norms = np.sqrt(np.bincount(pair_sent, weight * weight, n))

    at = np.minimum(words.searchsorted(asked), len(words) - 1)
    q_tf = np.bincount(at[words[at] == asked], minlength=len(words))
    q_term = q_tf.nonzero()[0]
    if not len(q_term):
        return np.zeros(n)
    q_weight = q_tf[q_term] * idf[q_term]
    q_weight /= np.sqrt((q_weight * q_weight).cumsum()[-1])
    begin, size = term_edges[q_term], df[q_term]
    # The pairs of the question's terms: one ragged arange over their runs.
    shared = np.arange(np.add.reduce(size)) + (begin - (size.cumsum() - size)).repeat(size)
    rows = pair_sent[shared]
    products = q_weight.repeat(size) * (weight[shared] / norms[rows])
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
    of those pairs. This method, the adapter for gold candidates and for
    ``bench/``, composes the same two functions, so the scores are ``==``: a
    row's ids are the tokens of its text, both vocabularies sort by term, and
    the kernel reads only term order and equality.
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

    def score_questions(self, questions: Sequence[QuestionRecord], texts: Sequence[Sequence[str]],
                        positions: Sequence[Sequence[int]]) -> list[list[float]]:
        return list(map(self.score_sentences, questions, texts, positions))


class OracleScorer:
    """Scores a sentence by its SU4-F1 against its best ideal answer; labels rank by it.

    It reads the gold answers it is judged by, so it is an evaluation
    ceiling, not a way to answer a new question: a question without ideal
    answers scores 0 throughout. The others of a batch are scored in one
    :func:`qfs.metrics.grouped_su4_scores` call.
    """

    def score_questions(self, questions: Sequence[QuestionRecord], texts: Sequence[Sequence[str]],
                        positions: Sequence[Sequence[int]]) -> list[list[float]]:
        scores = [[0.0] * len(t) for t in texts]
        answered = [i for i, q in enumerate(questions) if q.ideal_answers]
        grouped = grouped_su4_scores((texts[i], questions[i].ideal_answers) for i in answered)
        for i, (*_, f1) in zip(answered, grouped):
            scores[i] = np.maximum.reduce(f1, 1).tolist()
        return scores


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

    def score_questions(self, questions: Sequence[QuestionRecord], texts: Sequence[Sequence[str]],
                        positions: Sequence[Sequence[int]]) -> list[list[float]]:
        scores = []
        for question, q_texts, q_positions in zip(questions, texts, positions):
            q_tokens = token_surfaces(question.body)
            scores.append([
                forward(self.params, *self.kind.input(
                    self.source, q_tokens, token_surfaces(text), pair_id(question.id, pos),
                    pos, self.clip_len,
                ))
                for text, pos in zip(q_texts, q_positions)
            ])
        return scores


def _rows(table: SentenceTable, collection: DocumentCollection, docs: Mapping[int, int],
          rows: np.ndarray):
    """Per row of ``table`` in ``rows``: its span key (document id, section id,
    begin, end) and its section's number in ``collection``; ``docs`` maps table
    document ordinals to collection ordinals. No Python code runs per row."""
    d = np.fromiter(map(docs.__getitem__, table.doc[rows].tolist()), np.intp, len(rows))
    sections = (collection.doc_ptr[d] + table.section[rows]).tolist()
    keys = zip(map(collection.ids.__getitem__, d.tolist()),
               map(collection.section_ids.__getitem__, sections),
               table.begin[rows].tolist(), table.end[rows].tolist())
    return zip(keys, sections)


def _texts(table: SentenceTable, collection: DocumentCollection, docs: Mapping[int, int],
           rows) -> list[str]:
    """The rows' texts, each a slice of its section's bytes."""
    return [collection.chars(s, key[2], key[3]) for key, s in _rows(table, collection, docs, rows)]


def _spans(table: SentenceTable, collection: DocumentCollection, docs: Mapping[int, int],
           rows) -> list[SnippetSpan]:
    return [SnippetSpan(*key, collection.chars(s, key[2], key[3]))
            for key, s in _rows(table, collection, docs, rows)]


def _snip(question: QuestionRecord, table: SentenceTable, ordinals: Sequence[int],
          collection: DocumentCollection, docs: Mapping[int, int], scorer: SentenceScorer,
          per_doc: int, asked: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """Snippets by one scoring over the sentences of every ranked document:
    the ``table`` rows of the kept pool sentences in occurrence order, a mask
    of them over the pool and the pool's term pairs. ``asked`` holds the
    question's word ids in ``table``.

    ``ordinals`` are the ranked documents' places in ``table``, in rank
    order, and ``docs`` maps each to its place in ``collection``. A
    :class:`CosineScorer` scores the pool's token ids through
    :func:`_term_pairs`, which are returned for answer scoring; any other
    scorer gets the texts, with per-document ordinals as positions, and
    the pairs are ``None``. Per
    document the top ``per_doc`` sentences (ties to the earlier one) are
    kept in occurrence order; per-document groups are collated in
    document-relevance order. No :class:`SnippetSpan` is made here: the
    caller makes them of the rows it returns (:func:`_spans`).
    """
    ordinals = np.asarray(ordinals, dtype=np.intp)
    first = table.doc_ptr[ordinals]
    counts = table.doc_ptr[ordinals + 1] - first
    owner = np.arange(len(ordinals)).repeat(counts)  # pool sentence -> ranked document
    starts = counts.cumsum() - counts  # pool place of each document's first sentence
    rows = np.arange(len(owner)) + (first - starts)[owner]
    pairs = None
    if isinstance(scorer, CosineScorer):
        # A document's sentences are consecutive rows, so its tokens are one slice.
        tokens = zip(table.indptr[first].tolist(), table.indptr[first + counts].tolist())
        terms = np.concatenate([table.token_ids[:0], *(table.token_ids[a:e] for a, e in tokens)])
        pairs = _term_pairs(table.indptr[rows + 1] - table.indptr[rows], terms)
        scores = _cosines(asked, len(rows), pairs)
    else:
        texts = _texts(table, collection, docs, rows)
        positions = (rows - first[owner]).tolist()
        scores = np.array(scorer.score_questions([question], [texts], [positions])[0], float)
    order = np.lexsort((-scores, owner))  # stable; order[i] is in document owner[i]
    kept = np.empty(len(order), dtype=bool)
    kept[order] = np.arange(len(order)) - starts[owner] < per_doc
    return rows[kept], kept, pairs


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
    reads the index's table instead (:func:`answer_question`), with the
    same result.
    """
    table = SentenceTable.build(collection, [d for d, _ in ranked_docs])
    docs = dict(enumerate(collection.ordinal[d] for d, _ in ranked_docs))
    asked = table.word_ids(token_surfaces(question.body))
    rows = _snip(question, table, range(len(docs)), collection, docs, CosineScorer(), per_doc,
                 asked)[0]
    return _spans(table, collection, docs, rows)


def _gold_sentences(question: QuestionRecord) -> list[tuple[SnippetSpan, int, int, str]]:
    """Each sentence of the question's gold snippets, in snippet order, as its
    snippet, its bounds in the snippet's text and its text. The texts are joined
    by ``"\\n"`` and split in one :func:`qfs.textproc.sentence_bounds` pass, with
    each snippet's start as a cut, which splits each as it splits alone."""
    snippets = question.gold_snippets
    joined = "\n".join(s.text for s in snippets)
    starts = list(accumulate((len(s.text) + 1 for s in snippets[:-1]), initial=0))
    out = []
    for b, e in sentence_bounds(joined, starts):
        i = bisect_right(starts, b) - 1
        out.append((snippets[i], b - starts[i], e - starts[i], joined[b:e]))
    return out


def candidate_sentences(question: QuestionRecord) -> list[SnippetSpan]:
    """Sentences of the question's gold snippets, in snippet order, with offsets
    in their snippets' sections (:func:`_gold_sentences`). Labelling reads the
    same split's texts and makes no span."""
    return [SnippetSpan(s.doc_id, s.section_id, s.begin_char + b, s.begin_char + e, text)
            for s, b, e, text in _gold_sentences(question)]


def _check_ideal_answers(question: QuestionRecord) -> None:
    if not question.ideal_answers:
        raise MissingInput(f"question {question.id!r} has no ideal answers")


def _check_gold_offsets(question: QuestionRecord, collection: DocumentCollection) -> None:
    """Every gold snippet must be the exact slice of its section text."""
    for s in question.gold_snippets:
        d = collection.ordinal.get(s.doc_id)
        if d is None:
            problem = "is not in the collection"
        else:
            section = collection.find_section(d, s.section_id)
            if section is None:
                problem = f"has no section {s.section_id!r}"
            elif collection.chars(section, s.begin_char, s.end_char) != s.text:
                problem = (
                    f"section {s.section_id!r} does not hold the snippet text "
                    f"at offsets {s.begin_char}-{s.end_char}"
                )
            else:
                continue
        raise MalformedInput(
            f"question {question.id!r}: gold snippet document {s.doc_id!r} {problem}"
        )


def _gold_texts(questions: Sequence[QuestionRecord],
                collection: DocumentCollection | None) -> list[list[str]]:
    """Each question's candidate sentence texts (:func:`_gold_sentences`), once
    every question is checked, in order: when a collection is given, each gold
    snippet must be the exact slice of its section text (``MalformedInput``
    naming the question and the document), and a question needs ideal answers
    and a candidate sentence, a snippet with text that is not all whitespace."""
    for question in questions:
        if collection is not None:
            _check_gold_offsets(question, collection)
        _check_ideal_answers(question)
        if not any(s.text.strip() for s in question.gold_snippets):
            raise EmptyInput(f"question {question.id!r} has no candidate sentences")
    return [[text for *_, text in _gold_sentences(q)] for q in questions]


def generate_labels(
    questions: QuestionSet | Sequence[QuestionRecord],
    collection: DocumentCollection | None = None,
) -> list[LabeledExample]:
    """Binary labels from gold snippets: 1 for the oracle's top-5 sentences.

    Candidates are the sentences of the gold snippets in order
    (:func:`_gold_texts`, which checks every question first), each scored
    by :class:`OracleScorer`, its SU4-F1 against its best reference, for
    all questions in one call; the five best are picked as answers are
    (:func:`_answer_places`), ties to the earlier occurrence.
    """
    questions = list(questions)
    texts = _gold_texts(questions, collection)
    scores = OracleScorer().score_questions(questions, texts, [range(len(t)) for t in texts])
    examples: list[LabeledExample] = []
    for question, candidates, q_scores in zip(questions, texts, scores):
        top = {question.qtype: POSITIVE_LABELS_PER_QUESTION}
        positive = set(_answer_places(question.qtype, q_scores, top))
        examples.extend(
            LabeledExample(question.body, text, i, int(i in positive), pair_id(question.id, i))
            for i, text in enumerate(candidates)
        )
    return examples


def _answer_places(qtype: str, scores: Sequence[float], table: Mapping[str, int] | None,
                   place: Sequence[int] | None = None) -> list[int]:
    """The indices of the answer's sentences in place order: the best n scores for
    the question type in ``table`` (the defaults if None), ties to the earlier
    place. Sentence i's place is ``place[i]``, or i. Two stable sorts, by place
    and then by score, give the order of the key ``(-scores[i], place[i])``."""
    if not len(scores):
        raise EmptyInput("cannot assemble an answer from no sentences")
    by_place = None if place is None else place.__getitem__
    order = range(len(scores)) if place is None else sorted(range(len(scores)), key=by_place)
    best = sorted(order, key=[-s for s in scores].__getitem__)
    return sorted(best[: (DEFAULT_ANSWER_LENGTHS if table is None else table)[qtype]],
                  key=by_place)


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
    section lengths and text CRCs). They are read from the collection's
    columns, one section's bytes per row, and no
    :class:`~qfs.corpus.DocumentRecord` is made. Its BM25 impacts use the
    k1 and b it was built or loaded with; the command line passes the
    config's. ``scorer`` scores answers, and snippets under the ``model``
    strategy; retrieval and cosine snippets need none.
    """

    collection: DocumentCollection
    index: InvertedIndex
    scorer: SentenceScorer | None = None
    dense: DenseStore | None = None
    query_vectors: DenseStore | None = None
    feedback: FeedbackStore = field(default_factory=FeedbackStore.empty)


def _retrieve(question: QuestionRecord, config, resources: Resources,
              words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The round's ranked index ordinals and scores for the question's word
    ids ``words`` in the index's sentence table, judged documents removed."""
    index, k = resources.index, config.retrieval.docs_for_round(config.round)
    method = config.retrieval.method
    if method == "bm25":
        ordinals, scores = bm25_top(index, words, k)
    else:
        if resources.dense is None or resources.query_vectors is None:
            raise MissingInput(f"retrieval method {method!r} needs dense vectors and query vectors")
        if question.id not in resources.query_vectors:
            raise MissingInput(f"no query vector for question {question.id!r}")
        pool_size = None if method == "nir" else max(config.retrieval.pool_size, k)
        ordinals, scores = nir_top(index, resources.dense, words,
                                   resources.query_vectors[question.id],
                                   k, config.retrieval.lam, pool_size)
    if judged := resources.feedback.judgments(question.id):
        keep = [index.doc_ids[o] not in judged for o in ordinals.tolist()]
        ordinals, scores = ordinals[keep], scores[keep]
    return ordinals, scores


def retrieve(question: QuestionRecord, config, resources: Resources) -> RankedList:
    """The round's ranked (doc_id, score) pairs, judged documents removed."""
    words = resources.index.sentences.word_ids(token_surfaces(question.body))
    return _ranked(resources.index, *_retrieve(question, config, resources, words))


def answer_question(question: QuestionRecord, config, resources: Resources,
                    answer: bool = True) -> AnswerResult:
    """Retrieve, snip, filter, score, and assemble one question's answer; with
    ``answer=False``, only the documents and snippets (``qfs snippets``)."""
    table, collection = resources.index.sentences, resources.collection
    asked = table.word_ids(token_surfaces(question.body))
    ordinals = _retrieve(question, config, resources, asked)[0][: config.retrieval.final_doc_cap]
    doc_ids = [resources.index.doc_ids[o] for o in ordinals.tolist()]
    docs = {o: collection.ordinal[d] for o, d in zip(ordinals.tolist(), doc_ids)}
    # A CosineScorer in resources scores the snippets too, so answer scoring
    # by cosine always finds the pool's term pairs.
    scorer = CosineScorer() if config.snippets.strategy == "cosine" else resources.scorer
    rows, kept, pairs = _snip(question, table, ordinals, collection, docs, scorer,
                              config.snippets.per_doc, asked)
    returned = candidates = rows
    if judged := resources.feedback.judgments(question.id):
        polarity = [judged.get(key) for key, _ in _rows(table, collection, docs, rows)]
        shown, left = (np.array([p in mode for p in polarity], dtype=bool)
                       for mode in (EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY))
        returned, candidates = rows[shown], rows[left]
        kept[kept] = left  # now marks the candidates
    result = AnswerResult(question.id, doc_ids, _spans(
        table, collection, docs, returned[: config.retrieval.final_snippet_cap]))
    if not answer:
        return result
    if isinstance(resources.scorer, CosineScorer):
        scores = _cosines(asked, len(candidates), _subset(pairs, kept)).tolist()
    else:
        texts = _texts(table, collection, docs, candidates)
        scores = resources.scorer.score_questions([question], [texts], [range(len(texts))])[0]
    best = candidates[_answer_places(question.qtype, scores, config.answer_table)]
    result.ideal_answer = " ".join(_texts(table, collection, docs, best))
    return result


# Every scorer name, in the order help and errors list them, and its scorer's class:
# the untrained ones, then the classifier kinds, trained or read from a QFSM file.
SCORERS: dict[str, type] = {
    "constant": ConstantScorer, "cosine": CosineScorer, "oracle": OracleScorer,
    **dict.fromkeys(KINDS, ModelScorer),
}


@dataclass
class ModelSpec:
    """Makes the scorer ``name`` names in :data:`SCORERS` for a training split: an
    untrained one ignores it, a classifier kind trains on its labels (``source``,
    ``config``)."""

    name: str
    source: DenseStore | None = None
    config: TrainConfig | None = None

    def fit(self, questions: Sequence[QuestionRecord],
            collection: DocumentCollection | None) -> SentenceScorer:
        if self.name not in KINDS:
            return SCORERS[self.name]()
        result = train(self.name, generate_labels(questions, collection), self.source, self.config)
        return ModelScorer(result.params, self.source, self.config.clip_len)


# The name bench/run.py builds its cross-validation scorer by.
OracleModelSpec = partial(ModelSpec, "oracle")


def best_reference_f1(questions: Sequence[QuestionRecord], answers: Sequence[str]) -> list[float]:
    """Each answer text's SU4-F1 against the best of its question's ideal answers:
    :class:`OracleScorer`'s score of it as a one-sentence list. :func:`cross_validate`
    scores each fold's answers with it, and ``bench/run.py`` times that step by
    this name. A question without ideal answers is ``MissingInput``."""
    for question in questions:
        _check_ideal_answers(question)
    texts = [[answer] for answer in answers]
    return [s for s, in OracleScorer().score_questions(questions, texts, [[0]] * len(texts))]


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
    k: int = 10,
    seed: int = 0,
) -> CvResult:
    """Seeded k-fold protocol over questions with gold snippets.

    Folds partition the shuffled questions with sizes differing by at
    most one. Each fold's questions are answered from their own gold
    snippets by a scorer fitted on the other folds, then scored with
    best-reference SU4-F1 against the ideal answers. Per fold, the scorer
    is fitted once, then one ``score_questions`` call scores the fold's
    candidates and one :func:`best_reference_f1` call its answers. The
    overall mean is over all questions (folds may differ in size by one).
    Every question is checked and split once, before the first fold, by
    :func:`_gold_texts` as :func:`generate_labels` does: against the
    collection when one is given (a classifier kind is fitted without it),
    and for ideal answers and a candidate sentence.
    """
    if k < 2:
        raise ValueError(f"cross-validation needs at least 2 folds, got {k}")
    question_list = list(questions)
    if len(question_list) < k:
        raise EmptyInput(f"{len(question_list)} questions for {k} folds")
    gold_texts = _gold_texts(question_list, collection)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(question_list))
    folds = np.array_split(order, k)

    per_question: dict[str, float] = {}
    fold_means: list[float] = []
    for fold_idx, fold in enumerate(folds):
        held_out = {int(i) for i in fold}
        train_questions = [q for i, q in enumerate(question_list) if i not in held_out]
        scorer = model_spec.fit(train_questions, None)  # checked above
        fold_questions = [question_list[i] for i in sorted(held_out)]
        texts = [gold_texts[i] for i in sorted(held_out)]
        scores = scorer.score_questions(fold_questions, texts, [range(len(t)) for t in texts])
        answers = [" ".join(t[j] for j in _answer_places(q.qtype, s, None))
                   for q, t, s in zip(fold_questions, texts, scores)]
        fold_scores = best_reference_f1(fold_questions, answers)
        per_question.update(zip((q.id for q in fold_questions), fold_scores))
        fold_means.append(sum(fold_scores) / len(fold_scores))
        logger.info("fold %d/%d: mean SU4-F1 %.4f", fold_idx + 1, k, fold_means[-1])
    mean_f1 = sum(per_question.values()) / len(per_question)
    return CvResult([len(f) for f in folds], fold_means, mean_f1, per_question)
