"""End-to-end answering: snippets, labels, answer assembly, cross-validation.

A question is answered by three stages, which ``answer_question``, the
command line and ``cross_validate`` compose:

* :func:`retrieve` ranks documents and drops the judged ones;
* :func:`select_snippets` picks sentences of the top documents;
* :func:`score_and_assemble` scores candidate sentences and joins the
  best into the ideal answer. Phase B (``cross_validate``) starts here,
  from the sentences of the gold snippets.

Every sentence score comes from a :class:`SentenceScorer`: tf-idf
cosine, the SU4 oracle, or a trained classifier (:class:`ModelScorer`,
either kind, with inputs built as in training).

Snippet selection reads its sentences from the index's
:class:`~qfs.sentences.SentenceTable`: every document was split and
tokenized once, when the index was built, so a question only slices
the table rows of its ranked documents. The pool of all those sentences
is scored at once; tf-idf cosine reads the stored token ids, any other
scorer gets the sentence texts. A sentence's position is its
per-document ordinal: its place among all sentences of its document,
counted over the sections in order. Only the kept sentences become
:class:`SnippetSpan` objects. :func:`snip_cosine` does the same for a
collection without an index, splitting just the ranked documents.

Candidate sentences keep their *occurrence index*, the 0-based position
in the post-retrieval candidate list. Tie-breaking everywhere favors
the earlier occurrence, which keeps every stage deterministic. Answer
candidates get their positions after feedback filtering, i.e. in the
order the scorer actually sees them.
"""

from __future__ import annotations

import json
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, field
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
    filter_judged,
    snippet_from_json,
    snippet_to_json,
)
from .embeddings import ContextEmbeddingRecord, EmbeddingTable
from .errors import (
    EmptyCandidateList,
    MalformedInput,
    NoCandidates,
    NoIdealAnswer,
    ScorerInputMissing,
    TooFewQuestions,
    UnknownDocument,
)
from .fileio import open_output, read_json, read_jsonl, write_json
from .metrics import best_reference_f1, best_reference_f1s
from .neural import KINDS, LabeledExample, TrainConfig, forward, train
from .retrieval import (
    DenseStore,
    InvertedIndex,
    RankedList,
    bm25_search,
    nir_search,
)
from .sentences import SentenceTable, document_sentences
from .textproc import split_sentences, token_surfaces

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


def submission_from_json(payload: dict) -> list[AnswerResult]:
    """A submission's answers; a missing ideal answer is "", a non-string one an error."""
    questions = payload.get("questions", []) if isinstance(payload, dict) else None
    if not isinstance(questions, list):
        raise MalformedInput("submission: expected an object with a questions array")
    results = []
    for obj in questions:
        if not isinstance(obj, dict) or "id" not in obj:
            raise MalformedInput("submission: question entry without an id")
        where = f"submission question {obj['id']!r}"
        documents, snippets = obj.get("documents", []), obj.get("snippets", [])
        if not isinstance(documents, list) or not isinstance(snippets, list):
            raise MalformedInput(f"{where}: documents and snippets must be lists")
        ideal_answer = obj.get("ideal_answer", "")
        if not all(isinstance(x, str) for x in [ideal_answer, *documents]):
            raise MalformedInput(f"{where}: document ids and ideal_answer must be strings")
        results.append(
            AnswerResult(
                question_id=str(obj["id"]),
                documents=list(documents),
                snippets=[snippet_from_json(s, where) for s in snippets],
                ideal_answer=ideal_answer,
            )
        )
    return results


def save_submission(results: Sequence[AnswerResult], path: str | Path) -> None:
    write_json(path, submission_to_json(results))


def load_submission(path: str | Path) -> list[AnswerResult]:
    return submission_from_json(read_json(path))


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
        if not isinstance(obj, dict):
            raise MalformedInput(f"{where}: bad labeled example: expected an object")
        question, sentence = obj.get("question"), obj.get("sentence")
        label, position, pid = obj.get("label"), obj.get("position"), obj.get("pair_id")
        if not isinstance(question, str) or not isinstance(sentence, str):
            problem = "question and sentence must be strings"
        elif type(label) is not int or label not in (0, 1):  # bool is not an int label
            problem = f"label must be the integer 0 or 1, got {label!r}"
        elif type(position) is not int or position < 0:
            problem = f"position must be an integer >= 0, got {position!r}"
        elif pid is not None and not isinstance(pid, str):
            problem = f"pair_id must be a string, got {pid!r}"
        else:
            examples.append(LabeledExample(
                tuple(token_surfaces(question)), tuple(token_surfaces(sentence)),
                position, label, pid, question, sentence,
            ))
            continue
        raise MalformedInput(f"{where}: bad labeled example: {problem}")
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


def _sum_rows(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape) -> np.ndarray:
    """Each row's values added one column at a time, left to right, from 0.0.

    Absent cells are 0.0, which leaves a sum unchanged, so a row sums
    exactly as a plain left-to-right loop over its values would, with no
    pairwise or BLAS reordering.
    """
    grid = np.zeros(shape)
    grid[rows, cols] = values
    total = np.zeros(shape[0])
    for column in grid.T:
        total += column
    return total


def _tfidf_cosines(question_terms: np.ndarray, lengths: np.ndarray, terms: np.ndarray, v: int):
    """tf-idf cosine of each of n sentences against a question, clipped to [0, 1].

    Sentence i holds the next ``lengths[i]`` ids of ``terms``; ids are
    below ``v`` and ordered as their terms sort. ``question_terms`` are
    the question's tokens that occur in the sentences, as ids.
    """
    q_term, q_tf = np.unique(question_terms, return_counts=True)
    n, q = len(lengths), len(q_term)
    if not q:
        return np.zeros(n)
    sent = np.repeat(np.arange(n), lengths)
    pairs, tf = np.unique(sent * v + terms, return_counts=True)
    pair_sent, pair_term = np.divmod(pairs, v)
    df_values, df_index = np.unique(np.bincount(pair_term, minlength=v), return_inverse=True)
    idf = np.array([math.log((1 + n) / (1 + d)) + 1.0 for d in df_values.tolist()])[df_index]

    weight = tf * idf[pair_term]
    per_sent = np.bincount(pair_sent, minlength=n)
    col = np.arange(len(pairs)) - (np.cumsum(per_sent) - per_sent)[pair_sent]
    norms = np.sqrt(_sum_rows(pair_sent, col, weight * weight, (n, per_sent.max())))
    weight /= norms[pair_sent]
    q_weight = q_tf * idf[q_term]
    q_weight /= np.sqrt(_sum_rows(0, np.arange(q), q_weight * q_weight, (1, q)))

    q_col = np.full(v, -1)
    q_col[q_term] = np.arange(q)
    shared = q_col[pair_term] >= 0
    cols = q_col[pair_term[shared]]
    dots = _sum_rows(pair_sent[shared], cols, q_weight[cols] * weight[shared], (n, q))
    return np.clip(dots, 0.0, 1.0)


class CosineScorer:
    """tf-idf cosine against the question, fitted on the candidate pool.

    Over the n pool sentences, idf(t) = ln((1 + n) / (1 + df(t))) + 1. A
    text's weights are raw tf times idf, L2-normalized; question terms
    outside the pool are ignored. Norms and dot products add terms in
    sorted term order (:func:`_sum_rows`), so a score is the same on
    every platform. Scores are clipped to [0, 1].
    """

    def score_sentences(
        self, question: QuestionRecord, texts: Sequence[str], positions: Sequence[int]
    ) -> list[float]:
        token_lists = [token_surfaces(t) for t in texts]
        vocab = {t: i for i, t in enumerate(sorted({t for ts in token_lists for t in ts}))}
        return _tfidf_cosines(
            np.array([vocab[t] for t in token_surfaces(question.body) if t in vocab], np.intp),
            np.array([len(ts) for ts in token_lists], np.intp),
            np.array([vocab[t] for ts in token_lists for t in ts], np.intp),
            len(vocab),
        ).tolist()


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

    def __init__(
        self,
        params,
        source: EmbeddingTable | Mapping[str, ContextEmbeddingRecord],
        clip_len: int,
    ):
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
        raise UnknownDocument(f"document {doc_id!r} is not in the index")
    return i


def _table_cosines(
    question: QuestionRecord, table: SentenceTable, first: np.ndarray, counts: np.ndarray
) -> list[float]:
    """:class:`CosineScorer` scores of sentence runs ``first:first + counts`` of a table.

    Pool-local ids from ``np.unique`` keep the vocabulary's term order,
    so the scores are those of the sentence texts.
    """
    spans = zip(table.indptr[first].tolist(), table.indptr[first + counts].tolist())
    tokens = np.concatenate([table.token_ids[:0], *(table.token_ids[a:e] for a, e in spans)])
    words, local = np.unique(tokens, return_inverse=True)
    asked = table.word_ids(token_surfaces(question.body))
    asked = np.searchsorted(words, asked[np.isin(asked, words)])
    rows = np.concatenate([first[:0], *(np.arange(a, a + c) for a, c in zip(first, counts))])
    return _tfidf_cosines(asked, np.diff(table.indptr)[rows], local, len(words)).tolist()


def _snip(
    question: QuestionRecord,
    ranked_docs: RankedList,
    table: SentenceTable,
    ordinals: Sequence[int],
    collection: DocumentCollection,
    scorer: SentenceScorer | None,
    per_doc: int,
) -> list[SnippetSpan]:
    """Snippets by one scoring over the sentences of every ranked document.

    ``ordinals`` are the ranked documents' places in ``table``. With no
    scorer, sentences are scored by tf-idf cosine from their token ids;
    a scorer gets their texts, with per-document ordinals as positions.
    Per document the top ``per_doc`` sentences are re-ordered by
    occurrence; per-document groups are collated in document-relevance
    order. Only the kept sentences become :class:`SnippetSpan` objects.
    """
    docs = []
    for doc_id, _ in ranked_docs:
        if doc_id not in collection:
            raise UnknownDocument(f"document {doc_id!r} is not in the collection")
        docs.append(collection[doc_id])
    ordinals = np.asarray(ordinals, dtype=np.intp)
    first = table.doc_ptr[ordinals]
    counts = table.doc_ptr[ordinals + 1] - first
    if scorer is None:
        scores = _table_cosines(question, table, first, counts)
    else:
        texts, positions = [], []
        for doc, a, c in zip(docs, first.tolist(), counts.tolist()):
            for row in range(a, a + c):
                text = doc.sections[table.section[row]][1]
                texts.append(text[table.begin[row] : table.end[row]])
                positions.append(row - a)
        scores = scorer.score_sentences(question, texts, positions)
    out: list[SnippetSpan] = []
    start = 0
    for doc, a, c in zip(docs, first.tolist(), counts.tolist()):
        group = scores[start : start + c]
        start += c
        for i in sorted(sorted(range(c), key=lambda i: (-group[i], i))[:per_doc]):
            section_id, text = doc.sections[table.section[a + i]]
            b, e = int(table.begin[a + i]), int(table.end[a + i])
            out.append(SnippetSpan(doc.id, section_id, b, e, text[b:e]))
    return out


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
    table = SentenceTable.build(document_sentences(d, collection) for d, _ in ranked_docs)
    return _snip(
        question, ranked_docs, table, range(len(ranked_docs)), collection, None, per_doc
    )


def candidate_sentences(question: QuestionRecord) -> list[SnippetSpan]:
    """Sentences of the question's gold snippets, in snippet order.

    Multi-sentence snippets are split; each sentence inherits offsets
    relative to its snippet's section.
    """
    out = []
    for snippet in question.gold_snippets:
        for sent in split_sentences(snippet.text):
            out.append(
                SnippetSpan(
                    snippet.doc_id,
                    snippet.section_id,
                    snippet.begin_char + sent.begin,
                    snippet.begin_char + sent.end,
                    sent.text,
                )
            )
    return out


def _gold_candidates(question: QuestionRecord) -> list[SnippetSpan]:
    """Candidate sentences of a question that also has ideal answers."""
    if not question.ideal_answers:
        raise NoIdealAnswer(f"question {question.id!r} has no ideal answers")
    candidates = candidate_sentences(question)
    if not candidates:
        raise NoCandidates(f"question {question.id!r} has no candidate sentences")
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
        for i, cand in enumerate(candidates):
            examples.append(
                LabeledExample(
                    question_tokens=q_tokens,
                    sentence_tokens=tokens[i],
                    position=i,
                    label=1 if i in positive else 0,
                    pair_id=pair_id(question.id, i),
                    question_text=question.body,
                    sentence_text=cand.text,
                )
            )
    return examples


def assemble_answer(
    qtype: str,
    scored: Sequence[ScoredSentence],
    table: Mapping[str, int] | None = None,
) -> str:
    """Join the top-n sentences for the question type in occurrence order."""
    if not scored:
        raise EmptyCandidateList("cannot assemble an answer from no sentences")
    lengths = DEFAULT_ANSWER_LENGTHS if table is None else table
    n = lengths[qtype]
    selected = sorted(scored, key=lambda s: (-s.score, s.occurrence_index))[:n]
    selected.sort(key=lambda s: s.occurrence_index)
    return " ".join(s.text for s in selected)


@dataclass
class Resources:
    """Read-only inputs shared by every question in a run.

    The index must have been built from ``collection``: snippets slice
    its section texts at the offsets in the index's sentence table
    (:func:`qfs.retrieval.check_collection` checks a loaded index).
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
            raise ScorerInputMissing(
                f"retrieval method {method!r} needs dense vectors and query vectors"
            )
        if question.id not in resources.query_vectors:
            raise ScorerInputMissing(f"no query vector for question {question.id!r}")
        pool_size = None if method == "nir" else max(config.retrieval.pool_size, k)
        ranked = nir_search(
            resources.index, resources.dense, tokens, resources.query_vectors[question.id],
            k, config.retrieval.lam, pool_size,
        )
    doc_ids = [d for d, _ in ranked]
    unjudged = set(filter_judged(doc_ids, resources.feedback, question.id, EXCLUDE_ALL_JUDGED))
    return [(d, s) for d, s in ranked if d in unjudged]


def select_snippets(
    question: QuestionRecord, ranked: RankedList, config, resources: Resources
) -> list[SnippetSpan]:
    """Snippets of the ranked documents by the configured strategy, unfiltered.

    Sentences come from the index's sentence table; only the kept ones
    become :class:`SnippetSpan` objects.
    """
    index = resources.index
    scorer = None if config.snippets.strategy == "cosine" else resources.scorer
    ordinals = [_ordinal(index, doc_id) for doc_id, _ in ranked]
    return _snip(
        question, ranked, index.sentences, ordinals, resources.collection, scorer,
        config.snippets.per_doc,
    )


def score_and_assemble(
    question: QuestionRecord,
    candidates: Sequence[SnippetSpan],
    scorer: SentenceScorer,
    answer_table: Mapping[str, int] | None = None,
) -> str:
    """Score candidates at their list positions and assemble the ideal answer."""
    scores = scorer.score_sentences(
        question, [c.text for c in candidates], list(range(len(candidates)))
    )
    scored = [
        ScoredSentence(text=c.text, source=c, occurrence_index=i, score=s)
        for i, (c, s) in enumerate(zip(candidates, scores))
    ]
    return assemble_answer(question.qtype, scored, answer_table)


def answer_question(
    question: QuestionRecord, config, resources: Resources
) -> AnswerResult:
    """Retrieve, snip, filter, score, and assemble one question's answer."""
    ranked = retrieve(question, config, resources)[: config.retrieval.final_doc_cap]
    snippets = select_snippets(question, ranked, config, resources)
    feedback, qid = resources.feedback, question.id
    returned = filter_judged(snippets, feedback, qid, EXCLUDE_ALL_JUDGED)
    candidates = filter_judged(snippets, feedback, qid, EXCLUDE_IRRELEVANT_ONLY)
    ideal = score_and_assemble(question, candidates, resources.scorer, config.answer_table)
    return AnswerResult(
        question_id=qid,
        documents=[d for d, _ in ranked],
        snippets=returned[: config.retrieval.final_snippet_cap],
        ideal_answer=ideal,
    )


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
    source: EmbeddingTable | Mapping[str, ContextEmbeddingRecord]
    config: TrainConfig
    lstm_hidden: int = 100
    dense_hidden: int = 50

    def fit(self, questions, collection) -> SentenceScorer:
        examples = generate_labels(questions, collection)
        result = train(
            self.kind, examples, self.source, self.config, self.lstm_hidden, self.dense_hidden
        )
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
    question_list = list(questions)
    if len(question_list) < k:
        raise TooFewQuestions(f"{len(question_list)} questions for {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(question_list))
    folds = np.array_split(order, k)

    per_question: dict[str, float] = {}
    fold_means: list[float] = []
    for fold_idx, fold in enumerate(folds):
        held_out = {int(i) for i in fold}
        train_questions = [
            q for i, q in enumerate(question_list) if i not in held_out
        ]
        scorer = model_spec.fit(train_questions, collection)
        fold_scores = []
        for i in sorted(held_out):
            question = question_list[i]
            candidates = _gold_candidates(question)
            answer = score_and_assemble(question, candidates, scorer, answer_table)
            f1 = best_reference_f1(answer, question.ideal_answers)
            per_question[question.id] = f1
            fold_scores.append(f1)
        fold_means.append(sum(fold_scores) / len(fold_scores))
        logger.info("fold %d/%d: mean SU4-F1 %.4f", fold_idx + 1, k, fold_means[-1])
    mean_f1 = sum(per_question.values()) / len(per_question)
    return CvResult(
        fold_sizes=[len(f) for f in folds],
        fold_mean_f1=fold_means,
        mean_f1=mean_f1,
        per_question=per_question,
    )
