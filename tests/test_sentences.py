"""The sentence store against the code it replaced, kept here as oracles."""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfs import pipeline, sentences
from qfs.config import parse_config
from qfs.corpus import (
    EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY, IRRELEVANT, RELEVANT, DocumentCollection,
    DocumentRecord, FeedbackStore, SnippetSpan, filter_judged, load_document_collection,
    load_question_set, save_document_collection,
)
from qfs.errors import EmptyInput, MissingInput
from qfs.pipeline import (
    AnswerResult, CosineScorer, Resources, ScoredSentence, answer_question, assemble_answer,
    retrieve, snip_cosine,
)
from qfs.retrieval import build_index, check_collection, load_index, save_index
from qfs.sentences import SentenceTable
from qfs.textproc import sentence_bounds, split_sentences, token_surfaces

from conftest import ascii_split_texts, make_doc, make_question, split_texts, term_rows

GOLDEN = Path(__file__).parent / "golden"


def reference_build_index(docs, stopwords=frozenset()):
    """The Counter loop that built the postings before the sentence store."""
    doc_ids = sorted(doc.id for doc in docs)
    doc_len = array("i")
    rows: defaultdict[str, array] = defaultdict(lambda: array("i"))
    for ordinal, doc_id in enumerate(doc_ids):
        tokens = [
            t for _, text in docs[doc_id].sections for t in token_surfaces(text)
            if t not in stopwords
        ]
        doc_len.append(len(tokens))
        for term, tf in Counter(tokens).items():
            rows[term].extend((ordinal, tf))
    terms = sorted(rows)
    indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum([len(rows[t]) // 2 for t in terms], out=indptr[1:])
    joined = np.frombuffer(b"".join([rows.pop(t) for t in terms]), dtype=np.int32)
    post_doc, post_tf = joined.reshape(-1, 2).T
    terms_by_row = {term: r for r, term in enumerate(terms)}
    return doc_ids, np.array(doc_len, dtype=np.int32), terms_by_row, indptr, post_doc, post_tf


def reference_table(collection, doc_ids) -> SentenceTable:
    """The table as it was built before blocks: one row per sentence, split
    and tokenized one section and one sentence at a time."""
    rows = []
    for ordinal, doc_id in enumerate(doc_ids):
        for i, (_, text) in enumerate(collection[doc_id].sections):
            rows.extend((ordinal, i, b, e, token_surfaces(text[b:e]))
                        for b, e in sentence_bounds(text))
    vocabulary = sorted({word for *_, words in rows for word in words})
    ids = {word: i for i, word in enumerate(vocabulary)}
    doc, section, begin, end = (np.array([row[k] for row in rows], dtype=np.int32)
                                for k in range(4))
    indptr = np.cumsum([0] + [len(row[4]) for row in rows], dtype=np.int64)
    token_ids = np.array([ids[word] for row in rows for word in row[4]], dtype=np.int32)
    return SentenceTable(doc, section, begin, end, indptr, token_ids, vocabulary, len(doc_ids))


def reference_document_sentences(doc_id, collection) -> list[SnippetSpan]:
    """Every sentence of a document as a snippet span, split per question."""
    if doc_id not in collection:
        raise MissingInput(f"document {doc_id!r} is not in the collection")
    return [
        SnippetSpan(doc_id, section_id, s.begin, s.end, s.text)
        for section_id, text in collection[doc_id].sections
        for s in split_sentences(text)
    ]


def reference_snip_model(question, ranked_docs, collection, scorer, per_doc):
    """Snippet selection as it was before the store: split every ranked document."""
    per_doc_sents = [reference_document_sentences(d, collection) for d, _ in ranked_docs]
    scores = scorer.score_questions(
        [question],
        [[s.text for sents in per_doc_sents for s in sents]],
        [[i for sents in per_doc_sents for i in range(len(sents))]],
    )[0]
    out, start = [], 0
    for sents in per_doc_sents:
        group = scores[start : start + len(sents)]
        ranked = sorted(range(len(sents)), key=lambda i: (-group[i], i))
        out.extend(sents[i] for i in sorted(ranked[:per_doc]))
        start += len(sents)
    return out


# The tf-idf kernel as it was before it was split into term pairs and
# scoring, copied verbatim (names aside): one call sorts its own pool.
def reference_run_edges(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts, then ``len(keys)``."""
    edge = np.ones(len(keys) + 1, bool)
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def reference_tfidf_cosines(asked: np.ndarray, lengths: np.ndarray,
                            terms: np.ndarray) -> np.ndarray:
    """tf-idf cosine of each of n sentences against a question, clipped to [0, 1].

    Sentence i holds the next ``lengths[i]`` ids of ``terms``; ids are
    ordered as their terms sort. ``asked`` holds the question's token
    ids; ids no sentence holds are ignored. Cost: one sort of a (term,
    sentence) key per token; every array is sized by the pool, never by
    the vocabulary. Sums: the pairs are in term order and ``np.bincount``
    adds in input order, so each norm and dot product adds its terms one
    at a time in term order; idf is ``math.log`` of each distinct df.
    """
    n = len(lengths)
    if not len(terms):
        return np.zeros(n)
    bits = n.bit_length()  # a key is term << bits | sentence
    keys = np.sort((terms.astype(np.int64) << bits) | np.repeat(np.arange(n), lengths))
    edges = reference_run_edges(keys)  # one run per (term, sentence) pair
    pairs, tf = keys[edges[:-1]], np.diff(edges)
    pair_term, pair_sent = pairs >> bits, pairs & ((1 << bits) - 1)
    term_edges = reference_run_edges(pair_term)  # one run per distinct term
    words, df = pair_term[term_edges[:-1]], np.diff(term_edges)
    present = np.flatnonzero(np.bincount(df))
    idf_of_df = np.zeros(present[-1] + 1)
    idf_of_df[present] = [math.log((1 + n) / (1 + d)) + 1.0 for d in present.tolist()]
    idf = idf_of_df[df]
    weight = tf * np.repeat(idf, df)
    norms = np.sqrt(np.bincount(pair_sent, weight * weight, n))

    at = np.minimum(np.searchsorted(words, asked), len(words) - 1)
    q_term, q_tf = np.unique(at[words[at] == asked], return_counts=True)
    if not len(q_term):
        return np.zeros(n)
    q_weight = q_tf * idf[q_term]
    q_weight /= np.sqrt(np.cumsum(q_weight * q_weight)[-1])
    begin, end = term_edges[q_term], term_edges[q_term + 1]
    shared = np.concatenate([np.arange(b, e) for b, e in zip(begin.tolist(), end.tolist())])
    rows = pair_sent[shared]
    products = np.repeat(q_weight, end - begin) * (weight[shared] / norms[rows])
    return np.clip(np.bincount(rows, products, n), 0.0, 1.0)


# Words with casing that lowercasing changes in length or kind, digits
# that are not decimal, and sentence-ending punctuation and abbreviations.
WORDS = ["alpha", "Beta", "İstanbul", "straße", "ΣΊΣΥΦΟΣ", "x²", "3.5", "Dr.", "e.g.",
         "end.", "Why?", "ok!", "the", "of", "naïve", "A", "b"]
STOPWORDS = frozenset({"the", "of", "b"})
section_texts = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from([" ", "  ", "\n", " "])),
    max_size=25,
).map(lambda pairs: "".join(w + s for w, s in pairs))
# Sections of whole sentences from a few, so documents repeat sentences
# and their scores tie at the per-document cut.
repeated_texts = st.lists(
    st.sampled_from(["alpha Beta end.", "Why? ", "the naïve x² ok!", "straße of A end."]),
    max_size=40,
).map(" ".join)
# Sentences without a single token.
tokenless_texts = st.lists(st.sampled_from(["?!", "...", "!"]), max_size=4).map(" ".join)


@st.composite
def collections(draw, texts=section_texts):
    n = draw(st.integers(1, 6))
    docs = []
    for i in draw(st.permutations(range(n))):
        sections = draw(st.lists(texts, max_size=3))
        docs.append(make_doc(f"d{i}", *((f"s{j}", t) for j, t in enumerate(sections))))
    return DocumentCollection(docs)


# Words either side of 8 UTF-8 bytes, the longest packed key: ASCII of 8
# and 9 bytes, "ß" (2 bytes) 4 and 5 times, and "İİİ", 6 bytes until
# lowercasing makes it 9.
boundary_texts = st.lists(
    st.sampled_from(["abcdefgh", "Abcdefghi", "abcdefghi.", "ßßßß", "ßßßßß", "İİİ", "tea"]),
    max_size=12,
).map(" ".join)
# Sections the block build must split exactly as one section at a time:
# mixed ASCII and other text, empty and whitespace-only sections.
block_texts = st.one_of(
    split_texts, ascii_split_texts, section_texts, boundary_texts,
    st.lists(st.sampled_from(" \t\n\x0b\x1c\x85\u3000"), max_size=4).map("".join),
)


@st.composite
def block_collections(draw):
    """Up to 12 documents, some without sections, and ids in any order."""
    docs = []
    for i in range(draw(st.integers(1, 12))):
        texts = draw(st.lists(block_texts, max_size=4))
        docs.append(make_doc(f"d{i}", *((f"s{j}", t) for j, t in enumerate(texts))))
    doc_ids = draw(st.permutations([d.id for d in docs]))
    return DocumentCollection(docs), doc_ids[: draw(st.integers(0, len(doc_ids)))]


class TestBlockBuildMatchesRowOracle:
    @settings(max_examples=400, deadline=None)
    @given(block_collections(), st.sampled_from([1, 8, 50, 1 << 20]))
    def test_every_column_and_vocabulary(self, drawn, block_chars):
        collection, doc_ids = drawn
        with mock.patch.object(sentences, "_BLOCK_CHARS", block_chars):
            table = SentenceTable.build(collection, doc_ids)
        expected = reference_table(collection, doc_ids)
        assert table.vocabulary == expected.vocabulary
        assert table.n_docs == expected.n_docs
        for name in ("doc", "section", "begin", "end", "indptr", "token_ids", "doc_ptr"):
            got, want = getattr(table, name), getattr(expected, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_a_word_has_one_id_in_ascii_and_other_sections(self):
        # The ASCII section is tokenized as a block, the other one sentence
        # at a time; "tea" is a packed key and "chamomile" a dict word.
        collection = DocumentCollection([
            make_doc("d0", ("s0", "Green tea and chamomile."), ("s1", "Thé, tea or chamomile."))
        ])
        table = SentenceTable.build(collection, ["d0"])
        assert table.vocabulary == ["and", "chamomile", "green", "or", "tea", "thé"]
        assert table.indptr.tolist() == [0, 4, 8]
        assert table.token_ids.tolist() == [2, 4, 0, 1, 5, 4, 3, 1]

    def test_golden_index_bytes_are_unchanged(self, tmp_path):
        save_index(build_index(load_document_collection(GOLDEN / "docs.jsonl")), tmp_path / "i")
        # QIDX v4: v3's bytes without the header's k1 and b, plus u32 doc_crc[n_docs].
        assert hashlib.sha256((tmp_path / "i").read_bytes()).hexdigest() == (
            "e6ead9f970f147cfe15f78dd8e70d55f97863d4bab0d6f70137344dd75fe6b1a"
        )

    def test_unknown_document_is_an_error(self, micro_collection):
        with pytest.raises(MissingInput, match="^document 'd9' is not in the collection$"):
            SentenceTable.build(micro_collection, ["d1", "d9"])


class TestStoreMatchesCounterBuild:
    @settings(max_examples=150, deadline=None)
    @given(collections(), st.sampled_from([frozenset(), STOPWORDS]))
    def test_postings_doc_len_and_terms(self, collection, stopwords):
        index = build_index(collection, stopwords)
        doc_ids, doc_len, terms, indptr, post_doc, post_tf = reference_build_index(
            collection, stopwords
        )
        assert index.doc_ids == doc_ids
        assert term_rows(index) == terms
        for got, want in ((index.doc_len, doc_len), (index.indptr, indptr),
                          (index.post_doc, post_doc), (index.post_tf, post_tf)):
            assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(collections())
    def test_sentence_tokens_concatenate_to_section_tokens(self, collection):
        doc_ids = sorted(doc.id for doc in collection)
        table = SentenceTable.build(collection, doc_ids)
        words = np.array(table.vocabulary + [""], dtype=object)
        for ordinal, doc_id in enumerate(doc_ids):
            rows = range(table.doc_ptr[ordinal], table.doc_ptr[ordinal + 1])
            for s, (_, text) in enumerate(collection[doc_id].sections):
                ids = [table.token_ids[table.indptr[r] : table.indptr[r + 1]]
                       for r in rows if table.section[r] == s]
                joined = np.concatenate([np.zeros(0, np.int32), *ids])
                assert list(words[joined]) == token_surfaces(text)
                spans = [(int(table.begin[r]), int(table.end[r]))
                         for r in rows if table.section[r] == s]
                assert spans == [(x.begin, x.end) for x in split_sentences(text)]

    def test_vocabulary_is_sorted_and_unique(self, micro_collection):
        table = build_index(micro_collection).sentences
        assert table.vocabulary == sorted(set(table.vocabulary))


ANSWER_CONFIG = {"snippets": {"per_doc": 2}}


def select_snippets(question, ranked, config, resources) -> list[SnippetSpan]:
    """The snippets answering selects from the ranked documents by the
    configured strategy: all of them, with no feedback and no snippet cap."""
    caps = replace(config.retrieval, final_doc_cap=len(ranked), final_snippet_cap=10**9)
    ordinals = np.array([resources.index.doc_ids.index(d) for d, _ in ranked], dtype=np.intp)
    scores = np.array([s for _, s in ranked])
    with mock.patch.object(pipeline, "_retrieve", return_value=(ordinals, scores)):
        return answer_question(question, replace(config, retrieval=caps),
                               replace(resources, feedback=FeedbackStore.empty()),
                               answer=False).snippets


class RecordingScorer:
    """Scores by text length and keeps each scored question's texts and positions."""

    def __init__(self):
        self.calls = []

    def score_questions(self, questions, texts, positions):
        self.calls += [(list(t), list(p)) for t, p in zip(texts, positions)]
        return [[float(len(x) % 7) for x in t] for t in texts]


class TestSnippetsMatchTextPath:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([section_texts, repeated_texts, tokenless_texts]).flatmap(collections),
           st.sampled_from(WORDS + ["alpha beta x²", "straße end naïve"]),
           st.integers(1, 10), st.data())
    def test_cosine_snippets(self, collection, body, per_doc, data):
        doc_ids = sorted(doc.id for doc in collection)
        # Some documents stay unranked, so the question has words outside the pool.
        ranked = [(d, 0.0) for d in data.draw(st.permutations(doc_ids))]
        ranked = ranked[: data.draw(st.integers(0, len(ranked)))]
        question = make_question("q", body=body)
        index = build_index(collection)
        expected = reference_snip_model(question, ranked, collection, CosineScorer(), per_doc)
        config = parse_config({"snippets": {"per_doc": per_doc}})
        resources = Resources(collection=collection, index=index, scorer=CosineScorer())
        assert select_snippets(question, ranked, config, resources) == expected
        assert snip_cosine(question, ranked, collection, per_doc) == expected

    def test_model_strategy_sees_the_texts_and_positions_of_the_text_path(
        self, micro_collection
    ):
        question = make_question("q", body="vaccines and sleep")
        ranked = [("d3", 2.0), ("d1", 1.0)]
        config = parse_config({"snippets": {"strategy": "model", "per_doc": 2}})
        store, text_path = RecordingScorer(), RecordingScorer()
        index = build_index(micro_collection)
        resources = Resources(collection=micro_collection, index=index, scorer=store)
        got = select_snippets(question, ranked, config, resources)
        assert got == reference_snip_model(question, ranked, micro_collection, text_path, 2)
        assert store.calls == text_path.calls
        assert store.calls[0][1] == [0, 1, 2, 0, 1, 2, 3]

    def test_loaded_index_selects_the_same_snippets(self, micro_collection, tmp_path):
        question = make_question("q", body="Does sleep help immunity?")
        ranked = [("d3", 2.0), ("d2", 1.5), ("d1", 1.0)]
        config = parse_config(ANSWER_CONFIG)
        index = build_index(micro_collection)
        save_index(index, tmp_path / "i.qidx")
        built, loaded = (
            Resources(collection=micro_collection, index=i, scorer=CosineScorer())
            for i in (index, load_index(tmp_path / "i.qidx"))
        )
        assert select_snippets(question, ranked, config, built) == select_snippets(
            question, ranked, config, loaded
        )

    def test_unknown_document_is_an_error(self, micro_collection):
        question = make_question("q")
        with pytest.raises(MissingInput, match="^document 'd9' is not in the collection$"):
            snip_cosine(question, [("d9", 1.0)], micro_collection)

    def test_snip_cosine_splits_through_document_sentences(self, micro_collection, monkeypatch):
        """snip_cosine builds one table, from exactly the ranked documents, in rank order."""
        seen = []
        build = SentenceTable.build.__func__

        def recording(cls, collection, doc_ids):
            seen.append(list(doc_ids))
            return build(cls, collection, doc_ids)

        monkeypatch.setattr(SentenceTable, "build", classmethod(recording))
        snip_cosine(make_question("q"), [("d2", 1.0), ("d1", 0.5)], micro_collection)
        assert seen == [["d2", "d1"]]


class TestAnswersMatchTextPath:
    """Answering reads table rows and token ids; the text path is the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([section_texts, repeated_texts, tokenless_texts]).flatmap(collections),
           st.lists(st.sampled_from(WORDS + ["beta", "straße end naïve"]), min_size=1,
                    max_size=4).map(" ".join),
           st.sampled_from(["summary", "factoid", "list"]),
           st.integers(1, 10), st.integers(1, 12), st.data())
    def test_cosine_answers_with_feedback(self, collection, body, qtype, per_doc, snippet_cap,
                                          data):
        question = make_question("q", body=body, qtype=qtype)
        config = parse_config({"snippets": {"per_doc": per_doc},
                               "retrieval": {"final_snippet_cap": snippet_cap}})
        feedback = FeedbackStore()
        for doc_id in sorted(doc.id for doc in collection):
            if polarity := data.draw(st.sampled_from([None] * 4 + [RELEVANT, IRRELEVANT])):
                feedback.add("q", doc_id, polarity)
        resources = Resources(collection=collection, index=build_index(collection),
                              scorer=CosineScorer(), feedback=feedback)
        # The text-path replay: select_snippets -> filter_judged -> score_sentences(texts).
        ranked = retrieve(question, config, resources)[: config.retrieval.final_doc_cap]
        snippets = select_snippets(question, ranked, config, resources)
        for snippet in snippets:  # judging snippets changes neither ranking nor selection
            if polarity := data.draw(st.sampled_from([None, None, RELEVANT, IRRELEVANT])):
                feedback.add("q", snippet.key(), polarity)
        returned = filter_judged(snippets, feedback, "q", EXCLUDE_ALL_JUDGED)
        candidates = filter_judged(snippets, feedback, "q", EXCLUDE_IRRELEVANT_ONLY)
        texts = [c.text for c in candidates]
        text_scores = CosineScorer().score_sentences(question, texts, list(range(len(texts))))
        if not candidates:
            with pytest.raises(EmptyInput):
                answer_question(question, config, resources)
            return
        scored = [ScoredSentence(c.text, c, i, x)
                  for i, (c, x) in enumerate(zip(candidates, text_scores))]
        answer = assemble_answer(question.qtype, scored, config.answer_table)
        # The sort assemble_answer made before answering shared its selection:
        # the best n, ties to the earlier candidate, joined in candidate order.
        best = sorted(range(len(texts)), key=lambda i: (-text_scores[i], i))
        assert answer == " ".join(texts[i] for i in sorted(best[: config.answer_table[qtype]]))
        expected = AnswerResult("q", [d for d, _ in ranked], returned[:snippet_cap], answer)
        # Answering scores its candidates by the last _cosines call, from table rows.
        cosines, row_scores = pipeline._cosines, []

        def recording(*args):
            scores = cosines(*args)
            row_scores.append(scores.tolist())
            return scores

        with mock.patch.object(pipeline, "_cosines", side_effect=recording):
            assert answer_question(question, config, resources) == expected
        assert row_scores[-1] == text_scores

    def test_answering_tokenizes_only_the_question(self, micro_collection):
        question = make_question("q", body="Does sleep help immunity?")
        resources = Resources(collection=micro_collection, index=build_index(micro_collection),
                              scorer=CosineScorer())
        with mock.patch.object(CosineScorer, "score_sentences",
                               side_effect=AssertionError("answer texts were scored")), \
             mock.patch.object(pipeline, "token_surfaces", wraps=token_surfaces) as tokenize:
            result = answer_question(question, parse_config(ANSWER_CONFIG), resources)
        assert result.ideal_answer.startswith("Sleep improves immunity.")
        assert {c.args for c in tokenize.call_args_list} == {(question.body,)}

    @pytest.mark.parametrize("answer", [True, False], ids=["answer", "snippets"])
    def test_answering_looks_up_the_question_once(self, micro_collection, answer):
        """One vocabulary lookup of the question serves both BM25 and the snippets."""
        question = make_question("q", body="Do vaccines, antibiotics or sleep help? Sleep.")
        resources = Resources(collection=micro_collection, index=build_index(micro_collection),
                              scorer=CosineScorer(), feedback=FeedbackStore())
        resources.feedback.add("q", "d1", IRRELEVANT)
        word_ids = SentenceTable.word_ids
        with mock.patch.object(SentenceTable, "word_ids", autospec=True,
                               side_effect=word_ids) as lookup:
            result = answer_question(question, parse_config(ANSWER_CONFIG), resources, answer)
        assert sorted(result.documents) == ["d2", "d3"]
        assert lookup.call_count == 1

    @pytest.mark.parametrize("judged", [False, True], ids=["no feedback", "snippet feedback"])
    def test_answering_makes_spans_only_of_the_returned_snippets(self, micro_collection, judged):
        question = make_question("q", body="Do vaccines, antibiotics or sleep help?")
        config = parse_config({"snippets": {"per_doc": 2}, "retrieval": {"final_snippet_cap": 2}})
        resources = Resources(collection=micro_collection, index=build_index(micro_collection),
                              scorer=CosineScorer(), feedback=FeedbackStore())
        ranked = retrieve(question, config, resources)
        assert len(ranked) == 3
        snippets = select_snippets(question, ranked, config, resources)
        assert len(snippets) == 6
        if judged:
            resources.feedback.add("q", snippets[0].key(), IRRELEVANT)
            resources.feedback.add("q", snippets[3].key(), RELEVANT)
        with mock.patch.object(pipeline, "SnippetSpan", wraps=SnippetSpan) as spans, \
             mock.patch.object(pipeline, "ScoredSentence", wraps=ScoredSentence) as scored:
            result = answer_question(question, config, resources)
        unjudged = [s for i, s in enumerate(snippets) if not judged or i not in (0, 3)]
        assert result.snippets == unjudged[:2]
        assert spans.call_count <= config.retrieval.final_snippet_cap
        assert scored.call_count == 0
        # What `qfs snippets` writes: the same snippets, no answer, no other span.
        with mock.patch.object(pipeline, "SnippetSpan", wraps=SnippetSpan) as spans:
            shown = answer_question(question, config, resources, answer=False)
        assert shown == AnswerResult("q", result.documents, result.snippets)
        assert spans.call_count <= config.retrieval.final_snippet_cap


# Pools of token-id sentences: tokenless ones, words repeated within and
# across sentences, and up to 40 distinct terms, so that a norm or dot
# product adds enough terms for a change of summation order to show.
pool_sentences = st.lists(
    st.one_of(st.just([]), st.lists(st.integers(0, 39), min_size=1, max_size=30)),
    max_size=25,
)
# Question ids: some outside the pool, repeated, or none at all; long
# enough that the question's own norm often adds 8 or more terms.
asked_ids = st.lists(st.integers(0, 45), max_size=30)


def test_term_pairs_at_the_int32_key_width():
    """With 3 sentences a key is term << 2 | sentence, and 2**29 << 2 is 2**31:
    a largest id of exactly 1 << (31 - bits) must take the int64 keys."""
    big = 1 << 29
    lengths = np.array([2, 1, 2], dtype=np.intp)
    terms = np.array([big, 0, 5, big, big], dtype=np.intp)
    term, sentence, tf = pipeline._term_pairs(lengths, terms)
    assert list(zip(term.tolist(), sentence.tolist(), tf.tolist())) == [
        (0, 0, 1), (5, 1, 1), (big, 0, 1), (big, 2, 2)]


class TestKernelMatchesReference:
    """The split kernel, on a pool and on subsets of its pairs, against the
    single-call kernel it replaced: scores must be ``==``."""

    @settings(max_examples=400, deadline=None)
    @given(pool_sentences, asked_ids, st.sampled_from([0, 1 << 30]), st.data())
    def test_pool_and_subset_scores(self, sentences, asked, offset, data):
        # Ids from 2**30 up do not fit a 32-bit sort key with the sentence.
        sentences = [[t + offset for t in s] for s in sentences]
        lengths = np.array([len(s) for s in sentences], dtype=np.intp)
        terms = np.array([t for s in sentences for t in s], dtype=np.int32)
        asked = np.array(asked, dtype=np.int32) + offset
        pairs = pipeline._term_pairs(lengths, terms)
        got = pipeline._cosines(asked, len(sentences), pairs)
        assert got.tolist() == reference_tfidf_cosines(asked, lengths, terms).tolist()

        mask = data.draw(st.lists(st.booleans(), min_size=len(sentences),
                                  max_size=len(sentences)))
        at = np.flatnonzero(mask)
        sub_terms = np.array([t for i in at.tolist() for t in sentences[i]], dtype=np.int32)
        got = pipeline._cosines(asked, len(at), pipeline._subset(pairs, np.array(mask, bool)))
        assert got.tolist() == reference_tfidf_cosines(asked, lengths[at], sub_terms).tolist()

    def test_answering_sorts_the_pool_once(self, micro_collection):
        question = make_question("q", body="Does sleep help immunity?")
        resources = Resources(collection=micro_collection, index=build_index(micro_collection),
                              scorer=CosineScorer())
        with mock.patch.object(pipeline, "_term_pairs", wraps=pipeline._term_pairs) as pairs:
            result = answer_question(question, parse_config(ANSWER_CONFIG), resources)
        assert result.ideal_answer.startswith("Sleep improves immunity.")
        assert pairs.call_count == 1

    def test_model_strategy_builds_no_pairs(self, micro_collection):
        question = make_question("q", body="vaccines and sleep")
        config = parse_config({"snippets": {"strategy": "model", "per_doc": 2}})
        store, text_path = RecordingScorer(), RecordingScorer()
        resources = Resources(collection=micro_collection, index=build_index(micro_collection),
                              scorer=store)
        ranked = retrieve(question, config, resources)[: config.retrieval.final_doc_cap]
        with mock.patch.object(pipeline, "_term_pairs",
                               side_effect=AssertionError("term pairs were built")):
            result = answer_question(question, config, resources)
        snippets = reference_snip_model(question, ranked, micro_collection, text_path, 2)
        assert result.snippets == snippets
        assert store.calls == [text_path.calls[0],
                               ([s.text for s in snippets], list(range(len(snippets))))]


# Sections of letters that change length or kind when lowercased, astral
# characters (one upper case), sentence ends and every kind of space.
COLUMN_ALPHABET = ["İ", "ß", "Σ", "\U0001F600", "\U00010400", "tea", "Dr.", "x.", "A", " ", "\n",
                   "　"]


def jsonl(records, ensure_ascii: bool = False) -> str:
    """A docs file of ``records``, as the record writer wrote it (ensure_ascii off)."""
    return "".join(
        json.dumps({"id": r.id, "sections": [{"id": s, "text": t} for s, t in r.sections]},
                   ensure_ascii=ensure_ascii) + "\n" for r in records)


def reference_load(path) -> list[DocumentRecord]:
    """The records the loader built before the collection was columns."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        records.append(DocumentRecord(obj["id"], tuple(
            (section["id"], section.get("text", "")) for section in obj["sections"])))
    return records


@st.composite
def docs_files(draw):
    """A docs file's records, in a file order other than sorted id order when
    there are two or more: empty sections and documents without sections too."""
    ids = draw(st.lists(st.sampled_from([f"d{i}" for i in range(12)]), unique=True, max_size=8))
    if len(ids) > 1 and ids == sorted(ids):
        ids.reverse()
    text = st.lists(st.sampled_from(COLUMN_ALPHABET), max_size=20).map("".join)
    return [DocumentRecord(doc_id, tuple((f"s{j}", t) for j, t in enumerate(
        draw(st.lists(text, max_size=3))))) for doc_id in ids]


class TestColumnarCollection:
    """The columnar collection against the records the loader used to build."""

    @settings(max_examples=200, deadline=None)
    @given(docs_files(), st.booleans(), st.sampled_from([1, 8, 1 << 20]), st.data())
    def test_records_files_and_tables_match_the_record_loader(self, tmp_path_factory, records,
                                                                ascii_json, block_chars, data):
        tmp = tmp_path_factory.mktemp("docs")
        path, again = tmp / "docs.jsonl", tmp / "again.jsonl"
        path.write_text(jsonl(records, ascii_json), encoding="utf-8")
        expected = reference_load(path)
        collection = load_document_collection(path)
        assert list(collection) == expected
        assert [collection[r.id] for r in expected] == expected
        save_document_collection(collection, again)
        written = again.read_bytes()
        assert written == jsonl(expected).encode()
        save_document_collection(load_document_collection(again), again)
        assert again.read_bytes() == written
        by_id = {r.id: r for r in expected}
        for doc_ids in (sorted(by_id), data.draw(st.permutations(list(by_id)))):
            with mock.patch.object(sentences, "_BLOCK_CHARS", block_chars):
                table = SentenceTable.build(collection, doc_ids)
            want = reference_table(by_id, doc_ids)
            assert table.vocabulary == want.vocabulary and table.n_docs == want.n_docs
            for name in ("doc", "section", "begin", "end", "indptr", "token_ids", "doc_ptr"):
                got, wanted = getattr(table, name), getattr(want, name)
                assert got.dtype == wanted.dtype and np.array_equal(got, wanted), name

    def test_no_record_is_made_to_index_answer_or_label(self, monkeypatch):
        collection = load_document_collection(GOLDEN / "docs.jsonl")
        question = load_question_set(GOLDEN / "questions.json")["q1"]
        made = []
        init = DocumentRecord.__init__
        monkeypatch.setattr(DocumentRecord, "__init__",
                            lambda self, *args: made.append(args) or init(self, *args))
        index = build_index(collection)
        check_collection(index, collection, "i.qidx")
        feedback = FeedbackStore.load(GOLDEN / "feedback.json")
        for scorer in (CosineScorer(), pipeline.ConstantScorer()):
            resources = Resources(collection=collection, index=index, scorer=scorer,
                                  feedback=feedback)
            result = answer_question(question, parse_config(ANSWER_CONFIG), resources)
        assert result.snippets and result.ideal_answer
        assert pipeline.generate_labels([question], collection)
        assert made == []
        collection["d1"]  # the check counts what it should
        assert len(made) == 1
