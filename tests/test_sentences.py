"""The sentence store against the code it replaced, kept here as oracles."""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfs import pipeline
from qfs.config import parse_config
from qfs.corpus import DocumentCollection, SnippetSpan
from qfs.errors import UnknownDocument
from qfs.pipeline import CosineScorer, Resources, select_snippets, snip_cosine
from qfs.retrieval import build_index, load_index, save_index
from qfs.sentences import SentenceTable, document_sentences
from qfs.textproc import split_sentences, token_surfaces

from conftest import make_doc, make_question


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


def reference_document_sentences(doc_id, collection) -> list[SnippetSpan]:
    """Every sentence of a document as a snippet span, split per question."""
    if doc_id not in collection:
        raise UnknownDocument(doc_id)
    return [
        SnippetSpan(doc_id, section_id, s.begin, s.end, s.text)
        for section_id, text in collection[doc_id].sections
        for s in split_sentences(text)
    ]


def reference_snip_model(question, ranked_docs, collection, scorer, per_doc):
    """Snippet selection as it was before the store: split every ranked document."""
    per_doc_sents = [reference_document_sentences(d, collection) for d, _ in ranked_docs]
    scores = scorer.score_sentences(
        question,
        [s.text for sents in per_doc_sents for s in sents],
        [i for sents in per_doc_sents for i in range(len(sents))],
    )
    out, start = [], 0
    for sents in per_doc_sents:
        group = scores[start : start + len(sents)]
        ranked = sorted(range(len(sents)), key=lambda i: (-group[i], i))
        out.extend(sents[i] for i in sorted(ranked[:per_doc]))
        start += len(sents)
    return out


# Words with casing that lowercasing changes in length or kind, digits
# that are not decimal, and sentence-ending punctuation and abbreviations.
WORDS = ["alpha", "Beta", "İstanbul", "straße", "ΣΊΣΥΦΟΣ", "x²", "3.5", "Dr.", "e.g.",
         "end.", "Why?", "ok!", "the", "of", "naïve", "A", "b"]
STOPWORDS = frozenset({"the", "of", "b"})
section_texts = st.lists(
    st.tuples(st.sampled_from(WORDS), st.sampled_from([" ", "  ", "\n", " "])),
    max_size=25,
).map(lambda pairs: "".join(w + s for w, s in pairs))


@st.composite
def collections(draw):
    n = draw(st.integers(1, 6))
    docs = []
    for i in draw(st.permutations(range(n))):
        sections = draw(st.lists(section_texts, max_size=3))
        docs.append(make_doc(f"d{i}", *((f"s{j}", t) for j, t in enumerate(sections))))
    return DocumentCollection(docs)


class TestStoreMatchesCounterBuild:
    @settings(max_examples=150, deadline=None)
    @given(collections(), st.sampled_from([frozenset(), STOPWORDS]))
    def test_postings_doc_len_and_terms(self, collection, stopwords):
        index = build_index(collection, stopwords)
        doc_ids, doc_len, terms, indptr, post_doc, post_tf = reference_build_index(
            collection, stopwords
        )
        assert index.doc_ids == doc_ids
        assert index.terms == terms
        for got, want in ((index.doc_len, doc_len), (index.indptr, indptr),
                          (index.post_doc, post_doc), (index.post_tf, post_tf)):
            assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(collections())
    def test_sentence_tokens_concatenate_to_section_tokens(self, collection):
        doc_ids = sorted(doc.id for doc in collection)
        table = SentenceTable.build(document_sentences(d, collection) for d in doc_ids)
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


class RecordingScorer:
    """Scores by text length and keeps every call's texts and positions."""

    def __init__(self):
        self.calls = []

    def score_sentences(self, question, texts, positions):
        self.calls.append((list(texts), list(positions)))
        return [float(len(t) % 7) for t in texts]


class TestSnippetsMatchTextPath:
    @settings(max_examples=150, deadline=None)
    @given(collections(), st.sampled_from(WORDS + ["alpha beta x²", "straße end naïve"]),
           st.integers(1, 3), st.data())
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
        with pytest.raises(UnknownDocument):
            snip_cosine(question, [("d9", 1.0)], micro_collection)
        resources = Resources(
            collection=micro_collection, index=build_index(micro_collection),
            scorer=CosineScorer(),
        )
        with pytest.raises(UnknownDocument):
            select_snippets(question, [("d9", 1.0)], parse_config({}), resources)

    def test_snip_cosine_splits_through_document_sentences(self, micro_collection, monkeypatch):
        seen = []

        def counting(doc_id, collection):
            seen.append(doc_id)
            return document_sentences(doc_id, collection)

        monkeypatch.setattr(pipeline, "document_sentences", counting)
        snip_cosine(make_question("q"), [("d2", 1.0), ("d1", 0.5)], micro_collection)
        assert seen == ["d2", "d1"]
