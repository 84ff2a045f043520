"""Corpus loading, serialization round-trips, and feedback filtering."""

from __future__ import annotations

import gc
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from qfs.corpus import (
    EXCLUDE_ALL_JUDGED,
    EXCLUDE_IRRELEVANT_ONLY,
    DocumentCollection,
    FeedbackStore,
    QuestionSet,
    SnippetSpan,
    filter_judged,
    load_document_collection,
    load_question_set,
    question_set_to_json,
    save_document_collection,
    save_question_set,
)
from qfs.errors import MalformedInput
from qfs.pipeline import load_labels, load_submission

from conftest import make_doc, make_question


def write_questions(tmp_path, payload, name="questions.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


MINIMAL_QUESTION = {
    "id": "q1",
    "body": "Is sleep good?",
    "type": "summary",
}


SNIPPET = {"document": "d1", "section": "s", "offsetInBeginSection": 0,
           "offsetInEndSection": 4, "text": "Some"}

# A question entry with one defect, and the message it must raise after the file name.
BAD_QUESTIONS = {
    "entry not an object": ([1, 2], "question entry is not an object"),
    "empty id": (dict(MINIMAL_QUESTION, id=""), "question with empty or missing id"),
    "missing id": ({"type": "summary"}, "question with empty or missing id"),
    "unknown type": (dict(MINIMAL_QUESTION, type="listt"),
                     "question 'q1' has unknown type 'listt'"),
    "documents not a list": (dict(MINIMAL_QUESTION, documents=5),
                             "question 'q1': documents and snippets must be lists"),
    "ideal answer a number": (dict(MINIMAL_QUESTION, ideal_answer=5),
                              "question 'q1': ideal_answer must be text or list"),
    "ideal answer with a number": (dict(MINIMAL_QUESTION, ideal_answer=["a", 5]),
                                   "question 'q1': ideal_answer must be text or list"),
    "snippets not a list": (dict(MINIMAL_QUESTION, snippets={"a": 1}),
                            "question 'q1': documents and snippets must be lists"),
    "snippet not an object": (dict(MINIMAL_QUESTION, snippets=["d1"]),
                              "question 'q1': snippet is not an object"),
    "snippet without a document": (
        dict(MINIMAL_QUESTION, snippets=[{k: v for k, v in SNIPPET.items() if k != "document"}]),
        "question 'q1': bad snippet object: 'document'"),
    "snippet with bad offsets": (
        dict(MINIMAL_QUESTION, snippets=[dict(SNIPPET, offsetInEndSection=0)]),
        "question 'q1': bad snippet object: snippet offsets [0, 0) invalid"),
    "snippet with null text": (dict(MINIMAL_QUESTION, snippets=[dict(SNIPPET, text=None)]),
                               "question 'q1': snippet: text must be a string, not NoneType"),
    "snippet with numeric text": (dict(MINIMAL_QUESTION, snippets=[dict(SNIPPET, text=5)]),
                                  "question 'q1': snippet: text must be a string, not int"),
    "body a list": (dict(MINIMAL_QUESTION, body=["a"]),
                    "question 'q1': body must be a string, not list"),
}


@pytest.mark.parametrize("case", sorted(BAD_QUESTIONS))
def test_every_question_error_names_the_file(tmp_path, case):
    entry, message = BAD_QUESTIONS[case]
    path = write_questions(tmp_path, [MINIMAL_QUESTION | {"id": "q0"}, entry])
    with pytest.raises(MalformedInput, match=re.escape(f"{path}: {message}")):
        load_question_set(path)


# Each place an id is read, given one that is not a non-empty string, and
# each place a text is read, given one that UTF-8 cannot encode: the file
# written, its content, and the message that must follow the path.
BAD_IDS = {
    "question id null": ("questions.json", [dict(MINIMAL_QUESTION, id=None)],
                         ": question with empty or missing id"),
    "question id number": ("questions.json", [dict(MINIMAL_QUESTION, id=5)],
                           ": id must be a non-empty string, not 5"),
    "question documents entry": (
        "questions.json", [dict(MINIMAL_QUESTION, documents=["d1", None])],
        ": question 'q1': documents entry must be a non-empty string, not None"),
    "snippet document": (
        "questions.json", [dict(MINIMAL_QUESTION, snippets=[dict(SNIPPET, document=None)])],
        ": question 'q1': snippet: document must be a non-empty string, not None"),
    "document id": ("docs.jsonl", {"id": None, "sections": []},
                    ":1: id must be a non-empty string, not None"),
    "document id empty": ("docs.jsonl", {"id": "", "sections": []},
                          ":1: id must be a non-empty string, not ''"),
    "section id": ("docs.jsonl", {"id": "d1", "sections": [{"id": None, "text": "a"}]},
                   ":1: section id must be a non-empty string, not None"),
    "feedback question_id": ("feedback.json", [{"question_id": 7, "items": []}],
                             ": question_id must be a non-empty string, not 7"),
    "feedback document ref": (
        "feedback.json",
        [{"question_id": "q1", "items": [{"kind": "document", "ref": None,
                                          "polarity": "relevant"}]}],
        ": feedback for 'q1': ref must be a non-empty string, not None"),
    "submission id": ("submission.json", {"questions": [{"id": None}]},
                      ": submission question id must be a non-empty string, not None"),
    # A lone surrogate (JSON "\ud800") is a str that no writer can encode.
    **{f"{case} with a lone surrogate": (name, payload, f"{message}, not 'd\\ud800', "
                                         "which UTF-8 cannot encode")
       for case, name, payload, message in [
           ("question id", "questions.json", [dict(MINIMAL_QUESTION, id="d\ud800")],
            ": id must be a non-empty string"),
           ("document id", "docs.jsonl", {"id": "d\ud800", "sections": []},
            ":1: id must be a non-empty string"),
           ("section id", "docs.jsonl", {"id": "d1", "sections": [{"id": "d\ud800"}]},
            ":1: section id must be a non-empty string"),
           ("feedback document ref", "feedback.json",
            [{"question_id": "q1", "items": [{"kind": "document", "ref": "d\ud800",
                                              "polarity": "relevant"}]}],
            ": feedback for 'q1': ref must be a non-empty string"),
           ("submission id", "submission.json", {"questions": [{"id": "d\ud800"}]},
            ": submission question id must be a non-empty string"),
           # Text fields follow the same rule.
           ("question body", "questions.json", [dict(MINIMAL_QUESTION, body="d\ud800")],
            ": question 'q1': body must be a string"),
           ("section text", "docs.jsonl",
            {"id": "d1", "sections": [{"id": "s", "text": "d\ud800"}]},
            ":1: section 's': text must be a string"),
           ("snippet text", "questions.json",
            [dict(MINIMAL_QUESTION, snippets=[dict(SNIPPET, text="d\ud800")])],
            ": question 'q1': snippet: text must be a string"),
           ("ideal answer", "questions.json", [dict(MINIMAL_QUESTION, ideal_answer="d\ud800")],
            ": question 'q1': ideal_answer entry must be a string"),
           ("feedback polarity", "feedback.json",
            [{"question_id": "q1", "items": [{"kind": "document", "ref": "d1",
                                              "polarity": "d\ud800"}]}],
            ": feedback for 'q1': polarity must be a string"),
           ("submission ideal answer", "submission.json",
            {"questions": [{"id": "q1", "ideal_answer": "d\ud800"}]},
            ": submission question 'q1': ideal_answer must be a string"),
           ("submission document", "submission.json",
            {"questions": [{"id": "q1", "documents": ["d\ud800"]}]},
            ": submission question 'q1': documents entry must be a string"),
           ("labeled question", "labels.jsonl",
            {"pair_id": "p", "question": "d\ud800", "sentence": "s", "position": 0, "label": 1},
            ":1: bad labeled example: question must be a string"),
       ]},
}
LOADERS = {"questions.json": load_question_set, "docs.jsonl": load_document_collection,
           "feedback.json": FeedbackStore.load, "submission.json": load_submission,
           "labels.jsonl": load_labels}


@pytest.mark.parametrize("case", sorted(BAD_IDS))
def test_every_id_must_be_a_non_empty_string(tmp_path, case):
    name, payload, message = BAD_IDS[case]
    path = tmp_path / name
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(MalformedInput, match=f"^{re.escape(f'{path}{message}')}$"):
        LOADERS[name](path)


class TestLoadQuestionSet:
    def test_minimal_question(self, tmp_path):
        qs = load_question_set(write_questions(tmp_path, [MINIMAL_QUESTION]))
        assert len(qs) == 1
        q = qs["q1"]
        assert q.gold_documents == ()
        assert q.gold_snippets == ()
        assert q.ideal_answers == ()

    def test_absent_body_and_section_text_are_empty(self, tmp_path):
        question = {k: v for k, v in MINIMAL_QUESTION.items() if k != "body"}
        assert load_question_set(write_questions(tmp_path, [question]))["q1"].body == ""
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": "d1", "sections": [{"id": "s"}]}) + "\n")
        assert load_document_collection(path)["d1"].sections == (("s", ""),)

    def test_unknown_type_rejected(self, tmp_path):
        path = write_questions(tmp_path, [dict(MINIMAL_QUESTION, type="listt")])
        with pytest.raises(MalformedInput, match=re.escape(f"{path}: question 'q1' has unknown")):
            load_question_set(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_questions(tmp_path, [MINIMAL_QUESTION] * 2)
        message = f"^{re.escape(str(path))}: duplicate question id 'q1'$"
        with pytest.raises(MalformedInput, match=message):
            load_question_set(path)
        question = make_question("q1")
        with pytest.raises(MalformedInput, match="^duplicate question id 'q1'$"):
            QuestionSet([question, question])

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedInput):
            load_question_set(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(MalformedInput):
            load_question_set(tmp_path / "absent.json")

    def test_questions_wrapper_accepted(self, tmp_path):
        qs = load_question_set(
            write_questions(tmp_path, {"questions": [MINIMAL_QUESTION]})
        )
        assert len(qs) == 1

    def test_string_ideal_answer_promoted(self, tmp_path):
        payload = [dict(MINIMAL_QUESTION, ideal_answer="yes it is")]
        qs = load_question_set(write_questions(tmp_path, payload))
        assert qs["q1"].ideal_answers == ("yes it is",)

    def test_unknown_fields_ignored(self, tmp_path):
        payload = [dict(MINIMAL_QUESTION, exact_answer="yes", concepts=[1])]
        assert len(load_question_set(write_questions(tmp_path, payload))) == 1

    def test_snippets_parsed_with_offsets(self, tmp_path):
        payload = [
            dict(
                MINIMAL_QUESTION,
                snippets=[
                    {
                        "document": "d9",
                        "section": "abstract",
                        "offsetInBeginSection": 4,
                        "offsetInEndSection": 9,
                        "text": "sleep",
                    }
                ],
            )
        ]
        qs = load_question_set(write_questions(tmp_path, payload))
        span = qs["q1"].gold_snippets[0]
        assert span.key() == ("d9", "abstract", 4, 9)
        assert span.text == "sleep"

    def test_order_preserved(self, tmp_path):
        payload = [dict(MINIMAL_QUESTION, id=f"q{i}") for i in range(5)]
        qs = load_question_set(write_questions(tmp_path, payload))
        assert [q.id for q in qs] == [f"q{i}" for i in range(5)]

    def test_roundtrip(self, tmp_path):
        payload = [
            dict(
                MINIMAL_QUESTION,
                documents=["d1", "d2"],
                ideal_answer=["Sleep is good."],
                snippets=[
                    {
                        "document": "d1",
                        "section": "abstract",
                        "offsetInBeginSection": 0,
                        "offsetInEndSection": 5,
                        "text": "Sleep",
                    }
                ],
            )
        ]
        qs = load_question_set(write_questions(tmp_path, payload))
        out_path = tmp_path / "again.json"
        save_question_set(qs, out_path)
        reloaded = load_question_set(out_path)
        assert question_set_to_json(reloaded) == question_set_to_json(qs)


class TestLoadDocuments:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_document_collection(path)) == 0

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        line = json.dumps({"id": "d1", "sections": []})
        path.write_text(line + "\n" + line + "\n", encoding="utf-8")
        message = f"^{re.escape(str(path))}:2: duplicate document id 'd1'$"
        with pytest.raises(MalformedInput, match=message):
            load_document_collection(path)
        with pytest.raises(MalformedInput, match="^duplicate document id 'd1'$"):
            DocumentCollection([make_doc("d1"), make_doc("d1")])

    def test_section_order_preserved(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        obj = {
            "id": "d1",
            "sections": [
                {"id": "title", "text": "T"},
                {"id": "abstract", "text": "A"},
            ],
        }
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        doc = load_document_collection(path)["d1"]
        assert [sid for sid, _ in doc.sections] == ["title", "abstract"]

    def test_duplicate_section_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        obj = {"id": "d1", "sections": [{"id": "s", "text": "a"}, {"id": "s", "text": "b"}]}
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        with pytest.raises(MalformedInput, match=re.escape(f"{path}:1: duplicate section id 's'")):
            load_document_collection(path)

    def test_roundtrip(self, tmp_path):
        collection = DocumentCollection(
            [make_doc("d1", ("title", "Hello."), ("body", "Worldünicode."))]
        )
        path = tmp_path / "docs.jsonl"
        save_document_collection(collection, path)
        reloaded = load_document_collection(path)
        assert list(reloaded) == list(collection)


# What a loaded collection may hold besides its text's UTF-8 bytes: per
# document its id, the id's list and dict entries and a section pointer;
# per section its newline, start, length and section-id pointer.
HELD_PER_DOCUMENT = 200
HELD_PER_SECTION = 40


def test_a_loaded_collection_holds_its_text_bytes_and_a_fixed_allowance(tmp_path):
    """No Python object per section: before the collection was columns, a
    section cost a (section id, text) tuple and a str header, over 100 bytes."""
    rng = random.Random(11)
    ascii_words = ["alpha", "beta", "tea", "of", "Dr.", "end."]
    other_words = ascii_words + ["Σίσυφος", "straße", "İstanbul", "naïve", "\U0001F600"]
    path, text_bytes, n_sections = tmp_path / "docs.jsonl", 0, 0
    with open(path, "w", encoding="utf-8") as fh:
        for d in range(2000):
            words = ascii_words if d % 2 else other_words
            texts = [" ".join(rng.choices(words, k=rng.randrange(30)))
                     for _ in range(rng.randrange(5))]
            text_bytes += sum(len(text.encode()) for text in texts)
            n_sections += len(texts)
            sections = [{"id": f"s{j}", "text": text} for j, text in enumerate(texts)]
            fh.write(json.dumps({"id": f"doc{d:05d}", "sections": sections}) + "\n")
    gc.collect()
    tracemalloc.start()
    try:
        collection = load_document_collection(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(collection) == 2000
    # The text grows in one bytearray, which may keep up to 1/8 of it as slack.
    allowed = text_bytes * 9 // 8 + HELD_PER_DOCUMENT * 2000 + HELD_PER_SECTION * n_sections
    assert held <= allowed, f"{held} bytes held, {allowed} allowed"


class TestSnippetSpan:
    def test_invalid_offsets_rejected(self):
        with pytest.raises(MalformedInput):
            SnippetSpan("d", "s", 5, 5, "")

    def test_negative_begin_rejected(self):
        with pytest.raises(MalformedInput):
            SnippetSpan("d", "s", -1, 3, "abc")


def feedback_with(qid="q1", doc=None, snippet=None, polarity="relevant"):
    store = FeedbackStore.empty()
    if doc is not None:
        store.add(qid, doc, polarity)
    if snippet is not None:
        store.add(qid, snippet.key(), polarity)
    return store


# Two spans with the same offsets and other texts judge alike; the third
# overlaps the first.
SPANS = [
    SnippetSpan("d1", "s", 0, 4, "abcd"),
    SnippetSpan("d1", "s", 5, 9, "efgh"),
    SnippetSpan("d1", "s", 0, 4, "other text"),
    SnippetSpan("d1", "s", 0, 5, "abcde"),
]


class TestFilterJudged:
    def test_exclude_all_removes_relevant_too(self):
        store = feedback_with(doc="d2", polarity="relevant")
        assert filter_judged(["d1", "d2", "d3"], store, "q1", EXCLUDE_ALL_JUDGED) == [
            "d1",
            "d3",
        ]

    def test_exclude_irrelevant_keeps_relevant(self):
        store = feedback_with(doc="d2", polarity="relevant")
        result = filter_judged(["d1", "d2", "d3"], store, "q1", EXCLUDE_IRRELEVANT_ONLY)
        assert result == ["d1", "d2", "d3"]

    def test_irrelevant_snippet_removed(self):
        s1 = SnippetSpan("d", "s", 0, 4, "abcd")
        s2 = SnippetSpan("d", "s", 5, 9, "efgh")
        store = feedback_with(snippet=s1, polarity="irrelevant")
        assert filter_judged([s1, s2], store, "q1", EXCLUDE_IRRELEVANT_ONLY) == [s2]

    def test_overlapping_span_is_not_judged(self):
        judged = SnippetSpan("d", "s", 0, 4, "abcd")
        overlapping = SnippetSpan("d", "s", 0, 5, "abcde")
        store = feedback_with(snippet=judged, polarity="irrelevant")
        assert filter_judged([overlapping], store, "q1", EXCLUDE_ALL_JUDGED) == [
            overlapping
        ]

    def test_unknown_question_is_identity(self):
        store = feedback_with(doc="d1", polarity="irrelevant")
        assert filter_judged(["d1"], store, "other", EXCLUDE_ALL_JUDGED) == ["d1"]

    def test_empty_feedback_is_identity(self):
        assert filter_judged(["d1", "d2"], FeedbackStore.empty(), "q1", EXCLUDE_ALL_JUDGED) == [
            "d1",
            "d2",
        ]

    def test_conflicting_polarity_rejected(self):
        store = feedback_with(doc="d1", polarity="relevant")
        with pytest.raises(MalformedInput):
            store.add("q1", "d1", "irrelevant")

    @pytest.mark.parametrize("key, what", [
        ("d1", "document 'd1'"), (("d1", "s", 0, 4), "snippet ('d1', 's', 0, 4)"),
    ], ids=["document", "snippet"])
    def test_conflict_names_the_item_and_keeps_the_first_judgment(self, tmp_path, key, what):
        store = FeedbackStore.empty()
        store.add("q1", key, "relevant")
        message = re.escape(f"conflicting feedback for {what} on 'q1'")
        with pytest.raises(MalformedInput, match=f"^{message}$"):
            store.add("q1", key, "irrelevant")
        assert store.judgments("q1") == {key: "relevant"}
        # Read from a file, the conflict names the file first.
        ref = key if isinstance(key, str) else dict(zip(
            ("document", "section", "offsetInBeginSection", "offsetInEndSection"), key))
        items = [{"kind": what.split()[0], "ref": ref, "polarity": polarity}
                 for polarity in ("relevant", "irrelevant")]
        path = tmp_path / "feedback.json"
        path.write_text(json.dumps([{"question_id": "q1", "items": items}]), encoding="utf-8")
        with pytest.raises(MalformedInput, match=f"^{re.escape(str(path))}: {message}$"):
            FeedbackStore.load(path)

    def test_repeated_identical_judgment_allowed(self):
        store = feedback_with(doc="d1", polarity="relevant")
        store.add("q1", "d1", "relevant")
        assert store.judgments("q1") == {"d1": "relevant"}

    @pytest.mark.parametrize("mode", [EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY],
                             ids=["exclude_all_judged", "exclude_irrelevant_only"])
    def test_unjudged_question_gets_a_new_list(self, mode):
        store = feedback_with(qid="q2", doc="d1", polarity="irrelevant")
        candidates = ["d1", "d2"]
        result = filter_judged(candidates, store, "q1", mode)
        assert result == candidates and result is not candidates
        result.append("d3")
        del result[0]
        assert candidates == ["d1", "d2"]

    @given(
        st.lists(st.sampled_from(["d1", "d2", "d3"]) | st.sampled_from(SPANS), max_size=8),
        st.dictionaries(
            st.sampled_from(["d1", "d2"]) | st.sampled_from(SPANS[:2]),
            st.sampled_from(["relevant", "irrelevant"]),
            max_size=4,
        ),
        st.sampled_from(["q1", "q2"]),
        st.sampled_from([EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY]),
    )
    def test_drops_what_the_per_item_lookup_drops(self, candidates, judgments, qid, mode):
        def key(item):
            return item.key() if isinstance(item, SnippetSpan) else item

        store = FeedbackStore.empty()
        for item, polarity in judgments.items():
            store.add("q1", key(item), polarity)

        judged = {key(j): p for j, p in judgments.items()} if qid == "q1" else {}
        expected = []
        for item in candidates:
            polarity = judged.get(key(item))
            if polarity is None or (mode == EXCLUDE_IRRELEVANT_ONLY and polarity == "relevant"):
                expected.append(item)
        assert filter_judged(candidates, store, qid, mode) == expected

    @given(
        st.lists(st.sampled_from(["d1", "d2", "d3", "d4"]), max_size=8, unique=True),
        st.dictionaries(
            st.sampled_from(["d1", "d2", "d3"]),
            st.sampled_from(["relevant", "irrelevant"]),
            max_size=3,
        ),
        st.sampled_from([EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY]),
    )
    def test_idempotent_and_order_preserving(self, candidates, judgments, mode):
        store = FeedbackStore.empty()
        for doc, polarity in judgments.items():
            store.add("q1", doc, polarity)
        once = filter_judged(candidates, store, "q1", mode)
        assert filter_judged(once, store, "q1", mode) == once
        # order preserved: survivors appear in their original order
        positions = [candidates.index(d) for d in once]
        assert positions == sorted(positions)


class TestFeedbackFile:
    def test_load_document_and_snippet_items(self, tmp_path):
        payload = [
            {
                "question_id": "q1",
                "items": [
                    {"kind": "document", "ref": "d1", "polarity": "irrelevant"},
                    {
                        "kind": "snippet",
                        "ref": {
                            "document": "d2",
                            "section": "abstract",
                            "offsetInBeginSection": 0,
                            "offsetInEndSection": 4,
                        },
                        "polarity": "relevant",
                    },
                ],
            }
        ]
        path = tmp_path / "feedback.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = FeedbackStore.load(path)
        span = SnippetSpan("d2", "abstract", 0, 4, "text ignored")
        assert store.judgments("q1") == {"d1": "irrelevant", span.key(): "relevant"}

    def test_bad_polarity_rejected(self, tmp_path):
        payload = [
            {
                "question_id": "q1",
                "items": [{"kind": "document", "ref": "d1", "polarity": "maybe"}],
            }
        ]
        path = tmp_path / "feedback.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(MalformedInput):
            FeedbackStore.load(path)
