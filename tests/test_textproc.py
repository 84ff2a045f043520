"""Tokenizer, sentence splitter, and tf-idf cosine unit tests."""

from __future__ import annotations

import math
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from qfs.corpus import DocumentCollection, SnippetSpan
from qfs.pipeline import CosineScorer, candidate_sentences
from qfs.sentences import SentenceTable
from qfs.textproc import (
    ABBREVIATIONS,
    _TOKEN_RE,
    sentence_bounds,
    sentence_breaks,
    split_sentences,
    token_surfaces,
)

from conftest import ascii_split_texts, make_doc, make_question, split_texts


class TestTokenize:
    def test_apostrophe_splits(self):
        assert token_surfaces("The cat's mat.") == ["the", "cat", "s", "mat"]

    def test_empty(self):
        assert token_surfaces("") == []

    def test_hyphenated_term(self):
        assert token_surfaces("COVID-19") == ["covid", "19"]

    def test_underscore_is_a_separator(self):
        assert token_surfaces("a_b") == ["a", "b"]

    @given(st.text(max_size=60))
    def test_deterministic(self, text):
        assert token_surfaces(text) == token_surfaces(text)

    @settings(max_examples=300)
    @given(st.text(st.characters(max_codepoint=127), max_size=80))
    @example("".join(map(chr, range(128))))
    def test_ascii_byte_table_equals_the_regex(self, text):
        assert token_surfaces(text) == _TOKEN_RE.findall(text.lower())


class TestSplitSentences:
    def test_two_sentences_with_offsets(self):
        spans = split_sentences("A b. C d.")
        assert [(s.begin, s.end) for s in spans] == [(0, 4), (5, 9)]
        assert [s.text for s in spans] == ["A b.", "C d."]

    def test_single_sentence_without_terminator(self):
        spans = split_sentences("One sentence")
        assert [(s.begin, s.end) for s in spans] == [(0, 12)]

    def test_abbreviation_does_not_split(self):
        spans = split_sentences("He saw Dr. Smith. Then left.")
        assert [s.text for s in spans] == ["He saw Dr. Smith.", "Then left."]
        assert [(s.begin, s.end) for s in spans] == [(0, 17), (18, 28)]

    def test_dotted_acronym_does_not_split(self):
        spans = split_sentences("Use masks, e.g. N95 masks. Wash hands.")
        assert len(spans) == 2
        assert spans[0].text.endswith("masks.")

    def test_decimal_number_does_not_split(self):
        spans = split_sentences("Dose was 3.5 mg per day. It worked.")
        assert len(spans) == 2

    def test_lowercase_continuation_does_not_split(self):
        spans = split_sentences("It grew c. elegans style. Done.")
        assert len(spans) == 2

    def test_question_and_exclamation(self):
        spans = split_sentences("Is it safe? Yes! Try it.")
        assert [s.text for s in spans] == ["Is it safe?", "Yes!", "Try it."]

    def test_indices_are_ordinal(self):
        spans = split_sentences("A b. C d. E f.")
        assert [s.index for s in spans] == [0, 1, 2]

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_reconstruction_invariant(self, text):
        """Sentence texts plus the gaps between them rebuild the input."""
        spans = split_sentences(text)
        for s in spans:
            assert text[s.begin : s.end] == s.text
            assert s.text == s.text.strip()
        # spans are ordered and non-overlapping; gaps are pure whitespace
        cursor = 0
        for s in spans:
            assert text[cursor : s.begin].strip() == ""
            cursor = s.end
        assert text[cursor:].strip() == ""


def reference_is_abbreviation(text: str, period_pos: int) -> bool:
    """The abbreviation test before it bounded its scan, kept as the oracle."""
    i = period_pos
    while i > 0 and text[i - 1].isalpha():
        i -= 1
    word = text[i:period_pos]
    if not word:
        return False
    if word.lower() in ABBREVIATIONS:
        return True
    return len(word) == 1 and i > 0 and text[i - 1] == "."


def reference_sentence_breaks(text: str) -> list[int]:
    """The splitter before it matched whitespace in place (quadratic), kept as the oracle."""
    breaks = []
    for m in re.finditer(r"[.!?]+[\"'’”)\]]*", text):
        end = m.end()
        run = m.group()
        if set(run) <= {"."} and run.count(".") == 1:
            if reference_is_abbreviation(text, m.start()):
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


def reference_sentence_bounds(text: str) -> list[tuple[int, int]]:
    """Sentence offsets as ``split_sentences`` cut them before, over the oracle's breaks."""
    bounds, cursor = [], 0
    for brk in reference_sentence_breaks(text):
        chunk = text[cursor:brk]
        begin = cursor + len(chunk) - len(chunk.lstrip())
        if begin < brk:
            bounds.append((begin, brk))
        cursor = brk
    tail = text[cursor:]
    stripped = tail.strip()
    if stripped:
        begin = cursor + len(tail) - len(tail.lstrip())
        bounds.append((begin, begin + len(stripped)))
    return bounds


class TestSplitterMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(split_texts)
    @example("Dr. Smith. Then \u3000 ²x.\x1c Ok e.g. U.S. Z")
    @example("approx. Then wordsx. A")
    def test_breaks(self, text):
        assert sentence_breaks(text) == reference_sentence_breaks(text)

    @settings(max_examples=1000, deadline=None)
    @given(ascii_split_texts)
    @example("He saw DR. Smith. Then Dr! Then dr.. Then e.g.) Then x.) A")
    @example("ApProx. Then U.S. 3 Eqs. k. N\x1f\x1cA.\x0b2 no.A")
    def test_ascii_breaks(self, text):
        assert sentence_breaks(text) == reference_sentence_breaks(text)

    @given(st.text(max_size=80))
    def test_breaks_on_any_text(self, text):
        assert sentence_breaks(text) == reference_sentence_breaks(text)

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(split_texts, st.text(max_size=80)))
    def test_bounds(self, text):
        assert sentence_bounds(text) == reference_sentence_bounds(text)
        assert [(s.begin, s.end) for s in split_sentences(text)] == sentence_bounds(text)


def reference_candidate_sentences(question) -> list[SnippetSpan]:
    """``candidate_sentences`` as it was before the join: each snippet split alone."""
    return [
        SnippetSpan(s.doc_id, s.section_id, s.begin_char + x.begin, s.begin_char + x.end, x.text)
        for s in question.gold_snippets
        for x in split_sentences(s.text)
    ]


# Snippet texts for the join: the split alphabets, and texts that start or
# end with an abbreviation or "e.g.", start lower case or with whitespace,
# have no terminator, or hold only whitespace.
snippet_texts = st.one_of(
    split_texts,
    ascii_split_texts,
    st.lists(st.sampled_from([
        "e.g.", "e.g. Then", "Dr.", "Dr. Smith", "approx.", "U.S.", "no.", "lower case.",
        " Space first.", "\n\tTab first", "no terminator", "   ", "\u2028\x85", "A.", "Z!", "3?",
        "x.)", "İ ß.", "Σ words",
    ]), min_size=1, max_size=3).map(" ".join),
    st.lists(st.sampled_from(["e.g.", "Dr.", "Fig.", "It ends.", " ", "\n"]), min_size=1,
             max_size=3).map("".join),
).filter(bool)


class TestCandidateSentences:
    """The joined split of a question's gold snippets against one split per snippet."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(snippet_texts, st.integers(0, 50), st.sampled_from(["d1", "d2"]),
                              st.sampled_from(["title", "abstract"])), max_size=6))
    @example([("Use it e.g.", 0, "d1", "title"), ("Then more.", 12, "d1", "title")])
    @example([("He saw Dr.", 0, "d1", "title"), ("Smith left", 11, "d1", "title")])
    @example([("ends here. ", 3, "d1", "s"), ("lower start", 0, "d2", "s"), ("   ", 5, "d1", "s")])
    @example([("e.g.", 0, "d1", "s"), ("e.g. Flu.", 0, "d1", "s"), ("İ. \u2028", 7, "d2", "s")])
    def test_spans_equal_the_split_of_each_snippet(self, specs):
        snippets = tuple(SnippetSpan(doc, section, begin, begin + len(text), text)
                         for text, begin, doc, section in specs)
        question = make_question("q", gold_snippets=snippets)
        assert list(map(vars, candidate_sentences(question))) == \
            list(map(vars, reference_candidate_sentences(question)))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(snippet_texts, max_size=6))
    def test_joined_bounds_equal_the_bounds_of_each_text(self, texts):
        starts = [0]
        for text in texts[:-1]:
            starts.append(starts[-1] + len(text) + 1)
        expected = [(start + b, start + e)
                    for start, text in zip(starts, texts) for b, e in sentence_bounds(text)]
        assert sentence_bounds("\n".join(texts), starts) == expected


class TestSentenceTokens:
    @given(st.one_of(split_texts, ascii_split_texts, st.text(max_size=60)))
    def test_tokens_of_each_sentence(self, text):
        table = SentenceTable.build(DocumentCollection([make_doc("d", ("s", text))]), ["d"])
        words = [
            [table.vocabulary[i] for i in table.token_ids[table.indptr[r] : table.indptr[r + 1]]]
            for r in range(len(table))
        ]
        assert words == [token_surfaces(text[b:e]) for b, e in sentence_bounds(text)]

    @given(st.one_of(split_texts, st.text(max_size=60)))
    def test_ascii_path_lowercases_each_token(self, text):
        expected = [m.lower() for m in re.findall(r"[^\W_]+", text)]
        assert token_surfaces(text) == expected


def reference_cosine(question: str, texts: list[str]) -> list[float]:
    """tf-idf cosine over sparse term -> weight dicts, in plain Python.

    The sparse-vector code that ``CosineScorer`` replaced, kept as its
    oracle. Every sum adds left to right in sorted term order, written as
    a loop because ``sum`` compensates for rounding from Python 3.12 on.
    """

    def add(values) -> float:
        total = 0.0
        for value in values:
            total += value
        return total

    token_lists = [token_surfaces(t) for t in texts]
    df: Counter[str] = Counter()
    for tokens in token_lists:
        df.update(set(tokens))
    n = len(texts)
    idf = {term: math.log((1 + n) / (1 + count)) + 1.0 for term, count in df.items()}

    def vector(tokens: list[str]) -> dict[str, float]:
        counts = Counter(t for t in tokens if t in idf)
        weights = {t: tf * idf[t] for t, tf in sorted(counts.items())}
        norm = math.sqrt(add(w * w for w in weights.values()))
        return {t: w / norm for t, w in weights.items()}

    q = vector(token_surfaces(question))
    scores = []
    for tokens in token_lists:
        s = vector(tokens)
        dot = add(w * s[t] for t, w in q.items() if t in s)
        scores.append(min(1.0, max(0.0, dot)) if q and s else 0.0)
    return scores


def cosine_scores(question: str, *texts: str) -> list[float]:
    return CosineScorer().score_sentences(
        make_question("q", body=question), list(texts), list(range(len(texts)))
    )


IDF_HALF = math.log(3 / 2) + 1.0  # a term in one of two sentences


class TestTfidf:
    def test_single_doc_idf_is_one(self):
        assert cosine_scores("b", "a b b") == [pytest.approx(2 / math.sqrt(5))]

    def test_term_in_all_docs(self):
        # idf(a) = ln(3/3) + 1 = 1, idf(b) = ln(3/2) + 1
        assert cosine_scores("a b", "a b", "a")[1] == pytest.approx(
            1 / math.sqrt(1 + IDF_HALF**2)
        )

    def test_term_in_half_the_docs(self):
        assert IDF_HALF == pytest.approx(1.4054651081, abs=1e-9)
        assert cosine_scores("a", "a c", "b c")[0] == pytest.approx(
            IDF_HALF / math.sqrt(IDF_HALF**2 + 1)
        )

    def test_empty_pool_scores_nothing(self):
        assert cosine_scores("a") == []

    def test_vector_single_term_normalized(self):
        assert cosine_scores("a a", "a", "b") == [pytest.approx(1.0), 0.0]

    def test_vector_oov_only_is_empty(self):
        assert cosine_scores("z y", "a b", "a") == [0.0, 0.0]

    def test_vector_two_equal_terms(self):
        assert cosine_scores("a", "a b") == [pytest.approx(1 / math.sqrt(2))]

    def test_term_order_does_not_matter(self):
        assert cosine_scores("d a c", "c a d", "a b") == cosine_scores("c d a", "a d c", "b a")


class TestCosine:
    def test_identity(self):
        assert cosine_scores("a b c", "a b c", "a d")[0] == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_supports(self):
        assert cosine_scores("a", "b c", "a") == [0.0, 1.0]

    def test_partial_overlap(self):
        assert cosine_scores("a", "a b", "c")[0] == pytest.approx(0.70710678, abs=1e-8)

    def test_empty_vector_scores_zero(self):
        assert cosine_scores("a", "", "?!", "a") == [0.0, 0.0, 1.0]
        assert cosine_scores("", "a", "b") == [0.0, 0.0]

    def test_symmetry(self):
        texts = ("a b c", "b d", "c c e")
        assert cosine_scores(texts[0], *texts)[1] == cosine_scores(texts[1], *texts)[0]


# A small vocabulary, so pools repeat tokens and share terms; "Zz" and
# "yy" never reach a sentence, so a question of them is out of vocabulary.
WORDS = [*"abcdefghijkl", "A", "Bb"]
sentence_texts = st.lists(st.sampled_from(WORDS), max_size=24).map(" ".join) | st.just("?!")
question_texts = st.lists(st.sampled_from([*WORDS, "Zz", "yy"]), max_size=16).map(" ".join)
pools = st.one_of(
    st.lists(sentence_texts, min_size=1, max_size=12),
    # A few sentences, each repeated: identical sentences must score identically.
    st.lists(sentence_texts, min_size=1, max_size=3).flatmap(
        lambda base: st.lists(st.sampled_from(base), min_size=2, max_size=12)
    ),
    # Not one token in the pool.
    st.lists(st.sampled_from(["", "?!", "..."]), min_size=1, max_size=6),
)


@settings(max_examples=500, deadline=None)
@given(question_texts, pools)
@example("Zz yy", ["a b c d e f g h i j a"])
@example("", ["", "?!", "a b"])
@example("a b", ["?!", "", "..."])
# idf(a) = ln(21 / 20) + 1, where np.log and math.log differ in the last bit.
@example("a b", ["a b"] * 19 + ["b"])
def test_cosine_scorer_matches_reference(question, texts):
    assert cosine_scores(question, *texts) == reference_cosine(question, texts)
