"""Metric unit tests, anchored to a brute-force skip-bigram oracle."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from qfs.corpus import SnippetSpan
from qfs.errors import DuplicateInReturned, EmptyReferenceList
from qfs.metrics import (
    RougeScore,
    Su4Units,
    best_reference_f1,
    document_f1,
    evaluate_run,
    rouge_su4_f1,
    snippet_f1,
    su4_references,
    su_units,
)
from qfs.textproc import token_surfaces

from conftest import make_question


def oracle_su_units(tokens: list[str], dskip: int) -> Counter:
    """Independent enumeration: double loop over all ordered pairs."""
    units: Counter = Counter()
    for token in tokens:
        units[(token,)] += 1
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            if j - i - 1 <= dskip:
                units[(tokens[i], tokens[j])] += 1
    return units


def oracle_su4(candidate: str, reference: str) -> RougeScore:
    """Brute-force SU4 precision, recall and F1: the ground truth for the fast path."""
    cand = oracle_su_units(token_surfaces(candidate), 4)
    ref = oracle_su_units(token_surfaces(reference), 4)
    total_c = sum(cand.values())
    total_r = sum(ref.values())
    if total_c == 0 or total_r == 0:
        return RougeScore(0.0, 0.0, 0.0)
    matches = sum(min(n, ref[u]) for u, n in cand.items())
    p, r = matches / total_c, matches / total_r
    return RougeScore(p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0)


def oracle_su4_f1(candidate: str, reference: str) -> float:
    return oracle_su4(candidate, reference).f1


# Texts over four tokens, two of them one word in different case, so
# units repeat within a text and across texts.
REPEATING_TEXTS = st.lists(st.sampled_from(["flu", "Flu", "shot", "a1"]), max_size=14).map(
    " ".join
)


class TestSuUnits:
    def test_single_token(self):
        assert su_units(["a"], 4) == Counter({("a",): 1})

    def test_two_tokens(self):
        # brute force: unigrams a, b plus the one pair (a, b)
        assert su_units(["a", "b"], 4) == Counter(
            {("a",): 1, ("b",): 1, ("a", "b"): 1}
        )

    def test_gap_zero_keeps_adjacent_pairs_only(self):
        # brute force: pairs with no intervening token are (a,b) and (b,c)
        assert su_units(["a", "b", "c"], 0) == Counter(
            {("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): 1, ("b", "c"): 1}
        )

    def test_negative_dskip_rejected(self):
        with pytest.raises(ValueError):
            su_units(["a"], -1)

    @given(
        st.lists(st.sampled_from("abcd"), max_size=10),
        st.integers(min_value=0, max_value=8),
    )
    def test_matches_oracle(self, tokens, dskip):
        assert su_units(tokens, dskip) == oracle_su_units(tokens, dskip)

    @given(st.lists(st.sampled_from("abc"), min_size=2, max_size=8))
    def test_large_dskip_gives_all_pairs(self, tokens):
        full = su_units(tokens, len(tokens) - 2)
        pair_count = sum(n for u, n in full.items() if len(u) == 2)
        assert pair_count == len(tokens) * (len(tokens) - 1) // 2


class TestRougeSu4:
    def test_identical_strings(self):
        assert rouge_su4_f1("severe flu cases", "severe flu cases").f1 == pytest.approx(1.0)

    def test_one_shared_unigram(self):
        # brute force: {a, b, (a,b)} vs {a, c, (a,c)} -> 1 match of 3
        score = rouge_su4_f1("a b", "a c")
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == pytest.approx(1 / 3)
        assert score.f1 == pytest.approx(1 / 3)

    def test_empty_candidate(self):
        assert rouge_su4_f1("", "a") == RougeScore.zero()

    def test_empty_reference(self):
        assert rouge_su4_f1("a", "") == RougeScore.zero()

    def test_f1_symmetric_under_swap(self):
        a, b = "winter influenza spreads fast", "influenza spreads"
        ab, ba = rouge_su4_f1(a, b), rouge_su4_f1(b, a)
        assert ab.f1 == pytest.approx(ba.f1)
        assert ab.precision == pytest.approx(ba.recall)
        assert ab.recall == pytest.approx(ba.precision)

    @given(
        st.lists(st.sampled_from("abcdefgh"), max_size=12),
        st.lists(st.sampled_from("abcdefgh"), max_size=12),
    )
    def test_matches_brute_force(self, cand_tokens, ref_tokens):
        cand, ref = " ".join(cand_tokens), " ".join(ref_tokens)
        assert rouge_su4_f1(cand, ref).f1 == pytest.approx(
            oracle_su4_f1(cand, ref), abs=1e-12
        )

    @given(
        st.text(alphabet=st.characters(codec="ascii"), max_size=40),
        st.text(alphabet=st.characters(codec="ascii"), max_size=40),
    )
    def test_bounds(self, cand, ref):
        score = rouge_su4_f1(cand, ref)
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0
        assert score.f1 <= max(score.precision, score.recall) + 1e-12


class TestBestReference:
    def test_single_matching_reference(self):
        assert best_reference_f1("x y", ["x y"]) == pytest.approx(1.0)

    def test_max_over_references(self):
        assert best_reference_f1("b c", ["a", "b c", "d"]) == pytest.approx(1.0)

    def test_max_ignores_poor_references(self):
        assert best_reference_f1("a b", ["a b", "c d"]) == pytest.approx(1.0)

    def test_empty_reference_list(self):
        with pytest.raises(EmptyReferenceList):
            best_reference_f1("a", [])

    def test_empty_prepared_reference_list(self):
        with pytest.raises(EmptyReferenceList):
            best_reference_f1("a", su4_references([]))

    @given(
        st.lists(REPEATING_TEXTS, min_size=1, max_size=6),
        st.lists(REPEATING_TEXTS, min_size=1, max_size=3),
    )
    def test_prepared_strings_and_oracle_agree_exactly(self, candidates, references):
        prepared = su4_references(references)
        for candidate in candidates:
            oracle = max(oracle_su4_f1(candidate, ref) for ref in references)
            assert best_reference_f1(candidate, prepared) == oracle
            assert best_reference_f1(candidate, references) == oracle
            prepared_candidate = Su4Units.of_tokens(token_surfaces(candidate))
            assert best_reference_f1(prepared_candidate, prepared) == oracle


class TestDocumentF1:
    def test_half_overlap(self):
        score = document_f1(["d1", "d2"], {"d2", "d3"})
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_exact_match(self):
        assert document_f1(["d1", "d2"], {"d1", "d2"}).f1 == pytest.approx(1.0)

    def test_empty_gold(self):
        assert document_f1(["d1"], set()) == RougeScore.zero()

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateInReturned):
            document_f1(["d1", "d1"], {"d1"})


class TestSnippetF1:
    def test_half_character_overlap(self):
        returned = [SnippetSpan("d", "s", 0, 10, "x" * 10)]
        gold = [SnippetSpan("d", "s", 5, 15, "x" * 10)]
        score = snippet_f1(returned, gold)
        assert score.precision == pytest.approx(0.5)
        assert score.recall == pytest.approx(0.5)
        assert score.f1 == pytest.approx(0.5)

    def test_exact_match(self):
        spans = [SnippetSpan("d", "s", 3, 9, "abcdef")]
        assert snippet_f1(spans, spans).f1 == pytest.approx(1.0)

    def test_different_documents(self):
        returned = [SnippetSpan("d1", "s", 0, 5, "aaaaa")]
        gold = [SnippetSpan("d2", "s", 0, 5, "aaaaa")]
        assert snippet_f1(returned, gold) == RougeScore.zero()

    def test_union_semantics_on_returned_side(self):
        # two identical returned spans count their characters once
        returned = [SnippetSpan("d", "s", 0, 10, "x" * 10)] * 2
        gold = [SnippetSpan("d", "s", 0, 10, "x" * 10)]
        assert snippet_f1(returned, gold).precision == pytest.approx(1.0)


class TestEvaluateRun:
    def test_perfect_run(self):
        gold_span = SnippetSpan("d1", "s", 0, 6, "Answer")
        question = make_question(
            "q1",
            gold_documents=("d1",),
            gold_snippets=(gold_span,),
            ideal_answers=("the answer text",),
        )

        class Run:
            question_id = "q1"
            documents = ["d1"]
            snippets = [gold_span]
            ideal_answer = "the answer text"

        report = evaluate_run([question], [Run()])
        assert report.macro_document_f1 == pytest.approx(1.0)
        assert report.macro_snippet_f1 == pytest.approx(1.0)
        assert report.macro_su4_f1 == pytest.approx(1.0)

    @given(
        st.lists(REPEATING_TEXTS, min_size=1, max_size=4),
        st.lists(REPEATING_TEXTS, min_size=1, max_size=3),
    )
    def test_ideal_su4_is_the_first_best_oracle_score(self, answers, references):
        questions = [
            make_question(f"q{i}", ideal_answers=tuple(references)) for i in range(len(answers))
        ]

        class Run:
            def __init__(self, question_id, ideal_answer):
                self.question_id, self.ideal_answer = question_id, ideal_answer
                self.documents, self.snippets = [], []

        report = evaluate_run(questions, [Run(q.id, a) for q, a in zip(questions, answers)])
        for row, answer in zip(report.per_question, answers):
            best = max((oracle_su4(answer, ref) for ref in references), key=lambda s: s.f1)
            assert row.ideal_su4 == best

    def test_missing_answer_scores_zero(self):
        question = make_question("q1", gold_documents=("d1",), ideal_answers=("x",))
        report = evaluate_run([question], [])
        assert report.macro_document_f1 == 0.0
        assert "MACRO" in report.to_table()
