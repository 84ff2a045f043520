"""Metric unit tests, anchored to a brute-force skip-bigram oracle."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qfs import metrics
from qfs.corpus import SnippetSpan, load_question_set
from qfs.errors import EmptyInput, MalformedInput
from qfs.metrics import (
    RougeScore,
    best_reference_f1,
    best_reference_f1s,
    document_f1,
    evaluate_run,
    rouge_su4_f1,
    snippet_f1,
    su4_scores,
)
from qfs.pipeline import candidate_sentences, generate_labels
from qfs.textproc import token_surfaces

from conftest import make_question

GOLDEN = Path(__file__).parent / "golden"


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


def counter_labels(questions) -> list[int]:
    """The Counter-based labeller the array core replaced: the test oracle.

    Each candidate's unit multiset is built once and clipped against each
    reference's by a loop over its units; the top 5 by best-reference F1
    (earlier occurrence first on ties) are labelled 1.
    """

    def units(tokens):
        found = Counter(zip(tokens))
        for gap in range(1, 6):
            found.update(zip(tokens, tokens[gap:]))
        return found, found.total()

    def score(cand, ref):
        (c_units, c_total), (r_units, r_total) = cand, ref
        if c_total == 0 or r_total == 0:
            return 0.0
        matches = sum(min(n, r_units[u]) for u, n in c_units.items() if u in r_units)
        return RougeScore.from_pr(matches / c_total, matches / r_total).f1

    labels = []
    for question in questions:
        refs = [units(token_surfaces(a)) for a in question.ideal_answers]
        cands = [units(token_surfaces(c.text)) for c in candidate_sentences(question)]
        f1s = [max(score(c, r) for r in refs) for c in cands]
        top = set(sorted(range(len(f1s)), key=lambda i: (-f1s[i], i))[:5])
        labels.extend(1 if i in top else 0 for i in range(len(f1s)))
    return labels


# Texts over four tokens, two of them one word in different case, so
# units repeat within a text and across texts.
REPEATING_TEXTS = st.lists(st.sampled_from(["flu", "Flu", "shot", "a1"]), max_size=14).map(
    " ".join
)
# Texts with repeated units, no tokens at all ("", "--"), and non-ASCII
# letters whose lowercase differs in length or form.
SU4_TEXTS = st.lists(
    st.sampled_from(["a", "b", "A", "c", "--", "İ", "i̇", "ß", "SS", "Σ", "σ", "x1"]),
    max_size=16,
).map(" ".join)


class TestSuUnits:
    """The units SU4 counts, seen through the scores of small texts."""

    def test_single_token(self):
        # "a" is the one unit a; "a b" is a, b and (a, b)
        assert rouge_su4_f1("a", "a b") == RougeScore.from_pr(1 / 1, 1 / 3)

    def test_two_tokens(self):
        # the pair (a, b) is ordered: against "b a" only the unigrams match
        assert rouge_su4_f1("a b", "b a") == RougeScore.from_pr(2 / 3, 2 / 3)
        assert rouge_su4_f1("a b", "a b") == RougeScore.from_pr(3 / 3, 3 / 3)

    @pytest.mark.parametrize(
        "candidate, score",
        [
            # gap 5 (four tokens between): units a, x*4, b + 15 pairs; a, b, (a, b) match
            ("a x x x x b", RougeScore.from_pr(3 / 21, 3 / 3)),
            # gap 6: the pair (a, b) is not a unit; 7 + 20 units, a and b match
            ("a x x x x x b", RougeScore.from_pr(2 / 27, 2 / 3)),
        ],
    )
    def test_largest_gap_is_five(self, candidate, score):
        assert rouge_su4_f1(candidate, "a b") == score

    def test_pairs_stay_within_one_text(self):
        # Two one-token candidates next to each other, then the reference:
        # no pair (a, b) spans candidates, and none spans into the reference.
        precision, recall, f1 = su4_scores([["a"], ["b"]], [["a", "b"]])
        assert precision.tolist() == [[1.0], [1.0]]
        assert recall.tolist() == [[1 / 3], [1 / 3]]


class TestSu4Scores:
    @given(
        st.lists(SU4_TEXTS, max_size=5),
        st.lists(SU4_TEXTS, max_size=4),
    )
    def test_every_pair_equals_the_oracle(self, candidates, references):
        precision, recall, f1 = su4_scores(
            [token_surfaces(c) for c in candidates], [token_surfaces(r) for r in references]
        )
        assert f1.shape == (len(candidates), len(references))
        for i, cand in enumerate(candidates):
            for j, ref in enumerate(references):
                got = (precision[i, j], recall[i, j], f1[i, j])
                assert got == tuple(vars(oracle_su4(cand, ref)).values())

    def test_empty_inputs(self):
        assert [a.shape for a in su4_scores([], [])] == [(0, 0)] * 3
        assert [a.shape for a in su4_scores([], [["a"]])] == [(0, 1)] * 3
        assert [a.shape for a in su4_scores([["a"]], [])] == [(1, 0)] * 3
        assert [a.tolist() for a in su4_scores([[]], [[], ["a"]])] == [[[0.0, 0.0]]] * 3

    def test_key_span_is_checked(self, monkeypatch):
        # 2 distinct tokens in 2 texts give keys * texts + text up to
        # 2 * 3 * 2 - 1 = 11: a span of 12 values holds them, 11 does not.
        monkeypatch.setattr(metrics, "_INT64_SPAN", 12)
        assert su4_scores([["a"]], [["b"]])[2].tolist() == [[0.0]]
        monkeypatch.setattr(metrics, "_INT64_SPAN", 11)
        with pytest.raises(ValueError, match="overflow"):
            su4_scores([["a"]], [["b"]])


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
        assert rouge_su4_f1(cand, ref) == oracle_su4(cand, ref)

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
        with pytest.raises(EmptyInput, match="^at least one reference text is required$"):
            best_reference_f1("a", [])

    def test_empty_prepared_reference_list(self):
        with pytest.raises(EmptyInput, match="^at least one reference text is required$"):
            best_reference_f1s([["a"]], [])

    @given(
        st.lists(REPEATING_TEXTS, min_size=1, max_size=6),
        st.lists(REPEATING_TEXTS, min_size=1, max_size=3),
    )
    def test_prepared_strings_and_oracle_agree_exactly(self, candidates, references):
        oracle = [max(oracle_su4_f1(c, ref) for ref in references) for c in candidates]
        assert [best_reference_f1(c, references) for c in candidates] == oracle
        tokens = [token_surfaces(c) for c in candidates]
        assert best_reference_f1s(tokens, [token_surfaces(r) for r in references]) == oracle


def labelled_question(i: int, candidates: list[str], references: list[str]):
    """A question whose gold snippets are single candidate sentences."""
    snippets = tuple(SnippetSpan("d", "abstract", 0, len(c), c) for c in candidates)
    return make_question(f"q{i}", gold_snippets=snippets, ideal_answers=tuple(references))


class TestLabelsMatchCounterOracle:
    def test_golden_questions(self):
        questions = load_question_set(GOLDEN / "questions.json")
        assert [ex.label for ex in generate_labels(questions)] == counter_labels(questions)

    @given(
        st.lists(
            st.tuples(
                st.lists(REPEATING_TEXTS.map(lambda t: f"Z {t}."), min_size=1, max_size=9),
                st.lists(SU4_TEXTS, min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_question_sets(self, specs):
        questions = [labelled_question(i, c, r) for i, (c, r) in enumerate(specs)]
        assert [ex.label for ex in generate_labels(questions)] == counter_labels(questions)


class TestDocumentF1:
    def test_half_overlap(self):
        score = document_f1(["d1", "d2"], {"d2", "d3"})
        assert (score.precision, score.recall, score.f1) == (0.5, 0.5, 0.5)

    def test_exact_match(self):
        assert document_f1(["d1", "d2"], {"d1", "d2"}).f1 == pytest.approx(1.0)

    def test_empty_gold(self):
        assert document_f1(["d1"], set()) == RougeScore.zero()

    def test_duplicates_rejected(self):
        with pytest.raises(MalformedInput, match="^returned document list contains duplicates$"):
            document_f1(["d1", "d1"], {"d1"})


# Spans over two documents and two sections, short and close together, so
# that spans overlap on the same side as well as across the two sides.
span_lists = st.lists(
    st.builds(
        lambda doc, section, begin, length: SnippetSpan(doc, section, begin, begin + length),
        st.sampled_from(["d1", "d2"]), st.sampled_from(["s", "t"]),
        st.integers(0, 30), st.integers(1, 15),
    ),
    max_size=6,
)


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

    @given(span_lists, span_lists)
    def test_matches_character_set_oracle(self, returned, gold):
        def characters(spans):
            return {
                (s.doc_id, s.section_id, i) for s in spans for i in range(s.begin_char, s.end_char)
            }

        r, g = characters(returned), characters(gold)
        expected = RougeScore.from_pr(
            len(r & g) / len(r) if r else 0.0, len(r & g) / len(g) if g else 0.0
        )
        assert snippet_f1(returned, gold) == expected


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

    @pytest.mark.parametrize("references", [("a b", "b c a"), ("b c a", "a b")])
    def test_ideal_su4_keeps_the_first_of_tied_references(self, references):
        # Against "a b c", "a b" gives P 1/2, R 1 and "b c a" P = R = 2/3: one F1.
        question = make_question("q1", ideal_answers=references)

        class Run:
            question_id, ideal_answer, documents, snippets = "q1", "a b c", [], []

        (row,) = evaluate_run([question], [Run()]).per_question
        assert row.ideal_su4 == oracle_su4("a b c", references[0])
        assert row.ideal_su4 != oracle_su4("a b c", references[1])

    def test_missing_answer_scores_zero(self):
        question = make_question("q1", gold_documents=("d1",), ideal_answers=("x",))
        report = evaluate_run([question], [])
        assert report.macro_document_f1 == 0.0
        assert "MACRO" in report.to_table()
