"""Metric unit tests, anchored to a brute-force skip-bigram oracle."""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain, count
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qfs import metrics, pipeline
from qfs.corpus import SnippetSpan, load_question_set
from qfs.errors import EmptyInput, MalformedInput, MissingInput
from qfs.metrics import (
    RougeScore,
    best_reference_f1,
    document_f1,
    evaluate_run,
    grouped_su4_scores,
    rouge_su4_f1,
    snippet_f1,
    su4_scores,
)
from qfs.pipeline import (
    DEFAULT_ANSWER_LENGTHS,
    SCORERS,
    ModelSpec,
    OracleScorer,
    candidate_sentences,
    cross_validate,
    generate_labels,
    load_labels,
    save_labels,
)
from qfs.textproc import split_words, token_surfaces

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


def reference_su4_scores(candidates, references):
    """``su4_scores`` as it was with keys ``key * texts + text``, kept as the
    reference the array kernel must equal bit for bit. It takes texts and
    tokenizes each with ``token_surfaces``."""
    gaps, pad = np.arange(1, 6), np.zeros(5, np.int64)
    texts = [token_surfaces(text) for text in [*candidates, *references]]
    n_c, n_r, n_t = len(candidates), len(references), len(texts)
    tokens = list(chain.from_iterable(texts))
    vocab = dict(zip(dict.fromkeys(tokens), count()))
    v = len(vocab)
    if v * (v + 1) * n_t > 2**63:
        raise ValueError(f"{v} distinct tokens in {n_t} texts overflow the SU4 unit keys")
    ids = np.fromiter(map(vocab.__getitem__, tokens), np.int64, len(tokens))
    lengths = np.fromiter(map(len, texts), np.int64, n_t)
    owner = np.repeat(np.arange(n_t), lengths)
    # Token i pairs with tokens i + 1 .. i + 5 that end before its text does.
    later = np.arange(len(ids))[:, None] + gaps
    same = later < np.repeat(np.cumsum(lengths), lengths)[:, None]
    pairs = (v + ids[:, None] * v + np.append(ids, pad)[later]) * n_t + owner[:, None]
    units = np.concatenate([ids * n_t + owner, pairs[same]])
    units.sort()
    edge = np.ones(len(units) + 1, bool)  # run boundaries of equal (unit, text)
    np.not_equal(units[1:], units[:-1], out=edge[1:-1])
    edges = np.flatnonzero(edge)
    counts, units = edges[1:] - edges[:-1], units[edges[:-1]]
    key, text = np.divmod(units, n_t)
    total = np.bincount(text, counts, n_t)

    # Where each candidate unit would sit in each reference, and its count there.
    cand = text < n_c
    cand_text, cand_count, refs = text[cand], counts[cand], np.arange(n_r)
    wanted = (key[cand] * n_t + n_c)[:, None] + refs
    at = np.minimum(np.searchsorted(units, wanted), len(units) - 1)
    clipped = np.minimum(cand_count[:, None], np.where(units[at] == wanted, counts[at], 0))
    pair = (cand_text[:, None] * n_r + refs).ravel()
    matches = np.bincount(pair, clipped.ravel(), n_c * n_r).reshape(n_c, n_r)

    # No units or no match scores 0.0: divide by 1 there, never by zero.
    precision = matches / np.maximum(total[:n_c, None], 1)
    recall = matches / np.maximum(total[n_c:], 1)
    f1 = 2.0 * precision * recall / np.where(matches > 0, precision + recall, 1.0)
    return precision, recall, f1


def counter_units(tokens) -> tuple[Counter, int]:
    """A text's SU4 unit multiset, built by ``Counter``, and its size."""
    found = Counter(zip(tokens))
    for gap in range(1, 6):
        found.update(zip(tokens, tokens[gap:]))
    return found, found.total()


def counter_f1(cand, ref) -> float:
    """SU4 F1 of two :func:`counter_units` results, clipped by a loop over units."""
    (c_units, c_total), (r_units, r_total) = cand, ref
    if c_total == 0 or r_total == 0:
        return 0.0
    matches = sum(min(n, r_units[u]) for u, n in c_units.items() if u in r_units)
    return RougeScore.from_pr(matches / c_total, matches / r_total).f1


def counter_best_f1s(question, texts) -> list[float]:
    """Each text's best :func:`counter_f1` over the question's ideal answers."""
    refs = [counter_units(token_surfaces(a)) for a in question.ideal_answers]
    return [max(counter_f1(counter_units(token_surfaces(t)), r) for r in refs) for t in texts]


def counter_labels(questions) -> list[int]:
    """The Counter-based labeller the array core replaced: the test oracle.

    Each candidate's unit multiset is built once and clipped against each
    reference's by a loop over its units; the top 5 by best-reference F1
    (earlier occurrence first on ties) are labelled 1.
    """
    labels = []
    for question in questions:
        f1s = counter_best_f1s(question, [c.text for c in candidate_sentences(question)])
        top = set(sorted(range(len(f1s)), key=lambda i: (-f1s[i], i))[:5])
        labels.extend(1 if i in top else 0 for i in range(len(f1s)))
    return labels


def counter_cv_f1s(questions) -> dict[str, float]:
    """Per question, what oracle cross-validation scores, from the Counter helpers:
    the top-n candidates by best-reference F1 (n by question type, earlier
    first on ties), joined in occurrence order, scored against the best reference."""
    out = {}
    for question in questions:
        texts = [c.text for c in candidate_sentences(question)]
        f1s = counter_best_f1s(question, texts)
        n = DEFAULT_ANSWER_LENGTHS[question.qtype]
        top = sorted(sorted(range(len(f1s)), key=lambda i: (-f1s[i], i))[:n])
        out[question.id] = counter_best_f1s(question, [" ".join(texts[i] for i in top)])[0]
    return out


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
        precision, recall, f1 = su4_scores(["a", "b"], ["a b"])
        assert precision.tolist() == [[1.0], [1.0]]
        assert recall.tolist() == [[1 / 3], [1 / 3]]


class TestSu4Scores:
    @given(
        st.lists(SU4_TEXTS, max_size=5),
        st.lists(SU4_TEXTS, max_size=4),
    )
    def test_every_pair_equals_the_oracle(self, candidates, references):
        precision, recall, f1 = su4_scores(candidates, references)
        assert f1.shape == (len(candidates), len(references))
        for i, cand in enumerate(candidates):
            for j, ref in enumerate(references):
                got = (precision[i, j], recall[i, j], f1[i, j])
                assert got == tuple(vars(oracle_su4(cand, ref)).values())

    def test_empty_inputs(self):
        assert [a.shape for a in su4_scores([], [])] == [(0, 0)] * 3
        assert [a.shape for a in su4_scores([], ["a"])] == [(0, 1)] * 3
        assert [a.shape for a in su4_scores(["a"], [])] == [(1, 0)] * 3
        assert [a.tolist() for a in su4_scores([""], ["--", "a"])] == [[[0.0, 0.0]]] * 3

    def test_key_span_is_checked(self, monkeypatch):
        # Keys stay below v * (v + 1) and pack above the bits of the largest
        # text number: 2 distinct tokens in 2 texts (1 bit) span 6 << 1 = 12
        # values, in 3 texts (2 bits) 6 << 2 = 24. A span of that many values
        # holds the keys, one value less does not.
        for candidates, span in ((["a"], 12), (["a", "a"], 24)):
            monkeypatch.setattr(metrics, "_INT64_SPAN", span)
            assert su4_scores(candidates, ["b"])[2].tolist() == [[0.0]] * len(candidates)
            monkeypatch.setattr(metrics, "_INT64_SPAN", span - 1)
            with pytest.raises(ValueError, match="overflow"):
                su4_scores(candidates, ["b"])


# Words that take each route of the one-pass numbering: ASCII and not, of 7
# bytes ("abcdefg", "straße"), of 8 ("abcdefgh", "straßen", and "STRAẞEN",
# which lowercases to it), of 9 ("abcdefghi", "größere", and "proteinä",
# whose "ä" holds the 8th and 9th bytes), longer, with lowercase that changes
# length ("İ") or form ("ΣΑΣ"), and a combining mark that ends a token.
NUMBERED_WORDS = ["a", "B", "x1", "--", "abcdefg", "straße", "abcdefgh", "straßen", "STRAẞEN",
                  "abcdefghi", "ABCDEFGHI", "größere", "proteinä", "Proteinämie", "İ", "ΣΑΣ",
                  "cafe\u0301"]
numbered_texts = st.lists(
    st.lists(st.sampled_from(NUMBERED_WORDS), max_size=8).map(" ".join) | st.text(max_size=12),
    max_size=8,
)


def unique_token_ids(texts: list[str]) -> tuple[np.ndarray, int]:
    """The token ids and V as ``np.unique`` gave them before the kernel ranked
    its keys by argsort: the inverse over the ``split_words`` keys of the
    texts' tokens, and the number of distinct keys."""
    words = " ".join(" ".join(token_surfaces(text)) for text in texts).encode()
    keys = split_words(words, defaultdict(count().__next__))[1]
    unique, inverse = np.unique(keys, return_inverse=True)
    return inverse, len(unique)


class TestTokenIds:
    @settings(max_examples=300, deadline=None)
    @given(numbered_texts)
    @example([])
    @example(["", "--", " "])
    @example(["abcdefg abcdefgh abcdefghi", "proteinä Proteinä straße straßen STRAẞEN", "",
              "größere"])
    def test_one_pass_numbering_equals_token_surfaces(self, texts):
        text, ids, v = metrics._token_ids(texts)
        tokens = [token_surfaces(t) for t in texts]
        surfaces = list(chain.from_iterable(tokens))
        n = len(surfaces)
        assert text.tolist() == [i for i, t in enumerate(tokens) for _ in t] + [len(texts)] * 5
        assert ids[n:].tolist() == [0] * 5
        # Two tokens share an id exactly when their surfaces are equal, and
        # the ids are 0..v-1: each surface has one id and each id one surface.
        pairs = set(zip(surfaces, ids[:n].tolist()))
        assert len(pairs) == len(set(surfaces)) == v
        assert {i for _, i in pairs} == set(range(v))

    @settings(max_examples=300, deadline=None)
    @given(numbered_texts)
    @example([])
    @example(["", "--", " "])
    @example(["abcdefg abcdefgh abcdefghi", "proteinä Proteinä straße straßen STRAẞEN", "",
              "größere"])
    def test_ids_are_the_inverse_of_np_unique(self, texts):
        _, ids, v = metrics._token_ids(texts)
        inverse, distinct = unique_token_ids(texts)
        assert ids[: len(inverse)].tolist() == inverse.tolist()
        assert v == distinct


# Texts over a small vocabulary, so units repeat within and across texts:
# ASCII and not, words of 8 and of 9 UTF-8 bytes ("straßen", "größere"), and
# nothing to tokenize ("--"). The text number's bit width changes after 1,
# 2, 4, 8 and 16 texts, so the counts fall on both sides of each.
su4_texts = st.lists(
    st.sampled_from(["a", "b", "c", "a1", "ß", "İ", "--", "straßen", "größere", "vaccination"]),
    max_size=12,
).map(" ".join)


@st.composite
def su4_inputs(draw):
    n_t = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17]))
    n_c = draw(st.integers(0, n_t))
    texts = draw(st.lists(su4_texts, min_size=n_t, max_size=n_t))
    return texts[:n_c], texts[n_c:]


class TestSu4KernelMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(su4_inputs())
    @example(([], ["a b"]))  # no candidates
    @example((["", "a"], ["--", "a a"]))  # texts without tokens
    @example((["a " * 9, "a b " * 4], ["a a b " * 3]))  # repeated units
    @example((["a"] * 3, ["a a"]))  # 3 texts, then 4
    @example((["a"] * 3, ["a a", "b"]))
    @example((["b a"] * 7, ["a"]))  # 8 texts, then 9
    @example((["b a"] * 7, ["a", "b"]))
    @example((["a b c"] * 15, ["c a"]))  # 16 texts, then 17
    @example((["a b c"] * 15, ["c a", "a"]))
    @example((["Straßen größere a", "straßen"], ["STRAẞEN a", "vaccination größere"]))
    def test_scores_equal_the_reference(self, texts):
        candidates, references = texts
        for got, want in zip(su4_scores(candidates, references),
                             reference_su4_scores(candidates, references)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert (got == want).all()


# Questions for one grouped call: 0..4 candidates and 1..4 references each, so
# that reference counts differ between questions, and texts may be empty.
su4_questions = st.lists(
    st.tuples(st.lists(su4_texts, max_size=4), st.lists(su4_texts, min_size=1, max_size=4)),
    max_size=6,
)


class TestGroupedSu4Scores:
    # A question counts 1, plus 1 per text, plus its characters: with these
    # chunk sizes a chunk holds one question, a few, or the whole draw.
    @settings(max_examples=300, deadline=None)
    @given(su4_questions, st.sampled_from([1, 40, 160, 1 << 14]))
    @example([(["a b"], ["a"]),  # the second question outgrows a chunk
              (["a b c " * 10, ""], ["c a", "b", ""]),
              ([], ["a"])], 24)
    def test_each_question_equals_the_reference(self, questions, chunk_size):
        with mock.patch.object(metrics, "_CHUNK_SIZE", chunk_size):
            got = grouped_su4_scores(questions)
        assert len(got) == len(questions)
        for scores, (candidates, references) in zip(got, questions):
            for a, want in zip(scores, reference_su4_scores(candidates, references)):
                assert a.shape == want.shape and a.dtype == want.dtype
                assert (a == want).all()


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

    @given(
        st.lists(REPEATING_TEXTS, min_size=1, max_size=6),
        st.lists(REPEATING_TEXTS, min_size=1, max_size=3),
    )
    def test_prepared_strings_and_oracle_agree_exactly(self, candidates, references):
        oracle = [max(oracle_su4_f1(c, ref) for ref in references) for c in candidates]
        assert [best_reference_f1(c, references) for c in candidates] == oracle

    def test_a_question_without_ideal_answers_is_missing_input(self):
        questions = [make_question("q1", ideal_answers=("a b",)), make_question("q2")]
        with pytest.raises(MissingInput, match="^question 'q2' has no ideal answers$"):
            pipeline.best_reference_f1(questions, ["a b", "a"])


def labelled_question(i: int, candidates: list[str], references: list[str],
                      qtype: str = "summary"):
    """A question whose gold snippets are single candidate sentences."""
    snippets = tuple(SnippetSpan("d", "abstract", 0, len(c), c) for c in candidates)
    return make_question(f"q{i}", qtype=qtype, gold_snippets=snippets,
                         ideal_answers=tuple(references))


# (candidates, references) of 1 to 4 questions to label.
label_specs = st.lists(
    st.tuples(
        st.lists(REPEATING_TEXTS.map(lambda t: f"Z {t}."), min_size=1, max_size=9),
        st.lists(SU4_TEXTS, min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


class TestLabelsMatchCounterOracle:
    def test_golden_questions(self):
        questions = load_question_set(GOLDEN / "questions.json")
        assert [ex.label for ex in generate_labels(questions)] == counter_labels(questions)

    @given(label_specs)
    def test_question_sets(self, specs):
        questions = [labelled_question(i, c, r) for i, (c, r) in enumerate(specs)]
        assert [ex.label for ex in generate_labels(questions)] == counter_labels(questions)

    @given(label_specs, st.sampled_from([1, 40, 1 << 15]))
    def test_one_question_at_a_time_labels_as_the_set(self, specs, chunk_size):
        # The benchmark labels one question per call, `qfs label` the whole set.
        questions = [labelled_question(i, c, r) for i, (c, r) in enumerate(specs)]
        with mock.patch.object(metrics, "_CHUNK_SIZE", chunk_size):
            together = generate_labels(questions)
        assert [ex for q in questions for ex in generate_labels([q])] == together


class TestCrossValidateMatchesCounterOracle:
    """Oracle cross-validation's per-question F1s, against the Counter helpers."""

    def test_golden_questions(self):
        questions = load_question_set(GOLDEN / "questions.json")
        result = cross_validate(questions, None, ModelSpec("oracle"), k=2)
        assert result.per_question == counter_cv_f1s(questions)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(REPEATING_TEXTS.map(lambda t: f"Z {t}."), min_size=1, max_size=9),
                st.lists(SU4_TEXTS, min_size=1, max_size=3),
                st.sampled_from(sorted(DEFAULT_ANSWER_LENGTHS)),
            ),
            min_size=2,
            max_size=5,
        )
    )
    def test_question_sets(self, specs):
        questions = [labelled_question(i, *spec) for i, spec in enumerate(specs)]
        result = cross_validate(questions, None, ModelSpec("oracle"), k=2)
        assert result.per_question == counter_cv_f1s(questions)


# Questions to score as one batch: a body, candidates (some with no token) and
# ideal answers, none for some questions.
scored_questions = st.lists(
    st.tuples(REPEATING_TEXTS, st.lists(REPEATING_TEXTS | SU4_TEXTS, max_size=6),
              st.lists(SU4_TEXTS, max_size=2)),
    max_size=5,
)


class TestScoreQuestions:
    def test_oracle_scores_a_question_without_ideal_answers_zero(self):
        texts = [["flu shot", "a1 flu"], ["flu shot works", "--", "shot"], ["Flu a1"]]
        answers = [("flu shot a1",), (), ("a1 flu", "shot")]
        questions = [make_question(f"q{i}", ideal_answers=a) for i, a in enumerate(answers)]
        got = OracleScorer().score_questions(questions, texts, [range(len(t)) for t in texts])
        assert got[1] == [0.0, 0.0, 0.0]
        for i in (0, 2):
            assert got[i] == [max(oracle_su4_f1(t, a) for a in answers[i]) for t in texts[i]]
            assert all(got[i])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["constant", "cosine", "oracle"]), scored_questions,
           st.sampled_from([1, 40, 1 << 12]))
    def test_a_batch_scores_as_its_questions_alone(self, name, specs, chunk_size):
        questions = [make_question(f"q{i}", body=body, ideal_answers=tuple(answers))
                     for i, (body, _, answers) in enumerate(specs)]
        texts = [candidates for _, candidates, _ in specs]
        positions = [range(len(t)) for t in texts]
        scorer = SCORERS[name]()
        with mock.patch.object(metrics, "_CHUNK_SIZE", chunk_size):
            batch = scorer.score_questions(questions, texts, positions)
        assert batch == [scorer.score_questions([q], [t], [p])[0]
                         for q, t, p in zip(questions, texts, positions)]


class TestLabelsJsonl:
    def test_round_trip(self, tmp_path):
        # Line and paragraph separators, a carriage return and case folds
        # that change length (İ lowercases to two characters, ß stays).
        body = "Does İNFLUENZA\x85spread\u2028in STRASSE or straße?\r"
        snippets = ["Flu\x85shots\u2028work\rwell in İzmir. Straße ß was\u2028fine.",
                    "İ\x85ß and SS.\r"]
        question = make_question(
            "q\u20281", body=body,
            gold_snippets=tuple(SnippetSpan("d", "s", 0, len(t), t) for t in snippets),
            ideal_answers=("flu shots work in straße", "İzmir\x85fine"),
        )
        examples = generate_labels([question, labelled_question(2, ["A b.", "C\rd."], ["a"])])
        texts = "".join(chain.from_iterable((ex.question_text, ex.sentence_text) for ex in examples))
        assert {"\x85", "\u2028", "\r", "İ", "ß"} <= set(texts)
        first, second = tmp_path / "labels.jsonl", tmp_path / "again.jsonl"
        save_labels(examples, first)
        loaded = load_labels(first)
        assert loaded == examples
        save_labels(loaded, second)
        assert second.read_bytes() == first.read_bytes()


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
