"""Seeded synthetic corpora for the qfs benchmark.

``python3 bench/gen.py --workload NAME --seed N --out DIR [--size tiny]``
writes one workload's inputs into DIR through the package's own
writers. The same seed and size give byte-identical files.

Text is built from a Zipf vocabulary of made-up words (consonant-vowel
syllables, so no word is an abbreviation that would block a sentence
break). Each document belongs to one topic; a topic owns a few rare
words that some of its sentences carry. A question names its topic's
words plus a few very frequent words, so BM25 finds its gold documents
and walks long posting lists on the way. Gold snippets are whole
sentences (or pairs of sentences) of gold documents, and their offsets
are checked against the section text before anything is written.

Besides the program's inputs the generator writes ``reference.json``,
which only the benchmark reads: per-question work counts (sum of df
over the unique query terms, number of documents matching any term);
for the first few questions, a BM25 top-k computed here from the
documented formula, as an oracle the program's ranking must match; and
the query vectors, so a replay can call ``nir_search`` without reaching
into the program's vector store.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from qfs.corpus import (  # noqa: E402
    DocumentCollection,
    DocumentRecord,
    QuestionRecord,
    QuestionSet,
    SnippetSpan,
    save_document_collection,
    save_question_set,
)
from qfs.retrieval import DEFAULT_B, DEFAULT_K1, DenseStore, save_dense_store  # noqa: E402
from qfs.textproc import ABBREVIATIONS, split_sentences  # noqa: E402

QUESTION_TYPES = ("summary", "factoid", "yesno", "list")
REFERENCE_QUESTIONS = 5
REFERENCE_K = 15


@dataclass(frozen=True)
class Shape:
    """Workload sizes: these define the workload, not the run length."""

    n_docs: int
    n_questions: int
    n_topics: int
    sections: int  # body sections after the title
    sentences: int  # mean sentences per body section
    vocab: int = 30000
    gold_docs: int = 5
    gold_snippets: int = 10
    pair_snippets: bool = False  # some gold snippets span two sentences
    feedback: bool = False
    dense_dim: int = 0


SHAPES: dict[str, dict[str, Shape]] = {
    "full": {
        "abstracts-bm25": Shape(20000, 240, 2000, sections=1, sentences=8),
        "fulltext-nir-feedback": Shape(
            2000, 200, 300, sections=4, sentences=20, feedback=True, dense_dim=64
        ),
        "labels-cv": Shape(
            1000, 500, 500, sections=1, sentences=10, gold_docs=2, pair_snippets=True
        ),
    },
    "tiny": {
        "abstracts-bm25": Shape(300, 12, 40, sections=1, sentences=8, vocab=3000),
        "fulltext-nir-feedback": Shape(
            80, 12, 14, sections=4, sentences=20, vocab=3000, feedback=True, dense_dim=64
        ),
        "labels-cv": Shape(
            40, 20, 20, sections=1, sentences=10, vocab=3000, gold_docs=2,
            pair_snippets=True,
        ),
    },
}

_SYLLABLES = [c + v for c in "bcdfghklmnprstvz" for v in "aeiou"]


def make_words(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct made-up words of 2-4 syllables, first draw wins."""
    words: dict[str, None] = {}
    while len(words) < count:
        n_syl = rng.integers(2, 5, 2 * count)
        syl = rng.integers(0, len(_SYLLABLES), (2 * count, 4))
        for k, row in zip(n_syl.tolist(), syl.tolist()):
            word = "".join(_SYLLABLES[i] for i in row[:k])
            if word not in ABBREVIATIONS:
                words.setdefault(word)
    return list(words)[:count]


class Generator:
    """Builds one workload's documents, questions, feedback and vectors.

    Words are ids into ``self.words``: the Zipf vocabulary in rank order,
    then four words per topic (topic t owns ids V + 4t .. V + 4t + 3).
    """

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.rng = np.random.default_rng(seed)
        self.words = make_words(self.rng, shape.vocab + 4 * shape.n_topics)
        ranks = np.arange(1, shape.vocab + 1, dtype=np.float64)
        weights = ranks**-1.07
        self.cdf = np.cumsum(weights / weights.sum())

    def topic_words(self, topic: int) -> list[str]:
        base = self.shape.vocab + 4 * topic
        return self.words[base:base + 4]

    def documents(self) -> tuple[list[DocumentRecord], list[int], list[np.ndarray]]:
        """All documents at once: a title sentence plus body sections.

        Sentences are Zipf words; about half carry 1-2 of their topic's
        words. Returns the records, each one's topic and its word ids.
        """
        shape, rng = self.shape, self.rng
        n_docs = shape.n_docs
        # Every topic gets at least gold_docs documents; the rest are random.
        topics = np.concatenate((
            np.repeat(np.arange(shape.n_topics), shape.gold_docs),
            rng.integers(0, shape.n_topics, n_docs - shape.n_topics * shape.gold_docs),
        ))
        topics = rng.permutation(topics)
        per_section = np.ones((n_docs, 1 + shape.sections), dtype=np.int64)
        per_section[:, 1:] = np.maximum(
            2, shape.sentences + rng.integers(-2, 3, (n_docs, shape.sections))
        )
        n_sents = int(per_section.sum())
        sent_topic = np.repeat(topics, per_section.sum(axis=1))
        lengths = 8 + rng.poisson(7, n_sents)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        ids = np.minimum(
            np.searchsorted(self.cdf, rng.random(int(lengths.sum()))), shape.vocab - 1
        )
        carry = rng.random(n_sents) < 0.5
        n_named = rng.integers(1, 3, n_sents)
        slots = (rng.random((n_sents, 2)) * lengths[:, None]).astype(np.int64)
        named = shape.vocab + 4 * sent_topic[:, None] + rng.integers(0, 4, (n_sents, 2))
        for k in range(2):
            sel = carry & (n_named > k)
            ids[starts[sel] + slots[sel, k]] = named[sel, k]

        words = [self.words[i] for i in ids.tolist()]
        sentences = [
            words[a].capitalize() + " " + " ".join(words[a + 1:a + n]) + "."
            for a, n in zip(starts.tolist(), lengths.tolist())
        ]
        names = ["title"] + (
            ["abstract"] if shape.sections == 1 else [f"s{s + 1}" for s in range(shape.sections)]
        )
        docs, cursor = [], 0
        for i, counts in enumerate(per_section.tolist()):
            sections = []
            for name, count in zip(names, counts):
                sections.append((name, " ".join(sentences[cursor:cursor + count])))
                cursor += count
            docs.append(DocumentRecord(f"D{i:06d}", tuple(sections)))
        sent_cuts = np.cumsum(per_section.sum(axis=1))[:-1]
        token_cuts = np.concatenate((starts, [len(ids)]))[sent_cuts]
        return docs, [int(t) for t in topics], np.split(ids, token_cuts)

    def snippets_of(self, doc: DocumentRecord, topic_words: set[str]) -> list[SnippetSpan]:
        """Candidate gold snippets: sentences (or pairs) naming the topic."""
        out = []
        for sid, text in doc.sections:
            sents = split_sentences(text)
            for i, sent in enumerate(sents):
                if not topic_words & set(sent.text.lower().rstrip(".").split()):
                    continue
                end = sent.end
                if self.shape.pair_snippets and i + 1 < len(sents) and self.rng.random() < 0.3:
                    end = sents[i + 1].end
                out.append(SnippetSpan(doc.id, sid, sent.begin, end, text[sent.begin:end]))
        return out

    def questions(
        self, docs: list[DocumentRecord], topics: list[int]
    ) -> tuple[list[QuestionRecord], list[int]]:
        shape = self.shape
        by_topic: dict[int, list[int]] = {}
        for i, t in enumerate(topics):
            by_topic.setdefault(t, []).append(i)
        chosen = self.rng.choice(shape.n_topics, size=shape.n_questions, replace=False)
        questions, q_topics = [], []
        for qi, topic in enumerate(int(t) for t in chosen):
            members = by_topic[topic]
            gold = sorted(
                int(members[j])
                for j in self.rng.choice(len(members), shape.gold_docs, replace=False)
            )
            own = set(self.topic_words(topic))
            pool = [s for d in gold for s in self.snippets_of(docs[d], own)]
            picks = sorted(
                self.rng.choice(len(pool), min(shape.gold_snippets, len(pool)), replace=False)
            )
            snippets = tuple(pool[int(j)] for j in picks)
            ideal = []
            for _ in range(2):
                k = min(3, len(snippets))
                parts = sorted(self.rng.choice(len(snippets), k, replace=False))
                ideal.append(" ".join(snippets[int(j)].text for j in parts))
            head = [self.words[int(i)] for i in self.rng.choice(50, 5, replace=False)]
            named = list(self.rng.permutation(self.topic_words(topic)))[:3]
            words = head[:2] + named[:2] + head[2:] + named[2:]
            body = words[0].capitalize() + " " + " ".join(words[1:]) + "?"
            questions.append(
                QuestionRecord(
                    id=f"Q{qi:05d}",
                    body=body,
                    qtype=QUESTION_TYPES[qi % len(QUESTION_TYPES)],
                    gold_documents=tuple(docs[d].id for d in gold),
                    gold_snippets=snippets,
                    ideal_answers=tuple(ideal),
                )
            )
            q_topics.append(topic)
        return questions, q_topics

    def feedback(
        self, questions: list[QuestionRecord], q_topics: list[int],
        docs: list[DocumentRecord], topics: list[int],
    ) -> list[dict]:
        """Judge a gold doc, a same-topic non-gold doc and a gold snippet
        for every other question, as a second feedback round would."""
        by_topic: dict[int, list[str]] = {}
        for doc, t in zip(docs, topics):
            by_topic.setdefault(t, []).append(doc.id)
        entries = []
        for q, topic in zip(questions, q_topics):
            if self.rng.random() < 0.5:
                continue
            items = [{"kind": "document", "ref": q.gold_documents[0], "polarity": "relevant"}]
            others = [d for d in by_topic[topic] if d not in q.gold_documents]
            if others:
                items.append({"kind": "document", "ref": others[0], "polarity": "irrelevant"})
            judged = [s for s in q.gold_snippets if s.doc_id != q.gold_documents[0]]
            if judged:
                s = judged[0]
                ref = {
                    "document": s.doc_id,
                    "section": s.section_id,
                    "offsetInBeginSection": s.begin_char,
                    "offsetInEndSection": s.end_char,
                }
                items.append({"kind": "snippet", "ref": ref, "polarity": "relevant"})
            entries.append({"question_id": q.id, "items": items})
        return entries

    def vectors(
        self, q_topics: list[int], topics: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Unit float32 vectors: topic centre plus noise, docs then queries."""
        dim = self.shape.dense_dim
        centers = self.rng.standard_normal((self.shape.n_topics, dim))
        out = []
        for owners in (topics, q_topics):
            raw = centers[owners] + 0.8 * self.rng.standard_normal((len(owners), dim))
            out.append((raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32))
        return out[0], out[1]


def check_offsets(questions: list[QuestionRecord], collection: DocumentCollection) -> None:
    """Every gold snippet must be the exact slice of its section text."""
    for q in questions:
        for s in q.gold_snippets:
            text = collection[s.doc_id].section_text(s.section_id)
            if text is None or text[s.begin_char:s.end_char] != s.text:
                raise ValueError(f"gold snippet offsets of {q.id} do not match {s.doc_id}")


def reference(
    questions: list[QuestionRecord],
    doc_names: list[str],
    doc_words: list[np.ndarray],
    words: list[str],
) -> dict:
    """Per-question BM25 work counts and an oracle top-k for a few questions.

    Scores follow the formula in ``qfs.retrieval``: idf = ln(1 + (N - df
    + 0.5) / (df + 0.5)), summed once per unique query term, with the
    default k1 and b, ordered by (-score, doc id).
    """
    word_index = {w: i for i, w in enumerate(words)}
    query_terms = [
        list(dict.fromkeys(word_index[w.lower()] for w in q.body.rstrip("?").split()))
        for q in questions
    ]
    n, n_words = len(doc_words), len(words)
    doc_len = np.array([len(ids) for ids in doc_words], dtype=np.int64)
    flat = np.concatenate(doc_words)
    owner = np.repeat(np.arange(n), doc_len)
    keep = np.isin(flat, sorted({t for terms in query_terms for t in terms}))
    pairs, tfs = np.unique(owner[keep] * n_words + flat[keep], return_counts=True)
    order = np.argsort(pairs % n_words, kind="stable")
    terms, docs, tfs = pairs[order] % n_words, pairs[order] // n_words, tfs[order]
    cuts = np.flatnonzero(np.diff(terms)) + 1
    postings = {
        int(t[0]): (d, f.astype(np.float64))
        for t, d, f in zip(np.split(terms, cuts), np.split(docs, cuts), np.split(tfs, cuts))
    }
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0))
    avgdl = int(doc_len.sum()) / n
    per_question, top = [], {}
    for qi, (q, terms) in enumerate(zip(questions, query_terms)):
        matched = np.zeros(n, dtype=bool)
        for t in terms:
            matched[postings.get(t, empty)[0]] = True
        touched = sum(len(postings.get(t, empty)[0]) for t in terms)
        per_question.append({"postings": touched, "matched": int(matched.sum())})
        if qi >= REFERENCE_QUESTIONS:
            continue
        scores = np.zeros(n)
        for t in terms:
            idx, tf = postings.get(t, empty)
            if not len(idx):
                continue
            df = len(idx)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = DEFAULT_K1 * (1.0 - DEFAULT_B + DEFAULT_B * doc_len[idx] / avgdl)
            scores[idx] += idf * tf * (DEFAULT_K1 + 1.0) / (tf + norm)
        ranked = sorted(np.flatnonzero(matched), key=lambda d: (-scores[d], doc_names[d]))
        top[q.id] = [[doc_names[d], float(scores[d])] for d in ranked[:REFERENCE_K]]
    return {"per_question": per_question, "bm25_top": top}


def generate(workload: str, seed: int, out: str | Path, size: str = "full") -> dict:
    """Write one workload's input files into ``out``; returns their paths."""
    shape = SHAPES[size][workload]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    gen = Generator(shape, seed)
    docs, topics, doc_words = gen.documents()
    collection = DocumentCollection(docs)
    questions, q_topics = gen.questions(docs, topics)
    check_offsets(questions, collection)
    paths = {"docs": out / "docs.jsonl", "questions": out / "questions.json"}
    save_document_collection(collection, paths["docs"])
    save_question_set(QuestionSet(questions), paths["questions"])
    if shape.feedback:
        paths["feedback"] = out / "feedback.json"
        entries = gen.feedback(questions, q_topics, docs, topics)
        with open(paths["feedback"], "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
    ref = reference(questions, [d.id for d in docs], doc_words, gen.words)
    if shape.dense_dim:
        doc_vecs, q_vecs = gen.vectors(q_topics, topics)
        paths["dense"] = out / "docs.dvec"
        paths["query_vectors"] = out / "queries.dvec"
        save_dense_store(
            DenseStore.from_vectors({d.id: v for d, v in zip(docs, doc_vecs)}), paths["dense"]
        )
        save_dense_store(
            DenseStore.from_vectors({q.id: v for q, v in zip(questions, q_vecs)}),
            paths["query_vectors"],
        )
        ref["query_vectors"] = {q.id: v.tolist() for q, v in zip(questions, q_vecs)}
    paths["reference"] = out / "reference.json"
    with open(paths["reference"], "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    return {k: str(v) for k, v in paths.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(SHAPES))
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.workload, args.seed, args.out, args.size)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
