"""A seeded Phase-B corpus on which a sentence classifier can learn.

:func:`write_corpus` writes, through the package's writers, a questions
file, a word-vector text file and a CEMB file of pooled context rows:

* 30 ``summary`` questions. Question q names 3 topic words of its own, and
  its one gold document holds one section of 16 sentences, each sentence
  one gold snippet.
* A sentence is 2 of its question's 3 topic words and 5 of 300 filler
  words, shuffled. 6 sentences, at random places, also hold one of 12
  finding words; they are the answer.
* The ideal answer joins those 6 sentences in order, each with 2 of its
  filler words dropped and its word order kept, so the SU4 oracle stays
  below 1.
* Word vectors are 16-d: topic and filler words N(0, I/16), finding words
  3·d + 0.5·N(0, I) for one unit vector d that every question shares.
  The signal is the same for every question; no question asks for it.
* Each candidate has one CEMB record, keyed as ``generate_labels`` numbers
  pairs (:func:`qfs.pipeline.pair_id`). Its one masked row is the mean of
  the sentence's token vectors plus 0.3·N(0, I).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qfs.corpus import QuestionRecord, QuestionSet, SnippetSpan, save_question_set
from qfs.embeddings import ContextEmbeddingRecord, write_context_embeddings
from qfs.fileio import open_output
from qfs.pipeline import pair_id

QUESTIONS = 30
SENTENCES = 16
ANSWER_SENTENCES = 6
TOPIC_WORDS = 3
FILLER_WORDS = 300
FINDING_WORDS = 12
DIM = 16


@dataclass(frozen=True)
class CorpusFiles:
    questions: Path
    vectors: Path
    cemb: Path


def _sentence(words: list[str]) -> str:
    return " ".join(words).capitalize() + "."


def write_corpus(directory: Path, seed: int) -> CorpusFiles:
    """Write the corpus of ``seed`` into ``directory``; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    fillers = [f"f{i:03d}" for i in range(FILLER_WORDS)]
    findings = [f"k{i:02d}" for i in range(FINDING_WORDS)]
    direction = rng.normal(size=DIM)
    direction /= np.linalg.norm(direction)
    vectors = {word: rng.normal(scale=0.25, size=DIM) for word in fillers}
    vectors.update((word, 3 * direction + rng.normal(scale=0.5, size=DIM)) for word in findings)
    questions, records = [], []
    for q in range(QUESTIONS):
        qid, doc_id = f"q{q:02d}", f"d{q:02d}"
        topics = [f"t{q:02d}{j}" for j in range(TOPIC_WORDS)]
        vectors.update((word, rng.normal(scale=0.25, size=DIM)) for word in topics)
        answer_at = set(rng.choice(SENTENCES, ANSWER_SENTENCES, replace=False).tolist())
        snippets, answer, begin = [], [], 0
        for i in range(SENTENCES):
            words = [topics[j] for j in rng.choice(TOPIC_WORDS, 2, replace=False)]
            filler = [fillers[j] for j in rng.choice(FILLER_WORDS, 5, replace=False)]
            words += filler
            if i in answer_at:
                words.append(findings[rng.integers(FINDING_WORDS)])
            words = [words[j] for j in rng.permutation(len(words))]
            text = _sentence(words)
            snippets.append(SnippetSpan(doc_id, "abstract", begin, begin + len(text), text))
            begin += len(text) + 1  # the section joins its sentences by spaces
            if i in answer_at:
                dropped = {filler[j] for j in rng.choice(len(filler), 2, replace=False)}
                answer.append(_sentence([w for w in words if w not in dropped]))
            row = np.mean([vectors[w] for w in words], axis=0) + rng.normal(scale=0.3, size=DIM)
            records.append(ContextEmbeddingRecord(pair_id(qid, i), row[None, :], [True]))
        questions.append(QuestionRecord(qid, " ".join(topics) + "?", "summary", (doc_id,),
                                        tuple(snippets), (" ".join(answer),)))
    files = CorpusFiles(directory / "questions.json", directory / "vectors.txt",
                        directory / "phaseb.cemb")
    save_question_set(QuestionSet(questions), files.questions)
    with open_output(files.vectors) as fh:
        fh.write(f"{len(vectors)} {DIM}\n")
        for word, vector in vectors.items():
            fh.write(" ".join([word, *map(repr, vector.tolist())]) + "\n")
    write_context_embeddings(files.cemb, records)
    return files
