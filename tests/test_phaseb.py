"""Does training help? The classifiers against the untrained scorers.

On the seeded corpus of :mod:`phaseb`, where 6 of a question's 16
candidate sentences hold a finding word whose vectors share one
direction, a trained pooled or nnc classifier must beat the constant and
cosine scorers by ``MARGIN`` mean SU4-F1 under 5-fold cross-validation.
The signal does not depend on the question. Sizes and training settings
are fixed here, not tuned to a result: learning rate 1e-2, batch 32, no
dropout; pooled runs 20 epochs with dense hidden 16, nnc 3 epochs with
LSTM hidden 8 and dense hidden 16.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import pytest
from click.testing import CliRunner

from qfs.cli import main
from qfs.corpus import load_question_set
from qfs.embeddings import DenseStore
from qfs.neural import KINDS, TrainConfig, train
from qfs.pipeline import ModelScorer, ModelSpec, cross_validate, generate_labels

from phaseb import write_corpus

MARGIN = 0.05
FOLDS = 5


@dataclass
class SmallSpec:
    """Fits a classifier as ``ModelSpec.fit`` does, with LSTM hidden 8 and
    dense hidden 16: neither ``ModelSpec`` nor the command line sets them."""

    name: str
    source: DenseStore
    config: TrainConfig

    def fit(self, questions, collection):
        result = train(self.name, generate_labels(questions, collection), self.source,
                       self.config, lstm_hidden=8, dense_hidden=16)
        return ModelScorer(result.params, self.source, self.config.clip_len)


def training(kind: str, epochs: int, seed: int) -> TrainConfig:
    return replace(KINDS[kind].train_defaults, epochs=epochs, batch_size=32, dropout_rate=0.0,
                   learning_rate=1e-2, seed=seed)


def cv(questions, spec, seed: int):
    return cross_validate(questions, None, spec, k=FOLDS, seed=seed)


def untrained(questions, seed: int) -> dict[str, float]:
    return {name: cv(questions, ModelSpec(name), seed).mean_f1
            for name in ("constant", "cosine", "oracle")}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pooled_classifier_beats_the_untrained_scorers(tmp_path, seed):
    files = write_corpus(tmp_path, seed)
    questions = load_question_set(files.questions)
    scores = untrained(questions, seed)
    source = KINDS["pooled"].load_source(files.cemb)
    pooled = cv(questions, SmallSpec("pooled", source, training("pooled", 20, seed)), seed)
    assert scores["oracle"] < 1.0, scores
    assert pooled.mean_f1 >= max(scores["constant"], scores["cosine"]) + MARGIN, \
        (pooled.mean_f1, scores)


def test_nnc_classifier_beats_the_untrained_scorers(tmp_path):
    files = write_corpus(tmp_path, 0)
    questions = load_question_set(files.questions)
    scores = untrained(questions, 0)
    source = KINDS["nnc"].load_source(files.vectors)
    nnc = cv(questions, SmallSpec("nnc", source, training("nnc", 3, 0)), 0)
    assert nnc.mean_f1 >= max(scores["constant"], scores["cosine"]) + MARGIN, (nnc.mean_f1, scores)


def test_pooled_cv_command_matches_cross_validate(tmp_path):
    files = write_corpus(tmp_path, 0)
    out = tmp_path / "cv.json"
    with CliRunner().isolation() as (_, stderr, _):
        code = main(["cv", "--questions", str(files.questions), "--model", "pooled",
                     "--embeddings", str(files.cemb), "--epochs", "20", "--lr", "0.01",
                     "--dropout", "0", "--k", str(FOLDS), "--out", str(out)])
        assert (code, stderr.getvalue()) == (0, b"")
    spec = ModelSpec("pooled", KINDS["pooled"].load_source(files.cemb), training("pooled", 20, 0))
    expected = cv(load_question_set(files.questions), spec, 0)
    assert json.loads(out.read_text(encoding="utf-8")) == expected.to_json()
