"""Command-line entry points for every pipeline stage.

The commands compose the stages of :mod:`qfs.pipeline`. ``retrieve``
writes ``pipeline.retrieve``; ``snippets`` writes the snippets of
``pipeline.answer_question`` without scoring an answer, so ``snippets``
and ``answer`` report the same snippets for the same config. These
three share one runner: the same options, one loop over the questions,
one after another in one thread, and one failure policy: a question
whose step raises a data error is logged as ``skipping question <id>:
<message>`` and left out of the output.

``answer`` scores with the scorer ``model.kind`` names (``pipeline.SCORERS``);
``snippets`` makes it only for the ``model`` strategy, so ``retrieve`` and
cosine ``snippets`` open no model file. Only a classifier kind reads files.

Exit codes:

* 0: success;
* 1: partial failure (``retrieve``, ``snippets`` or ``answer`` skipped
  some questions);
* 2: data error: a missing, unreadable or malformed input file or
  config, or an ``--out`` file that cannot be created (checked before
  any work), reported as one ``error: ...`` line on stderr;
* 64: usage error.

Set QFS_LOG to a logging level name to control verbosity. All
randomness is controlled by --seed flags, so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import reduce

import click

from . import corpus, pipeline, retrieval, textproc
from .config import ModelConfig, PipelineConfig, emit_config, load_config
from .errors import DimensionMismatch, EmptyInput, QfsError
from .fileio import check_output, write_json
from .metrics import evaluate_run
from .neural import KINDS, TrainConfig, load_params, save_params, train

logger = logging.getLogger("qfs")


def _configure_logging() -> None:
    level_name = os.environ.get("QFS_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _writable(ctx, param, path):
    """The ``--out`` callback: a path that cannot be written fails before any work."""
    return path and check_output(path)


@contextmanager
def _naming(path, subject="question "):
    """A data error about one ``subject`` (``question 'q1' ...``, by default)
    also names the file it came from."""
    try:
        yield
    except QfsError as exc:
        if str(exc).startswith(subject):
            raise type(exc)(f"{path}: {exc}") from exc
        raise


@click.group()
def cli() -> None:
    """Query-focused extractive summarisation pipeline."""


@cli.command("index")
@click.option("--docs", "docs_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--stopwords", "stopwords_path", type=click.Path(), default=None)
def cmd_index(docs_path, out_path, stopwords_path) -> int:
    """Build and persist an inverted index from a JSONL collection."""
    collection = corpus.load_document_collection(docs_path)
    stopwords = textproc.load_stopwords(stopwords_path) if stopwords_path else None
    index = retrieval.build_index(collection, stopwords)
    retrieval.save_index(index, out_path)
    click.echo(f"{index.n_docs} documents, {len(index.indptr) - 1} terms -> {out_path}")
    return 0


def _load_source(kind, path):
    """The store of vectors a ``kind`` model reads; a file with none is a data error."""
    source = kind.load_source(path)
    if not source:
        raise EmptyInput(f"{path}: holds no vectors")
    return source


def _load_scorer(model: ModelConfig) -> pipeline.SentenceScorer:
    """The scorer ``model.kind`` names; a classifier is read from its files."""
    if model.kind not in KINDS:
        return pipeline.SCORERS[model.kind]()
    if not model.params_path:
        raise QfsError("config.model.params_path is required to score sentences")
    if not model.embeddings_path:
        raise QfsError("config.model.embeddings_path is required to score sentences")
    params, clip_len = load_params(model.params_path, expected_kind=model.kind)
    kind = KINDS[model.kind]
    source = _load_source(kind, model.embeddings_path)
    model_dim = params.dims[kind.header[0]]
    if model_dim != source.dim:
        raise DimensionMismatch(
            f"{model.params_path} holds a {kind.name} model of {model_dim}-d inputs, "
            f"but {model.embeddings_path} holds {source.dim}-d vectors"
        )
    return pipeline.ModelScorer(params, source, clip_len)


def _build_resources(config: PipelineConfig, feedback_path: str | None) -> pipeline.Resources:
    """Load the data files a run needs, but no scorer."""
    if not config.resources.docs_path:
        raise QfsError("config.resources.docs_path is required")
    collection = corpus.load_document_collection(config.resources.docs_path)
    bm25 = {"k1": config.retrieval.bm25_k1, "b": config.retrieval.bm25_b}
    if config.resources.index_path:
        index = retrieval.load_index(config.resources.index_path, **bm25)
        retrieval.check_collection(index, collection, config.resources.index_path)
    else:
        index = retrieval.build_index(collection, **bm25)
    dense = query_vectors = None
    if config.retrieval.method in ("nir", "rerank"):
        if not config.resources.dense_path or not config.resources.query_vectors_path:
            raise QfsError(
                "nir/rerank retrieval needs resources.dense_path and "
                "resources.query_vectors_path"
            )
        dense = retrieval.load_dense_store(config.resources.dense_path)
        query_vectors = retrieval.load_dense_store(config.resources.query_vectors_path)
        if query_vectors.dim != dense.dim:
            raise DimensionMismatch(
                f"{config.resources.query_vectors_path} holds {query_vectors.dim}-d query "
                f"vectors, but {config.resources.dense_path} holds {dense.dim}-d document vectors"
            )
    feedback = (corpus.FeedbackStore.load(feedback_path) if feedback_path
                else corpus.FeedbackStore.empty())
    return pipeline.Resources(collection, index, dense=dense, query_vectors=query_vectors,
                              feedback=feedback)


def _options(*options):
    """One decorator for ``options``, listed as they would be stacked on a command."""
    return lambda command: reduce(lambda c, option: option(c), reversed(options), command)


def _per_question(name: str, summary: str, scored=lambda config: True):
    """Register ``step(question, config, resources)`` as the command ``name``,
    with the step's docstring as its help.

    The command loads the config, questions and resources once, and the
    scorer only when ``scored(config)``. It writes ``{"questions": [...]}``,
    one step result per question. A question whose step raises ``QfsError``
    is logged and left out, and the command exits 1.
    """
    def register(step):
        @cli.command(name, help=step.__doc__)
        @click.option("--config", "config_path", required=True, type=click.Path())
        @click.option("--questions", "questions_path", required=True, type=click.Path())
        @click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
        @click.option("--feedback", "feedback_path", type=click.Path(), default=None)
        def command(config_path, questions_path, out_path, feedback_path) -> int:
            config = load_config(config_path)
            questions = corpus.load_question_set(questions_path)
            resources = _build_resources(config, feedback_path)
            if scored(config):
                resources.scorer = _load_scorer(config.model)
            out = []
            for question in questions:
                try:
                    out.append(step(question, config, resources))
                except QfsError as exc:
                    logger.error("skipping question %s: %s", question.id, exc)
            write_json(out_path, {"questions": out})
            skipped = len(questions) - len(out)
            click.echo(summary.format(len(out)) + (f", skipped {skipped}" if skipped else "")
                       + f" -> {out_path}")
            return 1 if skipped else 0
        return step
    return register


@_per_question("retrieve", "ranked {} questions", scored=lambda config: False)
def _ranked(question, config, resources) -> dict:
    """Rank documents for every question and write the ranked lists."""
    ranked = pipeline.retrieve(question, config, resources)
    return {"id": question.id, "ranked": [{"document": d, "score": s} for d, s in ranked]}


@_per_question("snippets", "snippets for {} questions",
               scored=lambda config: config.snippets.strategy == "model")
def _snippets(question, config, resources) -> dict:
    """Retrieve documents, extract snippets, and write them per question."""
    spans = pipeline.answer_question(question, config, resources, answer=False).snippets
    return {"id": question.id, "snippets": [corpus.snippet_to_json(s) for s in spans]}


@_per_question("answer", "answered {} questions")
def _answer(question, config, resources) -> dict:
    """Answer every question and write a submission file."""
    return pipeline.answer_question(question, config, resources).to_json()


@cli.command("label")
@click.option("--questions", "questions_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--docs", "docs_path", type=click.Path(), default=None)
def cmd_label(questions_path, out_path, docs_path) -> int:
    """Generate binary training labels from gold snippets."""
    questions = corpus.load_question_set(questions_path)
    collection = corpus.load_document_collection(docs_path) if docs_path else None
    with _naming(questions_path):
        examples = pipeline.generate_labels(questions, collection)
    pipeline.save_labels(examples, out_path)
    positives = sum(ex.label for ex in examples)
    click.echo(f"{len(examples)} examples ({positives} positive) -> {out_path}")
    return 0


def _train_config(model_kind, epochs, batch_size, dropout, lr, seed, clip_len) -> TrainConfig:
    """Training settings from the flags; an unset flag takes the model's default.

    ``TrainConfig`` owns the valid ranges; a flag outside them is a usage error.
    """
    flags = {"epochs": epochs, "batch_size": batch_size, "dropout_rate": dropout,
             "clip_len": clip_len}
    try:
        return replace(KINDS[model_kind].train_defaults, learning_rate=lr, seed=seed,
                       **{name: value for name, value in flags.items() if value is not None})
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _model_source(model_kind, embeddings_path):
    """The word vectors (nnc) or context embeddings (pooled) a model trains on."""
    if not embeddings_path:
        raise click.UsageError(f"--embeddings is required for the {model_kind} model")
    return _load_source(KINDS[model_kind], embeddings_path)


# The training flags of train and cv.
_EMBEDDINGS = click.option(
    "--embeddings", "embeddings_path", type=click.Path(), default=None,
    help="Word-vector text file (nnc model) or CEMB file (pooled model).")
_TRAINING = _options(
    click.option("--epochs", type=int, default=None),
    click.option("--batch-size", type=int, default=None),
    click.option("--dropout", type=float, default=None),
    click.option("--lr", type=float, default=1e-3, show_default=True),
)
_SEED = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
_CLIP_LEN = click.option("--clip-len", type=int, default=None)


@cli.command("train")
@click.option("--labels", "labels_path", required=True, type=click.Path())
@click.option("--model", "model_kind", required=True, type=click.Choice(list(KINDS)))
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@_EMBEDDINGS
@_TRAINING
@_SEED
@_CLIP_LEN
def cmd_train(labels_path, model_kind, out_path, embeddings_path, **training) -> int:
    """Train a sentence classifier on a labels file."""
    config = _train_config(model_kind, **training)
    source = _model_source(model_kind, embeddings_path)
    examples = pipeline.load_labels(labels_path)
    with _naming(embeddings_path, "no context-embedding record "):
        result = train(model_kind, examples, source, config)
    save_params(result.params, out_path, config.clip_len)
    click.echo(
        f"trained {model_kind} for {config.epochs} epochs; "
        f"final loss {result.loss_history[-1]:.4f} -> {out_path}"
    )
    return 0


@cli.command("evaluate")
@click.option("--questions", "questions_path", required=True, type=click.Path())
@click.option("--submission", "submission_path", required=True, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None, callback=_writable)
def cmd_evaluate(questions_path, submission_path, out_path) -> int:
    """Score a submission against gold questions."""
    questions = corpus.load_question_set(questions_path)
    answers = pipeline.load_submission(submission_path)
    report = evaluate_run(questions, answers)
    click.echo(report.to_table())
    if out_path:
        write_json(out_path, report.to_json())
    return 0


@cli.command("cv")
@click.option("--questions", "questions_path", required=True, type=click.Path())
@click.option("--docs", "docs_path", type=click.Path(), default=None)
@click.option("--model", "model_kind", default="constant", show_default=True,
              type=click.Choice(list(pipeline.SCORERS)),
              help="Sentence scorer. A classifier kind trains on each fold, reading "
                   "--embeddings; the others need no training. oracle scores by SU4-F1 "
                   "against the ideal answers, so it is a ceiling for evaluation only.")
@_EMBEDDINGS
@click.option("--k", type=click.IntRange(min=2), default=10, show_default=True)
@_SEED
@_TRAINING
@_CLIP_LEN
@click.option("--out", "out_path", type=click.Path(), default=None, callback=_writable)
def cmd_cv(questions_path, docs_path, model_kind, embeddings_path, k, out_path, **training) -> int:
    """k-fold cross-validation reporting mean SU4-F1."""
    questions = corpus.load_question_set(questions_path)
    collection = corpus.load_document_collection(docs_path) if docs_path else None
    spec = pipeline.ModelSpec(model_kind)
    if model_kind in KINDS:
        spec.config = _train_config(model_kind, **training)
        spec.source = _model_source(model_kind, embeddings_path)
    with _naming(questions_path), _naming(embeddings_path, "no context-embedding record "):
        result = pipeline.cross_validate(questions, collection, spec, k=k, seed=training["seed"])
    for i, (size, f1) in enumerate(zip(result.fold_sizes, result.fold_mean_f1), 1):
        click.echo(f"fold {i:2d}: {size:5d} questions  mean SU4-F1 {f1:.4f}")
    click.echo(f"overall mean SU4-F1 {result.mean_f1:.4f}")
    if out_path:
        write_json(out_path, result.to_json(), sort_keys=True)
    return 0


@cli.group("config")
def cmd_config() -> None:
    """Inspect and validate pipeline configuration files."""


@cmd_config.command("validate")
@click.option("--config", "config_path", required=True, type=click.Path())
def cmd_config_validate(config_path) -> int:
    """Check a config file against the schema."""
    load_config(config_path)
    click.echo(f"{config_path}: valid")
    return 0


@cmd_config.command("emit")
@click.option("--config", "config_path", type=click.Path(), default=None)
def cmd_config_emit(config_path) -> int:
    """Print the normalized config (defaults when no file is given)."""
    config = load_config(config_path) if config_path else PipelineConfig()
    click.echo(json.dumps(emit_config(config), indent=1, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping exceptions to the documented exit codes."""
    _configure_logging()
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        return 64
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.Abort:
        click.echo("Aborted!", err=True)
        return 1
    except QfsError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    sys.exit(main())
