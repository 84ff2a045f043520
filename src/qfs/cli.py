"""Command-line entry points for every pipeline stage.

The commands compose the stages of :mod:`qfs.pipeline`. ``retrieve``
writes ``pipeline.retrieve``; ``snippets`` writes
``pipeline.select_snippets`` with judged snippets dropped and the list
capped as ``pipeline.answer_question`` does, so ``snippets`` and
``answer`` report the same snippets for the same config. Questions are
answered one after another in one thread.

Exit codes:

* 0: success;
* 1: partial failure (``answer`` skipped some questions);
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

import click

from . import corpus, pipeline, retrieval, textproc
from .config import PipelineConfig, emit_config, load_config
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
def _naming(questions_path):
    """A per-question data error (``question 'q1' ...``) also names the questions file."""
    try:
        yield
    except QfsError as exc:
        if str(exc).startswith("question "):
            raise type(exc)(f"{questions_path}: {exc}") from exc
        raise


@click.group()
def cli() -> None:
    """Query-focused extractive summarisation pipeline."""


@cli.command("index")
@click.option("--docs", "docs_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--stopwords", "stopwords_path", type=click.Path(), default=None)
@click.option("--k1", type=float, default=retrieval.DEFAULT_K1, show_default=True)
@click.option("--b", type=float, default=retrieval.DEFAULT_B, show_default=True)
def cmd_index(docs_path, out_path, stopwords_path, k1, b) -> int:
    """Build and persist an inverted index from a JSONL collection."""
    try:
        retrieval.check_bm25(k1, b)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    collection = corpus.load_document_collection(docs_path)
    stopwords = textproc.load_stopwords(stopwords_path) if stopwords_path else None
    index = retrieval.build_index(collection, stopwords, k1=k1, b=b)
    retrieval.save_index(index, out_path)
    click.echo(f"{index.n_docs} documents, {index.vocabulary_size} terms -> {out_path}")
    return 0


def _load_scorer(config: PipelineConfig) -> pipeline.SentenceScorer:
    model = config.model
    if not model.params_path:
        raise QfsError("config.model.params_path is required to score sentences")
    if not model.embeddings_path:
        raise QfsError("config.model.embeddings_path is required to score sentences")
    params, clip_len = load_params(model.params_path, expected_kind=model.kind)
    kind = KINDS[model.kind]
    source = kind.load_source(model.embeddings_path)
    if not source:
        raise EmptyInput(f"{model.embeddings_path}: holds no vectors")
    model_dim, source_dim = params.dims[kind.header[0]], kind.source_dim(source)
    if model_dim != source_dim:
        raise DimensionMismatch(
            f"{model.params_path} holds a {kind.name} model of {model_dim}-d inputs, "
            f"but {model.embeddings_path} holds {source_dim}-d vectors"
        )
    return pipeline.ModelScorer(params, source, clip_len)


def _build_resources(
    config: PipelineConfig, feedback_path: str | None, needs_model: bool = True
) -> pipeline.Resources:
    """Load the data files a run needs; the scorer only when asked for."""
    if not config.resources.docs_path:
        raise QfsError("config.resources.docs_path is required")
    collection = corpus.load_document_collection(config.resources.docs_path)
    if config.resources.index_path:
        index = retrieval.load_index(config.resources.index_path)
        retrieval.check_collection(index, collection, config.resources.index_path)
        # BM25 impacts are fixed when the index is built, so the config
        # cannot override the index's own k1 and b.
        wanted = (config.retrieval.bm25_k1, config.retrieval.bm25_b)
        if (index.k1, index.b) != wanted:
            raise QfsError(
                f"{config.resources.index_path}: index was built with k1={index.k1}, "
                f"b={index.b}, but the config sets retrieval.bm25_k1={wanted[0]}, "
                f"retrieval.bm25_b={wanted[1]}; rebuild it with `qfs index --k1 "
                f"{wanted[0]} --b {wanted[1]}` or change the config"
            )
    else:
        index = retrieval.build_index(
            collection, k1=config.retrieval.bm25_k1, b=config.retrieval.bm25_b
        )
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
    feedback = (
        corpus.FeedbackStore.load(feedback_path)
        if feedback_path
        else corpus.FeedbackStore.empty()
    )
    scorer = _load_scorer(config) if needs_model else pipeline.ConstantScorer()
    return pipeline.Resources(
        collection=collection,
        index=index,
        scorer=scorer,
        dense=dense,
        query_vectors=query_vectors,
        feedback=feedback,
    )


@cli.command("retrieve")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--questions", "questions_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--feedback", "feedback_path", type=click.Path(), default=None)
@click.option("--k", type=click.IntRange(min=1), default=None,
              help="Override per-round document count.")
def cmd_retrieve(config_path, questions_path, out_path, feedback_path, k) -> int:
    """Rank documents for every question and write the ranked lists."""
    config = load_config(config_path)
    questions = corpus.load_question_set(questions_path)
    resources = _build_resources(config, feedback_path, needs_model=False)
    if k is not None:
        config.retrieval.round_docs = {}
        config.retrieval.round_docs_default = k
    out = [
        {
            "id": question.id,
            "ranked": [
                {"document": d, "score": s}
                for d, s in pipeline.retrieve(question, config, resources)
            ],
        }
        for question in questions
    ]
    write_json(out_path, {"questions": out})
    click.echo(f"ranked {len(out)} questions -> {out_path}")
    return 0


@cli.command("snippets")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--questions", "questions_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--feedback", "feedback_path", type=click.Path(), default=None)
def cmd_snippets(config_path, questions_path, out_path, feedback_path) -> int:
    """Retrieve documents, extract snippets, and write them per question."""
    config = load_config(config_path)
    questions = corpus.load_question_set(questions_path)
    needs_model = config.snippets.strategy == "model"
    resources = _build_resources(config, feedback_path, needs_model=needs_model)
    out = []
    for question in questions:
        ranked = pipeline.retrieve(question, config, resources)
        spans = pipeline.select_snippets(
            question, ranked[: config.retrieval.final_doc_cap], config, resources
        )
        spans = corpus.filter_judged(
            spans, resources.feedback, question.id, corpus.EXCLUDE_ALL_JUDGED
        )[: config.retrieval.final_snippet_cap]
        out.append({"id": question.id, "snippets": [corpus.snippet_to_json(s) for s in spans]})
    write_json(out_path, {"questions": out})
    click.echo(f"snippets for {len(out)} questions -> {out_path}")
    return 0


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
    defaults = KINDS[model_kind].train_defaults
    try:
        return TrainConfig(
            epochs=defaults.epochs if epochs is None else epochs,
            batch_size=defaults.batch_size if batch_size is None else batch_size,
            dropout_rate=defaults.dropout_rate if dropout is None else dropout,
            learning_rate=lr,
            seed=seed,
            clip_len=defaults.clip_len if clip_len is None else clip_len,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _model_source(model_kind, embeddings_path, cemb_path):
    """The word vectors (nnc) or context embeddings (pooled) a model trains on."""
    kind = KINDS[model_kind]
    path = {"embeddings": embeddings_path, "cemb": cemb_path}[kind.source_option]
    if not path:
        raise click.UsageError(f"--{kind.source_option} is required for the {kind.name} model")
    return kind.load_source(path)


@cli.command("train")
@click.option("--labels", "labels_path", required=True, type=click.Path())
@click.option("--model", "model_kind", required=True, type=click.Choice(list(KINDS)))
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--embeddings", "embeddings_path", type=click.Path(), default=None,
              help="Word-vector text file (nnc model).")
@click.option("--cemb", "cemb_path", type=click.Path(), default=None,
              help="Context-embedding file (pooled model).")
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--dropout", type=float, default=None)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--clip-len", type=int, default=None)
def cmd_train(labels_path, model_kind, out_path, embeddings_path, cemb_path,
              epochs, batch_size, dropout, lr, seed, clip_len) -> int:
    """Train a sentence classifier on a labels file."""
    config = _train_config(model_kind, epochs, batch_size, dropout, lr, seed, clip_len)
    source = _model_source(model_kind, embeddings_path, cemb_path)
    examples = pipeline.load_labels(labels_path)
    result = train(model_kind, examples, source, config)
    save_params(result.params, out_path, config.clip_len)
    click.echo(
        f"trained {model_kind} for {config.epochs} epochs; "
        f"final loss {result.loss_history[-1]:.4f} -> {out_path}"
    )
    return 0


@cli.command("answer")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--questions", "questions_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path(), callback=_writable)
@click.option("--feedback", "feedback_path", type=click.Path(), default=None)
def cmd_answer(config_path, questions_path, out_path, feedback_path) -> int:
    """Answer every question and write a submission file."""
    config = load_config(config_path)
    questions = corpus.load_question_set(questions_path)
    resources = _build_resources(config, feedback_path)
    results = []
    skipped = 0
    for question in questions:
        try:
            results.append(pipeline.answer_question(question, config, resources))
        except QfsError as exc:
            skipped += 1
            logger.error("skipping question %s: %s", question.id, exc)
    pipeline.save_submission(results, out_path)
    click.echo(
        f"answered {len(results)} questions"
        + (f", skipped {skipped}" if skipped else "")
        + f" -> {out_path}"
    )
    return 1 if skipped else 0


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
              type=click.Choice(["constant", "oracle", *KINDS]))
@click.option("--embeddings", "embeddings_path", type=click.Path(), default=None)
@click.option("--cemb", "cemb_path", type=click.Path(), default=None)
@click.option("--k", type=click.IntRange(min=2), default=10, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--dropout", type=float, default=None)
@click.option("--lr", type=float, default=1e-3, show_default=True)
@click.option("--clip-len", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(), default=None, callback=_writable)
def cmd_cv(questions_path, docs_path, model_kind, embeddings_path, cemb_path,
           k, seed, epochs, batch_size, dropout, lr, clip_len, out_path) -> int:
    """k-fold cross-validation reporting mean SU4-F1."""
    questions = corpus.load_question_set(questions_path)
    collection = corpus.load_document_collection(docs_path) if docs_path else None
    if model_kind == "constant":
        spec: pipeline.ModelSpec = pipeline.ConstantModelSpec()
    elif model_kind == "oracle":
        spec = pipeline.OracleModelSpec()
    else:
        config = _train_config(model_kind, epochs, batch_size, dropout, lr, seed, clip_len)
        source = _model_source(model_kind, embeddings_path, cemb_path)
        spec = pipeline.TrainedModelSpec(model_kind, source, config)
    with _naming(questions_path):
        result = pipeline.cross_validate(questions, collection, spec, k=k, seed=seed)
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
