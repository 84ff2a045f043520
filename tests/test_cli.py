"""The `qfs` command line: exit codes, error reporting and a golden end-to-end chain."""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import struct
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qfs import pipeline
from qfs.cli import main
from qfs.config import ModelConfig, PipelineConfig, RetrievalConfig, SnippetConfig, parse_config
from qfs.corpus import (
    FeedbackStore,
    QuestionSet,
    load_document_collection,
    load_question_set,
    save_document_collection,
    save_question_set,
    snippet_to_json,
)
from qfs.embeddings import ContextEmbeddingRecord, write_context_embeddings
from qfs.errors import EmptyInput, MalformedInput, MissingInput
from qfs.neural import KINDS, forward, save_params, train
from qfs.neural.models import init_params
from qfs.retrieval import DenseStore, build_index, load_dense_store, save_dense_store
from qfs.textproc import split_sentences

from conftest import make_question


def run_qfs(*args) -> tuple[int, str]:
    """Run the `qfs` entry point; returns its exit code and stderr."""
    with CliRunner().isolation() as (_, stderr, _):
        code = main([str(a) for a in args])
        return code, stderr.getvalue().decode("utf-8")


@pytest.fixture
def workspace(tmp_path, micro_collection):
    save_document_collection(micro_collection, tmp_path / "docs.jsonl")
    questions = QuestionSet(
        [
            make_question("q1", "Do vaccines reduce influenza?"),
            make_question("q2", "Does sleep improve immunity?"),
        ]
    )
    save_question_set(questions, tmp_path / "questions.json")
    return tmp_path


def write_config(workspace, name: str, index: bool, **retrieval) -> str:
    resources = {"docs_path": str(workspace / "docs.jsonl")}
    if index:
        resources["index_path"] = str(workspace / "index.qidx")
    path = workspace / name
    path.write_text(json.dumps({"retrieval": retrieval, "resources": resources}))
    return str(path)


def retrieve(workspace, config: str, out: str) -> tuple[int, str]:
    return run_qfs(
        "retrieve", "--config", config,
        "--questions", workspace / "questions.json", "--out", workspace / out,
    )


def build_index_file(workspace) -> None:
    code, err = run_qfs(
        "index", "--docs", workspace / "docs.jsonl", "--out", workspace / "index.qidx"
    )
    assert (code, err) == (0, "")


class TestRetrieveWithIndexFile:
    def test_matching_parameters_exit_0(self, workspace):
        # The index stores no k1 or b: the config's apply to it when it is read,
        # so it ranks as an in-process build with the same config does.
        build_index_file(workspace)
        for bm25 in ({"bm25_k1": 1.5, "bm25_b": 0.5}, {}):
            config = write_config(workspace, "c.json", True, **bm25)
            assert retrieve(workspace, config, "from_file.json") == (0, "")
            built = write_config(workspace, "b.json", False, **bm25)
            assert retrieve(workspace, built, "built.json") == (0, "")
            from_file = (workspace / "from_file.json").read_bytes()
            assert from_file == (workspace / "built.json").read_bytes(), bm25
            ranked = json.loads(from_file)["questions"][0]["ranked"]
            assert ranked[0]["document"] == "d1"

    def test_truncated_index_exit_2(self, workspace):
        build_index_file(workspace)
        path = workspace / "index.qidx"
        path.write_bytes(path.read_bytes()[:-9])
        code, err = retrieve(workspace, write_config(workspace, "c.json", True), "out.json")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


    @pytest.mark.parametrize("edit", [
        "longer section", "section removed", "document removed", "same-length edit",
    ])
    def test_docs_edited_after_indexing_exit_2(self, workspace, micro_collection, edit):
        build_index_file(workspace)
        docs = [json.loads(line) for line in (workspace / "docs.jsonl").read_text().splitlines()]
        if edit == "same-length edit":
            section = docs[1]["sections"][1]
            section["text"] = section["text"].replace("rising", "waning")
        elif edit == "longer section":
            docs[1]["sections"][1]["text"] += " Dosing matters."
        elif edit == "section removed":
            del docs[1]["sections"][0]
        else:
            del docs[1]
        (workspace / "docs.jsonl").write_text("".join(json.dumps(d) + "\n" for d in docs))
        code, err = retrieve(workspace, write_config(workspace, "c.json", True), "out.json")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "'d2'" in err and "qfs index" in err
        assert not (workspace / "out.json").exists()


GOLDEN = Path(__file__).parent / "golden"
# Outputs checked in under tests/golden; QFS_UPDATE_GOLDEN=1 rewrites them.
GOLDEN_OUTPUTS = (
    "retrieve.json", "retrieve-nir.json", "retrieve-rerank.json", "snippets.json",
    "labels.jsonl", "answer.json", "model-snippets.json", "model-answer.json", "cv.json",
    "cv-nnc.json", "cv-pooled.json", "cosine-answer.json", "cv-cosine.json", "evaluate.json",
    "cv-constant.json", "cv-unicode.json",
)
# Model files are pinned by their sha256, listed in tests/golden/models.sha256.
GOLDEN_MODELS = ("model.qfsm", "pooled.qfsm")


def write_context_file(path: Path) -> None:
    """Seeded context embeddings, one record per pair id of the golden labels."""
    rng = np.random.default_rng(17)
    lines = (GOLDEN / "labels.jsonl").read_text().splitlines()
    pair_ids = [json.loads(line)["pair_id"] for line in lines]
    records = []
    for pair_id in pair_ids:
        n = int(rng.integers(2, 6))
        mask = np.arange(n) >= n // 2
        records.append(ContextEmbeddingRecord(pair_id, rng.normal(size=(n, 4)), mask))
    write_context_embeddings(path, records)


def write_dense_files(docs: Path, queries: Path) -> None:
    """Seeded 8-d vectors for the golden questions and for all golden documents but the last."""
    rng = np.random.default_rng(23)
    lines = (GOLDEN / "docs.jsonl").read_text().splitlines()
    doc_ids = [json.loads(line)["id"] for line in lines][:-1]
    question_ids = [q["id"] for q in json.loads((GOLDEN / "questions.json").read_text())]
    for path, ids in ((docs, doc_ids), (queries, question_ids)):
        save_dense_store(DenseStore.from_vectors({i: rng.normal(size=8) for i in ids}), path)


def run_chain(work: Path) -> dict[str, bytes]:
    """Every command over the golden fixture, in order; returns each output's bytes."""
    questions, feedback = GOLDEN / "questions.json", GOLDEN / "feedback.json"
    vectors, cemb = GOLDEN / "vectors.txt", work / "context.cemb"
    write_context_file(cemb)
    write_dense_files(work / "docs.dvec", work / "queries.dvec")
    model = {
        "kind": "nnc",
        "params_path": str(work / "model.qfsm"),
        "embeddings_path": str(vectors),
    }
    resources = {"docs_path": str(GOLDEN / "docs.jsonl"), "index_path": str(work / "index.qidx")}
    configs = {
        strategy: work / f"{strategy}.config"
        for strategy in ("cosine", "model")
    }
    for strategy, path in configs.items():
        path.write_text(json.dumps(
            {"snippets": {"strategy": strategy}, "model": model, "resources": resources}
        ))
    # The tf-idf cosine baseline answers without a model file.
    configs["baseline"] = work / "baseline.config"
    configs["baseline"].write_text(json.dumps({"model": {"kind": "cosine"}, "resources": resources}))
    dense = {**resources, "dense_path": str(work / "docs.dvec"),
             "query_vectors_path": str(work / "queries.dvec")}
    # A pool of 3 of the 5 golden documents, of which 2 are returned.
    rerank = {"pool_size": 3, "round_docs": {"default": 2}}
    for method, retrieval in (("nir", {}), ("rerank", rerank)):
        configs[method] = work / f"{method}.config"
        configs[method].write_text(json.dumps(
            {"retrieval": {"method": method, **retrieval}, "resources": dense}
        ))
    per_question = ("--questions", questions, "--feedback", feedback)
    steps = [
        ("index", "--docs", GOLDEN / "docs.jsonl", "--out", work / "index.qidx"),
        ("retrieve", "--config", configs["cosine"], *per_question, "--out", work / "retrieve.json"),
        ("retrieve", "--config", configs["nir"], "--questions", questions,
         "--out", work / "retrieve-nir.json"),
        ("retrieve", "--config", configs["rerank"], "--questions", questions,
         "--out", work / "retrieve-rerank.json"),
        ("snippets", "--config", configs["cosine"], *per_question, "--out", work / "snippets.json"),
        ("label", "--questions", questions, "--out", work / "labels.jsonl"),
        ("answer", "--config", configs["baseline"], *per_question,
         "--out", work / "cosine-answer.json"),
        ("train", "--labels", work / "labels.jsonl", "--model", "nnc", "--epochs", "1",
         "--embeddings", vectors, "--out", work / "model.qfsm"),
        ("answer", "--config", configs["cosine"], *per_question, "--out", work / "answer.json"),
        ("evaluate", "--questions", questions, "--submission", work / "answer.json",
         "--out", work / "evaluate.json"),
        ("cv", "--questions", questions, "--model", "oracle", "--k", "2", "--out", work / "cv.json"),
        # Non-ASCII text and words of 8 and 9 UTF-8 bytes, scored by the SU4 oracle.
        ("cv", "--questions", GOLDEN / "questions-unicode.json", "--model", "oracle", "--k", "2",
         "--out", work / "cv-unicode.json"),
        ("cv", "--questions", questions, "--model", "cosine", "--k", "2",
         "--out", work / "cv-cosine.json"),
        ("cv", "--questions", questions, "--docs", GOLDEN / "docs.jsonl", "--model", "constant",
         "--k", "2", "--out", work / "cv-constant.json"),
        ("snippets", "--config", configs["model"], *per_question,
         "--out", work / "model-snippets.json"),
        ("answer", "--config", configs["model"], *per_question, "--out", work / "model-answer.json"),
        ("train", "--labels", work / "labels.jsonl", "--model", "pooled", "--epochs", "2",
         "--embeddings", cemb, "--out", work / "pooled.qfsm"),
        ("cv", "--questions", questions, "--model", "pooled", "--k", "2", "--embeddings", cemb,
         "--out", work / "cv-pooled.json"),
        ("cv", "--questions", questions, "--model", "nnc", "--k", "2", "--epochs", "1",
         "--embeddings", vectors, "--out", work / "cv-nnc.json"),
    ]
    for step in steps:
        assert run_qfs(*step) == (0, ""), step[0]
    return {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".config"}


def model_digests(outputs: dict[str, bytes]) -> str:
    return "".join(
        f"{hashlib.sha256(outputs[name]).hexdigest()}  {name}\n" for name in GOLDEN_MODELS
    )


@pytest.fixture(scope="module")
def chain_outputs(tmp_path_factory):
    return [run_chain(tmp_path_factory.mktemp(f"run{i}")) for i in range(2)]


class TestGoldenChain:
    def test_two_runs_are_byte_identical(self, chain_outputs):
        first, second = chain_outputs
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], name

    def test_outputs_match_golden(self, chain_outputs):
        outputs = chain_outputs[0]
        if os.environ.get("QFS_UPDATE_GOLDEN"):
            for name in GOLDEN_OUTPUTS:
                (GOLDEN / name).write_bytes(outputs[name])
            (GOLDEN / "models.sha256").write_text(model_digests(outputs))
        for name in GOLDEN_OUTPUTS:
            assert outputs[name] == (GOLDEN / name).read_bytes(), name
        assert model_digests(outputs) == (GOLDEN / "models.sha256").read_text()

    @pytest.mark.parametrize("prefix", ["", "model-"])
    def test_snippets_equal_answer_snippets(self, chain_outputs, prefix):
        outputs = chain_outputs[0]
        snippets = json.loads(outputs[f"{prefix}snippets.json"])["questions"]
        answers = json.loads(outputs[f"{prefix}answer.json"])["questions"]
        assert [q["id"] for q in snippets] == [q["id"] for q in answers]
        assert [q["snippets"] for q in snippets] == [q["snippets"] for q in answers]
        assert any(q["snippets"] for q in snippets)


@pytest.mark.parametrize("with_feedback", [False, True])
def test_snippets_command_writes_the_answer_snippets(tmp_path, with_feedback):
    """For every golden question, ``qfs snippets`` writes the snippets that
    ``answer_question`` returns with a cosine scorer, with the judged ones dropped."""
    feedback = GOLDEN / "feedback.json" if with_feedback else None
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"resources": {"docs_path": str(GOLDEN / "docs.jsonl")}}))
    args = ("--feedback", feedback) if feedback else ()
    assert run_qfs("snippets", "--config", config, "--questions", GOLDEN / "questions.json",
                   *args, "--out", tmp_path / "s.json") == (0, "")
    output = json.loads((tmp_path / "s.json").read_text())["questions"]
    written = {q["id"]: q["snippets"] for q in output}
    collection = load_document_collection(GOLDEN / "docs.jsonl")
    resources = pipeline.Resources(
        collection, build_index(collection), pipeline.CosineScorer(),
        feedback=FeedbackStore.load(feedback) if feedback else FeedbackStore.empty(),
    )
    questions = load_question_set(GOLDEN / "questions.json")
    assert list(written) == [q.id for q in questions]
    for question in questions:
        answer = pipeline.answer_question(question, parse_config({}), resources)
        assert written[question.id] == [snippet_to_json(s) for s in answer.snippets]
    # The feedback judges snippets that are returned without it, and none is written with it.
    judged = FeedbackStore.load(GOLDEN / "feedback.json")
    keys = {(qid, s["document"], s["section"], s["offsetInBeginSection"], s["offsetInEndSection"])
            for qid, snippets in written.items() for s in snippets}
    found = {(qid, *key) for qid in written for key in judged.judgments(qid)
             if isinstance(key, tuple)}
    assert found and (keys.isdisjoint(found) if with_feedback else found <= keys)


def test_both_spellings_of_cosine_write_the_same_files(tmp_path):
    """A cosine model scores the snippets under the model strategy as the
    cosine strategy does, so both configs write the same bytes."""
    per_question = (*QUESTIONS, "--feedback", GOLDEN / "feedback.json")
    outputs = {}
    for strategy in ("model", "cosine"):
        work = tmp_path / strategy
        work.mkdir()
        config = config_file(work, snippets={"strategy": strategy}, model={"kind": "cosine"})
        for command in ("snippets", "answer"):
            out = work / f"{command}.json"
            assert run_qfs(command, "--config", config, *per_question, "--out", out) == (0, "")
            outputs[strategy, command] = out.read_bytes()
    for command in ("snippets", "answer"):
        assert outputs["model", command] == outputs["cosine", command], command


@pytest.mark.parametrize("command", ["retrieve", "snippets"])
def test_retrieve_and_cosine_snippets_open_no_model_file(tmp_path, command):
    config = config_file(tmp_path, model={
        "kind": "nnc", "params_path": str(tmp_path / "missing.qfsm"),
        "embeddings_path": str(tmp_path / "missing.txt")})
    out = tmp_path / "o.json"
    assert run_qfs(command, "--config", config, *QUESTIONS, "--out", out) == (0, "")
    assert json.loads(out.read_text())["questions"]


# Metamorphic relations over the golden fixture: an input edit whose effect on the
# output is known, checked through the commands.
ANSWER_GOLDENS = {"retrieve": "retrieve.json", "snippets": "snippets.json",
                  "answer": "cosine-answer.json"}


def answer_outputs(work: Path, docs: Path, index: Path | None, feedback: Path) -> dict[str, bytes]:
    """The bytes of retrieve, snippets and the cosine answer over ``docs`` with ``feedback``,
    reading ``index``, or building one when it is None."""
    resources = {"docs_path": str(docs), **({"index_path": str(index)} if index else {})}
    config = write(work / "answer-config.json",
                   json.dumps({"model": {"kind": "cosine"}, "resources": resources}))
    outputs = {}
    for command in ANSWER_GOLDENS:
        out = work / f"{command}.json"
        assert run_qfs(command, "--config", config, *QUESTIONS, "--feedback", feedback,
                       "--out", out) == (0, ""), command
        outputs[command] = out.read_bytes()
    return outputs


def feedback_with_more(work: Path, items: dict[str, dict]) -> Path:
    """The golden feedback file plus one judgment ``items[qid]`` per question."""
    entries = json.loads((GOLDEN / "feedback.json").read_text())
    entries += [{"question_id": qid, "items": [item]} for qid, item in items.items()]
    return write(work / "more-feedback.json", json.dumps(entries))


@pytest.mark.parametrize("order", [[4, 3, 2, 1, 0], [2, 4, 0, 3, 1]], ids=["reversed", "shuffled"])
def test_docs_line_order_changes_no_output(tmp_path, order):
    lines = (GOLDEN / "docs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    docs = write(tmp_path / "docs.jsonl", "".join(lines[i] for i in order))
    for name, source in (("golden.qidx", GOLDEN / "docs.jsonl"), ("permuted.qidx", docs)):
        assert run_qfs("index", "--docs", source, "--out", tmp_path / name) == (0, "")
    assert (tmp_path / "golden.qidx").read_bytes() == (tmp_path / "permuted.qidx").read_bytes()
    expected = {command: (GOLDEN / name).read_bytes() for command, name in ANSWER_GOLDENS.items()}
    # Each index with the docs file of the other order, and an index built in process.
    for docs_file, index in ((docs, tmp_path / "golden.qidx"),
                             (GOLDEN / "docs.jsonl", tmp_path / "permuted.qidx"), (docs, None)):
        assert answer_outputs(tmp_path, docs_file, index, GOLDEN / "feedback.json") == expected


@pytest.mark.parametrize("polarity", ["relevant", "irrelevant"])
def test_judging_a_returned_document_removes_exactly_it(tmp_path, polarity):
    golden = {q["id"]: q["ranked"]
              for q in json.loads((GOLDEN / "retrieve.json").read_text())["questions"]}
    # Question i judges its (i mod n)-th returned document, so each judges another rank.
    judged = {qid: ranked[i % len(ranked)]["document"]
              for i, (qid, ranked) in enumerate(golden.items())}
    feedback = feedback_with_more(tmp_path, {
        qid: {"kind": "document", "ref": doc, "polarity": polarity} for qid, doc in judged.items()})
    out = tmp_path / "r.json"
    assert run_qfs("retrieve", "--config", config_file(tmp_path), *QUESTIONS,
                   "--feedback", feedback, "--out", out) == (0, "")
    got = {q["id"]: q["ranked"] for q in json.loads(out.read_text())["questions"]}
    assert got == {qid: [r for r in ranked if r["document"] != judged[qid]]
                   for qid, ranked in golden.items()}


def test_judging_a_returned_snippet_relevant_changes_no_answer(tmp_path):
    golden = json.loads((GOLDEN / "cosine-answer.json").read_text())["questions"]
    judged = {q["id"]: q["snippets"][i % len(q["snippets"])] for i, q in enumerate(golden)}
    feedback = feedback_with_more(tmp_path, {
        qid: {"kind": "snippet", "ref": {k: v for k, v in s.items() if k != "text"},
              "polarity": "relevant"}
        for qid, s in judged.items()})
    got = json.loads(answer_outputs(tmp_path, GOLDEN / "docs.jsonl", None, feedback)["answer"])
    for before, after in zip(golden, got["questions"], strict=True):
        assert (after["id"], after["documents"]) == (before["id"], before["documents"])
        assert after["ideal_answer"] == before["ideal_answer"]
        # The judged snippet goes; the next one past the cap may take its place.
        left = [s for s in before["snippets"] if s != judged[before["id"]]]
        assert len(left) == len(before["snippets"]) - 1
        assert after["snippets"][: len(left)] == left
        assert judged[before["id"]] not in after["snippets"]
        assert len(after["snippets"]) <= len(before["snippets"])


def run_qfs_stdout(*args) -> tuple[int, str]:
    """Run the `qfs` entry point; returns its exit code and stdout."""
    with CliRunner().isolation() as (stdout, _, _):
        code = main([str(a) for a in args])
        return code, stdout.getvalue().decode("utf-8")


def test_config_emit_without_a_file_prints_the_defaults():
    code, out = run_qfs_stdout("config", "emit")
    assert code == 0
    assert parse_config(json.loads(out)) == PipelineConfig()


def test_config_emit_prints_the_config_it_reads(tmp_path):
    config = write(tmp_path / "c.json", json.dumps({
        "retrieval": {"method": "nir"}, "snippets": {"per_doc": 2}, "model": {"kind": "cosine"},
        "round": 2}))
    code, out = run_qfs_stdout("config", "emit", "--config", config)
    assert code == 0
    assert parse_config(json.loads(out)) == PipelineConfig(
        retrieval=RetrievalConfig(method="nir"), snippets=SnippetConfig(per_doc=2),
        model=ModelConfig(kind="cosine"), round=2,
    )


def test_config_validate_accepts_an_emitted_config(tmp_path):
    emitted = write(tmp_path / "emitted.json", run_qfs_stdout("config", "emit")[1])
    assert run_qfs_stdout("config", "validate", "--config", emitted) == (0, f"{emitted}: valid\n")


def test_an_unknown_model_kind_names_the_scorers(tmp_path):
    config = config_file(tmp_path, model={"kind": "bert"})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    expected = "constant, cosine, oracle, nnc, pooled"
    assert (code, err) == (2, f"error: {config}: bad model.kind 'bert'; expected one of {expected}\n")
    assert not (tmp_path / "a.json").exists()


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def config_file(work: Path, **sections) -> Path:
    """A config over the golden documents, with the given sections merged in."""
    payload = {"resources": {"docs_path": str(GOLDEN / "docs.jsonl")}}
    for name, values in sections.items():
        payload[name] = {**payload.get(name, {}), **values}
    return write(work / "config.json", json.dumps(payload))


def write_bytes(path: Path, data: bytes) -> Path:
    path.write_bytes(data)
    return path


LABEL = '{"question": "q", "sentence": "s", "position": 0, "label": 1}\n'
# One record each, whose id is the byte 0xff, which is not UTF-8.
CEMB_BAD_ID = b"CEMB" + struct.pack("<III", 1, 2, 1) + b"\xff" + struct.pack("<IB2f", 1, 1, 0.6, 0.8)
DVEC_BAD_ID = b"DVEC" + struct.pack("<III", 1, 2, 1) + b"\xff" + struct.pack("<2f", 0.6, 0.8)
TRAIN = ("train", "--model", "nnc", "--embeddings", GOLDEN / "vectors.txt")
QUESTIONS = ("--questions", GOLDEN / "questions.json")


def mismatched_dense_config(w: Path) -> Path:
    """A nir config whose document vectors are 4-d and whose query vectors are 3-d."""
    docs, queries = w / "docs.dvec", w / "queries.dvec"
    save_dense_store(DenseStore.from_vectors({f"d{i}": np.ones(4) for i in range(1, 6)}), docs)
    save_dense_store(DenseStore.from_vectors({f"q{i}": np.ones(3) for i in range(1, 5)}), queries)
    return config_file(
        w, retrieval={"method": "nir"}, model={"kind": "cosine"},
        resources={"dense_path": str(docs), "query_vectors_path": str(queries)},
    )


# Each case builds, in an empty directory, the arguments of one command
# whose input is missing or corrupt.
BROKEN_INPUTS = {
    "evaluate snippet without offsetInBeginSection": lambda w: (
        "evaluate", *QUESTIONS, "--submission", write(w / "s.json", json.dumps(
            {"questions": [{"id": "q1", "snippets": [
                {"document": "d1", "section": "title", "offsetInEndSection": 4}]}]}
        ))),
    "evaluate invalid JSON submission": lambda w: (
        "evaluate", *QUESTIONS, "--submission", write(w / "s.json", '{"questions": [')),
    "evaluate submission with a number for documents": lambda w: (
        "evaluate", *QUESTIONS, "--submission",
        write(w / "s.json", '{"questions": [{"id": "q1", "documents": 5}]}')),
    **{
        f"evaluate submission with {what}": (
            lambda w, entry=entry: ("evaluate", *QUESTIONS, "--submission", write(
                w / "s.json", json.dumps({"questions": [{"id": "q1", **entry}]}))))
        for what, entry in [
            ("a null ideal answer", {"ideal_answer": None}),
            ("a list for the ideal answer", {"ideal_answer": ["a", "b"]}),
            ("a numeric document id", {"documents": ["d1", 5]}),
        ]
    },
    "evaluate missing submission": lambda w: (
        "evaluate", *QUESTIONS, "--submission", w / "missing.json"),
    "evaluate missing questions": lambda w: (
        "evaluate", "--questions", w / "missing.json",
        "--submission", GOLDEN / "questions.json"),
    "train labels with a bad line": lambda w: (
        *TRAIN, "--labels", write(w / "l.jsonl", LABEL + "{not json\n"), "--out", w / "m"),
    "train labels line without a sentence": lambda w: (
        *TRAIN, "--labels", write(w / "l.jsonl", LABEL + '{"question": "q"}\n'),
        "--out", w / "m"),
    "train missing labels": lambda w: (*TRAIN, "--labels", w / "missing.jsonl", "--out", w / "m"),
    **{
        f"train labels line with {field} {value!r}": (
            lambda w, field=field, value=value: (
                *TRAIN, "--labels", write(
                    w / "l.jsonl", LABEL + json.dumps({**json.loads(LABEL), field: value}) + "\n"),
                "--out", w / "m"))
        for field, value in [("question", 5), ("sentence", None), ("label", 0.7),
                             ("label", True), ("label", 2), ("position", "3"),
                             ("position", -1), ("position", 1.0), ("pair_id", 5)]
    },
    "train labels line that is not an object": lambda w: (
        *TRAIN, "--labels", write(w / "l.jsonl", LABEL + "[1]\n"), "--out", w / "m"),
    "train missing word vectors": lambda w: (
        "train", "--model", "nnc", "--embeddings", w / "missing.txt",
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "train missing context embeddings": lambda w: (
        "train", "--model", "pooled", "--embeddings", w / "missing.cemb",
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "index missing documents": lambda w: (
        "index", "--docs", w / "missing.jsonl", "--out", w / "i.qidx"),
    "index missing stopwords": lambda w: (
        "index", "--docs", GOLDEN / "docs.jsonl", "--stopwords", w / "missing.txt",
        "--out", w / "i.qidx"),
    "retrieve missing index": lambda w: (
        "retrieve", "--config", config_file(w, resources={"index_path": str(w / "missing.qidx")}),
        *QUESTIONS, "--out", w / "o.json"),
    "retrieve missing dense vectors": lambda w: (
        "retrieve", "--config", config_file(w, retrieval={"method": "nir"}, resources={
            "dense_path": str(w / "missing.dvec"),
            "query_vectors_path": str(w / "missing.dvec")}),
        *QUESTIONS, "--out", w / "o.json"),
    "retrieve feedback entry that is not an object": lambda w: (
        "retrieve", "--config", config_file(w), *QUESTIONS,
        "--feedback", write(w / "f.json", "[5]"), "--out", w / "o.json"),
    "retrieve feedback item without a ref": lambda w: (
        "retrieve", "--config", config_file(w), *QUESTIONS, "--feedback", write(
            w / "f.json",
            '[{"question_id": "q1", "items": [{"kind": "document", "polarity": "relevant"}]}]'),
        "--out", w / "o.json"),
    "retrieve missing feedback": lambda w: (
        "retrieve", "--config", config_file(w), *QUESTIONS,
        "--feedback", w / "missing.json", "--out", w / "o.json"),
    "retrieve missing config": lambda w: (
        "retrieve", "--config", w / "missing.json", *QUESTIONS, "--out", w / "o.json"),
    "answer missing model parameters": lambda w: (
        "answer", "--config", config_file(w, model={
            "kind": "nnc", "params_path": str(w / "missing.qfsm"),
            "embeddings_path": str(GOLDEN / "vectors.txt")}),
        *QUESTIONS, "--out", w / "o.json"),
    "train word vectors that are not UTF-8": lambda w: (
        "train", "--model", "nnc", "--embeddings", write_bytes(w / "v.txt", b"1 1\n\xff 0.5\n"),
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "train context-embedding id that is not UTF-8": lambda w: (
        "train", "--model", "pooled", "--embeddings", write_bytes(w / "c.cemb", CEMB_BAD_ID),
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "index stopwords that are not UTF-8": lambda w: (
        "index", "--docs", GOLDEN / "docs.jsonl",
        "--stopwords", write_bytes(w / "s.txt", b"the\n\xff\n"), "--out", w / "i.qidx"),
    "retrieve dense-vector id that is not UTF-8": lambda w: (
        "retrieve", "--config", config_file(w, retrieval={"method": "nir"}, resources={
            "dense_path": str(write_bytes(w / "d.dvec", DVEC_BAD_ID)),
            "query_vectors_path": str(w / "d.dvec")}),
        *QUESTIONS, "--out", w / "o.json"),
    **{
        f"{command} query vectors of another dimension than the document vectors": (
            lambda w, command=command: (
                command, "--config", mismatched_dense_config(w), *QUESTIONS,
                "--out", w / "o.json"))
        for command in ("retrieve", "answer")
    },
    **{
        f"index section text {what}": (
            lambda w, value=value: ("index", "--docs", write(w / "d.jsonl", json.dumps(
                {"id": "d1", "sections": [{"id": "s1", "text": value}]}) + "\n"),
                "--out", w / "i.qidx"))
        for what, value in [("null", None), ("list", ["a", "b"]), ("number", 5)]
    },
    **{
        f"retrieve question body {what}": (
            lambda w, value=value: (
                "retrieve", "--config", config_file(w), "--questions", write(
                    w / "q.json", json.dumps([{"id": "q1", "type": "summary", "body": value}])),
                "--out", w / "o.json"))
        for what, value in [("null", None), ("list", ["a", "b"]), ("object", {"text": "a"})]
    },
    "label gold snippet section null": lambda w: (
        "label", "--questions", write(w / "q.json", json.dumps([{
            "id": "q1", "type": "summary", "body": "b", "ideal_answer": ["Some text."],
            "snippets": [{"document": "d1", "section": None, "offsetInBeginSection": 0,
                          "offsetInEndSection": 4, "text": "Some"}]}])),
        "--out", w / "l.jsonl"),
    "label gold snippet text null": lambda w: (
        "label", "--questions", write(w / "q.json", json.dumps([{
            "id": "q1", "type": "summary", "body": "b", "ideal_answer": ["Some text."],
            "snippets": [{"document": "d1", "section": "s1", "offsetInBeginSection": 0,
                          "offsetInEndSection": 4, "text": None}]}])),
        "--out", w / "l.jsonl"),
    "config with a non-numeric seed": lambda w: (
        "config", "validate", "--config", write(w / "c.json", '{"seed": "x"}')),
    "config with a non-numeric round_docs count": lambda w: (
        "config", "validate", "--config",
        write(w / "c.json", '{"retrieval": {"round_docs": {"1": "many"}}}')),
    "config with a list for a section": lambda w: (
        "config", "validate", "--config", write(w / "c.json", '{"retrieval": []}')),
    "index document sections a number": lambda w: (
        "index", "--docs", write(w / "d.jsonl", '{"id": "d1", "sections": 5}\n'),
        "--out", w / "i.qidx"),
    "label question type a list": lambda w: (
        "label", "--questions", write(w / "q.json", json.dumps([{"id": "q1", "type": []}])),
        "--out", w / "l.jsonl"),
    # JSON's "\ud800" reads as a str that UTF-8 cannot encode, so no writer could.
    "index document id a lone surrogate": lambda w: (
        "index", "--docs", write(w / "d.jsonl", '{"id": "d\\ud800", "sections": []}\n'),
        "--out", w / "i.qidx"),
    "label question id a lone surrogate": lambda w: (
        "label", "--questions", write(w / "q.json", json.dumps([{
            "id": "d\ud800", "type": "summary", "body": "b", "ideal_answer": ["Some text."],
            "snippets": [{"document": "d1", "section": "s1", "offsetInBeginSection": 0,
                          "offsetInEndSection": 4, "text": "Some"}]}])),
        "--out", w / "l.jsonl"),
    "label question body a lone surrogate": lambda w: (
        "label", "--questions", write(w / "q.json", json.dumps([{
            "id": "q1", "type": "summary", "body": "b\ud800", "ideal_answer": ["Some text."],
            "snippets": [{"document": "d1", "section": "s1", "offsetInBeginSection": 0,
                          "offsetInEndSection": 4, "text": "Some"}]}])),
        "--out", w / "l.jsonl"),
    "index section text a lone surrogate": lambda w: (
        "index", "--docs", write(w / "d.jsonl", json.dumps(
            {"id": "d1", "sections": [{"id": "s1", "text": "b\ud800"}]}) + "\n"),
        "--out", w / "i.qidx"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_missing_or_corrupt_input_exits_2(tmp_path, case):
    code, err = run_qfs(*BROKEN_INPUTS[case](tmp_path))
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("case, where, field", [
    ("index section text null", "d.jsonl:1", "section 's1': text"),
    ("retrieve question body list", "q.json", "question 'q1': body"),
    ("label gold snippet text null", "q.json", "question 'q1': snippet: text"),
    ("label gold snippet section null", "q.json", "question 'q1': snippet: section"),
])
def test_non_string_text_names_file_and_field(tmp_path, case, where, field):
    code, err = run_qfs(*BROKEN_INPUTS[case](tmp_path))
    assert code == 2, err
    assert f"{tmp_path / where}: {field} must be a string" in err


@pytest.mark.parametrize("case, message", [
    ("index document sections a number", "d.jsonl:1: sections must be a list, not 5"),
    ("label question type a list", "q.json: question 'q1': type must be a string, not list"),
])
def test_field_of_another_type_names_file_and_field(tmp_path, case, message):
    code, err = run_qfs(*BROKEN_INPUTS[case](tmp_path))
    assert (code, err) == (2, f"error: {tmp_path / message}\n")


@pytest.mark.parametrize("case, where", [
    ("index document id a lone surrogate", "d.jsonl:1: id"),
    ("label question id a lone surrogate", "q.json: id"),
])
def test_id_that_utf8_cannot_encode_names_file_and_field(tmp_path, case, where):
    code, err = run_qfs(*BROKEN_INPUTS[case](tmp_path))
    message = "must be a non-empty string, not 'd\\ud800', which UTF-8 cannot encode"
    assert (code, err) == (2, f"error: {tmp_path / where} {message}\n")


@pytest.mark.parametrize("case, where", [
    ("label question body a lone surrogate", "q.json: question 'q1': body"),
    ("index section text a lone surrogate", "d.jsonl:1: section 's1': text"),
])
def test_text_that_utf8_cannot_encode_names_file_and_field(tmp_path, case, where):
    # Before, `qfs label` read such a body and ended in a UnicodeEncodeError
    # traceback from the labels writer, with exit 1.
    code, err = run_qfs(*BROKEN_INPUTS[case](tmp_path))
    message = "must be a string, not 'b\\ud800', which UTF-8 cannot encode"
    assert (code, err) == (2, f"error: {tmp_path / where} {message}\n")


SNIPPET = {"document": "d1", "section": "s1", "offsetInBeginSection": 0,
           "offsetInEndSection": 4, "text": "Some"}


@pytest.mark.parametrize("payload, message", [
    ([], "expected an object with a questions array"),
    ({"questions": 5}, "expected an object with a questions array"),
    ({"questions": [{"documents": []}]}, "question entry without an id"),
    ({"questions": [{"id": "q1", "documents": 5}]}, "documents and snippets must be lists"),
    ({"questions": [{"id": "q1", "snippets": {}}]}, "documents and snippets must be lists"),
    ({"questions": [{"id": "q1", "ideal_answer": None}]}, "ideal_answer must be strings"),
    ({"questions": [{"id": "q1", "documents": ["d1", 5]}]}, "ideal_answer must be strings"),
    ({"questions": [{"id": "q1", "snippets": [5]}]}, "snippet is not an object"),
    ({"questions": [{"id": "q1", "snippets": [{**SNIPPET, "offsetInEndSection": "x"}]}]},
     "bad snippet object"),
    ({"questions": [{"id": "q1", "snippets": [{**SNIPPET, "text": 5}]}]},
     "snippet: text must be a string"),
    ({"questions": [{"id": "q1", "snippets": [{**SNIPPET, "section": None}]}]},
     "snippet: section must be a string"),
    ({"questions": [{"id": "q1", "ideal_answer": "Influenza vaccines reduce hospitalisation."},
                    {"id": "q1", "ideal_answer": "nothing"}]},
     "duplicate submission question id 'q1'"),
    ({"questions": [{"id": "q1", "documents": ["d1", "d1"]}]},
     "submission question 'q1': returned document list contains duplicates"),
], ids=lambda value: value if isinstance(value, str) else None)
def test_every_submission_error_names_the_file(tmp_path, payload, message):
    path = write(tmp_path / "s.json", json.dumps(payload))
    with pytest.raises(MalformedInput, match=rf"^{re.escape(str(path))}: .*{re.escape(message)}"):
        pipeline.load_submission(path)
    code, err = run_qfs("evaluate", *QUESTIONS, "--submission", path)
    assert code == 2 and err.startswith(f"error: {path}: "), err


def nnc_model_config(w: Path, **sections) -> Path:
    """A config answering with an untrained nnc model, by default over the golden documents."""
    save_params(init_params("nnc", emb_dim=4, lstm_hidden=2, dense_hidden=2), w / "m.qfsm")
    return config_file(w, model={
        "kind": "nnc", "params_path": str(w / "m.qfsm"),
        "embeddings_path": str(GOLDEN / "vectors.txt")}, **sections)


# Each case builds the arguments of a command whose --out is in a missing
# directory; every command that takes --out has one.
UNWRITABLE_OUTPUTS = {
    "label": lambda w, out: ("label", *QUESTIONS, "--out", out),
    "cv": lambda w, out: ("cv", *QUESTIONS, "--model", "oracle", "--k", "2", "--out", out),
    "index": lambda w, out: ("index", "--docs", GOLDEN / "docs.jsonl", "--out", out),
    "answer": lambda w, out: (
        "answer", "--config", config_file(w, model={"kind": "cosine"}), *QUESTIONS, "--out", out),
    "retrieve": lambda w, out: ("retrieve", "--config", config_file(w), *QUESTIONS, "--out", out),
    "snippets": lambda w, out: ("snippets", "--config", config_file(w), *QUESTIONS, "--out", out),
    "train": lambda w, out: (*TRAIN, "--labels", write(w / "l.jsonl", LABEL), "--out", out),
    "evaluate": lambda w, out: (
        "evaluate", *QUESTIONS, "--submission", GOLDEN / "answer.json", "--out", out),
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exits_2(tmp_path, command):
    out = tmp_path / "missing" / "out"
    args = [str(a) for a in UNWRITABLE_OUTPUTS[command](tmp_path, out)]
    with CliRunner().isolation() as (stdout, stderr, _):
        code = main(args)
        printed, err = stdout.getvalue().decode("utf-8"), stderr.getvalue().decode("utf-8")
    assert code == 2, err
    assert err == f"error: cannot write {out}: [Errno 2] No such file or directory: '{out}'\n"
    # The check comes before any work: no fold line, table or summary.
    assert printed == ""


def test_output_that_is_a_directory_exits_2(tmp_path):
    code, err = run_qfs("label", *QUESTIONS, "--out", tmp_path)
    assert code == 2, err
    assert err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("command", ["retrieve", "answer"])
def test_dense_dimension_mismatch_names_both_files(tmp_path, command):
    config = mismatched_dense_config(tmp_path)
    code, err = run_qfs(command, "--config", config, *QUESTIONS, "--out", tmp_path / "o.json")
    assert code == 2, err
    assert str(tmp_path / "docs.dvec") in err and str(tmp_path / "queries.dvec") in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind, dims", [
    ("nnc", {"emb_dim": 7, "lstm_hidden": 2, "dense_hidden": 2}),
    ("pooled", {"input_dim": 7, "dense_hidden": 2}),
])
def test_model_and_vectors_of_other_dimensions_name_both_files(tmp_path, kind, dims):
    model = tmp_path / "m.qfsm"
    save_params(init_params(kind, **dims), model)
    source = GOLDEN / "vectors.txt" if kind == "nnc" else tmp_path / "c.cemb"
    if kind == "pooled":
        write_context_file(source)  # 4-d, as are the golden word vectors
    config = config_file(tmp_path, model={
        "kind": kind, "params_path": str(model), "embeddings_path": str(source)})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    assert code == 2, err
    assert err.startswith(f"error: {model} holds a {kind} model of 7-d inputs, ")
    assert err.endswith(f"but {source} holds 4-d vectors\n")
    assert not (tmp_path / "a.json").exists()


def test_answer_with_context_embeddings_holding_no_records_exits_2(tmp_path):
    save_params(init_params("pooled", input_dim=4, dense_hidden=2), tmp_path / "m.qfsm")
    cemb = tmp_path / "c.cemb"
    write_context_embeddings(cemb, [])
    config = config_file(tmp_path, model={
        "kind": "pooled", "params_path": str(tmp_path / "m.qfsm"), "embeddings_path": str(cemb)})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    assert (code, err) == (2, f"error: {cemb}: holds no vectors\n")


@pytest.mark.parametrize("command", [
    lambda w: ("train", "--labels", GOLDEN / "labels.jsonl", "--out", w / "m.qfsm"),
    lambda w: ("cv", *QUESTIONS, "--k", "2"),
], ids=["train", "cv"])
@pytest.mark.parametrize("kind", ["nnc", "pooled"])
def test_training_on_a_file_holding_no_vectors_exits_2(tmp_path, command, kind):
    if kind == "nnc":
        source = write(tmp_path / "v.txt", "0 4\n")
    else:
        source = tmp_path / "c.cemb"
        write_context_embeddings(source, [])
    code, err = run_qfs(*command(tmp_path), "--model", kind, "--embeddings", source,
                        "--epochs", "1")
    assert (code, err) == (2, f"error: {source}: holds no vectors\n")
    assert not (tmp_path / "m.qfsm").exists()


@pytest.mark.parametrize("field", ["offsetInBeginSection", "offsetInEndSection"])
@pytest.mark.parametrize("raw", ["2.7", '"5"', "true", "5.0", "1e400"])
def test_snippet_offset_that_is_not_an_integer_names_the_file(tmp_path, field, raw):
    question = {"id": "q1", "type": "summary", "body": "b", "ideal_answer": ["Some text."],
                "snippets": [{**SNIPPET, field: "OFFSET"}]}
    # Raw text, so that 1e400 reaches the JSON parser as written.
    questions = write(tmp_path / "q.json", json.dumps([question]).replace('"OFFSET"', raw))
    code, err = run_qfs("label", "--questions", questions, "--out", tmp_path / "l.jsonl")
    assert code == 2, err
    assert err.startswith(f"error: {questions}: question 'q1': ")
    assert f"{field} must be an integer" in err and "Traceback" not in err


# Each case builds the arguments of one command line that misuses the program.
USAGE_ERRORS = {
    "missing required option": lambda w: ("index", "--docs", GOLDEN / "docs.jsonl"),
    "nnc model without word vectors": lambda w: (
        "train", "--model", "nnc", "--labels", GOLDEN / "labels.jsonl", "--out", w / "m"),
    "unknown command": lambda w: ("summarise", *QUESTIONS),
    "cv with zero folds": lambda w: ("cv", *QUESTIONS, "--k", "0"),
    "cv with one fold": lambda w: ("cv", *QUESTIONS, "--model", "oracle", "--k", "1"),
    "cv with a negative seed": lambda w: ("cv", *QUESTIONS, "--seed", "-1"),
    # k1 and b (retrieval.bm25_k1, bm25_b) and the documents per round
    # (retrieval.round_docs) are set in the config only, and each model kind
    # reads the file --embeddings names: these options are gone.
    **{
        f"index with {flag} {value}": lambda w, flag=flag, value=value: (
            "index", "--docs", GOLDEN / "docs.jsonl", "--out", w / "i.qidx", flag, value)
        for flag, value in [("--k1", "-1.2"), ("--k1", "nan"), ("--k1", "inf"), ("--k1", "2e6"),
                            ("--b", "-0.1"), ("--b", "1.5"), ("--b", "nan"),
                            ("--k1", "1.5"), ("--b", "0.5")]
    },
    "retrieve with zero documents": lambda w: (
        "retrieve", "--config", w / "c.json", *QUESTIONS, "--out", w / "r.json", "--k", "0"),
    "retrieve with --k 2": lambda w: (
        "retrieve", "--config", w / "c.json", *QUESTIONS, "--out", w / "r.json", "--k", "2"),
    "train with --cemb": lambda w: (
        "train", "--model", "pooled", "--labels", GOLDEN / "labels.jsonl", "--out", w / "m",
        "--cemb", w / "c.cemb"),
    "cv with --cemb": lambda w: ("cv", *QUESTIONS, "--model", "pooled", "--cemb", w / "c.cemb"),
    **{
        f"train with {flag} {value}": lambda w, flag=flag, value=value: (
            *TRAIN, "--labels", GOLDEN / "labels.jsonl", "--out", w / "m", flag, value)
        for flag, value in [("--seed", "-1"), ("--epochs", "0"), ("--batch-size", "0"),
                            ("--dropout", "1.5"), ("--lr", "-1"), ("--clip-len", "0"),
                            ("--lr", "nan"), ("--lr", "inf")]
    },
    **{
        f"cv with --lr {value}": lambda w, value=value: (
            "cv", *QUESTIONS, "--model", "nnc", "--k", "2", "--embeddings", GOLDEN / "vectors.txt",
            "--lr", value)
        for value in ("nan", "inf")
    },
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_error_exits_64(tmp_path, case):
    code, err = run_qfs(*USAGE_ERRORS[case](tmp_path))
    assert code == 64, err
    assert "Error" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_answer_exits_1_when_it_skips_a_question(tmp_path):
    golden = json.loads((GOLDEN / "questions.json").read_text())
    nothing = {**golden[0], "id": "q-none", "body": "Zyxwv qwrtp?"}  # matches no document
    questions = write(tmp_path / "q.json", json.dumps([*golden, nothing]))
    config = config_file(tmp_path, model={"kind": "cosine"})
    code, err = run_qfs("answer", "--config", config, "--questions", questions,
                        "--out", tmp_path / "a.json")
    assert code == 1, err
    answered = json.loads((tmp_path / "a.json").read_text())["questions"]
    assert [q["id"] for q in answered] == [q["id"] for q in golden]


def test_nnc_answers_over_a_sentence_with_no_tokens(tmp_path):
    docs = [json.loads(line) for line in (GOLDEN / "docs.jsonl").read_text().splitlines()]
    for doc in docs:
        doc["sections"].append({"id": "fn", "text": "*"})
    write(tmp_path / "docs.jsonl", "".join(json.dumps(doc) + "\n" for doc in docs))
    config = nnc_model_config(tmp_path, snippets={"strategy": "model"},
                              resources={"docs_path": str(tmp_path / "docs.jsonl")})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    assert (code, err) == (0, "")
    answered = json.loads((tmp_path / "a.json").read_text())["questions"]
    assert [q["id"] for q in answered] == ["q1", "q2", "q3", "q4"]


@pytest.mark.parametrize("epochs", ["2", "3"])
def test_a_diverging_train_exits_2_without_warnings(tmp_path, epochs):
    """At --lr 1e200 the update of epoch 2 makes the LSTM weights NaN. Training
    refuses them after that update, so a two-epoch run writes no model either,
    and numpy's warnings on the way stay inside."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err = run_qfs(*TRAIN, "--labels", GOLDEN / "labels.jsonl", "--lr", "1e200",
                            "--epochs", epochs, "--out", tmp_path / "m.qfsm")
    assert (code, err) == (2, "error: non-finite parameter block 'lstm_fwd.w_x' at epoch 2, "
                              "batch starting at example 0\n")
    assert caught == []
    assert not (tmp_path / "m.qfsm").exists()


@pytest.mark.parametrize("kind, ref, what", [
    ("document", "d1", "document 'd1'"),
    ("snippet", {"document": "d1", "section": "abstract", "offsetInBeginSection": 0,
                 "offsetInEndSection": 4}, "snippet ('d1', 'abstract', 0, 4)"),
], ids=["document", "snippet"])
def test_retrieve_names_the_feedback_file_of_a_conflict(tmp_path, kind, ref, what):
    items = [{"kind": kind, "ref": ref, "polarity": p} for p in ("relevant", "irrelevant")]
    feedback = write(tmp_path / "fb.json", json.dumps([{"question_id": "q1", "items": items}]))
    code, err = run_qfs("retrieve", "--config", config_file(tmp_path), *QUESTIONS,
                        "--feedback", feedback, "--out", tmp_path / "r.json")
    assert (code, err) == (2, f"error: {feedback}: conflicting feedback for {what} on 'q1'\n")


def test_nnc_trains_on_a_sentence_with_no_tokens(tmp_path):
    labels = write(tmp_path / "l.jsonl", LABEL.replace('"sentence": "s"', '"sentence": "*"'))
    code, err = run_qfs(*TRAIN, "--labels", labels, "--epochs", "1", "--out", tmp_path / "m.qfsm")
    assert (code, err) == (0, "")
    assert (tmp_path / "m.qfsm").exists()


def test_answer_scores_at_the_trained_clip_len(tmp_path, monkeypatch):
    clips = []
    score_questions = pipeline.ModelScorer.score_questions

    def recording(self, *args):
        clips.append(self.clip_len)
        return score_questions(self, *args)

    monkeypatch.setattr(pipeline.ModelScorer, "score_questions", recording)
    code, err = run_qfs(*TRAIN, "--labels", GOLDEN / "labels.jsonl", "--epochs", "1",
                        "--clip-len", "2", "--out", tmp_path / "m.qfsm")
    assert (code, err) == (0, "")
    config = config_file(tmp_path, model={
        "kind": "nnc", "params_path": str(tmp_path / "m.qfsm"),
        "embeddings_path": str(GOLDEN / "vectors.txt")})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    assert (code, err) == (0, "")
    assert clips and set(clips) == {2}


@pytest.fixture
def scored_positions(monkeypatch):
    """Each ModelScorer.score_questions call, as (question id, texts, positions) per question."""
    calls = []
    score_questions = pipeline.ModelScorer.score_questions

    def recording(self, questions, texts, positions):
        calls.append([(q.id, list(t), list(p)) for q, t, p in zip(questions, texts, positions)])
        return score_questions(self, questions, texts, positions)

    monkeypatch.setattr(pipeline.ModelScorer, "score_questions", recording)
    return calls


def test_model_strategy_positions_restart_per_document_then_count_the_candidates(
    tmp_path, scored_positions
):
    """Under the model snippet strategy, `qfs answer` scores twice per question:
    snippet selection numbers each ranked document's sentences from 0, and
    answer scoring numbers the candidates left after feedback 0..n-1."""
    config = nnc_model_config(tmp_path, snippets={"strategy": "model"})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS,
                        "--feedback", GOLDEN / "feedback.json", "--out", tmp_path / "a.json")
    assert (code, err) == (0, "")
    answered = json.loads((tmp_path / "a.json").read_text())["questions"]
    # Each golden document's sentence texts, section by section.
    sentences = {doc["id"]: [s.text for section in doc["sections"]
                             for s in split_sentences(section["text"])]
                 for doc in map(json.loads, (GOLDEN / "docs.jsonl").read_text().splitlines())}
    assert len(scored_positions) == 2 * len(answered)
    candidates = {}
    for answer, [snip], [score] in zip(answered, scored_positions[::2], scored_positions[1::2]):
        assert snip[0] == score[0] == answer["id"]
        assert list(zip(snip[1], snip[2])) == [
            (text, i) for d in answer["documents"] for i, text in enumerate(sentences[d])
        ]
        assert score[2] == list(range(len(score[1])))
        left = iter(snip[1])
        assert all(text in left for text in score[1])  # in snippet order
        candidates[answer["id"]] = score[1]
    # q4's one irrelevant snippet is an answer candidate only without feedback.
    irrelevant = "Alcohol rubs are as effective as soap for most viruses."
    assert irrelevant not in candidates["q4"]
    scored_positions.clear()
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "b.json")
    assert (code, err) == (0, "")
    [[(qid, texts, _)]] = scored_positions[-1:]
    assert qid == "q4" and irrelevant in texts


def test_cv_positions_are_the_label_positions(tmp_path, scored_positions):
    """`qfs cv --model nnc` numbers each held-out question's candidates 0..n-1,
    the position generate_labels writes for the same sentence."""
    code, err = run_qfs("cv", *QUESTIONS, "--model", "nnc", "--k", "2", "--epochs", "1",
                        "--embeddings", GOLDEN / "vectors.txt", "--out", tmp_path / "cv.json")
    assert (code, err) == (0, "")
    labels = pipeline.generate_labels(load_question_set(GOLDEN / "questions.json"))
    held_out = [question for call in scored_positions for question in call]
    assert sorted(qid for qid, _, _ in held_out) == ["q1", "q2", "q3", "q4"]
    for qid, texts, positions in held_out:
        assert positions == list(range(len(texts)))
        assert list(zip(texts, positions)) == [
            (ex.sentence_text, ex.position) for ex in labels if ex.pair_id.startswith(f"{qid}#")
        ]


@pytest.mark.parametrize("kind", ["nnc", "pooled"])
def test_scoring_builds_the_input_that_training_builds(tmp_path, kind):
    """A model trained on the golden labels scores each gold candidate, at
    cv's positions, as ``forward`` over the input its kind built for the
    example generate_labels writes for that sentence. Clip length 8 cuts
    some golden texts and not others, so a scorer that clips elsewhere fails."""
    if kind == "pooled":
        write_context_file(tmp_path / "context.cemb")
    source = KINDS[kind].load_source(
        tmp_path / "context.cemb" if kind == "pooled" else GOLDEN / "vectors.txt")
    config = replace(KINDS[kind].train_defaults, epochs=1, clip_len=8)
    params = train(kind, pipeline.load_labels(GOLDEN / "labels.jsonl"), source, config).params
    questions = list(load_question_set(GOLDEN / "questions.json"))
    texts = pipeline._gold_texts(questions, None)
    scores = pipeline.ModelScorer(params, source, config.clip_len).score_questions(
        questions, texts, [range(len(t)) for t in texts])
    assert [score for question in scores for score in question] == [
        forward(params, *KINDS[kind].input(source, ex.question_tokens, ex.sentence_tokens,
                                           ex.pair_id, ex.position, config.clip_len))
        for ex in pipeline.generate_labels(questions)
    ]


@pytest.mark.parametrize("field, value, message", [
    ("label", 2, "label must be 0 or 1, not 2"),
    ("position", -1, "position must be >= 0, not -1"),
])
def test_train_refuses_a_label_or_position_out_of_range(tmp_path, field, value, message):
    lines = (GOLDEN / "labels.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = json.dumps({**json.loads(lines[2]), field: value}) + "\n"
    labels = tmp_path / "labels.jsonl"
    labels.write_text("".join(lines), encoding="utf-8")
    code, err = run_qfs(*TRAIN, "--labels", labels, "--epochs", "1", "--out", tmp_path / "m.qfsm")
    assert (code, err) == (2, f"error: {labels}:3: bad labeled example: {message}\n")
    assert not (tmp_path / "m.qfsm").exists()


def test_label_with_documents_keeps_the_labels(tmp_path):
    code, err = run_qfs("label", *QUESTIONS, "--docs", GOLDEN / "docs.jsonl",
                        "--out", tmp_path / "l.jsonl")
    assert (code, err) == (0, "")
    assert (tmp_path / "l.jsonl").read_bytes() == (GOLDEN / "labels.jsonl").read_bytes()


# Each case edits the first gold snippet of the golden question q1.
GOLD_SNIPPET_DEFECTS = {
    "shifted offsets": lambda s: {
        **s, "offsetInBeginSection": s["offsetInBeginSection"] + 1,
        "offsetInEndSection": s["offsetInEndSection"] + 1},
    "missing section": lambda s: {**s, "section": "methods"},
    "missing document": lambda s: {**s, "document": "d-none"},
}


def check_rejects_gold_snippet_defect(tmp_path, case, *command):
    """``qfs *command --questions <q1's first snippet edited> --docs <golden>`` exits 2
    with one line naming the question and the snippet's document."""
    golden = json.loads((GOLDEN / "questions.json").read_text())
    first = golden[0]["snippets"][0]
    golden[0]["snippets"][0] = GOLD_SNIPPET_DEFECTS[case](first)
    questions = write(tmp_path / "q.json", json.dumps(golden))
    code, err = run_qfs(*command, "--questions", questions, "--docs", GOLDEN / "docs.jsonl")
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(golden[0]["id"]) in err
    assert repr(golden[0]["snippets"][0]["document"]) in err


@pytest.mark.parametrize("case", sorted(GOLD_SNIPPET_DEFECTS))
def test_label_with_documents_rejects_a_gold_snippet_off_its_section(tmp_path, case):
    check_rejects_gold_snippet_defect(tmp_path, case, "label", "--out", tmp_path / "l.jsonl")


# A classifier kind checks through the labels it trains on; the untrained
# scorers label nothing, so cross_validate checks every question up front.
@pytest.mark.parametrize("model", ["constant", "cosine", "oracle"])
@pytest.mark.parametrize("case", sorted(GOLD_SNIPPET_DEFECTS))
def test_cv_with_documents_rejects_a_gold_snippet_off_its_section(tmp_path, case, model):
    check_rejects_gold_snippet_defect(tmp_path, case, "cv", "--model", model, "--k", "2",
                                      "--out", tmp_path / "cv.json")
    assert not (tmp_path / "cv.json").exists()


# Each case edits golden question q1: the error class and message `qfs label` exits 2 with.
LABEL_ERRORS = {
    "no ideal answer": ({"ideal_answer": []}, MissingInput,
                        "question 'q1' has no ideal answers"),
    "no snippets": ({"snippets": []}, EmptyInput, "question 'q1' has no candidate sentences"),
    "whitespace snippets": ({"snippets": [{"document": "d1", "section": "abstract",
                                           "offsetInBeginSection": 0, "offsetInEndSection": 3,
                                           "text": " \t\n"}]},
                            EmptyInput, "question 'q1' has no candidate sentences"),
}


@pytest.mark.parametrize("case", sorted(LABEL_ERRORS))
def test_label_without_answers_or_candidates_exits_2(tmp_path, case):
    edit, error, message = LABEL_ERRORS[case]
    golden = json.loads((GOLDEN / "questions.json").read_text())
    questions = write(tmp_path / "q.json", json.dumps([{**golden[0], **edit}, *golden[1:]]))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        pipeline.generate_labels(load_question_set(questions))
    for command in (("label", "--out", tmp_path / "l.jsonl"),
                    ("cv", "--model", "oracle", "--k", "2")):
        code, err = run_qfs(*command, "--questions", questions)
        assert (code, err) == (2, f"error: {questions}: {message}\n")


@pytest.mark.parametrize("case", sorted(LABEL_ERRORS))
def test_cv_checks_every_question_before_the_first_fold(tmp_path, caplog, case):
    """q4 is held out in the second of two folds; its defect stops cv before
    the first fold is scored: no fold line is logged or printed."""
    edit, _, message = LABEL_ERRORS[case]
    golden = json.loads((GOLDEN / "questions.json").read_text())
    questions = write(tmp_path / "q.json", json.dumps([*golden[:3], {**golden[3], **edit}]))
    caplog.set_level(logging.INFO, logger="qfs")
    with CliRunner().isolation() as (stdout, stderr, _):
        code = main(["cv", "--questions", str(questions), "--model", "oracle", "--k", "2"])
        printed, err = stdout.getvalue().decode("utf-8"), stderr.getvalue().decode("utf-8")
    assert (code, err) == (2, f"error: {questions}: {message.replace('q1', 'q4')}\n")
    assert printed == ""
    assert not [r for r in caplog.records if "fold" in r.getMessage()]


@pytest.mark.parametrize("command, pair_id", [
    (lambda w: ("train", "--labels", GOLDEN / "labels.jsonl", "--out", w / "m.qfsm"), "q1#1"),
    (lambda w: ("cv", *QUESTIONS, "--k", "2"), "q2#0"),
])
def test_a_pair_without_a_context_embedding_record_names_the_file(tmp_path, command, pair_id):
    cemb = tmp_path / "c.cemb"
    write_context_embeddings(cemb, [ContextEmbeddingRecord("q1#0", np.ones((1, 4)), [True])])
    code, err = run_qfs(*command(tmp_path), "--model", "pooled", "--embeddings", cemb,
                        "--epochs", "1")
    message = f"error: {cemb}: no context-embedding record for pair id {pair_id!r}\n"
    assert (code, err) == (2, message)


def test_cv_with_more_folds_than_questions_exits_2():
    questions = load_question_set(GOLDEN / "questions.json")
    with pytest.raises(EmptyInput, match="^4 questions for 10 folds$"):
        pipeline.cross_validate(questions, None, pipeline.ModelSpec("oracle"), k=10)
    code, err = run_qfs("cv", *QUESTIONS, "--model", "oracle", "--k", "10")
    assert (code, err) == (2, "error: 4 questions for 10 folds\n")


def test_cross_validate_needs_two_folds():
    questions = load_question_set(GOLDEN / "questions.json")
    with pytest.raises(ValueError, match="^cross-validation needs at least 2 folds, got 1$"):
        pipeline.cross_validate(questions, None, pipeline.ModelSpec("oracle"), k=1)


@pytest.mark.parametrize("model", ["oracle", "nnc"])
def test_cross_validate_checks_each_gold_offset_once(monkeypatch, model):
    """Every question is checked against the documents once, before the folds,
    also when a classifier kind labels its training questions."""
    checked = []
    check = pipeline._check_gold_offsets

    def counting(question, collection):
        checked.append(question.id)
        check(question, collection)

    monkeypatch.setattr(pipeline, "_check_gold_offsets", counting)
    spec = pipeline.ModelSpec(model)
    if model in KINDS:
        spec.source = KINDS[model].load_source(GOLDEN / "vectors.txt")
        spec.config = replace(KINDS[model].train_defaults, epochs=1)
    questions = load_question_set(GOLDEN / "questions.json")
    collection = load_document_collection(GOLDEN / "docs.jsonl")
    pipeline.cross_validate(questions, collection, spec, k=2)
    assert checked == [q.id for q in questions]


def test_assemble_answer_from_no_sentences_is_empty_input():
    with pytest.raises(EmptyInput, match="^cannot assemble an answer from no sentences$"):
        pipeline.assemble_answer("summary", [])


def nir_config_without_q4(tmp_path) -> tuple[Path, Path, Path]:
    """A nir config over the golden documents whose query vectors cover q1-q3 only,
    and its document and query vector files."""
    docs, queries = tmp_path / "docs.dvec", tmp_path / "queries.dvec"
    save_dense_store(DenseStore.from_vectors({f"d{i}": np.ones(4) for i in range(1, 6)}), docs)
    save_dense_store(DenseStore.from_vectors({f"q{i}": np.ones(4) for i in range(1, 4)}), queries)
    config = config_file(
        tmp_path, retrieval={"method": "nir"}, model={"kind": "cosine"},
        resources={"dense_path": str(docs), "query_vectors_path": str(queries)},
    )
    return config, docs, queries


@pytest.mark.parametrize("command, summary", [
    ("retrieve", "ranked 3 questions, skipped 1"),
    ("snippets", "snippets for 3 questions, skipped 1"),
    ("answer", "answered 3 questions, skipped 1"),
], ids=["retrieve", "snippets", "answer"])
def test_every_per_question_command_skips_a_failing_question(tmp_path, caplog, command, summary):
    """retrieve, snippets and answer log a question whose step fails, write the
    others and exit 1; snippets still writes answer's snippets."""
    config = nir_config_without_q4(tmp_path)[0]
    out = tmp_path / f"{command}.json"
    assert run_qfs_stdout(command, "--config", config, *QUESTIONS, "--out", out) == (
        1, f"{summary} -> {out}\n")
    assert "skipping question q4: no query vector for question 'q4'" in caplog.text
    written = json.loads(out.read_text())["questions"]
    assert [q["id"] for q in written] == ["q1", "q2", "q3"]
    if command == "snippets":
        answer = tmp_path / "answer.json"
        code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", answer)
        assert code == 1, err
        answered = json.loads(answer.read_text())["questions"]
        assert [q["snippets"] for q in written] == [q["snippets"] for q in answered]
        assert any(q["snippets"] for q in written)


def test_nir_answer_skips_a_question_without_a_query_vector(tmp_path, caplog):
    config, docs, queries = nir_config_without_q4(tmp_path)
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    assert code == 1, err
    assert "skipping question q4: no query vector for question 'q4'" in caplog.text
    answered = json.loads((tmp_path / "a.json").read_text())
    assert [q["id"] for q in answered["questions"]] == ["q1", "q2", "q3"]

    # The command answers as the in-process pipeline does with a cosine scorer.
    collection = load_document_collection(GOLDEN / "docs.jsonl")
    resources = pipeline.Resources(
        collection, build_index(collection), pipeline.CosineScorer(),
        dense=load_dense_store(docs), query_vectors=load_dense_store(queries),
    )
    questions = load_question_set(GOLDEN / "questions.json")
    nir = parse_config({"retrieval": {"method": "nir"}})
    in_process = [pipeline.answer_question(q, nir, resources) for q in list(questions)[:3]]
    assert answered == pipeline.submission_to_json(in_process)
    q4 = questions["q4"]
    with pytest.raises(MissingInput, match="^no query vector for question 'q4'$"):
        pipeline.retrieve(q4, nir, resources)
    resources.dense = None
    with pytest.raises(
        MissingInput, match="^retrieval method 'nir' needs dense vectors and query vectors$"
    ):
        pipeline.retrieve(q4, nir, resources)
