"""The `qfs` command line: exit codes, error reporting and a golden end-to-end chain."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from qfs.cli import main
from qfs.corpus import QuestionSet, save_document_collection, save_question_set

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


def build_index_file(workspace, *flags) -> None:
    code, err = run_qfs(
        "index", "--docs", workspace / "docs.jsonl", "--out", workspace / "index.qidx", *flags
    )
    assert (code, err) == (0, "")


class TestRetrieveWithIndexFile:
    def test_matching_parameters_exit_0(self, workspace):
        build_index_file(workspace, "--k1", "1.5", "--b", "0.5")
        config = write_config(workspace, "c.json", True, bm25_k1=1.5, bm25_b=0.5)
        assert retrieve(workspace, config, "from_file.json") == (0, "")
        built = write_config(workspace, "b.json", False, bm25_k1=1.5, bm25_b=0.5)
        assert retrieve(workspace, built, "built.json") == (0, "")
        from_file = (workspace / "from_file.json").read_bytes()
        assert from_file == (workspace / "built.json").read_bytes()
        ranked = json.loads(from_file)["questions"][0]["ranked"]
        assert ranked[0]["document"] == "d1"

    @pytest.mark.parametrize("setting", [{"bm25_k1": 1.2}, {"bm25_b": 0.75}])
    def test_mismatched_parameters_exit_2(self, workspace, setting):
        build_index_file(workspace, "--k1", "1.5", "--b", "0.5")
        params = {"bm25_k1": 1.5, "bm25_b": 0.5, **setting}
        config = write_config(workspace, "c.json", True, **params)
        code, err = retrieve(workspace, config, "out.json")
        assert code == 2
        assert "index was built with k1=1.5, b=0.5" in err
        assert "qfs index" in err
        assert not (workspace / "out.json").exists()

    def test_truncated_index_exit_2(self, workspace):
        build_index_file(workspace)
        path = workspace / "index.qidx"
        path.write_bytes(path.read_bytes()[:-9])
        code, err = retrieve(workspace, write_config(workspace, "c.json", True), "out.json")
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


GOLDEN = Path(__file__).parent / "golden"
# Outputs checked in under tests/golden; QFS_UPDATE_GOLDEN=1 rewrites them.
GOLDEN_OUTPUTS = ("retrieve.json", "snippets.json", "labels.jsonl", "cv.json")


def run_chain(work: Path) -> dict[str, bytes]:
    """Every command over the golden fixture, in order; returns each output's bytes."""
    questions, feedback = GOLDEN / "questions.json", GOLDEN / "feedback.json"
    model = {
        "kind": "nnc",
        "params_path": str(work / "model.qfsm"),
        "embeddings_path": str(GOLDEN / "vectors.txt"),
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
    per_question = ("--questions", questions, "--feedback", feedback)
    steps = [
        ("index", "--docs", GOLDEN / "docs.jsonl", "--out", work / "index.qidx"),
        ("retrieve", "--config", configs["cosine"], *per_question, "--out", work / "retrieve.json"),
        ("snippets", "--config", configs["cosine"], *per_question, "--out", work / "snippets.json"),
        ("label", "--questions", questions, "--out", work / "labels.jsonl"),
        ("train", "--labels", work / "labels.jsonl", "--model", "nnc", "--epochs", "1",
         "--embeddings", GOLDEN / "vectors.txt", "--out", work / "model.qfsm"),
        ("answer", "--config", configs["cosine"], *per_question, "--out", work / "answer.json"),
        ("evaluate", "--questions", questions, "--submission", work / "answer.json",
         "--out", work / "evaluate.json"),
        ("cv", "--questions", questions, "--model", "oracle", "--k", "2", "--out", work / "cv.json"),
        ("snippets", "--config", configs["model"], *per_question,
         "--out", work / "model-snippets.json"),
        ("answer", "--config", configs["model"], *per_question, "--out", work / "model-answer.json"),
    ]
    for step in steps:
        assert run_qfs(*step) == (0, ""), step[0]
    return {p.name: p.read_bytes() for p in work.iterdir() if p.suffix != ".config"}


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
        for name in GOLDEN_OUTPUTS:
            assert outputs[name] == (GOLDEN / name).read_bytes(), name

    @pytest.mark.parametrize("prefix", ["", "model-"])
    def test_snippets_equal_answer_snippets(self, chain_outputs, prefix):
        outputs = chain_outputs[0]
        snippets = json.loads(outputs[f"{prefix}snippets.json"])["questions"]
        answers = json.loads(outputs[f"{prefix}answer.json"])["questions"]
        assert [q["id"] for q in snippets] == [q["id"] for q in answers]
        assert [q["snippets"] for q in snippets] == [q["snippets"] for q in answers]
        assert any(q["snippets"] for q in snippets)


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def config_file(work: Path, **sections) -> Path:
    """A config over the golden documents, with the given sections merged in."""
    payload = {"resources": {"docs_path": str(GOLDEN / "docs.jsonl")}}
    for name, values in sections.items():
        payload[name] = {**payload.get(name, {}), **values}
    return write(work / "config.json", json.dumps(payload))


LABEL = '{"question": "q", "sentence": "s", "position": 0, "label": 1}\n'
TRAIN = ("train", "--model", "nnc", "--embeddings", GOLDEN / "vectors.txt")
QUESTIONS = ("--questions", GOLDEN / "questions.json")

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
    "train missing word vectors": lambda w: (
        "train", "--model", "nnc", "--embeddings", w / "missing.txt",
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "train missing context embeddings": lambda w: (
        "train", "--model", "pooled", "--cemb", w / "missing.cemb",
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
    "config with a non-numeric seed": lambda w: (
        "config", "validate", "--config", write(w / "c.json", '{"seed": "x"}')),
    "config with a non-numeric round_docs count": lambda w: (
        "config", "validate", "--config",
        write(w / "c.json", '{"retrieval": {"round_docs": {"1": "many"}}}')),
    "config with a list for a section": lambda w: (
        "config", "validate", "--config", write(w / "c.json", '{"retrieval": []}')),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_missing_or_corrupt_input_exits_2(tmp_path, case):
    code, err = run_qfs(*BROKEN_INPUTS[case](tmp_path))
    assert code == 2, err
    assert err.startswith("error: ")
    assert "Traceback" not in err
