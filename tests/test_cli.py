"""The `qfs` command line: exit codes, error reporting and a golden end-to-end chain."""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qfs import pipeline
from qfs.cli import main
from qfs.corpus import QuestionSet, save_document_collection, save_question_set
from qfs.embeddings import ContextEmbeddingRecord, write_context_embeddings
from qfs.neural import save_params
from qfs.neural.models import init_nnc

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


    @pytest.mark.parametrize("edit", ["longer section", "section removed", "document removed"])
    def test_docs_edited_after_indexing_exit_2(self, workspace, micro_collection, edit):
        build_index_file(workspace)
        docs = [json.loads(line) for line in (workspace / "docs.jsonl").read_text().splitlines()]
        if edit == "longer section":
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
    "retrieve.json", "snippets.json", "labels.jsonl", "answer.json",
    "model-snippets.json", "model-answer.json", "cv.json", "cv-nnc.json", "cv-pooled.json",
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


def run_chain(work: Path) -> dict[str, bytes]:
    """Every command over the golden fixture, in order; returns each output's bytes."""
    questions, feedback = GOLDEN / "questions.json", GOLDEN / "feedback.json"
    vectors, cemb = GOLDEN / "vectors.txt", work / "context.cemb"
    write_context_file(cemb)
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
    per_question = ("--questions", questions, "--feedback", feedback)
    steps = [
        ("index", "--docs", GOLDEN / "docs.jsonl", "--out", work / "index.qidx"),
        ("retrieve", "--config", configs["cosine"], *per_question, "--out", work / "retrieve.json"),
        ("snippets", "--config", configs["cosine"], *per_question, "--out", work / "snippets.json"),
        ("label", "--questions", questions, "--out", work / "labels.jsonl"),
        ("train", "--labels", work / "labels.jsonl", "--model", "nnc", "--epochs", "1",
         "--embeddings", vectors, "--out", work / "model.qfsm"),
        ("answer", "--config", configs["cosine"], *per_question, "--out", work / "answer.json"),
        ("evaluate", "--questions", questions, "--submission", work / "answer.json",
         "--out", work / "evaluate.json"),
        ("cv", "--questions", questions, "--model", "oracle", "--k", "2", "--out", work / "cv.json"),
        ("snippets", "--config", configs["model"], *per_question,
         "--out", work / "model-snippets.json"),
        ("answer", "--config", configs["model"], *per_question, "--out", work / "model-answer.json"),
        ("train", "--labels", work / "labels.jsonl", "--model", "pooled", "--epochs", "2",
         "--cemb", cemb, "--out", work / "pooled.qfsm"),
        ("cv", "--questions", questions, "--model", "pooled", "--k", "2", "--cemb", cemb,
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
    "train word vectors that are not UTF-8": lambda w: (
        "train", "--model", "nnc", "--embeddings", write_bytes(w / "v.txt", b"1 1\n\xff 0.5\n"),
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "train context-embedding id that is not UTF-8": lambda w: (
        "train", "--model", "pooled", "--cemb", write_bytes(w / "c.cemb", CEMB_BAD_ID),
        "--labels", write(w / "l.jsonl", LABEL), "--out", w / "m"),
    "index stopwords that are not UTF-8": lambda w: (
        "index", "--docs", GOLDEN / "docs.jsonl",
        "--stopwords", write_bytes(w / "s.txt", b"the\n\xff\n"), "--out", w / "i.qidx"),
    "retrieve dense-vector id that is not UTF-8": lambda w: (
        "retrieve", "--config", config_file(w, retrieval={"method": "nir"}, resources={
            "dense_path": str(write_bytes(w / "d.dvec", DVEC_BAD_ID)),
            "query_vectors_path": str(w / "d.dvec")}),
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


# Each case builds the arguments of one command line that misuses the program.
USAGE_ERRORS = {
    "missing required option": lambda w: ("index", "--docs", GOLDEN / "docs.jsonl"),
    "nnc model without word vectors": lambda w: (
        "train", "--model", "nnc", "--labels", GOLDEN / "labels.jsonl", "--out", w / "m"),
    "unknown command": lambda w: ("summarise", *QUESTIONS),
    "cv with zero folds": lambda w: ("cv", *QUESTIONS, "--k", "0"),
    "cv with a negative seed": lambda w: ("cv", *QUESTIONS, "--seed", "-1"),
    "retrieve with zero documents": lambda w: (
        "retrieve", "--config", w / "c.json", *QUESTIONS, "--out", w / "r.json", "--k", "0"),
    **{
        f"train with {flag} {value}": lambda w, flag=flag, value=value: (
            *TRAIN, "--labels", GOLDEN / "labels.jsonl", "--out", w / "m", flag, value)
        for flag, value in [("--seed", "-1"), ("--epochs", "0"), ("--batch-size", "0"),
                            ("--dropout", "1.5"), ("--lr", "-1"), ("--clip-len", "0")]
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
    save_params(init_nnc(emb_dim=4, lstm_hidden=2, dense_hidden=2), tmp_path / "m.qfsm")
    config = config_file(tmp_path, model={
        "kind": "nnc", "params_path": str(tmp_path / "m.qfsm"),
        "embeddings_path": str(GOLDEN / "vectors.txt")})
    code, err = run_qfs("answer", "--config", config, "--questions", questions,
                        "--out", tmp_path / "a.json")
    assert code == 1, err
    answered = json.loads((tmp_path / "a.json").read_text())["questions"]
    assert [q["id"] for q in answered] == [q["id"] for q in golden]


def test_answer_scores_at_the_trained_clip_len(tmp_path, monkeypatch):
    clips = []
    score_sentences = pipeline.ModelScorer.score_sentences

    def recording(self, *args):
        clips.append(self.clip_len)
        return score_sentences(self, *args)

    monkeypatch.setattr(pipeline.ModelScorer, "score_sentences", recording)
    code, err = run_qfs(*TRAIN, "--labels", GOLDEN / "labels.jsonl", "--epochs", "1",
                        "--clip-len", "2", "--out", tmp_path / "m.qfsm")
    assert (code, err) == (0, "")
    config = config_file(tmp_path, model={
        "kind": "nnc", "params_path": str(tmp_path / "m.qfsm"),
        "embeddings_path": str(GOLDEN / "vectors.txt")})
    code, err = run_qfs("answer", "--config", config, *QUESTIONS, "--out", tmp_path / "a.json")
    assert (code, err) == (0, "")
    assert clips and set(clips) == {2}


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


@pytest.mark.parametrize("case", sorted(GOLD_SNIPPET_DEFECTS))
def test_label_with_documents_rejects_a_gold_snippet_off_its_section(tmp_path, case):
    golden = json.loads((GOLDEN / "questions.json").read_text())
    first = golden[0]["snippets"][0]
    golden[0]["snippets"][0] = GOLD_SNIPPET_DEFECTS[case](first)
    questions = write(tmp_path / "q.json", json.dumps(golden))
    code, err = run_qfs("label", "--questions", questions, "--docs", GOLDEN / "docs.jsonl",
                        "--out", tmp_path / "l.jsonl")
    assert code == 2, err
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(golden[0]["id"]) in err
    assert repr(golden[0]["snippets"][0]["document"]) in err
