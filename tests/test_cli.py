"""Exit-code contract of `qfs index` followed by `qfs retrieve`."""

from __future__ import annotations

import json

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
