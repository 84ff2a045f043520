"""No JSON input ends in a traceback: a property test over one-field mutations.

In the QuickCheck style (Claessen & Hughes, ICFP 2000): one field of one
golden JSON input, at any depth, is replaced by one of a dozen JSON
values, and every command that reads that input runs through
``qfs.cli.main``. Whatever the value, the command exits 0, 1 or 2, and a
data error (exit 2) names the mutated file.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs.cli import main
from qfs.config import PipelineConfig, ResourcePaths, emit_config

GOLDEN = Path(__file__).parent / "golden"
DOCS, QUESTIONS = GOLDEN / "docs.jsonl", GOLDEN / "questions.json"

VALUES = (None, True, 0, -1, 2.7, 1e308, "", "x", [], {}, [None], {"a": 1})

# Every field of the config, with the golden documents.
CONFIG = emit_config(PipelineConfig(resources=ResourcePaths(docs_path=str(DOCS))))


def golden(name: str):
    """A golden input: the parsed JSON document, or the list of a JSONL file's lines."""
    text = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text)


def config_file(work: Path) -> Path:
    path = work / "unmutated-config.json"
    path.write_text(json.dumps(CONFIG), encoding="utf-8")
    return path


# Each input: its content, and the commands that read it, as argument lists
# built from the mutated file `f` and a work directory `w`.
INPUTS = {
    "docs.jsonl": (golden("docs.jsonl"), [
        lambda f, w: ("index", "--docs", f, "--out", w / "i.qidx"),
    ]),
    "questions.json": (golden("questions.json"), [
        lambda f, w: ("label", "--questions", f, "--docs", DOCS, "--out", w / "l.jsonl"),
        lambda f, w: ("evaluate", "--questions", f, "--submission", GOLDEN / "answer.json"),
    ]),
    "feedback.json": (golden("feedback.json"), [
        lambda f, w: ("retrieve", "--config", config_file(w), "--questions", QUESTIONS,
                      "--feedback", f, "--out", w / "r.json"),
    ]),
    "config.json": (CONFIG, [
        lambda f, w: ("config", "validate", "--config", f),
    ]),
    "labels.jsonl": (golden("labels.jsonl"), [
        lambda f, w: ("train", "--model", "nnc", "--embeddings", GOLDEN / "vectors.txt",
                      "--epochs", "1", "--labels", f, "--out", w / "m.qfsm"),
    ]),
    "answer.json": (golden("answer.json"), [
        lambda f, w: ("evaluate", "--questions", QUESTIONS, "--submission", f),
    ]),
}


def field_paths(value, prefix: tuple = ()):
    """The path of ``value`` and of every value inside it, depth first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from field_paths(child, (*prefix, key))


def replaced(value, path: tuple, new):
    """A copy of ``value`` whose field at ``path`` is ``new``."""
    if not path:
        return new
    copy = list(value) if isinstance(value, list) else dict(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


# Every field of every input; a JSONL file's fields are its lines and what they hold.
FIELDS = [
    (name, path)
    for name, (content, _) in INPUTS.items()
    for path in field_paths(content)
    if path or not name.endswith(".jsonl")
]

def run_mutated(name: str, path: tuple, value, work: Path) -> None:
    """Write input ``name`` with ``value`` at ``path`` and run each command that reads it."""
    content, commands = INPUTS[name]
    mutated = replaced(content, path, value)
    target = work / name
    lines = mutated if name.endswith(".jsonl") else [mutated]
    target.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
    for command in commands:
        args = [str(a) for a in command(target, work)]
        with CliRunner().isolation() as (_, stderr, _):
            code = main(args)
            err = stderr.getvalue().decode("utf-8")
        assert code in (0, 1, 2), (args, err)
        if code == 2:
            assert str(target) in err, (args, err)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.sampled_from(VALUES))
def test_no_mutated_input_ends_in_a_traceback(where, value):
    name, path = where
    with tempfile.TemporaryDirectory() as work:
        run_mutated(name, path, value, Path(work))
