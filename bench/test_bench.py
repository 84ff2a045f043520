"""Tests of the benchmark itself: python -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
from qfs.corpus import load_document_collection, load_question_set  # noqa: E402
from qfs.pipeline import candidate_sentences  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = gen.generate(workload, 7, tmp_path / "a", size="tiny")
    b = gen.generate(workload, 7, tmp_path / "b", size="tiny")
    c = gen.generate(workload, 8, tmp_path / "c", size="tiny")
    assert a.keys() == b.keys()
    for key in a:
        assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes(), key
    assert Path(a["docs"]).read_bytes() != Path(c["docs"]).read_bytes()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_gold_offsets_match_section_text(tmp_path, workload):
    paths = gen.generate(workload, 3, tmp_path, size="tiny")
    docs = load_document_collection(paths["docs"])
    questions = load_question_set(paths["questions"])
    for q in questions:
        assert q.gold_snippets and len(q.ideal_answers) == 2
        spans = list(q.gold_snippets) + candidate_sentences(q)
        for s in spans:
            assert docs[s.doc_id].section_text(s.section_id)[s.begin_char:s.end_char] == s.text


def test_generator_words_are_the_program_tokens():
    from qfs.textproc import token_surfaces

    g = gen.Generator(gen.SHAPES["tiny"]["fulltext-nir-feedback"], 5)
    docs, _, ids = g.documents()
    for doc, doc_ids in zip(docs, ids):
        tokens = [t for _, text in doc.sections for t in token_surfaces(text)]
        assert tokens == [g.words[i] for i in doc_ids.tolist()]


def test_names_and_spec_match_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_su4_reference_agrees_with_program():
    from qfs.metrics import rouge_su4_f1

    pairs = [("Alpha beta gamma delta.", "beta gamma alpha beta"),
             ("one two three four five six seven", "seven six one two"),
             ("No overlap here.", "entirely different words")]
    for cand, ref in pairs:
        assert run.su4_reference(cand, ref) == pytest.approx(rouge_su4_f1(cand, ref).f1, abs=1e-12)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload == "labels-cv":
        assert result["metrics"]["retrieval.calls"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "labels-cv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
