"""qfs benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It generates the workload's inputs
from the seed (``bench/gen.py``, in a child process), sets up the
program's resources several times, then drives ``qfs`` from this single
process in a closed loop: one caller, questions in file order, no
threads. The loop wraps to the first question when the set runs out and
stops once ``--seconds`` have passed and every question was answered at
least once.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, timed on the calibrated clock of ``clock.py``.
With ``--trace 1`` each question of the same loop is also replayed
through the public steps, traced, right after its untraced call; the
spans give the per-layer metrics. Every run checks the program's
outputs (see ``README.md``); a failed check prints ``"correct": false``
and exits 1. Without the package under ``src/`` it exits 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from clock import REFERENCE_MS, Clock

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

# End-to-end metrics (untraced run) and per-layer metrics (traced run),
# name -> unit. Every workload reports every one; a layer the workload
# does not call reports 0.
END_TO_END = {
    "questions_per_s": "1/s",
    "question_p50_ms": "ms",
    "question_p95_ms": "ms",
    "scoring_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "su4_f1": "F1",
}
PER_LAYER = {
    "retrieval.calls": "count",
    "retrieval.search_ms.p50": "ms",
    "retrieval.search_ms.p95": "ms",
    "retrieval.search_share_pct": "%",
    "retrieval.postings_touched": "count",
    "retrieval.docs_scored": "count",
    "retrieval.topk_ratio": "ratio",
    "retrieval.build_index_s": "s",
    "retrieval.save_index_s": "s",
    "retrieval.load_index_s": "s",
    "retrieval.load_dense_s": "s",
    "corpus.load_docs_s": "s",
    "corpus.load_questions_s": "s",
    "corpus.load_feedback_s": "s",
    "corpus.filter_ms": "ms",
    "corpus.feedback_dropped": "count",
    "pipeline.doc_sentences_ms": "ms",
    "pipeline.snip_ms.p50": "ms",
    "pipeline.snip_ms.p95": "ms",
    "pipeline.snip_share_pct": "%",
    "pipeline.sentences_considered": "count",
    "pipeline.snippet_yield": "ratio",
    "pipeline.score_ms": "ms",
    "pipeline.candidates": "count",
    "pipeline.assemble_ms": "ms",
    "pipeline.labels_s": "s",
    "pipeline.cv_fold_ms": "ms",
    "metrics.su4_calls": "count",
    "metrics.su4_us": "us",
    "metrics.su4_share_pct": "%",
    "metrics.evaluate_s": "s",
    "trace.overhead_pct": "%",
    "trace.span_coverage_pct": "%",
}
SETUP_LAYERS = (
    "corpus.load_docs_s", "corpus.load_questions_s", "corpus.load_feedback_s",
    "retrieval.load_dense_s", "retrieval.build_index_s", "retrieval.save_index_s",
    "retrieval.load_index_s",
)

# Answer workloads and their pipeline config: bm25 round 1 (50 docs) with
# no feedback, and nir hybrid round 2 (100 docs) with a feedback file.
ANSWER_CONFIGS = {
    "abstracts-bm25": {},
    "fulltext-nir-feedback": {"retrieval": {"method": "nir", "lambda": 0.5}, "round": 2},
}
WORKLOADS = (*ANSWER_CONFIGS, "labels-cv")
CV_FOLDS = 10

# Set up at least SETUP_MIN_REPS times and for at least SETUP_MIN_S
# seconds; setup_s is the median. Cheap set-ups repeat more, which
# keeps a median of a few milliseconds steady.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 2.0, 25
CHECK_QUESTIONS = 20  # replayed untraced in every --trace 0 run
# evaluate_run is short, so it repeats for a while; scoring_s is the median.
EVALUATE_MIN_REPS, EVALUATE_MIN_S = 3, 2.0
REFERENCE_TOLERANCE = 1e-9
POSITIVE_LABELS = 5  # generate_labels marks the top 5 candidates by SU4-F1


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_qfs():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qfs" / "__init__.py").is_file():
        fail(f"no qfs package under {src.name}/ in {ROOT}; run from a full checkout")
    sys.path.insert(0, str(src))
    import qfs

    if Path(qfs.__file__).resolve().parent != (src / "qfs").resolve():
        fail(f"imported qfs from {qfs.__file__}, not from this checkout")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); a single value is its own."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def env_stamp(args, shape) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qfs").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "sizes": dataclasses.asdict(shape),
    }


def generate(args, work: Path) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(work), "--size", args.size],
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"input generation failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclasses.dataclass
class State:
    """Everything one set-up produces; the last set-up's state is measured."""

    collection: object
    questions: list
    resources: object = None
    timings: dict = dataclasses.field(default_factory=dict)  # raw seconds per step
    intervals: list = dataclasses.field(default_factory=list)  # (start_ns, end_ns)
    roundtrip_ok: bool = True


def set_up(paths: dict, answers: bool, work: Path, clock: Clock) -> State:
    """Load the inputs and, for answer workloads, build, save and reload
    the index. Each step is timed on its own, with a calibration slice
    after it; the steps' sum is one setup_s."""
    from qfs import corpus, pipeline, retrieval
    from qfs.textproc import token_surfaces

    timings, intervals = dict.fromkeys(SETUP_LAYERS, 0.0), []

    def timed(name, fn, *fn_args):
        start = perf_counter_ns()
        result = fn(*fn_args)
        end = perf_counter_ns()
        clock.calibrate()
        timings[name] += (end - start) / 1e9
        intervals.append((start, end))
        return result

    collection = timed("corpus.load_docs_s", corpus.load_document_collection, paths["docs"])
    questions = list(timed("corpus.load_questions_s", corpus.load_question_set,
                           paths["questions"]))
    if not answers:
        return State(collection, questions, timings=timings, intervals=intervals)
    feedback = corpus.FeedbackStore.empty()
    if "feedback" in paths:
        feedback = timed("corpus.load_feedback_s", corpus.FeedbackStore.load, paths["feedback"])
    dense = query_vectors = None
    if "dense" in paths:
        dense = timed("retrieval.load_dense_s", retrieval.load_dense_store, paths["dense"])
        query_vectors = timed("retrieval.load_dense_s", retrieval.load_dense_store,
                              paths["query_vectors"])
    built = timed("retrieval.build_index_s", retrieval.build_index, collection)
    index_path = work / "index.qidx"
    timed("retrieval.save_index_s", retrieval.save_index, built, index_path)
    probes = [token_surfaces(q.body) for q in questions[:5]]
    expected = [retrieval.bm25_search(built, toks, 50) for toks in probes]
    del built
    index = timed("retrieval.load_index_s", retrieval.load_index, index_path)
    roundtrip_ok = expected == [retrieval.bm25_search(index, toks, 50) for toks in probes]
    resources = pipeline.Resources(
        collection=collection, index=index, scorer=pipeline.CosineScorer(),
        dense=dense, query_vectors=query_vectors, feedback=feedback,
    )
    return State(collection, questions, resources, timings, intervals, roundtrip_ok)


def set_up_repeatedly(
    paths: dict, answers: bool, work: Path, clock: Clock
) -> tuple[State, float, float, dict]:
    """Median calibrated and raw set-up time, and raw per-step medians."""
    totals, raw, per_layer, state = [], [], {name: [] for name in SETUP_LAYERS}, None
    started = perf_counter()
    while len(totals) < SETUP_MAX_REPS and (
        len(totals) < SETUP_MIN_REPS or perf_counter() - started < SETUP_MIN_S
    ):
        state = None
        gc.collect()
        clock.calibrate()
        state = set_up(paths, answers, work, clock)
        totals.append(sum(clock.scale(a, b) for a, b in state.intervals))
        raw.append(sum(state.timings.values()))
        for name, value in state.timings.items():
            per_layer[name].append(value)
    return state, statistics.median(totals), statistics.median(raw), {
        name: statistics.median(values) for name, values in per_layer.items()
    }


@dataclasses.dataclass
class Loop:
    intervals: list  # (start_ns, end_ns) of every call
    first: list  # first-pass outputs; a QfsError is kept as its class
    failed: int
    stable: bool  # every later pass matched the first

    @property
    def calls(self) -> int:
        return len(self.intervals)

    def raw_ms(self) -> list[float]:
        return [(b - a) / 1e6 for a, b in self.intervals]


def closed_loop(questions: list, call, seconds: float, clock: Clock, after=None) -> Loop:
    """Call ``call(q)`` on questions in file order, wrapping around, until
    ``seconds`` have passed and each question was done once.

    Between calls, outside their timing, the clock may take a calibration
    slice and ``after(q)``, if given, runs (the traced replay).
    """
    intervals, first, failed, stable = [], [], 0, True
    n = len(questions)
    gc.collect()
    clock.calibrate()
    start = perf_counter_ns()
    i = 0
    while i < n or perf_counter_ns() - start < seconds * 1e9:
        question = questions[i % n]
        t0 = perf_counter_ns()
        out = outcome(call, question)
        intervals.append((t0, perf_counter_ns()))
        if isinstance(out, type):
            failed += 1
        if i < n:
            first.append(out)
        elif out != first[i % n]:
            stable = False
        if after is not None:
            after(question)
        clock.tick()
        i += 1
    clock.calibrate()
    return Loop(intervals, first, failed, stable)


def timed_calls(calls: int, min_s: float, fn, clock: Clock):
    """Run ``fn()`` at least ``calls`` times and for ``min_s`` seconds;
    returns the last result and the calibrated and raw median times."""
    scaled, raw, started = [], [], perf_counter()
    clock.calibrate()
    while len(scaled) < calls or perf_counter() - started < min_s:
        t0 = perf_counter_ns()
        result = fn()
        t1 = perf_counter_ns()
        clock.calibrate()
        scaled.append(clock.scale(t0, t1))
        raw.append((t1 - t0) / 1e9 - clock.inside_s(t0, t1))
    return result, statistics.median(scaled), statistics.median(raw)


def loop_metrics(loop: Loop, clock: Clock) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics of a loop, and the raw ones."""
    out = []
    for ms in ([clock.scale(a, b) * 1e3 for a, b in loop.intervals], loop.raw_ms()):
        out.append({
            "questions_per_s": 1e3 * loop.calls / sum(ms),
            "question_p50_ms": statistics.median(ms),
            "question_p95_ms": quantile(ms, 95),
        })
    return out[0], out[1]


def outcome(call, question):
    """Like ``call(question)``, but a QfsError becomes its class."""
    from qfs.errors import QfsError

    try:
        return call(question)
    except QfsError as exc:
        return type(exc)


# --- answer workloads -------------------------------------------------------


def replay_answer(question, config, resources, query_vectors, tracer):
    """``answer_question`` as its public steps, each one a span."""
    from qfs.corpus import EXCLUDE_ALL_JUDGED, EXCLUDE_IRRELEVANT_ONLY, filter_judged
    from qfs.pipeline import AnswerResult, ScoredSentence, assemble_answer, snip_cosine
    from qfs.retrieval import bm25_search, nir_search
    from qfs.textproc import token_surfaces

    r = config.retrieval
    fb, qid = resources.feedback, question.id
    with tracer.span("question"):
        tokens = token_surfaces(question.body)
        k = r.docs_for_round(config.round)
        with tracer.span("retrieval.search"):
            if r.method == "bm25":
                ranked = bm25_search(resources.index, tokens, k)
            else:
                ranked = nir_search(resources.index, resources.dense, tokens,
                                    query_vectors[qid], k, r.lam)
        with tracer.span("corpus.filter"):
            unjudged = filter_judged([d for d, _ in ranked], fb, qid, EXCLUDE_ALL_JUDGED)
        doc_ids = unjudged[: r.final_doc_cap]
        kept = set(doc_ids)
        kept_ranked = [(d, s) for d, s in ranked if d in kept]
        with tracer.span("pipeline.snip"):
            snippets = snip_cosine(question, kept_ranked, resources.collection,
                                   config.snippets.per_doc)
        with tracer.span("corpus.filter"):
            returned = filter_judged(snippets, fb, qid, EXCLUDE_ALL_JUDGED)
            candidates = filter_judged(snippets, fb, qid, EXCLUDE_IRRELEVANT_ONLY)
        with tracer.span("pipeline.score"):
            scores = resources.scorer.score_sentences(
                question, [c.text for c in candidates], list(range(len(candidates)))
            )
        scored = [
            ScoredSentence(text=c.text, source=c, occurrence_index=i, score=s)
            for i, (c, s) in enumerate(zip(candidates, scores))
        ]
        with tracer.span("pipeline.assemble"):
            ideal = assemble_answer(question.qtype, scored, config.answer_table)
    tracer.add("feedback_dropped", len(ranked) - len(unjudged) + len(snippets) - len(returned))
    tracer.add("selected", len(snippets))
    tracer.add("candidates", len(candidates))
    return AnswerResult(question_id=qid, documents=doc_ids,
                        snippets=returned[: r.final_snippet_cap], ideal_answer=ideal)


def submission_sha(results) -> str:
    from qfs.pipeline import AnswerResult, submission_to_json

    answered = [r for r in results if isinstance(r, AnswerResult)]
    return sha256(json.dumps(submission_to_json(answered), ensure_ascii=False,
                             indent=1).encode("utf-8"))


def check_reference(state: State, reference: dict) -> bool:
    """The program's BM25 top-k matches the generator's oracle."""
    from qfs.retrieval import bm25_search
    from qfs.textproc import token_surfaces

    by_id = {q.id: q for q in state.questions}
    for qid, expected in reference["bm25_top"].items():
        got = bm25_search(state.resources.index, token_surfaces(by_id[qid].body),
                          len(expected))
        if [d for d, _ in got] != [d for d, _ in expected]:
            return False
        if any(abs(a - b) > REFERENCE_TOLERANCE * max(1.0, abs(b))
               for (_, a), (_, b) in zip(got, expected)):
            return False
    return True


def run_answers(args, state: State, reference: dict, shape, clock: Clock) -> dict:
    import numpy as np
    from qfs import pipeline
    from qfs.config import parse_config
    from qfs.metrics import evaluate_run
    from spans import Tracer

    config = parse_config(ANSWER_CONFIGS[args.workload])
    resources, questions = state.resources, state.questions
    query_vectors = {
        qid: np.asarray(v, dtype=np.float32)
        for qid, v in reference.get("query_vectors", {}).items()
    }
    tracer, replayed = Tracer(), []

    def replay(question):
        tracer.question = question.id
        with tracer.patched(pipeline, "document_sentences", "pipeline.document_sentences", len):
            replayed.append(outcome(
                lambda q: replay_answer(q, config, resources, query_vectors, tracer), question
            ))

    loop = closed_loop(
        questions, lambda q: pipeline.answer_question(q, config, resources), args.seconds,
        clock, after=replay if args.trace else None,
    )
    first = loop.first
    if not args.trace:
        for question in questions[:CHECK_QUESTIONS]:
            replay(question)
    answered = [r for r in first if isinstance(r, pipeline.AnswerResult)]
    report, scoring_s, raw_scoring_s = timed_calls(
        EVALUATE_MIN_REPS, EVALUATE_MIN_S, lambda: evaluate_run(questions, answered), clock
    )

    sha = submission_sha(first)
    checks = {
        "passes_agree": loop.stable,
        "replay_matches": replayed == [first[i % len(first)] for i in range(len(replayed))],
        "bm25_matches_reference": check_reference(state, reference),
        "qidx_roundtrip": state.roundtrip_ok,
        "quality_above_zero": min(report.macro_document_f1, report.macro_snippet_f1,
                                  report.macro_su4_f1) > 0,
    }
    e2e, raw = loop_metrics(loop, clock)
    e2e.update(scoring_s=scoring_s, su4_f1=report.macro_su4_f1)
    raw.update(scoring_s=raw_scoring_s)
    detail = {
        "samples": loop.calls, "doc_f1": report.macro_document_f1,
        "snippet_f1": report.macro_snippet_f1, "su4_f1": report.macro_su4_f1,
        "submission_sha256": sha, "raw": raw,
    }
    layers = {}
    if args.trace:
        checks["replay_sha_matches"] = submission_sha(replayed[: len(first)]) == sha
        tracer.question = None
        with tracer.span("metrics.evaluate"):
            evaluate_run(questions, answered)
        layers = answer_layers(tracer, loop, questions, config, reference, shape)
    return {"e2e": e2e, "layers": layers, "checks": checks, "detail": detail,
            "attempted": loop.calls, "failed": loop.failed, "tracer": tracer}


def answer_layers(tracer, loop: Loop, questions, config, reference, shape) -> dict:
    calls = loop.calls
    question_ms = tracer.total_ms("question")
    search = tracer.durations_ms("retrieval.search")
    snip = tracer.durations_ms("pipeline.snip")
    k = config.retrieval.docs_for_round(config.round)
    stats = [reference["per_question"][i % len(questions)] for i in range(calls)]
    scored = [s["matched"] if config.retrieval.method == "bm25" else shape.n_docs
              for s in stats]
    considered = tracer.counts.get("pipeline.document_sentences", 0)
    return {
        "retrieval.calls": len(search) / calls,
        "retrieval.search_ms.p50": statistics.median(search),
        "retrieval.search_ms.p95": quantile(search, 95),
        "retrieval.search_share_pct": 100 * sum(search) / question_ms,
        "retrieval.postings_touched": statistics.fmean(s["postings"] for s in stats),
        "retrieval.docs_scored": statistics.fmean(scored),
        "retrieval.topk_ratio": statistics.fmean(min(k, n) / n for n in scored if n),
        "corpus.filter_ms": tracer.total_ms("corpus.filter") / calls,
        "corpus.feedback_dropped": tracer.counts.get("feedback_dropped", 0) / calls,
        "pipeline.doc_sentences_ms": tracer.total_ms("pipeline.document_sentences") / calls,
        "pipeline.snip_ms.p50": statistics.median(snip),
        "pipeline.snip_ms.p95": quantile(snip, 95),
        "pipeline.snip_share_pct": 100 * sum(snip) / question_ms,
        "pipeline.sentences_considered": considered / calls,
        "pipeline.snippet_yield": tracer.counts.get("selected", 0) / max(considered, 1),
        "pipeline.score_ms": tracer.total_ms("pipeline.score") / calls,
        "pipeline.candidates": tracer.counts.get("candidates", 0) / calls,
        "pipeline.assemble_ms": tracer.total_ms("pipeline.assemble") / calls,
        "metrics.evaluate_s": tracer.total_ms("metrics.evaluate") / 1e3,
        "trace.overhead_pct": 100 * (question_ms / sum(loop.raw_ms()) - 1),
        "trace.span_coverage_pct": 100 * tracer.child_ms("question") / question_ms,
    }


# --- labels-cv --------------------------------------------------------------


def su4_reference(candidate: str, reference: str) -> float:
    """ROUGE-SU4 F1 as documented in ``qfs.metrics``, written independently."""
    def units(text):
        toks = re.findall(r"[^\W_]+", text.lower())
        out = {}
        for i, tok in enumerate(toks):
            for unit in [(tok,)] + [(tok, nxt) for nxt in toks[i + 1:i + 6]]:
                out[unit] = out.get(unit, 0) + 1
        return out

    cand, ref = units(candidate), units(reference)
    match = sum(min(c, ref.get(u, 0)) for u, c in cand.items())
    if not match:
        return 0.0
    p, r = match / sum(cand.values()), match / sum(ref.values())
    return 2 * p * r / (p + r)


class FoldHook:
    """Wraps a ModelSpec and calls ``hook()`` as each fold starts:
    ``cross_validate`` fits once per fold, before scoring the fold."""

    def __init__(self, spec, hook):
        self.spec, self.hook = spec, hook

    def fit(self, questions, collection):
        self.hook()
        return self.spec.fit(questions, collection)


def labels_sha(labels, path: Path) -> str:
    from qfs.pipeline import save_labels

    save_labels(labels, path)
    return sha256(path.read_bytes())


def run_labels(args, state: State, work: Path, clock: Clock) -> dict:
    from qfs import pipeline
    from qfs.metrics import best_reference_f1
    from spans import Tracer

    questions, collection = state.questions, state.collection
    tracer, replayed = Tracer(), []

    def label(question):
        return pipeline.generate_labels([question], collection)

    def replay(question):
        tracer.question = question.id
        with tracer.patched(pipeline, "candidate_sentences", "pipeline.candidate_sentences"), \
                tracer.patched(pipeline, "best_reference_f1", "metrics.su4", lambda _: 1), \
                tracer.span("question"):
            replayed.append(outcome(label, question))

    def cross_validate(spec):
        return outcome(lambda qs: pipeline.cross_validate(qs, collection, spec, k=CV_FOLDS),
                       questions)

    loop = closed_loop(questions, label, args.seconds, clock,
                       after=replay if args.trace else None)
    first, calls = loop.first, loop.calls
    if not args.trace:
        for question in questions[:CHECK_QUESTIONS]:
            replay(question)
    labels = [ex for out in first if isinstance(out, list) for ex in out]
    # A calibration slice at each fold start; Clock.scale leaves them out.
    cv, cv_s, raw_cv_s = timed_calls(
        1, 0.0, lambda: cross_validate(FoldHook(pipeline.OracleModelSpec(), clock.calibrate)),
        clock,
    )
    cv_ok = isinstance(cv, pipeline.CvResult)

    positives_ok = all(
        sum(ex.label for ex in out) == min(POSITIVE_LABELS, len(out))
        for out in first if isinstance(out, list)
    )
    probes = [(c.text, q.ideal_answers) for q in questions[:5]
              for c in pipeline.candidate_sentences(q)]
    su4_ok = all(
        abs(best_reference_f1(text, refs) - max(su4_reference(text, r) for r in refs))
        <= REFERENCE_TOLERANCE for text, refs in probes
    )
    sha = labels_sha(labels, work / "labels.jsonl")
    checks = {
        "passes_agree": loop.stable,
        "replay_matches": replayed == [first[i % len(first)] for i in range(len(replayed))],
        "positives_per_question": positives_ok,
        "su4_matches_reference": su4_ok,
        "cv_completed": cv_ok,
        "quality_above_zero": cv_ok and cv.mean_f1 > 0,
    }
    e2e, raw = loop_metrics(loop, clock)
    e2e.update(scoring_s=cv_s, su4_f1=cv.mean_f1 if cv_ok else 0.0)
    raw.update(scoring_s=raw_cv_s)
    detail = {
        "samples": calls, "labels": len(labels),
        "labels_per_s": len(labels) / len(first) * e2e["questions_per_s"],
        "cv_su4_f1": cv.mean_f1 if cv_ok else None, "labels_sha256": sha, "raw": raw,
    }
    layers = {}
    if args.trace:
        label_calls = tracer.counts.get("metrics.su4", 0)
        label_su4_ms = tracer.total_ms("metrics.su4")
        question_ms = tracer.total_ms("question")
        tracer.question = None
        fold_starts = []
        spec = FoldHook(pipeline.OracleModelSpec(), lambda: fold_starts.append(perf_counter_ns()))
        with tracer.patched(pipeline, "best_reference_f1", "metrics.su4", lambda _: 1), \
                tracer.span("pipeline.cross_validate"):
            traced_cv = cross_validate(spec)
        bounds = fold_starts + [perf_counter_ns()]
        traced_labels = [ex for out in replayed[: len(first)] if isinstance(out, list)
                         for ex in out]
        checks["replay_sha_matches"] = labels_sha(traced_labels, work / "traced.jsonl") == sha
        checks["traced_cv_matches"] = cv_ok and isinstance(traced_cv, pipeline.CvResult) \
            and traced_cv.to_json() == cv.to_json()
        layers = {
            "pipeline.labels_s": sum(tracer.durations_ms("question")[: len(first)]) / 1e3,
            "pipeline.cv_fold_ms": statistics.median(
                (b - a) / 1e6 for a, b in zip(bounds, bounds[1:])
            ),
            "metrics.su4_calls": label_calls / calls,
            "metrics.su4_us": 1e3 * statistics.fmean(tracer.durations_ms("metrics.su4")),
            "metrics.su4_share_pct": 100 * label_su4_ms / question_ms,
            # Only the loop alternates traced and untraced calls; the two
            # cross_validate runs are minutes apart in machine drift.
            "trace.overhead_pct": 100 * (question_ms / sum(loop.raw_ms()) - 1),
            "trace.span_coverage_pct": 100 * tracer.child_ms("question") / question_ms,
        }
    return {"e2e": e2e, "layers": layers, "checks": checks, "detail": detail,
            "attempted": calls + len(questions), "failed": loop.failed + (0 if cv_ok else 1),
            "tracer": tracer}


# --- command line -----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one qfs benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    import_qfs()
    import gen

    shape = gen.SHAPES[args.size][args.workload]
    stamp = env_stamp(args, shape)
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    answers = args.workload in ANSWER_CONFIGS
    try:
        paths = generate(args, work)
        with open(paths["reference"], encoding="utf-8") as fh:
            reference = json.load(fh)
        clock = Clock()
        state, setup_s, raw_setup_s, setup_layers = set_up_repeatedly(
            paths, answers, work, clock
        )
        if answers:
            result = run_answers(args, state, reference, shape, clock)
        else:
            result = run_labels(args, state, work, clock)
        result["detail"]["raw"]["setup_s"] = raw_setup_s
        result["detail"]["calibration_ms"] = {
            "reference": REFERENCE_MS, "slices": len(clock.slices_ms),
            "median": statistics.median(clock.slices_ms),
            "min": min(clock.slices_ms), "max": max(clock.slices_ms),
        }
        tracer = result.pop("tracer")
        e2e = {**result["e2e"], "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        layers = {**dict.fromkeys(PER_LAYER, 0.0), **setup_layers, **result["layers"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(result["checks"].values())
    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    record = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(chosen[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": stamp, "checks": result["checks"], "detail": result["detail"],
                   "end_to_end": e2e, "per_layer": layers, "result": record}, fh, indent=1)
    if args.trace:
        tracer.write(str(results / f"{tag}.spans.jsonl"))
    for name, ok in result["checks"].items():
        if not ok:
            print(f"bench: check failed: {name}", file=sys.stderr)
    print("env " + json.dumps(stamp))
    print("checks " + json.dumps(result["checks"]))
    print("detail " + json.dumps(result["detail"]))
    for name, unit in END_TO_END.items():
        print(f"{name} = {e2e[name]:.6g} {unit}")
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
