"""Pipeline configuration: JSON schema, validation, and round-tripping.

The config file is a JSON object with sections ``retrieval``,
``snippets``, ``model``, ``resources``, plus ``answer_table``, ``seed``
and ``round``. Every field has a default, so ``{}`` is a valid config.
``parse_config(emit_config(cfg)) == cfg`` holds for any valid config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedInput
from .fileio import read_json
from .pipeline import DEFAULT_ANSWER_LENGTHS, FINAL_DOC_CAP, FINAL_SNIPPET_CAP
from .retrieval import DEFAULT_B, DEFAULT_K1

RETRIEVAL_METHODS = ("bm25", "nir", "rerank")
SNIPPET_STRATEGIES = ("cosine", "model")
MODEL_KINDS = ("nnc", "pooled")

# Candidate documents requested per feedback round: fewer in the first
# round, more afterwards.
DEFAULT_ROUND_DOCS = {1: 50}
DEFAULT_ROUND_DOCS_FALLBACK = 100


@dataclass
class RetrievalConfig:
    method: str = "bm25"
    lam: float = 0.5
    pool_size: int = 200
    round_docs: dict[int, int] = field(default_factory=lambda: dict(DEFAULT_ROUND_DOCS))
    round_docs_default: int = DEFAULT_ROUND_DOCS_FALLBACK
    final_doc_cap: int = FINAL_DOC_CAP
    final_snippet_cap: int = FINAL_SNIPPET_CAP
    bm25_k1: float = DEFAULT_K1
    bm25_b: float = DEFAULT_B

    def docs_for_round(self, round_no: int) -> int:
        return self.round_docs.get(round_no, self.round_docs_default)


@dataclass
class SnippetConfig:
    strategy: str = "cosine"
    per_doc: int = 3


@dataclass
class ModelConfig:
    kind: str = "pooled"
    params_path: str | None = None
    embeddings_path: str | None = None


@dataclass
class ResourcePaths:
    """Locations of the run's data files (all optional until needed)."""

    docs_path: str | None = None
    index_path: str | None = None
    dense_path: str | None = None
    query_vectors_path: str | None = None


@dataclass
class PipelineConfig:
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    snippets: SnippetConfig = field(default_factory=SnippetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    resources: ResourcePaths = field(default_factory=ResourcePaths)
    answer_table: dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_ANSWER_LENGTHS)
    )
    seed: int = 0
    round: int = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInput(f"config: {message}")


def _number(kind: type, value, name: str):
    """``kind(value)`` (int or float), or MalformedInput naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"config: {name} must be a number, got {value!r}") from None


def _section(payload: dict, name: str) -> dict:
    value = payload.get(name, {})
    _require(isinstance(value, dict), f"{name} must be an object")
    return dict(value)


def _path(section: dict, where: str, key: str) -> str | None:
    value = section.pop(key, None)
    _require(value is None or isinstance(value, str), f"{where}.{key} must be a string")
    return value


def parse_config(payload: dict) -> PipelineConfig:
    """Validate and bind a JSON config object; unknown keys rejected."""
    _require(isinstance(payload, dict), "top level must be an object")
    known = {
        "retrieval", "snippets", "model", "resources",
        "answer_table", "seed", "round",
    }
    unknown = set(payload) - known
    _require(not unknown, f"unknown top-level keys {sorted(unknown)}")

    r = _section(payload, "retrieval")
    round_docs_raw = r.pop("round_docs", None)
    round_docs = dict(DEFAULT_ROUND_DOCS)
    round_docs_default = DEFAULT_ROUND_DOCS_FALLBACK
    if round_docs_raw is not None:
        _require(isinstance(round_docs_raw, dict), "retrieval.round_docs must map rounds to counts")
        round_docs = {}
        for key, value in round_docs_raw.items():
            count = _number(int, value, f"retrieval.round_docs[{key!r}]")
            _require(count >= 1, "retrieval.round_docs counts must be >= 1")
            if key == "default":
                round_docs_default = count
            else:
                round_docs[_number(int, key, "retrieval.round_docs round key")] = count
    retrieval = RetrievalConfig(
        method=r.pop("method", "bm25"),
        lam=_number(float, r.pop("lambda", 0.5), "retrieval.lambda"),
        pool_size=_number(int, r.pop("pool_size", 200), "retrieval.pool_size"),
        round_docs=round_docs,
        round_docs_default=round_docs_default,
        final_doc_cap=_number(
            int, r.pop("final_doc_cap", FINAL_DOC_CAP), "retrieval.final_doc_cap"
        ),
        final_snippet_cap=_number(
            int, r.pop("final_snippet_cap", FINAL_SNIPPET_CAP), "retrieval.final_snippet_cap"
        ),
        bm25_k1=_number(float, r.pop("bm25_k1", DEFAULT_K1), "retrieval.bm25_k1"),
        bm25_b=_number(float, r.pop("bm25_b", DEFAULT_B), "retrieval.bm25_b"),
    )
    _require(not r, f"unknown retrieval keys {sorted(r)}")
    _require(retrieval.method in RETRIEVAL_METHODS, f"bad retrieval.method {retrieval.method!r}")
    _require(0.0 <= retrieval.lam <= 1.0, "retrieval.lambda must be in [0, 1]")
    _require(retrieval.pool_size >= 1, "retrieval.pool_size must be >= 1")
    _require(retrieval.final_doc_cap >= 1, "retrieval.final_doc_cap must be >= 1")
    _require(retrieval.final_snippet_cap >= 1, "retrieval.final_snippet_cap must be >= 1")

    s = _section(payload, "snippets")
    snippets = SnippetConfig(
        strategy=s.pop("strategy", "cosine"),
        per_doc=_number(int, s.pop("per_doc", 3), "snippets.per_doc"),
    )
    _require(not s, f"unknown snippets keys {sorted(s)}")
    _require(snippets.strategy in SNIPPET_STRATEGIES, f"bad snippets.strategy {snippets.strategy!r}")
    _require(snippets.per_doc >= 1, "snippets.per_doc must be >= 1")

    m = _section(payload, "model")
    model = ModelConfig(
        kind=m.pop("kind", "pooled"),
        params_path=_path(m, "model", "params_path"),
        embeddings_path=_path(m, "model", "embeddings_path"),
    )
    _require(not m, f"unknown model keys {sorted(m)}")
    _require(model.kind in MODEL_KINDS, f"bad model.kind {model.kind!r}")

    res = _section(payload, "resources")
    resources = ResourcePaths(
        docs_path=_path(res, "resources", "docs_path"),
        index_path=_path(res, "resources", "index_path"),
        dense_path=_path(res, "resources", "dense_path"),
        query_vectors_path=_path(res, "resources", "query_vectors_path"),
    )
    _require(not res, f"unknown resources keys {sorted(res)}")

    table_raw = payload.get("answer_table", DEFAULT_ANSWER_LENGTHS)
    _require(isinstance(table_raw, dict), "answer_table must be an object")
    _require(
        set(table_raw) == set(DEFAULT_ANSWER_LENGTHS),
        f"answer_table must define exactly {sorted(DEFAULT_ANSWER_LENGTHS)}",
    )
    answer_table = {k: _number(int, v, f"answer_table.{k}") for k, v in table_raw.items()}
    _require(all(v >= 1 for v in answer_table.values()), "answer_table values must be >= 1")

    seed = _number(int, payload.get("seed", 0), "seed")
    round_no = _number(int, payload.get("round", 1), "round")
    _require(round_no >= 1, "round must be >= 1")

    return PipelineConfig(
        retrieval=retrieval,
        snippets=snippets,
        model=model,
        resources=resources,
        answer_table=answer_table,
        seed=seed,
        round=round_no,
    )


def emit_config(config: PipelineConfig) -> dict:
    """Inverse of parse_config; emits the documented JSON shape."""
    round_docs = {str(k): v for k, v in sorted(config.retrieval.round_docs.items())}
    round_docs["default"] = config.retrieval.round_docs_default
    return {
        "retrieval": {
            "method": config.retrieval.method,
            "lambda": config.retrieval.lam,
            "pool_size": config.retrieval.pool_size,
            "round_docs": round_docs,
            "final_doc_cap": config.retrieval.final_doc_cap,
            "final_snippet_cap": config.retrieval.final_snippet_cap,
            "bm25_k1": config.retrieval.bm25_k1,
            "bm25_b": config.retrieval.bm25_b,
        },
        "snippets": {
            "strategy": config.snippets.strategy,
            "per_doc": config.snippets.per_doc,
        },
        "model": {
            "kind": config.model.kind,
            "params_path": config.model.params_path,
            "embeddings_path": config.model.embeddings_path,
        },
        "resources": {
            "docs_path": config.resources.docs_path,
            "index_path": config.resources.index_path,
            "dense_path": config.resources.dense_path,
            "query_vectors_path": config.resources.query_vectors_path,
        },
        "answer_table": dict(config.answer_table),
        "seed": config.seed,
        "round": config.round,
    }


def load_config(path: str | Path) -> PipelineConfig:
    return parse_config(read_json(path))
