"""Pipeline configuration: JSON schema, validation, and round-tripping.

The config file is a JSON object with sections ``retrieval``,
``snippets``, ``model``, ``resources``, plus ``answer_table`` and
``round``. Every field has a default, so ``{}`` is a valid config.
``parse_config(emit_config(cfg)) == cfg`` holds for any valid config.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .errors import MalformedInput
from .fileio import read_json
from .neural import KINDS
from .pipeline import DEFAULT_ANSWER_LENGTHS, FINAL_DOC_CAP, FINAL_SNIPPET_CAP
from .retrieval import DEFAULT_B, DEFAULT_K1, check_bm25

RETRIEVAL_METHODS = ("bm25", "nir", "rerank")
SNIPPET_STRATEGIES = ("cosine", "model")
MODEL_KINDS = tuple(KINDS)

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
    round: int = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInput(f"config: {message}")


def _number(kind: type, value, name: str):
    """A JSON number as ``kind``, or MalformedInput naming the field.

    An int field takes an int, a float field an int or a float; a bool is neither.
    """
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise MalformedInput(f"config: {name} must be {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise MalformedInput(f"config: {name} is too large for a float, got {value!r}") from None


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
    known = {"retrieval", "snippets", "model", "resources", "answer_table", "round"}
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
                _require(isinstance(key, str) and re.fullmatch("-?[0-9]+", key) is not None,
                         f"retrieval.round_docs keys must be integers or 'default', got {key!r}")
                round_docs[int(key)] = count
    def number(kind: type, key: str, default):
        return _number(kind, r.pop(key, default), f"retrieval.{key}")

    retrieval = RetrievalConfig(
        r.pop("method", "bm25"), number(float, "lambda", 0.5), number(int, "pool_size", 200),
        round_docs, round_docs_default, number(int, "final_doc_cap", FINAL_DOC_CAP),
        number(int, "final_snippet_cap", FINAL_SNIPPET_CAP),
        number(float, "bm25_k1", DEFAULT_K1), number(float, "bm25_b", DEFAULT_B),
    )
    _require(not r, f"unknown retrieval keys {sorted(r)}")
    _require(retrieval.method in RETRIEVAL_METHODS, f"bad retrieval.method {retrieval.method!r}")
    _require(0.0 <= retrieval.lam <= 1.0, "retrieval.lambda must be in [0, 1]")
    _require(retrieval.pool_size >= 1, "retrieval.pool_size must be >= 1")
    _require(retrieval.final_doc_cap >= 1, "retrieval.final_doc_cap must be >= 1")
    _require(retrieval.final_snippet_cap >= 1, "retrieval.final_snippet_cap must be >= 1")
    try:
        check_bm25(retrieval.bm25_k1, retrieval.bm25_b)
    except ValueError as exc:
        raise MalformedInput(f"config: retrieval.bm25_k1/bm25_b: {exc}") from None

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
    resources = ResourcePaths(**{
        f.name: _path(res, "resources", f.name) for f in fields(ResourcePaths)
    })
    _require(not res, f"unknown resources keys {sorted(res)}")

    table_raw = payload.get("answer_table", DEFAULT_ANSWER_LENGTHS)
    _require(isinstance(table_raw, dict), "answer_table must be an object")
    _require(
        set(table_raw) == set(DEFAULT_ANSWER_LENGTHS),
        f"answer_table must define exactly {sorted(DEFAULT_ANSWER_LENGTHS)}",
    )
    answer_table = {k: _number(int, v, f"answer_table.{k}") for k, v in table_raw.items()}
    _require(all(v >= 1 for v in answer_table.values()), "answer_table values must be >= 1")

    round_no = _number(int, payload.get("round", 1), "round")
    _require(round_no >= 1, "round must be >= 1")

    return PipelineConfig(retrieval, snippets, model, resources, answer_table, round_no)


def emit_config(config: PipelineConfig) -> dict:
    """Inverse of parse_config; emits the documented JSON shape."""
    out = asdict(config)
    retrieval = out["retrieval"]
    retrieval["lambda"] = retrieval.pop("lam")
    retrieval["round_docs"] = {str(k): v for k, v in sorted(config.retrieval.round_docs.items())}
    retrieval["round_docs"]["default"] = retrieval.pop("round_docs_default")
    return out


def load_config(path: str | Path) -> PipelineConfig:
    return parse_config(read_json(path))
