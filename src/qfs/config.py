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

from . import fileio
from .errors import MalformedInput
from .fileio import COUNT, NUMBER, OBJECT, STRING, read_json
from .pipeline import DEFAULT_ANSWER_LENGTHS, FINAL_DOC_CAP, FINAL_SNIPPET_CAP, SCORERS
from .retrieval import DEFAULT_B, DEFAULT_K1, check_bm25

RETRIEVAL_METHODS = ("bm25", "nir", "rerank")
SNIPPET_STRATEGIES = ("cosine", "model")

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


def parse_config(payload: dict, where: str = "config") -> PipelineConfig:
    """Validate and bind a JSON config object; unknown keys rejected, errors name ``where``."""

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise MalformedInput(f"{where}: {message}")

    def require_one_of(allowed, name: str, value: str) -> None:
        require(value in allowed, f"bad {name} {value!r}; expected one of {', '.join(allowed)}")

    def section(name: str, known: tuple[str, ...]):
        """The reader of one section's fields; its unknown keys are refused."""
        obj = fileio.field(payload, name, OBJECT, where, {})
        unknown = set(obj) - set(known)
        require(not unknown, f"unknown {name} keys {sorted(unknown)}")
        return lambda key, rule, default: fileio.field(obj, key, rule, f"{where}: {name}", default)

    require(isinstance(payload, dict), "top level must be an object")
    known = {"retrieval", "snippets", "model", "resources", "answer_table", "round"}
    unknown = set(payload) - known
    require(not unknown, f"unknown top-level keys {sorted(unknown)}")

    r = section("retrieval", ("method", "lambda", "pool_size", "round_docs", "final_doc_cap",
                              "final_snippet_cap", "bm25_k1", "bm25_b"))
    round_docs_raw = r("round_docs", OBJECT, None)
    round_docs = dict(DEFAULT_ROUND_DOCS) if round_docs_raw is None else {}
    round_docs_default = DEFAULT_ROUND_DOCS_FALLBACK
    for key in round_docs_raw or ():
        count = fileio.field(round_docs_raw, key, COUNT, f"{where}: retrieval.round_docs")
        if key == "default":
            round_docs_default = count
        else:
            require(isinstance(key, str) and re.fullmatch("0|-?[1-9][0-9]{0,17}", key) is not None,
                    "retrieval.round_docs keys must be integers in plain decimal form (one"
                    f" key per round) of at most 18 digits, or 'default', got {key!r}")
            round_docs[int(key)] = count
    retrieval = RetrievalConfig(
        r("method", STRING, "bm25"), float(r("lambda", NUMBER, 0.5)),
        r("pool_size", COUNT, 200), round_docs, round_docs_default,
        r("final_doc_cap", COUNT, FINAL_DOC_CAP), r("final_snippet_cap", COUNT, FINAL_SNIPPET_CAP),
        float(r("bm25_k1", NUMBER, DEFAULT_K1)), float(r("bm25_b", NUMBER, DEFAULT_B)),
    )
    require_one_of(RETRIEVAL_METHODS, "retrieval.method", retrieval.method)
    require(0.0 <= retrieval.lam <= 1.0, "retrieval.lambda must be in [0, 1]")
    try:
        check_bm25(retrieval.bm25_k1, retrieval.bm25_b)
    except ValueError as exc:
        raise MalformedInput(f"{where}: retrieval.bm25_k1/bm25_b: {exc}") from None

    s = section("snippets", ("strategy", "per_doc"))
    snippets = SnippetConfig(s("strategy", STRING, "cosine"), s("per_doc", COUNT, 3))
    require_one_of(SNIPPET_STRATEGIES, "snippets.strategy", snippets.strategy)

    m = section("model", ("kind", "params_path", "embeddings_path"))
    model = ModelConfig(m("kind", STRING, "pooled"), m("params_path", STRING, None),
                        m("embeddings_path", STRING, None))
    require_one_of(SCORERS, "model.kind", model.kind)

    names = tuple(f.name for f in fields(ResourcePaths))
    res = section("resources", names)
    resources = ResourcePaths(*(res(name, STRING, None) for name in names))

    table_raw = fileio.field(payload, "answer_table", OBJECT, where, DEFAULT_ANSWER_LENGTHS)
    require(set(table_raw) == set(DEFAULT_ANSWER_LENGTHS),
            f"answer_table must define exactly {sorted(DEFAULT_ANSWER_LENGTHS)}")
    table_where = f"{where}: answer_table"
    answer_table = {k: fileio.field(table_raw, k, COUNT, table_where) for k in table_raw}
    round_no = fileio.field(payload, "round", COUNT, where, 1)
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
    return parse_config(read_json(path), str(path))
