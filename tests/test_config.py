"""Config parsing: emit/parse round trip and MalformedInput on every bad payload."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs.config import (
    RETRIEVAL_METHODS,
    SNIPPET_STRATEGIES,
    ModelConfig,
    PipelineConfig,
    ResourcePaths,
    RetrievalConfig,
    SnippetConfig,
    emit_config,
    parse_config,
)
from qfs.errors import MalformedInput
from qfs.pipeline import DEFAULT_ANSWER_LENGTHS, SCORERS
from qfs.retrieval import MAX_K1

counts = st.integers(min_value=1, max_value=10**6)
paths = st.none() | st.text(max_size=12)

valid_configs = st.builds(
    PipelineConfig,
    retrieval=st.builds(
        RetrievalConfig,
        method=st.sampled_from(RETRIEVAL_METHODS),
        lam=st.floats(min_value=0.0, max_value=1.0),
        pool_size=counts,
        round_docs=st.dictionaries(st.integers(-3, 20), counts, max_size=4),
        round_docs_default=counts,
        final_doc_cap=counts,
        final_snippet_cap=counts,
        bm25_k1=st.floats(min_value=0.0, max_value=MAX_K1),
        bm25_b=st.floats(min_value=0.0, max_value=1.0),
    ),
    snippets=st.builds(
        SnippetConfig, strategy=st.sampled_from(SNIPPET_STRATEGIES), per_doc=counts
    ),
    model=st.builds(
        ModelConfig,
        kind=st.sampled_from(list(SCORERS)),
        params_path=paths,
        embeddings_path=paths,
    ),
    resources=st.builds(
        ResourcePaths,
        docs_path=paths,
        index_path=paths,
        dense_path=paths,
        query_vectors_path=paths,
    ),
    answer_table=st.fixed_dictionaries({k: counts for k in DEFAULT_ANSWER_LENGTHS}),
    round=counts,
)

# Any JSON value; dictionary keys favour the ones the parser looks up.
SECTION_KEYS = {
    "retrieval": [
        "method", "lambda", "pool_size", "round_docs", "final_doc_cap",
        "final_snippet_cap", "bm25_k1", "bm25_b",
    ],
    "snippets": ["strategy", "per_doc"],
    "model": ["kind", "params_path", "embeddings_path"],
    "resources": ["docs_path", "index_path", "dense_path", "query_vectors_path"],
    "answer_table": sorted(DEFAULT_ANSWER_LENGTHS),
}
leaf_keys = st.sampled_from(["1", "2", "default", "-1", "x"]) | st.text(max_size=3)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from([*RETRIEVAL_METHODS, *SNIPPET_STRATEGIES, *SCORERS, "1", "0.5"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(leaf_keys, children, max_size=3),
    max_leaves=8,
)
sections = {
    name: st.dictionaries(st.sampled_from(keys), json_values, max_size=len(keys)) | json_values
    for name, keys in SECTION_KEYS.items()
}
fuzzed_payloads = (
    st.fixed_dictionaries(
        {}, optional={**sections, "round": json_values}
    )
    | json_values
)


@settings(max_examples=200, deadline=None)
@given(valid_configs)
def test_emit_then_parse_is_identity(config):
    assert parse_config(emit_config(config)) == config
    assert parse_config(json.loads(json.dumps(emit_config(config)))) == config


@settings(max_examples=500, deadline=None)
@given(fuzzed_payloads)
def test_fuzzed_payload_parses_or_raises_malformed_input(payload):
    try:
        config = parse_config(payload)
    except MalformedInput:
        return
    assert parse_config(emit_config(config)) == config


@pytest.mark.parametrize(
    "payload",
    [
        {"seed": "x"},
        {"round": "first"},
        {"retrieval": {"lambda": "half"}},
        {"retrieval": {"pool_size": None}},
        {"retrieval": {"round_docs": {"1": "many"}}},
        {"retrieval": {"round_docs": {"first": 10}}},
        {"retrieval": {"final_doc_cap": float("inf")}},
        {"retrieval": {"bm25_k1": -1.2}},
        {"retrieval": {"bm25_k1": float("nan")}},
        {"retrieval": {"bm25_k1": "nan"}},
        {"retrieval": {"bm25_k1": float("inf")}},
        {"retrieval": {"bm25_b": -0.1}},
        {"retrieval": {"bm25_b": 1.5}},
        {"retrieval": {"bm25_b": float("nan")}},
        {"snippets": {"per_doc": [3]}},
        {"retrieval": []},
        {"snippets": "cosine"},
        {"model": {"params_path": 7}},
        {"resources": {"docs_path": ["a"]}},
        {"retrieval": {"bm25_k1": 2 * MAX_K1}},
        {"snippets": {"per_doc": 2.7}},
        {"answer_table": {**DEFAULT_ANSWER_LENGTHS, "summary": 6.9}},
        {"round": True},
        {"retrieval": {"final_doc_cap": "7"}},
        {"retrieval": {"lambda": "0.3"}},
        {"retrieval": {"lambda": True}},
        {"retrieval": {"lambda": 10**400}},
        {"retrieval": {"round_docs": {"2": 10.5}}},
        {"retrieval": {"round_docs": {" 2": 10}}},
        {"retrieval": {"round_docs": {2: 10}}},
        {"retrieval": {"round_docs": {"default": 0}}},
        {"retrieval": {"round_docs": {"1": 0}}},
        {"retrieval": {"round_docs": {"01": 7}}},
        {"retrieval": {"round_docs": {"1": 5, "01": 7}}},
        {"retrieval": {"round_docs": {"-0": 3}}},
        {"retrieval": {"round_docs": {"1" * 5000: 3}}},
        {"retrieval": {"method": "bm26"}},
        {"snippets": {"strategy": "rouge"}},
        {"model": {"kind": "bert"}},
        {"model": {"kind": "Cosine"}},
    ],
)
def test_bad_payload_raises_malformed_input(payload):
    with pytest.raises(MalformedInput):
        parse_config(payload)


def test_empty_object_gives_defaults():
    assert parse_config({}) == PipelineConfig()


@pytest.mark.parametrize("setting, allowed", [
    ("retrieval.method", "bm25, nir, rerank"),
    ("snippets.strategy", "cosine, model"),
    ("model.kind", "constant, cosine, oracle, nnc, pooled"),
])
def test_a_bad_name_lists_the_allowed_names_in_order(setting, allowed):
    section, key = setting.split(".")
    with pytest.raises(MalformedInput) as exc:
        parse_config({section: {key: "bert"}}, "c.json")
    assert str(exc.value) == f"c.json: bad {setting} 'bert'; expected one of {allowed}"
