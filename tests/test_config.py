"""Config parsing: emit/parse round trip and MalformedInput on every bad payload."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfs.config import (
    MODEL_KINDS,
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
from qfs.pipeline import DEFAULT_ANSWER_LENGTHS

counts = st.integers(min_value=1, max_value=10**6)
paths = st.none() | st.text(max_size=12)
finite = st.floats(allow_nan=False, allow_infinity=False)

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
        bm25_k1=finite,
        bm25_b=finite,
    ),
    snippets=st.builds(
        SnippetConfig, strategy=st.sampled_from(SNIPPET_STRATEGIES), per_doc=counts
    ),
    model=st.builds(
        ModelConfig,
        kind=st.sampled_from(MODEL_KINDS),
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
    seed=st.integers(),
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
    | st.sampled_from([*RETRIEVAL_METHODS, *SNIPPET_STRATEGIES, *MODEL_KINDS, "1", "0.5"]),
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
        {}, optional={**sections, "seed": json_values, "round": json_values}
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
        {"snippets": {"per_doc": [3]}},
        {"retrieval": []},
        {"snippets": "cosine"},
        {"model": {"params_path": 7}},
        {"resources": {"docs_path": ["a"]}},
    ],
)
def test_bad_payload_raises_malformed_input(payload):
    with pytest.raises(MalformedInput):
        parse_config(payload)


def test_empty_object_gives_defaults():
    assert parse_config({}) == PipelineConfig()
