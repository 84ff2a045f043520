"""The two sentence classifiers, and the one table that tells them apart.

The interaction model ("nnc") encodes question and candidate sentence
with one shared bidirectional LSTM, multiplies the two sentence
embeddings elementwise, concatenates [sentence ; interaction ;
position], and classifies through a relu hidden layer and a sigmoid
output. The pooled model skips all of that: its input is the mean of
the externally produced contextual embeddings of the candidate-sentence
tokens, concatenated with the position feature.

The position feature encodes a 0-based candidate position as
1 / (1 + position), bounded in (0, 1].

Everything that depends on the kind is one :class:`ModelKind` in
:data:`KINDS`: its name, QFSM code and header dims, training defaults,
the file it reads and its dimension, ``init``, ``input`` (one example's
model inputs), ``apply`` and ``backward``. Training, the QFSM codec,
the scorer and the command line look the kind up there and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from ..embeddings import (
    ContextEmbeddingRecord,
    EmbeddingTable,
    embed_tokens,
    load_context_embeddings,
    load_word_embeddings,
)
from ..errors import EmptyInput, MissingInput
from .lstm import BiLstmCache, LstmParams, bilstm_backward, bilstm_encode
from .ops import relu, sigmoid

_PROB_MIN = float(np.nextafter(0.0, 1.0))
_PROB_MAX = float(np.nextafter(1.0, 0.0))

DEFAULT_EMBEDDING_DIM = 100
DEFAULT_LSTM_HIDDEN = 100
DEFAULT_DENSE_HIDDEN = 50


def position_feature(position: int) -> float:
    """Bounded encoding of a 0-based list position."""
    if position < 0:
        raise ValueError("position must be >= 0")
    return 1.0 / (1.0 + position)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    dropout_rate: float = 0.0
    learning_rate: float = 1e-3
    seed: int = 0
    clip_len: int = 300

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.clip_len < 1:
            raise ValueError("clip_len must be >= 1")


@dataclass
class DenseParams:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)


@dataclass
class NncParams:
    """Shared BiLSTM encoder plus the interaction classifier head."""

    lstm_fwd: LstmParams
    lstm_bwd: LstmParams
    hidden: DenseParams  # (dense_hidden, 4H + 1)
    output: DenseParams  # (1, dense_hidden)
    seed: int = 0

    kind = "nnc"

    @property
    def emb_dim(self) -> int:
        return self.lstm_fwd.input_dim

    @property
    def lstm_hidden(self) -> int:
        return self.lstm_fwd.hidden_dim

    @property
    def dense_hidden(self) -> int:
        return self.hidden.w.shape[0]

    def flat(self) -> dict[str, np.ndarray]:
        return {
            "lstm_fwd.w_x": self.lstm_fwd.w_x,
            "lstm_fwd.w_h": self.lstm_fwd.w_h,
            "lstm_fwd.b": self.lstm_fwd.b,
            "lstm_bwd.w_x": self.lstm_bwd.w_x,
            "lstm_bwd.w_h": self.lstm_bwd.w_h,
            "lstm_bwd.b": self.lstm_bwd.b,
            "hidden.w": self.hidden.w,
            "hidden.b": self.hidden.b,
            "output.w": self.output.w,
            "output.b": self.output.b,
        }


@dataclass
class PooledClassifierParams:
    """Classifier over mean-pooled contextual embeddings plus position."""

    hidden: DenseParams  # (dense_hidden, D + 1)
    output: DenseParams  # (1, dense_hidden)
    seed: int = 0

    kind = "pooled"

    @property
    def input_dim(self) -> int:
        return self.hidden.w.shape[1] - 1

    @property
    def dense_hidden(self) -> int:
        return self.hidden.w.shape[0]

    def flat(self) -> dict[str, np.ndarray]:
        return {
            "hidden.w": self.hidden.w,
            "hidden.b": self.hidden.b,
            "output.w": self.output.w,
            "output.b": self.output.b,
        }


def _init_lstm(rng: np.random.Generator, emb_dim: int, hidden_dim: int) -> LstmParams:
    w_x = rng.uniform(-0.05, 0.05, size=(4 * hidden_dim, emb_dim))
    w_h = rng.uniform(-0.05, 0.05, size=(4 * hidden_dim, hidden_dim))
    b = np.zeros(4 * hidden_dim)
    b[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias
    return LstmParams(w_x=w_x, w_h=w_h, b=b)


def _init_head(
    rng: np.random.Generator, n_in: int, dense_hidden: int
) -> tuple[DenseParams, DenseParams]:
    hidden = DenseParams(
        w=rng.uniform(-0.05, 0.05, size=(dense_hidden, n_in)), b=np.zeros(dense_hidden)
    )
    output = DenseParams(w=rng.uniform(-0.05, 0.05, size=(1, dense_hidden)), b=np.zeros(1))
    return hidden, output


def init_nnc(
    emb_dim: int = DEFAULT_EMBEDDING_DIM,
    lstm_hidden: int = DEFAULT_LSTM_HIDDEN,
    dense_hidden: int = DEFAULT_DENSE_HIDDEN,
    seed: int = 0,
) -> NncParams:
    rng = np.random.default_rng(seed)
    lstm_fwd = _init_lstm(rng, emb_dim, lstm_hidden)
    lstm_bwd = _init_lstm(rng, emb_dim, lstm_hidden)
    hidden, output = _init_head(rng, 4 * lstm_hidden + 1, dense_hidden)
    return NncParams(lstm_fwd, lstm_bwd, hidden, output, seed=seed)


def init_pooled(
    input_dim: int,
    lstm_hidden: int = DEFAULT_LSTM_HIDDEN,
    dense_hidden: int = DEFAULT_DENSE_HIDDEN,
    seed: int = 0,
) -> PooledClassifierParams:
    """``lstm_hidden`` is ignored (there is no encoder); it keeps ``init`` one signature."""
    hidden, output = _init_head(np.random.default_rng(seed), input_dim + 1, dense_hidden)
    return PooledClassifierParams(hidden, output, seed=seed)


@dataclass
class _HeadCache:
    """Values saved by the classifier head for the backward pass."""

    x: np.ndarray
    a1: np.ndarray
    h: np.ndarray
    prob: float
    dropout_mask: np.ndarray | None


def _head_forward(
    hidden: DenseParams,
    output: DenseParams,
    x: np.ndarray,
    dropout_mask: np.ndarray | None,
) -> _HeadCache:
    a1 = hidden.w @ x + hidden.b
    h = relu(a1)
    if dropout_mask is not None:
        h = h * dropout_mask
    z = output.w[0] @ h + output.b[0]
    # A saturated sigmoid rounds to exactly 0.0 or 1.0; the documented
    # contract is the open interval, so clamp to its nearest floats.
    prob = min(max(sigmoid(z), _PROB_MIN), _PROB_MAX)
    return _HeadCache(x=x, a1=a1, h=h, prob=prob, dropout_mask=dropout_mask)


def _head_backward(
    hidden: DenseParams, output: DenseParams, cache: _HeadCache, label: int
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of BCE(prob, label) w.r.t. head params and head input."""
    dz = cache.prob - label
    g_out_w = np.outer([dz], cache.h)
    g_out_b = np.array([dz])
    dh = output.w[0] * dz
    if cache.dropout_mask is not None:
        dh = dh * cache.dropout_mask
    da1 = dh * (cache.a1 > 0.0)
    g_hid_w = np.outer(da1, cache.x)
    g_hid_b = da1
    dx = hidden.w.T @ da1
    grads = {
        "hidden.w": g_hid_w,
        "hidden.b": g_hid_b,
        "output.w": g_out_w,
        "output.b": g_out_b,
    }
    return grads, dx


@dataclass
class NncCache:
    q_vec: np.ndarray
    s_vec: np.ndarray
    q_cache: BiLstmCache
    s_cache: BiLstmCache
    head: _HeadCache


def _nnc_apply(
    params: NncParams,
    q_matrix: np.ndarray,
    s_matrix: np.ndarray,
    pos_feature: float,
    dropout_mask: np.ndarray | None = None,
) -> NncCache:
    if q_matrix.shape[0] == 0 or s_matrix.shape[0] == 0:
        raise EmptyInput("question and sentence matrices must be non-empty")
    q_vec, q_cache = bilstm_encode(params.lstm_fwd, params.lstm_bwd, q_matrix)
    s_vec, s_cache = bilstm_encode(params.lstm_fwd, params.lstm_bwd, s_matrix)
    inter = s_vec * q_vec
    x = np.concatenate([s_vec, inter, [pos_feature]])
    head = _head_forward(params.hidden, params.output, x, dropout_mask)
    return NncCache(q_vec=q_vec, s_vec=s_vec, q_cache=q_cache, s_cache=s_cache, head=head)


def _nnc_backward(
    params: NncParams, cache: NncCache, label: int
) -> dict[str, np.ndarray]:
    """Gradients of BCE(prob, label) for every parameter."""
    grads, dx = _head_backward(params.hidden, params.output, cache.head, label)
    two_h = cache.s_vec.shape[0]
    d_s = dx[:two_h] + dx[two_h : 2 * two_h] * cache.q_vec
    d_q = dx[two_h : 2 * two_h] * cache.s_vec
    q_grads = bilstm_backward(params.lstm_fwd, params.lstm_bwd, cache.q_cache, d_q)
    s_grads = bilstm_backward(params.lstm_fwd, params.lstm_bwd, cache.s_cache, d_s)
    for direction, gq, gs in zip(("lstm_fwd", "lstm_bwd"), q_grads, s_grads):
        for name in ("w_x", "w_h", "b"):
            grads[f"{direction}.{name}"] = gq[name] + gs[name]
    return grads


@dataclass
class PooledCache:
    head: _HeadCache


def _pooled_apply(
    params: PooledClassifierParams,
    record: ContextEmbeddingRecord,
    pos_feature: float,
    dropout_mask: np.ndarray | None = None,
) -> PooledCache:
    pooled = record.pooled()
    x = np.concatenate([pooled, [pos_feature]])
    return PooledCache(head=_head_forward(params.hidden, params.output, x, dropout_mask))


def _pooled_backward(
    params: PooledClassifierParams, cache: PooledCache, label: int
) -> dict[str, np.ndarray]:
    grads, _ = _head_backward(params.hidden, params.output, cache.head, label)
    return grads


def _nnc_input(
    table: EmbeddingTable,
    question_tokens: Sequence[str],
    sentence_tokens: Sequence[str],
    pair_id: str | None,
    position: int,
    clip_len: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    return (
        embed_tokens(table, question_tokens, clip_len),
        embed_tokens(table, sentence_tokens, clip_len),
        position_feature(position),
    )


def _pooled_input(
    records: Mapping[str, ContextEmbeddingRecord],
    question_tokens: Sequence[str],
    sentence_tokens: Sequence[str],
    pair_id: str | None,
    position: int,
    clip_len: int,
) -> tuple[ContextEmbeddingRecord, float]:
    record = records.get(pair_id)  # type: ignore[arg-type]
    if record is None:
        raise MissingInput(f"no context-embedding record for pair id {pair_id!r}")
    return record, position_feature(position)


@dataclass(frozen=True)
class ModelKind:
    """Everything that differs between the classifier kinds."""

    name: str
    code: int  # the QFSM kind byte
    header: tuple[str, ...]  # init arguments stored as the QFSM u32 dims, in order
    train_defaults: TrainConfig
    source_option: str  # command-line option naming the file the model reads
    load_source: Callable  # path -> word-vector table or pair_id -> record mapping
    source_dim: Callable  # source -> its vector dimension
    init: Callable  # (source dim, lstm_hidden, dense_hidden, seed) -> params
    input: Callable  # (source, question tokens, sentence tokens, pair id, position, clip_len)
    apply: Callable  # (params, *input, dropout_mask=None) -> cache with .head.prob
    backward: Callable  # (params, cache, label) -> gradient per flat() name


# Training defaults are the hyperparameters of each architecture's original runs.
KINDS = {
    kind.name: kind
    for kind in (
        ModelKind(
            name="nnc",
            code=1,
            header=("emb_dim", "lstm_hidden", "dense_hidden"),
            train_defaults=TrainConfig(epochs=10, batch_size=1024, dropout_rate=0.7, clip_len=300),
            source_option="embeddings",
            load_source=load_word_embeddings,
            source_dim=lambda table: table.dim,
            init=init_nnc,
            input=_nnc_input,
            apply=_nnc_apply,
            backward=_nnc_backward,
        ),
        ModelKind(
            name="pooled",
            code=2,
            header=("input_dim", "dense_hidden"),
            train_defaults=TrainConfig(epochs=5, batch_size=32, dropout_rate=0.5, clip_len=250),
            source_option="cemb",
            load_source=load_context_embeddings,
            source_dim=lambda records: next(iter(records.values())).dim,
            init=init_pooled,
            input=_pooled_input,
            apply=_pooled_apply,
            backward=_pooled_backward,
        ),
    )
}


def forward(params: NncParams | PooledClassifierParams, *inputs) -> float:
    """Probability that the sentence belongs to the ideal answer."""
    return KINDS[params.kind].apply(params, *inputs).head.prob
