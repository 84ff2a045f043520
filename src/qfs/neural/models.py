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
the file it reads (``load_source`` returns it as a
:class:`~qfs.embeddings.DenseStore`, whose ``dim`` is the first header
dim), ``shapes`` (the name and shape of every parameter block at given
dims), ``input`` (one example's model inputs from that store: nnc
gathers each text's word-vector rows, pooled takes the pair id's row)
and ``apply``, which returns the probability together with its backward
pass: ``backward(label)`` is a closure over the forward pass's values
that returns the gradient of BCE(prob, label) for each parameter block.
Training, the QFSM codec, the scorer and the command line look the kind
up there and nowhere else.
A model's parameters are one :class:`Params`, whose blocks
:func:`init_params` fills in the order of the kind's ``shapes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..embeddings import DenseStore, load_context_embeddings, load_word_embeddings
from ..errors import EmptyInput, MissingInput
from .lstm import LstmParams, bilstm_encode
from .ops import relu, sigmoid

_PROB_MIN = float(np.nextafter(0.0, 1.0))
_PROB_MAX = float(np.nextafter(1.0, 0.0))

DEFAULT_LSTM_HIDDEN = 100
DEFAULT_DENSE_HIDDEN = 50


def position_feature(position: int) -> float:
    """Bounded encoding of a 0-based list position."""
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
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError("learning_rate must be finite and positive")
        if self.clip_len < 1:
            raise ValueError("clip_len must be >= 1")


Shapes = dict[str, tuple[int, ...]]  # block name -> shape, in QFSM order


@dataclass
class Params:
    """A classifier's parameters: named float64 blocks in QFSM order.

    ``dims`` are the kind's header dims, and ``blocks`` has the names and
    shapes of the kind's ``shapes`` at those dims.
    """

    kind: str
    dims: dict[str, int]
    blocks: dict[str, np.ndarray]
    seed: int = 0


def _lstm_shapes(direction: str, emb_dim: int, hidden: int) -> Shapes:
    return {
        f"{direction}.w_x": (4 * hidden, emb_dim),
        f"{direction}.w_h": (4 * hidden, hidden),
        f"{direction}.b": (4 * hidden,),
    }


def _head_shapes(n_in: int, dense_hidden: int) -> Shapes:
    return {
        "hidden.w": (dense_hidden, n_in),
        "hidden.b": (dense_hidden,),
        "output.w": (1, dense_hidden),
        "output.b": (1,),
    }


def _nnc_shapes(emb_dim: int, lstm_hidden: int, dense_hidden: int) -> Shapes:
    return {
        **_lstm_shapes("lstm_fwd", emb_dim, lstm_hidden),
        **_lstm_shapes("lstm_bwd", emb_dim, lstm_hidden),
        **_head_shapes(4 * lstm_hidden + 1, dense_hidden),
    }


def _pooled_shapes(input_dim: int, dense_hidden: int) -> Shapes:
    return _head_shapes(input_dim + 1, dense_hidden)


def init_params(kind: str, seed: int = 0, **dims: int) -> Params:
    """Weights uniform in [-0.05, 0.05], drawn in block order; biases zero,
    except each LSTM forget-gate bias, which is one."""
    rng = np.random.default_rng(seed)
    blocks = {}
    for name, shape in KINDS[kind].shapes(**dims).items():
        if name.endswith(".b"):
            blocks[name] = np.zeros(shape)
            if name.startswith("lstm"):
                hidden = shape[0] // 4
                blocks[name][hidden : 2 * hidden] = 1.0
        else:
            blocks[name] = rng.uniform(-0.05, 0.05, size=shape)
    return Params(kind, {name: dims[name] for name in KINDS[kind].header}, blocks, seed)


def _lstm(params: Params, direction: str) -> LstmParams:
    b = params.blocks
    return LstmParams(b[f"{direction}.w_x"], b[f"{direction}.w_h"], b[f"{direction}.b"])


Backward = Callable[[int], dict[str, np.ndarray]]  # label -> gradient per block name


def _head(
    params: Params, x: np.ndarray, dropout_mask: np.ndarray | None
) -> tuple[float, Callable[[int], tuple[dict[str, np.ndarray], np.ndarray]]]:
    """The classifier head's probability, and its backward pass: the
    gradients of BCE(prob, label) w.r.t. head params and head input."""
    b = params.blocks
    mask = 1.0 if dropout_mask is None else dropout_mask  # x * 1.0 is x, bit for bit
    a1 = b["hidden.w"] @ x + b["hidden.b"]
    h = relu(a1) * mask
    z = b["output.w"][0] @ h + b["output.b"][0]
    # A saturated sigmoid rounds to exactly 0.0 or 1.0; the documented
    # contract is the open interval, so clamp to its nearest floats.
    prob = min(max(sigmoid(z), _PROB_MIN), _PROB_MAX)

    def backward(label: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
        dz = prob - label
        dh = b["output.w"][0] * dz * mask
        da1 = dh * (a1 > 0.0)
        grads = {
            "hidden.w": np.outer(da1, x),
            "hidden.b": da1,
            "output.w": np.outer([dz], h),
            "output.b": np.array([dz]),
        }
        return grads, b["hidden.w"].T @ da1

    return prob, backward


def _nnc_apply(
    params: Params,
    q_matrix: np.ndarray,
    s_matrix: np.ndarray,
    pos_feature: float,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, Backward]:
    if q_matrix.shape[0] == 0 or s_matrix.shape[0] == 0:
        raise EmptyInput("question and sentence matrices must be non-empty")
    fwd, bwd = _lstm(params, "lstm_fwd"), _lstm(params, "lstm_bwd")
    q_vec, q_backward = bilstm_encode(fwd, bwd, q_matrix)
    s_vec, s_backward = bilstm_encode(fwd, bwd, s_matrix)
    x = np.concatenate([s_vec, s_vec * q_vec, [pos_feature]])
    prob, head_backward = _head(params, x, dropout_mask)

    def backward(label: int) -> dict[str, np.ndarray]:
        grads, dx = head_backward(label)
        two_h = s_vec.shape[0]
        d_s = dx[:two_h] + dx[two_h : 2 * two_h] * q_vec
        d_q = dx[two_h : 2 * two_h] * s_vec
        for direction, gq, gs in zip(("lstm_fwd", "lstm_bwd"), q_backward(d_q), s_backward(d_s)):
            for name in ("w_x", "w_h", "b"):
                grads[f"{direction}.{name}"] = gq[name] + gs[name]
        return grads

    return prob, backward


def _pooled_apply(
    params: Params,
    vector: np.ndarray,
    pos_feature: float,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, Backward]:
    x = np.concatenate([vector, [pos_feature]])
    prob, head_backward = _head(params, x, dropout_mask)
    return prob, lambda label: head_backward(label)[0]


def _embed(words: DenseStore, tokens: Sequence[str], clip_len: int) -> np.ndarray:
    """The first ``clip_len`` tokens' rows, a zero row for an out-of-vocabulary
    token; a text with no tokens is one zero row."""
    return words.gather(tokens[:clip_len]) if tokens else np.zeros((1, words.dim))


def _nnc_input(
    words: DenseStore,
    question_tokens: Sequence[str],
    sentence_tokens: Sequence[str],
    pair_id: str | None,
    position: int,
    clip_len: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    return (
        _embed(words, question_tokens, clip_len),
        _embed(words, sentence_tokens, clip_len),
        position_feature(position),
    )


def _pooled_input(
    pooled: DenseStore,
    question_tokens: Sequence[str],
    sentence_tokens: Sequence[str],
    pair_id: str | None,
    position: int,
    clip_len: int,
) -> tuple[np.ndarray, float]:
    if pair_id not in pooled:
        raise MissingInput(f"no context-embedding record for pair id {pair_id!r}")
    return pooled[pair_id], position_feature(position)


@dataclass(frozen=True)
class ModelKind:
    """Everything that differs between the classifier kinds.

    ``load_source`` reads the one vectors file a kind needs (word vectors
    for nnc, CEMB context embeddings for pooled), which ``--embeddings``
    and ``config.model.embeddings_path`` name for either kind.
    """

    name: str
    code: int  # the QFSM kind byte
    header: tuple[str, ...]  # the dims, source dim first, stored in this order as QFSM u32s
    train_defaults: TrainConfig
    load_source: Callable  # path -> DenseStore of word vectors or of pooled vectors
    shapes: Callable  # (**dims) -> {block name: shape}, in QFSM order
    input: Callable  # (source, question tokens, sentence tokens, pair id, position, clip_len)
    apply: Callable  # (params, *input, dropout_mask=None) -> (prob, backward)


# Training defaults are the hyperparameters of each architecture's original runs.
KINDS = {
    kind.name: kind
    for kind in (
        ModelKind(
            name="nnc",
            code=1,
            header=("emb_dim", "lstm_hidden", "dense_hidden"),
            train_defaults=TrainConfig(epochs=10, batch_size=1024, dropout_rate=0.7, clip_len=300),
            load_source=load_word_embeddings,
            shapes=_nnc_shapes,
            input=_nnc_input,
            apply=_nnc_apply,
        ),
        ModelKind(
            name="pooled",
            code=2,
            header=("input_dim", "dense_hidden"),
            train_defaults=TrainConfig(epochs=5, batch_size=32, dropout_rate=0.5, clip_len=250),
            load_source=load_context_embeddings,
            shapes=_pooled_shapes,
            input=_pooled_input,
            apply=_pooled_apply,
        ),
    )
}


def forward(params: Params, *inputs) -> float:
    """Probability that the sentence belongs to the ideal answer."""
    return KINDS[params.kind].apply(params, *inputs)[0]
