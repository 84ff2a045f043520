"""Seeded, deterministic training for both classifier kinds.

Both kinds read one :class:`~qfs.embeddings.DenseStore`: the interaction
model gathers each text's word-vector rows, and the pooled classifier
takes the row of each example's pair id from the pooled vectors
:func:`~qfs.embeddings.load_context_embeddings` reads. Either way the
per-example inputs are precomputed once, then Adam runs over shuffled
minibatches.
Dropout (inverted, scale 1/(1-rate)) hits the hidden-layer activation
during training only, with masks drawn from a dedicated stream so a
dropout rate of zero is invariant to that stream's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..embeddings import DenseStore
from ..errors import EmptyInput, QfsError
from ..textproc import token_surfaces
from .models import (
    DEFAULT_DENSE_HIDDEN, DEFAULT_LSTM_HIDDEN, KINDS, Params, TrainConfig, init_params,
)
from .ops import bce_loss

# Dropout masks come from their own stream, seeded this far from the
# shuffling seed.
DROPOUT_STREAM = 0x9E37


@dataclass(frozen=True)
class LabeledExample:
    """One (question, candidate sentence) training unit, as the two texts; its
    tokens are :func:`~qfs.textproc.token_surfaces` of them, made when read.
    The one check of a label (0 or 1) and a position (>= 0) is here."""

    question_text: str
    sentence_text: str
    position: int
    label: int
    pair_id: str | None = None
    question_tokens = property(lambda self: token_surfaces(self.question_text))
    sentence_tokens = property(lambda self: token_surfaces(self.sentence_text))

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, not {self.label!r}")
        if self.position < 0:
            raise ValueError(f"position must be >= 0, not {self.position!r}")


class Adam:
    """Adam with the usual bias correction; state keyed by parameter name.
    The decay rates and epsilon are the published defaults (Kingma & Ba, 2015)."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(
        self, params: Mapping[str, np.ndarray], grads: Mapping[str, np.ndarray]
    ) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for name, p in params.items():
            g = grads[name]
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


@dataclass
class TrainResult:
    params: Params
    loss_history: list[float] = field(default_factory=list)


def train(
    model: str,
    examples: Sequence[LabeledExample],
    source: DenseStore,
    config: TrainConfig,
    lstm_hidden: int = DEFAULT_LSTM_HIDDEN,
    dense_hidden: int = DEFAULT_DENSE_HIDDEN,
) -> TrainResult:
    """Train a classifier of kind ``model``; deterministic given the config seed.

    ``source`` holds the word vectors for the interaction model, or the
    pooled vectors by pair id for the pooled classifier. Every example's
    inputs are built once, by the kind's ``input``, as the scorer builds them.
    """
    if not examples:
        raise EmptyInput("training requires at least one example")
    kind = KINDS.get(model)
    if kind is None:
        raise ValueError(f"unknown model kind {model!r}")
    inputs = [
        kind.input(
            source, ex.question_tokens, ex.sentence_tokens, ex.pair_id, ex.position,
            config.clip_len,
        )
        for ex in examples
    ]
    sizes = {"lstm_hidden": lstm_hidden, "dense_hidden": dense_hidden}
    sizes[kind.header[0]] = source.dim
    params = init_params(model, config.seed, **{name: sizes[name] for name in kind.header})

    labels = [ex.label for ex in examples]
    optimizer = Adam(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    drop_rng = np.random.default_rng(config.seed + DROPOUT_STREAM)
    rate = config.dropout_rate

    n = len(examples)
    loss_history: list[float] = []
    with np.errstate(all="ignore"):  # a diverging run is refused below, not warned about
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                batch_grads: dict[str, np.ndarray] = {
                    k: np.zeros_like(v) for k, v in params.blocks.items()
                }
                batch_loss = 0.0
                for idx in batch:
                    mask = None
                    if rate > 0.0:
                        keep = drop_rng.random(dense_hidden) >= rate
                        mask = keep.astype(np.float64) / (1.0 - rate)
                    prob, backward = kind.apply(params, *inputs[idx], dropout_mask=mask)
                    batch_loss += bce_loss(prob, labels[idx])
                    for k, g in backward(labels[idx]).items():
                        batch_grads[k] += g
                scale = 1.0 / len(batch)
                for k in batch_grads:
                    batch_grads[k] *= scale
                where = f"at epoch {epoch + 1}, batch starting at example {start}"
                if not np.isfinite(batch_loss):
                    raise QfsError(f"non-finite loss {where}")
                optimizer.step(params.blocks, batch_grads)
                if bad := [k for k, v in params.blocks.items() if not np.isfinite(v).all()]:
                    raise QfsError(f"non-finite parameter block {bad[0]!r} {where}")
                epoch_loss += batch_loss
            loss_history.append(epoch_loss / n)
    return TrainResult(params=params, loss_history=loss_history)
