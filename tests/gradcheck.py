"""Central finite-difference verification of the analytic gradients.

Used with dropout disabled and in double precision, through the backward
pass that the kind's ``apply`` returns with the probability
(``qfs.neural.models.KINDS``), so one check serves every classifier
kind. For parameters with near-zero gradients (dead relu paths, clamped
losses) the comparison falls back to an absolute tolerance of 1e-8,
since relative error on a tiny denominator only measures
finite-difference noise.
"""

from __future__ import annotations

import numpy as np

from qfs.neural.models import KINDS, forward
from qfs.neural.ops import bce_loss

# Central differences carry an absolute noise floor around 1e-11 (machine
# epsilon over 2*epsilon plus truncation), so relative error is meaningless
# for gradients below _SMALL_GRAD; those fall back to an absolute check.
_SMALL_GRAD = 1e-6
_ABS_TOL = 1e-8


def _max_relative_error(
    analytic: dict[str, np.ndarray],
    blocks: dict[str, np.ndarray],
    loss_fn,
    epsilon: float,
) -> float:
    worst = 0.0
    for name, param in blocks.items():
        grad = analytic[name]
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + epsilon
            loss_plus = loss_fn()
            param[idx] = original - epsilon
            loss_minus = loss_fn()
            param[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            a = float(grad[idx])
            scale = max(abs(a), abs(numeric))
            if scale < _SMALL_GRAD:
                err = 0.0 if abs(a - numeric) < _ABS_TOL else abs(a - numeric) / scale
            else:
                err = abs(a - numeric) / scale
            worst = max(worst, err)
            it.iternext()
    return worst


def grad_check(params, inputs: tuple, label: int, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and finite-difference gradients.

    ``inputs`` is one example's model inputs, as the kind's ``input`` builds them.
    """
    _, backward = KINDS[params.kind].apply(params, *inputs)
    analytic = backward(label)

    def loss_fn() -> float:
        return bce_loss(forward(params, *inputs), label)

    return _max_relative_error(analytic, params.blocks, loss_fn, epsilon)
