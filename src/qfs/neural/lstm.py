"""LSTM recurrences with hand-written backpropagation through time.

Gate layout stacks the four pre-activations as rows [input; forget;
output; candidate], each of height H, so a single (4H, E) input weight
and (4H, H) recurrent weight cover one direction. The bidirectional
encoder runs one cell forward and a second cell over the reversed
sequence, then mean-pools the concatenated per-step states.

Each function reads the weight blocks that :func:`lstm_shapes` names
and returns its output with its backward pass, a closure over the
forward values that maps dL/d(output) to those blocks' gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import EmptyInput
from .ops import sigmoid

Grads = dict[str, np.ndarray]  # block name -> gradient


def lstm_shapes(emb_dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """The block names and shapes of both directions, in QFSM order."""
    shapes = {}
    for direction in ("lstm_fwd", "lstm_bwd"):
        shapes[f"{direction}.w_x"] = (4 * hidden, emb_dim)
        shapes[f"{direction}.w_h"] = (4 * hidden, hidden)
        shapes[f"{direction}.b"] = (4 * hidden,)
    return shapes


def lstm_forward(
    blocks: dict[str, np.ndarray], direction: str, xs: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], Grads]]:
    """Run ``direction``'s recurrences over xs (n, E); returns the hidden
    states (n, H) and ``backward(dh_step)``, the direction's block
    gradients given the same dL/dh_t (H,) at every step."""
    n = xs.shape[0]
    w_x, w_h, b = (blocks[f"{direction}.{name}"] for name in ("w_x", "w_h", "b"))
    hdim = w_h.shape[1]
    hs = np.zeros((n, hdim))
    steps = []  # per step: the gates i, f, o, g, and c and h before and after it
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    for t in range(n):
        a = w_x @ xs[t] + w_h @ h + b
        i = sigmoid(a[:hdim])
        f = sigmoid(a[hdim : 2 * hdim])
        o = sigmoid(a[2 * hdim : 3 * hdim])
        g = np.tanh(a[3 * hdim :])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        hs[t] = h
        steps.append((i, f, o, g, c_prev, c, h_prev))

    def backward(dh_step: np.ndarray) -> Grads:
        g_w_x = np.zeros_like(w_x)
        g_w_h = np.zeros_like(w_h)
        g_b = np.zeros_like(b)
        dh_next = np.zeros(hdim)
        dc_next = np.zeros(hdim)
        for t in range(n - 1, -1, -1):
            i, f, o, g, c_prev, c, h_prev = steps[t]
            dh = dh_step + dh_next
            tanh_c = np.tanh(c)
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            da = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    do * o * (1.0 - o),
                    dg * (1.0 - g * g),
                ]
            )
            g_w_x += np.outer(da, xs[t])
            g_w_h += np.outer(da, h_prev)
            g_b += da
            dh_next = w_h.T @ da
        return {f"{direction}.w_x": g_w_x, f"{direction}.w_h": g_w_h, f"{direction}.b": g_b}

    return hs, backward


def bilstm_encode(
    blocks: dict[str, np.ndarray], xs: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], Grads]]:
    """Mean over time of concatenated [forward_t ; backward_t] states.

    Returns the (2H,) sentence embedding and ``backward(d_encoded)``, the
    gradients of both directions' blocks given dL/d(embedding).
    """
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise EmptyInput("encoder input must be a non-empty (n, E) matrix")
    hs_f, backward_f = lstm_forward(blocks, "lstm_fwd", xs)
    hs_b_rev, backward_b = lstm_forward(blocks, "lstm_bwd", xs[::-1])
    hs_b = hs_b_rev[::-1]
    encoded = np.concatenate([hs_f, hs_b], axis=1).mean(axis=0)
    n, hdim = hs_f.shape

    def backward(d_encoded: np.ndarray) -> Grads:
        # Every step gets 1/n of d_encoded, so the cell that read the
        # reversed sequence needs no reordering.
        return {**backward_f(d_encoded[:hdim] / n), **backward_b(d_encoded[hdim:] / n)}

    return encoded, backward
