"""LSTM recurrences with hand-written backpropagation through time.

Gate layout stacks the four pre-activations as rows [input; forget;
output; candidate], each of height H, so a single (4H, E) input weight
and (4H, H) recurrent weight cover one direction. The bidirectional
encoder runs one cell forward and a second cell over the reversed
sequence, then mean-pools the concatenated per-step states.

Each function returns its output with its backward pass, a closure over
the forward values that maps dL/d(output) to the parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import EmptyInput
from .ops import sigmoid

LstmGrads = dict[str, np.ndarray]  # "w_x", "w_h", "b"


@dataclass
class LstmParams:
    """One direction's gate weights: w_x (4H, E), w_h (4H, H), b (4H,)."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray


def lstm_forward(
    params: LstmParams, xs: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], LstmGrads]]:
    """Run the recurrences over xs (n, E); returns the hidden states (n, H)
    and ``backward(dhs)``, the gate-parameter gradients given dL/dh_t for
    every step."""
    n = xs.shape[0]
    if n == 0:
        raise EmptyInput("LSTM input must have at least one step")
    hdim = params.w_h.shape[1]
    hs = np.zeros((n, hdim))
    steps = []  # per step: the gates i, f, o, g, and c and h before and after it
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    for t in range(n):
        a = params.w_x @ xs[t] + params.w_h @ h + params.b
        i = sigmoid(a[:hdim])
        f = sigmoid(a[hdim : 2 * hdim])
        o = sigmoid(a[2 * hdim : 3 * hdim])
        g = np.tanh(a[3 * hdim :])
        c_prev, h_prev = c, h
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        hs[t] = h
        steps.append((i, f, o, g, c_prev, c, h_prev))

    def backward(dhs: np.ndarray) -> LstmGrads:
        g_w_x = np.zeros_like(params.w_x)
        g_w_h = np.zeros_like(params.w_h)
        g_b = np.zeros_like(params.b)
        dh_next = np.zeros(hdim)
        dc_next = np.zeros(hdim)
        for t in range(n - 1, -1, -1):
            i, f, o, g, c_prev, c, h_prev = steps[t]
            dh = dhs[t] + dh_next
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
            dh_next = params.w_h.T @ da
        return {"w_x": g_w_x, "w_h": g_w_h, "b": g_b}

    return hs, backward


def bilstm_encode(
    fwd: LstmParams, bwd: LstmParams, xs: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[LstmGrads, LstmGrads]]]:
    """Mean over time of concatenated [forward_t ; backward_t] states.

    Returns the (2H,) sentence embedding and ``backward(d_encoded)``, the
    gradients of the forward and the backward cell given dL/d(embedding).
    """
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise EmptyInput("encoder input must be a non-empty (n, E) matrix")
    hs_f, backward_f = lstm_forward(fwd, xs)
    hs_b_rev, backward_b = lstm_forward(bwd, xs[::-1])
    hs_b = hs_b_rev[::-1]
    encoded = np.concatenate([hs_f, hs_b], axis=1).mean(axis=0)
    n, hdim = hs_f.shape

    def backward(d_encoded: np.ndarray) -> tuple[LstmGrads, LstmGrads]:
        # Every step gets 1/n of d_encoded, so the rows of the cell that read
        # the reversed sequence need no reordering.
        dhs_f = np.tile(d_encoded[:hdim] / n, (n, 1))
        dhs_b = np.tile(d_encoded[hdim:] / n, (n, 1))
        return backward_f(dhs_f), backward_b(dhs_b)

    return encoded, backward
