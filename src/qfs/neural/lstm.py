"""LSTM recurrences with hand-written backpropagation through time.

Gate layout stacks the four pre-activations as rows [input; forget;
output; candidate], each of height H, so a single (4H, E) input weight
and (4H, H) recurrent weight cover one direction. The bidirectional
encoder runs one cell forward and a second cell over the reversed
sequence, then mean-pools the concatenated per-step states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyInput
from .ops import sigmoid


@dataclass
class LstmParams:
    """One direction's gate weights: w_x (4H, E), w_h (4H, H), b (4H,)."""

    w_x: np.ndarray
    w_h: np.ndarray
    b: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[1]


@dataclass
class LstmCache:
    """Per-step values saved by the forward pass for BPTT."""

    xs: np.ndarray  # (n, E) inputs as fed
    i: np.ndarray  # (n, H) input gate
    f: np.ndarray  # (n, H) forget gate
    o: np.ndarray  # (n, H) output gate
    g: np.ndarray  # (n, H) candidate
    c: np.ndarray  # (n, H) cell state
    h_prev: np.ndarray  # (n, H) hidden state entering each step


def lstm_forward(params: LstmParams, xs: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Run the recurrences over xs (n, E); returns hidden states (n, H)."""
    n = xs.shape[0]
    if n == 0:
        raise EmptyInput("LSTM input must have at least one step")
    hdim = params.hidden_dim
    hs = np.zeros((n, hdim))
    i_g = np.zeros((n, hdim))
    f_g = np.zeros((n, hdim))
    o_g = np.zeros((n, hdim))
    g_g = np.zeros((n, hdim))
    c_s = np.zeros((n, hdim))
    h_prev_s = np.zeros((n, hdim))
    h = np.zeros(hdim)
    c = np.zeros(hdim)
    for t in range(n):
        a = params.w_x @ xs[t] + params.w_h @ h + params.b
        i = sigmoid(a[:hdim])
        f = sigmoid(a[hdim : 2 * hdim])
        o = sigmoid(a[2 * hdim : 3 * hdim])
        g = np.tanh(a[3 * hdim :])
        h_prev_s[t] = h
        c = f * c + i * g
        h = o * np.tanh(c)
        i_g[t], f_g[t], o_g[t], g_g[t], c_s[t], hs[t] = i, f, o, g, c, h
    cache = LstmCache(xs=xs, i=i_g, f=f_g, o=o_g, g=g_g, c=c_s, h_prev=h_prev_s)
    return hs, cache


def lstm_backward(
    params: LstmParams, cache: LstmCache, dhs: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the gate parameters given dL/dh_t for every step."""
    n, hdim = dhs.shape
    g_w_x = np.zeros_like(params.w_x)
    g_w_h = np.zeros_like(params.w_h)
    g_b = np.zeros_like(params.b)
    dh_next = np.zeros(hdim)
    dc_next = np.zeros(hdim)
    for t in range(n - 1, -1, -1):
        dh = dhs[t] + dh_next
        tanh_c = np.tanh(cache.c[t])
        do = dh * tanh_c
        dc = dh * cache.o[t] * (1.0 - tanh_c * tanh_c) + dc_next
        c_prev = cache.c[t - 1] if t > 0 else np.zeros(hdim)
        di = dc * cache.g[t]
        dg = dc * cache.i[t]
        df = dc * c_prev
        dc_next = dc * cache.f[t]
        da = np.concatenate(
            [
                di * cache.i[t] * (1.0 - cache.i[t]),
                df * cache.f[t] * (1.0 - cache.f[t]),
                do * cache.o[t] * (1.0 - cache.o[t]),
                dg * (1.0 - cache.g[t] * cache.g[t]),
            ]
        )
        g_w_x += np.outer(da, cache.xs[t])
        g_w_h += np.outer(da, cache.h_prev[t])
        g_b += da
        dh_next = params.w_h.T @ da
    return {"w_x": g_w_x, "w_h": g_w_h, "b": g_b}


@dataclass
class BiLstmCache:
    fwd: LstmCache
    bwd: LstmCache
    n_steps: int


def bilstm_encode(
    fwd: LstmParams, bwd: LstmParams, xs: np.ndarray
) -> tuple[np.ndarray, BiLstmCache]:
    """Mean over time of concatenated [forward_t ; backward_t] states.

    Returns a (2H,) sentence embedding plus the cache needed by
    :func:`bilstm_backward`.
    """
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise EmptyInput("encoder input must be a non-empty (n, E) matrix")
    hs_f, cache_f = lstm_forward(fwd, xs)
    hs_b_rev, cache_b = lstm_forward(bwd, xs[::-1])
    hs_b = hs_b_rev[::-1]
    encoded = np.concatenate([hs_f, hs_b], axis=1).mean(axis=0)
    return encoded, BiLstmCache(fwd=cache_f, bwd=cache_b, n_steps=xs.shape[0])


def bilstm_backward(
    fwd: LstmParams, bwd: LstmParams, cache: BiLstmCache, d_encoded: np.ndarray
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Gradients for both directions given dL/d(sentence embedding)."""
    n = cache.n_steps
    hdim = fwd.hidden_dim
    dhs_f = np.tile(d_encoded[:hdim] / n, (n, 1))
    dhs_b = np.tile(d_encoded[hdim:] / n, (n, 1))
    # The backward cell consumed the reversed sequence, so its per-step
    # upstream gradients arrive reversed too (they are identical rows
    # here, but keep the orientation explicit).
    grads_f = lstm_backward(fwd, cache.fwd, dhs_f)
    grads_b = lstm_backward(bwd, cache.bwd, dhs_b[::-1])
    return grads_f, grads_b
