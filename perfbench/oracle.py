"""Float64 reference forward pass and greedy CTC decode, in plain numpy.

Written from the model's description (strided conv frontend with gelu,
learned positions, post-norm encoder layers, linear token head), not by
calling smallwav's tensor ops, so it can catch a wrong kernel there.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5


def weights(model) -> dict:
    """Float64 copies of a float model's parameters, keyed by canonical name."""
    return {name: t.data.astype(np.float64) for name, t in model.named_params()}


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + LN_EPS) + bias


def _attention(q, k, v, n_heads):
    n, d = q.shape
    qh, kh, vh = (t.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2) for t in (q, k, v))
    scores = qh @ kh.transpose(0, 2, 1) / np.sqrt(d // n_heads)
    att = np.exp(scores - scores.max(axis=2, keepdims=True))
    att /= att.sum(axis=2, keepdims=True)
    return (att @ vh).transpose(1, 0, 2).reshape(n, d)


def forward(w: dict, config, wave) -> np.ndarray:
    """Per-frame logits (N, n_tokens) of one waveform, all in float64."""
    x = np.asarray(wave, dtype=np.float64)[None, :]
    for i, (_, width, stride) in enumerate(config.conv_layers):
        # (C_in, L_out, K): the input window under each output position.
        windows = np.lib.stride_tricks.sliding_window_view(x, width, axis=1)[:, ::stride]
        y = np.tensordot(w[f"conv{i}.w"], windows, axes=([1, 2], [0, 2]))
        x = _gelu(y + w[f"conv{i}.b"])
    h = x.T + w["pos"][: x.shape[1]]
    for i in range(config.n_transformer_layers):
        p = {f: w[f"layer{i}.{f}"] for f in (
            "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo", "ln1_g", "ln1_b",
            "wf1", "bf1", "wf2", "bf2", "ln2_g", "ln2_b",
        )}
        core = _attention(
            h @ p["wq"] + p["bq"], h @ p["wk"] + p["bk"], h @ p["wv"] + p["bv"],
            config.n_heads,
        )
        h = _layer_norm(h + core @ p["wo"] + p["bo"], p["ln1_g"], p["ln1_b"])
        ff = _gelu(h @ p["wf1"] + p["bf1"]) @ p["wf2"] + p["bf2"]
        h = _layer_norm(h + ff, p["ln2_g"], p["ln2_b"])
    return h @ w["head.w"] + w["head.b"]


def decode(logits) -> list:
    """Best path: argmax per frame, merge repeats, drop blank (id 0)."""
    out = []
    prev = None
    for tok in np.argmax(logits, axis=1).tolist():
        if tok != prev and tok != 0:
            out.append(tok)
        prev = tok
    return out
