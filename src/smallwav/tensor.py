"""Reverse-mode automatic differentiation on numpy arrays.

Small closure-tape design: every op returns a Tensor that remembers its
parents and a backward closure.  Calling ``backward()`` on a scalar loss
walks the tape in reverse topological order and accumulates gradients
with ``+=`` into every tensor that requires them.  There is no implicit
zeroing; optimizers must clear gradients between steps.  Inside a
``no_grad()`` block ops build no tape at all, for inference and frozen
teachers.

Only the ops the acoustic model needs are provided.  Shapes are checked
eagerly and failures name both operands.  Everything is numpy: gelu is
the exact x * Phi(x), with an erf of its own accurate to 4.5e-7.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NumericError",
    "Rng",
    "no_grad",
    "add",
    "sub",
    "neg",
    "mul",
    "matmul",
    "tsum",
    "tmean",
    "square",
    "tlog",
    "clamp_min",
    "softmax",
    "gelu",
    "layer_norm",
    "conv1d",
    "attention_core",
    "transpose",
]

_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# erf(z) ~ z * P(z^2) / Q(z^2) on [-4, 4], the float32 rational form of
# Eigen and XLA; past 4, erf is +-1 in float32.  Highest power first.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
    -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
    -1.60960333262415e-02,
))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
    -7.37332916720468e-03, -1.42647390514189e-02,
))


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NumericError(ValueError):
    """Operand values are outside an op's numeric domain."""


class Tensor:
    """A numpy array plus a gradient slot and a place on the tape.

    ``data`` holds the values and ``grad`` None or an array of their shape.
    ``requires_grad`` is set here and never after: by the caller, or by _make.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's values, cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item: tensor of shape {self.shape} is not a scalar")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable leaf's grad.

        Only defined for scalars (size 1).  Gradients add onto whatever
        is already stored, so callers zero them between optimizer steps.
        """
        if self.data.size != 1:
            raise ShapeError(
                f"backward: root must be a scalar, got shape {self.shape}"
            )
        order = _toposort(self)
        if self.grad is None:
            self.grad = np.ones_like(self.data)
        else:
            self.grad = self.grad + np.ones_like(self.data)
        for node in order:
            if node._backward is not None:
                node._backward(node.grad)

    def __getitem__(self, idx):
        return _getitem(self, idx)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{flag})"


def _toposort(root: Tensor) -> list:
    """Tape order from root back to leaves, iterative to spare the stack."""
    order = []
    seen = set()
    stack = [(root, iter(root._parents))]
    seen.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in seen and p.requires_grad:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def _lift(x, like: Tensor | None = None) -> Tensor:
    """Wrap scalars and arrays as constant tensors, matching dtype if known."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    arr = np.asarray(x, dtype=dtype)
    if arr.dtype.kind != "f":
        arr = arr.astype(np.float64)
    return Tensor(arr)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if g.shape != t.shape:
        raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {t.shape}")
    if t.grad is None:
        # One pass in the tensor's own layout; 0 + g turns -0.0 into +0.0.
        t.grad = np.add(g, 0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


class _GradMode(threading.local):
    off = False


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Build no tape in this thread while the block runs.

    Every op returns a constant tensor (no parents, requires_grad False),
    whatever its inputs require.  No tensor's requires_grad flag is
    written, so other threads sharing the same parameters keep building
    their tapes.  Blocks nest, and the previous mode comes back on exit,
    also when the block raises.
    """
    was = _grad_mode.off
    _grad_mode.off = True
    try:
        yield
    finally:
        _grad_mode.off = was


def _make(data, parents, backward) -> Tensor:
    """The op's result, on the tape with its backward only if a parent requires grad.

    So a one-parent closure writes its gradient unchecked; others check each parent.
    """
    requires_grad = not _grad_mode.off and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires_grad)
    if requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a, b) -> Tensor:
    a = _lift(a, like=b if isinstance(b, Tensor) else None)
    b = _lift(b, like=a)
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(data, (a, b), bw)


def sub(a, b) -> Tensor:
    return add(a, neg(_lift(b, like=a if isinstance(a, Tensor) else None)))


def neg(a) -> Tensor:
    a = _lift(a)

    def bw(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bw)


def mul(a, b) -> Tensor:
    a = _lift(a, like=b if isinstance(b, Tensor) else None)
    b = _lift(b, like=a)
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")

    def bw(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), bw)


def matmul(a, b) -> Tensor:
    """Strict 2-D matrix product."""
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul: expected 2-D operands, got {a.shape} @ {b.shape}"
        )
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ, {a.shape} @ {b.shape}"
        )
    data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), bw)


def tsum(a, axis=None) -> Tensor:
    a = _lift(a)
    data = a.data.sum(axis=axis, keepdims=False)

    def bw(g):
        _accumulate(a, np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.shape))

    return _make(data, (a,), bw)


def tmean(a, axis=None) -> Tensor:
    a = _lift(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / float(n))


def square(a) -> Tensor:
    a = _lift(a)

    def bw(g):
        _accumulate(a, 2.0 * a.data * g)

    return _make(a.data * a.data, (a,), bw)


def tlog(a) -> Tensor:
    """Natural log.  Rejects non-positive inputs rather than emitting inf."""
    a = _lift(a)
    if np.any(a.data <= 0.0) or not np.all(np.isfinite(a.data)):
        raise NumericError("log: input must be finite and strictly positive")
    data = np.log(a.data)

    def bw(g):
        _accumulate(a, g / a.data)

    return _make(data, (a,), bw)


def clamp_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor).  Gradient passes only where a > floor."""
    a = _lift(a)
    data = np.maximum(a.data, a.data.dtype.type(floor))

    def bw(g):
        _accumulate(a, g * (a.data > floor))

    return _make(data, (a,), bw)


def _getitem(a: Tensor, idx) -> Tensor:
    data = a.data[idx]

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _make(data, (a,), bw)


def transpose(a) -> Tensor:
    a = _lift(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a 2-D tensor, got {a.shape}")

    def bw(g):
        _accumulate(a, g.T)

    return _make(a.data.T.copy(), (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-stable softmax along one axis."""
    a = _lift(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax: input must be finite")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - inner))

    return _make(y, (a,), bw)


def _horner(z2: np.ndarray, coeffs: tuple) -> np.ndarray:
    """The polynomial in z2 with these coefficients, in place after one pass."""
    acc = z2 * coeffs[0]
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= z2
        acc += c
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf in the dtype of x, within 4.5e-7 of the true value.

    nan stays nan, +-inf gives +-1 and +-0 gives +-0.  The ratio overshoots
    1 by up to 4e-7 near |z| = 4, so it is clipped to erf's range.
    """
    z = np.clip(x, -4.0, 4.0)
    z2 = z * z
    p = _horner(z2, _ERF_P)
    p *= z
    p /= _horner(z2, _ERF_Q)
    return np.clip(p, -1.0, 1.0, out=p)


def gelu(a) -> Tensor:
    """Exact Gaussian-error-linear unit, x * Phi(x).

    Phi(x) = (1 + erf(x / sqrt 2)) / 2 with _erf, so in float32 gelu is
    within 1.4e-6 of exact on [-10, 10].
    """
    a = _lift(a)
    x = a.data
    cdf = _erf(x * x.dtype.type(_INV_SQRT2))
    cdf += 1.0
    cdf *= 0.5
    data = x * cdf

    def bw(g):
        pdf = np.exp(-0.5 * x * x) * x.dtype.type(_INV_SQRT2PI)
        _accumulate(a, g * (cdf + x * pdf))

    return _make(data, (a,), bw)


def _last_axis_mean(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=-1, keepdims=True), bit for bit, without its wrapper.

    ndarray.mean and ndarray.var divide the sum by an intp count this way.
    """
    s = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(s, np.intp(a.shape[-1]), out=s, casting="unsafe")


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    ``gain`` and ``bias`` are vectors matching the last axis.  Variance is
    the population variance with ``eps`` added before the square root.
    """
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} and bias {bias.shape} "
            f"must both be ({d},) for input {x.shape}"
        )
    xhat = x.data - _last_axis_mean(x.data)
    var = _last_axis_mean(xhat * xhat)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat *= inv
    data = gain.data * xhat + bias.data

    def bw(g):
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gh = g * gain.data
            m1 = _last_axis_mean(gh)
            m2 = _last_axis_mean(gh * xhat)
            _accumulate(x, inv * (gh - m1 - xhat * m2))

    return _make(data, (x, gain, bias), bw)


# ---------------------------------------------------------------------------
# structured ops


def conv1d(x, kernels, stride: int) -> Tensor:
    """Valid cross-correlation of a multichannel signal with a kernel bank.

    Args:
        x: Tensor of shape (C_in, L).
        kernels: Tensor of shape (C_out, C_in, K).
        stride: positive hop between output positions.

    Returns:
        Tensor of shape (C_out, L') with L' = floor((L - K) / stride) + 1.
        No padding is applied; L < K is a shape error.
    """
    x, kernels = _lift(x), _lift(kernels)
    if x.data.ndim != 2 or kernels.data.ndim != 3:
        raise ShapeError(
            f"conv1d: expected x (C_in, L) and kernels (C_out, C_in, K), "
            f"got {x.shape} and {kernels.shape}"
        )
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    c_in, length = x.data.shape
    c_out, c_in_k, k = kernels.data.shape
    if c_in_k != c_in:
        raise ShapeError(
            f"conv1d: channel mismatch, x {x.shape} vs kernels {kernels.shape}"
        )
    if length < k:
        raise ShapeError(
            f"conv1d: signal length {length} shorter than kernel width {k}"
        )
    # (C_in, L', K) view of every window the kernel touches: the view
    # sliding_window_view(x, k, axis=1)[:, ::stride] builds, made directly.
    l_out = (length - k) // stride + 1
    s0, s1 = x.data.strides
    windows = np.lib.stride_tricks.as_strided(
        x.data, (c_in, l_out, k), (s0, s1 * stride, s1), writeable=False
    )
    data = np.tensordot(windows, kernels.data, ([0, 2], [1, 2])).T

    def bw(g):
        if kernels.requires_grad:
            _accumulate(kernels, np.tensordot(g, windows, ([1], [1])))
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            # Scatter each kernel tap back onto the strided input positions.
            for tap in range(k):
                gx[:, tap : tap + stride * l_out : stride] += kernels.data[:, :, tap].T @ g
            _accumulate(x, gx)

    return _make(data, (x, kernels), bw)


def attention_core(q, k, v, n_heads: int) -> Tensor:
    """Fused multi-head scaled dot-product attention over one sequence.

    Inputs are (N, d) projections; the op splits heads, applies
    softmax(Q K^T / sqrt(d_head)) per head, and merges heads back to
    (N, d).  The score computation always runs in floating point; the op
    refuses integer inputs so quantized layers cannot leak raw int8 here.
    """
    q, k, v = _lift(q), _lift(k), _lift(v)
    for name, t in (("q", q), ("k", k), ("v", v)):
        if t.data.dtype.kind != "f":
            raise TypeError(f"attention_core: {name} must be floating point, got {t.dtype}")
    if q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(
            f"attention_core: q {q.shape}, k {k.shape}, v {v.shape} must match"
        )
    if q.data.ndim != 2:
        raise ShapeError(f"attention_core: expected (N, d) inputs, got {q.shape}")
    n, d = q.data.shape
    if d % n_heads != 0:
        raise ShapeError(
            f"attention_core: model width {d} not divisible by {n_heads} heads"
        )
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    # Heads-first (h, n, dh) views.  Each product keeps the layout that
    # trained weights' bits depend on: scores and datt are (h, j, i)
    # products seen transposed, so softmax sums run over a strided last
    # axis, and the output is a column-major (N, d) view.
    # tests/test_tensor.py keeps the reference contractions.
    qt = q.data.reshape(n, n_heads, dh).transpose(1, 0, 2)
    kt = k.data.reshape(n, n_heads, dh).transpose(1, 0, 2)
    vt = v.data.reshape(n, n_heads, dh).transpose(1, 0, 2)
    scores = np.matmul(kt, qt.transpose(0, 2, 1)).transpose(0, 2, 1) * qt.dtype.type(scale)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=-1, keepdims=True)
    data = np.matmul(vt.transpose(0, 2, 1), att.transpose(0, 2, 1)).transpose(2, 0, 1).reshape(n, d)

    def merge(heads):
        return heads.transpose(1, 0, 2).reshape(n, d)

    def bw(g):
        gt = g.reshape(n, n_heads, dh).transpose(1, 0, 2)
        if v.requires_grad:
            _accumulate(v, merge(np.matmul(att.transpose(0, 2, 1), gt)))
        if not (q.requires_grad or k.requires_grad):
            return
        datt = np.matmul(vt, gt.transpose(0, 2, 1)).transpose(0, 2, 1)
        inner = (datt * att).sum(axis=-1, keepdims=True)
        dscore = att * (datt - inner) * att.dtype.type(scale)
        if q.requires_grad:
            _accumulate(q, merge(np.matmul(dscore, kt)))
        if k.requires_grad:
            _accumulate(k, merge(np.matmul(dscore.transpose(0, 2, 1), qt)))

    return _make(data, (q, k, v), bw)


# ---------------------------------------------------------------------------
# randomness


class Rng:
    """Deterministic, splittable random stream on top of PCG64.

    ``Rng(seed)`` always yields the same draw sequence.  ``child(*key)``
    derives an independent stream from the seed plus an integer key path,
    so callers can hand out per-epoch or per-worker streams without
    coupling their draw counts.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        ss = np.random.SeedSequence((self.seed,) + self._key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, *key: int) -> "Rng":
        return Rng(self.seed, self._key + tuple(key))

    def normal(self, shape, std: float = 1.0, dtype=np.float64) -> np.ndarray:
        return (self._gen.standard_normal(shape) * std).astype(dtype)

    def integers(self, low: int, high: int, size=None):
        """Draws from [low, high), matching numpy's Generator convention."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
