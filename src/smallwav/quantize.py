"""Dynamic 8-bit quantization of the model's linear layers.

Weight matrices of the transformer blocks (Q/K/V/O, both FFN linears)
and the token head are stored as int8 with one symmetric scale per
tensor.  Activations are quantized on the fly each forward pass with an
asymmetric scale and zero point, once per input: Q, K and V share one
quantization.  The matmul runs on exact integers, bit-identical to
32-bit integer accumulation, carried in float32 while the inner
dimension K satisfies K * 255 * 127 < 2**24 (K <= 518) and in float64
beyond; then the result is rescaled to float, so everything downstream
(gelu, layer norm, the attention score path) sees ordinary float32.
The conv frontend, positional table, layer norms and all biases stay
float.  The quantized model runs the float model's forward pass with
only the linear kernel swapped.

Prepacking caches each layer's unpacked kernel operand once so
per-utterance inference skips the int8 conversion; outputs are
bit-identical either way, only the per-call unpack work disappears.

numpy has no int8 GEMM, so the int8 model runs float BLAS on integer
codes plus the quantization passes, and it shares the float model's
gelu, layer norm, attention and conv work.  It is smaller than the float
model, not faster.

Quantized checkpoints use the "SWQ8" container documented in
docs/formats.md.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import (
    AcousticModel,
    ModelConfig,
    _Network,
    _param_shapes,
    _read_checkpoint,
    _write_checkpoint,
    count_params,
    linear_weight_names,
)
from .model import checkpoint_bytes as float_checkpoint_bytes
from .model import header_bytes as _header_bytes
from .tensor import NumericError, ShapeError, Tensor

QMAGIC = b"SWQ8"

#: serialized bytes per QuantParams record: float32 scale + int32 zero point
QUANT_PARAMS_BYTES = 8

#: Widest inner dimension whose integer product float32 carries exactly:
#: activation codes minus their zero point reach +-255 and weight codes
#: +-127, so every partial sum of K products stays below 2**24.
FLOAT32_CARRY_MAX_K = (2**24 - 1) // (255 * 127)


@dataclass(frozen=True)
class QuantParams:
    """Affine int8 mapping q = round(x / scale) + zero_point.

    zero_point lives in [-128, 127]; ranges that do not straddle zero
    get it clamped, which shifts the representable window
    [(-128 - zp) * scale, (127 - zp) * scale].  Inside that window the
    round trip is off by at most scale / 2 per element; a constant
    integer-valued tensor round-trips exactly.  Weight scales are
    snapped to the float32 grid at creation so SWQ8 checkpoints
    round-trip bit-exactly.
    """

    scale: float
    zero_point: int
    bits: int = 8

    def quantize(self, x) -> np.ndarray:
        q = np.rint(np.asarray(x, dtype=np.float64) / self.scale) + self.zero_point
        return np.clip(q, -128, 127).astype(np.int8)

    def dequantize(self, q) -> np.ndarray:
        return (np.asarray(q, dtype=np.float64) - self.zero_point) * self.scale


def quantize_weights(w) -> tuple:
    """Symmetric per-tensor int8 weights.

    scale = max|w| / 127, or 1.0 for an all-zero tensor, so dividing by
    it is always safe and zeros stay exactly zero.  Codes land in
    [-127, 127]; -128 is never produced.

    Returns:
        (int8 array of w's shape, QuantParams with zero_point 0)
    """
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("quantize_weights: input contains nan or inf")
    amax = float(np.max(np.abs(w))) if w.size else 0.0
    scale = float(np.float32(amax / 127.0))
    if scale == 0.0:
        # All zero, or too small to register on the float32 scale grid;
        # unit scale keeps the division safe and rounds everything to 0.
        scale = 1.0
    q = np.clip(np.rint(w / scale), -127, 127).astype(np.int8)
    return q, QuantParams(scale=scale, zero_point=0)


def dynamic_activation_params(x) -> QuantParams:
    """Asymmetric per-tensor parameters from the observed range of x.

    scale = (max - min) / 255 (1.0 for a constant tensor) and the zero
    point places min at code -128, clamped into [-128, 127].  For
    activations whose range straddles zero, which covers every tensor
    this model quantizes dynamically, the clamp never engages and the
    whole observed range is representable.  Recomputed on every call;
    nothing here is cached between forward passes.

    A nan anywhere makes min and max nan, and an infinity becomes one of
    them, so checking those two values covers the whole input.
    """
    x = np.asarray(x)
    if x.size == 0:
        raise ShapeError("dynamic_activation_params: empty input")
    mn = float(x.min())
    mx = float(x.max())
    if not (math.isfinite(mn) and math.isfinite(mx)):
        raise NumericError("dynamic_activation_params: input contains nan or inf")
    # Unlike weight scales these are never serialized, so no float32
    # snapping: full precision keeps the clip error inside scale / 2.
    scale = (mx - mn) / 255.0
    if scale == 0.0:
        scale = 1.0
    # round() on a float rounds half to even, as np.rint does.
    zp = min(max(-128 - round(mn / scale), -128), 127)
    return QuantParams(scale=scale, zero_point=zp)


def carry_dtype(k: int) -> type:
    """Float type that carries a K-deep integer product of codes exactly:
    float32 (sgemm) up to FLOAT32_CARRY_MAX_K, float64 beyond."""
    return np.float32 if k <= FLOAT32_CARRY_MAX_K else np.float64


class QuantizedLinear:
    """One linear layer's weight matrix stored as int8 codes.

    w_q holds codes in [-127, 127] with the symmetric scale in w_params;
    the layer's bias stays a float part of its own.  Until prepack()
    runs, every forward pass converts the int8 payload into the kernel's
    operand; prepack() caches that operand once.  unpack_count counts
    the per-call conversions; after prepacking it stops moving.
    """

    __slots__ = ("w_q", "w_params", "unpack_count", "_w_op")

    def __init__(self, w_q: np.ndarray, w_params: QuantParams):
        if w_q.ndim != 2:
            raise ShapeError(f"QuantizedLinear: weights must be 2-D, got {w_q.shape}")
        self.w_q = w_q
        self.w_params = w_params
        self.unpack_count = 0
        self._w_op = None

    @classmethod
    def from_float(cls, w) -> "QuantizedLinear":
        return cls(*quantize_weights(w))

    def prepack(self) -> None:
        """Cache the kernel operand; forward output bits do not change.

        Trades memory (the int8 codes as floats of carry_dtype(K): four
        bytes each up to K = 518, eight beyond) for dropping the per-call
        unpack, the same bargain the runtime this mirrors makes.
        """
        self._w_op = self._unpack()

    def _unpack(self) -> np.ndarray:
        return self.w_q.astype(carry_dtype(self.w_q.shape[0]))

    def _kernel_weights(self) -> np.ndarray:
        if self._w_op is not None:
            return self._w_op
        self.unpack_count += 1
        return self._unpack()


def qlinear_forward(x, *pairs) -> list:
    """Dynamically quantized x @ w + b for each (w, b) pair, as float32 arrays.

    Each pair is a QuantizedLinear w and its (d_out,) float bias b.  x is
    quantized once, from its own range, and every layer reads those
    codes, so Q, K and V cost one quantization; each layer gets its own
    matmul and contiguous output.  The codes minus the zero point,
    clip(rint(x / scale), -128 - zp, 127 - zp), lie in [-255, 255] and
    weight codes in [-127, 127], so the matmul runs on exact integers
    carried in carry_dtype(K): float32 up to K = 518, where every partial
    sum stays below 2^24, and float64 beyond, exact up to K = 2^15.  The
    result is bit-identical to a 32-bit integer accumulator in any
    summation order, and runs on BLAS instead of numpy's integer loops.
    One combined scale per layer brings it back to float, in float64,
    before the bias is added.

    Against the exact float product the per-element error is at most
    0.75 * (scale_w * ||x||_1 + scale_x * ||w||_1) with full-tensor
    1-norms, valid for inner dimensions up to 127 (the 0.5 rounding
    terms plus a cross term bounded via ||w||_1 >= 127 * scale_w).
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"qlinear_forward: expected (N, d) input, got {x.shape}")
    for lin, b in pairs:
        if x.shape[1] != lin.w_q.shape[0]:
            raise ShapeError(
                f"qlinear_forward: input width {x.shape[1]} does not match "
                f"weight shape {lin.w_q.shape}"
            )
        if np.shape(b) != (lin.w_q.shape[1],):
            raise ShapeError(
                f"qlinear_forward: bias {np.shape(b)} does not match "
                f"output width {lin.w_q.shape[1]}"
            )
    aparams = dynamic_activation_params(x)
    zp = aparams.zero_point
    codes = x.astype(np.float64)
    codes /= aparams.scale
    np.rint(codes, out=codes)
    np.clip(codes, -128 - zp, 127 - zp, out=codes)
    codes = codes.astype(carry_dtype(x.shape[1]), copy=False)
    out = []
    for lin, b in pairs:
        y = (codes @ lin._kernel_weights()).astype(np.float64, copy=False)
        y *= aparams.scale * lin.w_params.scale
        y += b
        out.append(y.astype(np.float32))
    return out


def _qlinear(x: Tensor, *pairs) -> list:
    """The int8 model's linear kernel over (QuantizedLinear, bias Tensor) pairs."""
    return [Tensor(y) for y in qlinear_forward(x.data, *((w, b.data) for w, b in pairs))]


class QuantizedModel(_Network):
    """Inference-only model with int8 linear layers.

    The conv frontend, positional table, layer norms and biases keep
    their float32 values as constant Tensors; attention scores and softmax
    always run on float tensors (attention_core refuses anything else).
    After prepack() the model is read-only and safe to share across
    threads.
    """

    def named_linears(self) -> list:
        """(name, QuantizedLinear) pairs in checkpoint order."""
        return [(n, p) for n, p in self.named_params() if isinstance(p, QuantizedLinear)]

    def unpack_count(self) -> int:
        return sum(lin.unpack_count for _, lin in self.named_linears())

    def reset_unpack_count(self) -> None:
        for _, lin in self.named_linears():
            lin.unpack_count = 0

    def infer(self, waveform) -> np.ndarray:
        """Per-frame logits of shape (N, n_tokens) for one utterance."""
        logits, _ = self._forward(waveform, _qlinear)
        return logits.data


def quantize_model(model: AcousticModel) -> QuantizedModel:
    """Quantize every transformer linear and the head; leave the rest float.

    The input model is read, not touched.  Quantizing twice makes no
    sense, so a QuantizedModel argument is rejected outright.
    """
    if isinstance(model, QuantizedModel):
        raise TypeError("quantize_model: model is already quantized")
    if not isinstance(model, AcousticModel):
        raise TypeError(f"quantize_model: expected an AcousticModel, got {type(model)!r}")
    linears = set(linear_weight_names(model.config))
    # Every float part is copied, so training the float model later
    # leaves this one alone.
    params = {
        name: QuantizedLinear.from_float(t.data)
        if name in linears
        else Tensor(t.data.astype(np.float32, copy=True))
        for name, t in model.named_params()
    }
    return QuantizedModel(model.config, params)


def prepack(qmodel: QuantizedModel) -> QuantizedModel:
    """Cache every layer's unpacked weights in place and return the model."""
    for _, lin in qmodel.named_linears():
        lin.prepack()
    return qmodel


# ---------------------------------------------------------------------------
# size accounting and the SWQ8 checkpoint format (see docs/formats.md)


def quantized_checkpoint_bytes(config: ModelConfig) -> int:
    """Exact SWQ8 file size: header, float payload, per-tensor int8 records."""
    shapes = dict(_param_shapes(config))
    linears = linear_weight_names(config)
    linear_elems = sum(math.prod(shapes[name]) for name in linears)
    float_params = count_params(config) - linear_elems
    return (
        _header_bytes(config)
        + 4 * float_params
        + len(linears) * QUANT_PARAMS_BYTES
        + linear_elems
    )


def model_size_bytes(model) -> int:
    """Serialized size of a float or quantized model, in bytes."""
    if isinstance(model, AcousticModel):
        return float_checkpoint_bytes(model.config)
    if isinstance(model, QuantizedModel):
        return quantized_checkpoint_bytes(model.config)
    raise TypeError(f"model_size_bytes: unsupported type {type(model)!r}")


def save_quantized_model(qmodel: QuantizedModel, path) -> None:
    records = []
    for _, lin in qmodel.named_linears():
        records.append(struct.pack("<fi", lin.w_params.scale, lin.w_params.zero_point))
        records.append(np.ascontiguousarray(lin.w_q, dtype=np.int8).tobytes())
    _write_checkpoint(path, QMAGIC, qmodel, b"".join(records))


def load_quantized_model(path) -> QuantizedModel:
    config, arrays, records = _read_checkpoint(
        path, QMAGIC, quantized_checkpoint_bytes, linear_weight_names
    )
    params = {name: Tensor(a) for name, a in arrays.items()}
    shapes = dict(_param_shapes(config))
    cursor = 0
    for name in linear_weight_names(config):
        scale, zp = struct.unpack_from("<fi", records, cursor)
        cursor += QUANT_PARAMS_BYTES
        shape = shapes[name]
        n = math.prod(shape)
        w_q = np.frombuffer(records, dtype=np.int8, count=n, offset=cursor).reshape(shape).copy()
        cursor += n
        params[name] = QuantizedLinear(w_q, QuantParams(scale=float(scale), zero_point=int(zp)))
    return QuantizedModel(config, params)
