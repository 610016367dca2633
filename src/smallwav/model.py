"""The acoustic model: conv frontend, transformer encoder, token head.

A waveform goes through a stack of strided 1-D convolutions (gelu after
each), gains learned absolute positional embeddings, passes through
post-norm transformer encoder layers, and is projected to per-frame
token logits for CTC-style decoding.

The module also owns layer selection for student initialization and one
checkpoint writer and reader, for the "SWAV" float and "SWQ8" int8
formats.  Parameters live in float32 and follow one canonical order
everywhere (iteration, serialization, optimizer state), documented in
docs/formats.md.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .tensor import (
    Rng,
    ShapeError,
    Tensor,
    add,
    attention_core,
    conv1d,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    transpose,
)

MAGIC = b"SWAV"
FORMAT_VERSION = 1


class ConfigError(ValueError):
    """A model or task configuration violates its own constraints."""


class SelectionError(ValueError):
    """A layer selection cannot be applied to the teacher's depth."""


class CheckpointError(ValueError):
    """Base for checkpoint parse failures."""


class BadMagicError(CheckpointError):
    pass


class BadVersionError(CheckpointError):
    pass


class TruncatedError(CheckpointError):
    """Payload shorter or longer than the config demands."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    conv_layers lists (out_channels, kernel_width, stride) from the
    waveform inward; the last out_channels must equal d_model so conv
    frames feed the transformer directly.  max_frames bounds the learned
    positional table and therefore the longest supported utterance.
    """

    conv_layers: tuple = ((32, 16, 2), (32, 8, 2), (64, 8, 2))
    d_model: int = 64
    n_transformer_layers: int = 4
    n_heads: int = 4
    ffn_dim: int = 256
    n_tokens: int = 12
    max_frames: int = 256

    def __post_init__(self):
        if not self.conv_layers:
            raise ConfigError("conv_layers must not be empty")
        for trip in self.conv_layers:
            if len(trip) != 3 or any(int(v) < 1 for v in trip):
                raise ConfigError(f"bad conv layer spec {trip!r}")
        object.__setattr__(
            self, "conv_layers", tuple(tuple(int(v) for v in t) for t in self.conv_layers)
        )
        if self.conv_layers[-1][0] != self.d_model:
            raise ConfigError(
                f"last conv out_channels {self.conv_layers[-1][0]} "
                f"must equal d_model {self.d_model}"
            )
        for name in ("d_model", "n_transformer_layers", "n_heads", "ffn_dim", "max_frames"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.n_tokens < 2:
            raise ConfigError("n_tokens must cover blank plus at least one symbol")

    @property
    def boundary(self) -> int:
        """Word-boundary id, the last token: 0 is the CTC blank and tones lie between."""
        return self.n_tokens - 1

    def n_frames(self, n_samples: int) -> int:
        """Closed-form conv output length for an input of n_samples."""
        length = int(n_samples)
        for _, width, stride in self.conv_layers:
            if length < width:
                raise ShapeError(
                    f"waveform of {n_samples} samples too short for conv "
                    f"stack (need width {width}, have {length})"
                )
            length = (length - width) // stride + 1
        return length

    def receptive_field(self) -> int:
        """Samples of input seen by one conv output frame."""
        span = self.conv_layers[0][1]
        jump = self.conv_layers[0][2]
        for _, width, stride in self.conv_layers[1:]:
            span += (width - 1) * jump
            jump *= stride
        return span

    def total_stride(self) -> int:
        prod = 1
        for _, _, stride in self.conv_layers:
            prod *= stride
        return prod


def count_params(config: ModelConfig) -> int:
    """Parameter count from the config alone, no model needed."""
    return sum(math.prod(shape) for _, shape in _param_shapes(config))


@dataclass(frozen=True)
class LayerSelection:
    """Which teacher transformer layers seed the student.

    alternating(k) spreads k picks evenly from the front: index
    floor(j * depth / k) for j in 0..k-1.  last_k(k) keeps the deepest k
    layers.  explicit(indices) names them directly.
    """

    kind: str
    keep: int | None = None
    indices: tuple | None = None

    @classmethod
    def alternating(cls, keep: int) -> "LayerSelection":
        return cls("alternating", keep=int(keep))

    @classmethod
    def last_k(cls, keep: int) -> "LayerSelection":
        return cls("last_k", keep=int(keep))

    @classmethod
    def explicit(cls, indices) -> "LayerSelection":
        return cls("explicit", indices=tuple(int(i) for i in indices))

    def resolve(self, depth: int) -> list:
        if self.kind in ("alternating", "last_k"):
            k = self.keep
            if k is None or not 1 <= k <= depth:
                raise SelectionError(
                    f"{self.kind}: keep={k} outside [1, {depth}]"
                )
            if self.kind == "alternating":
                return [j * depth // k for j in range(k)]
            return list(range(depth - k, depth))
        if self.kind == "explicit":
            idx = list(self.indices or ())
            if not idx:
                raise SelectionError("explicit: empty index list")
            if any(not 0 <= i < depth for i in idx):
                raise SelectionError(f"explicit: indices {idx} outside [0, {depth})")
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise SelectionError(f"explicit: indices {idx} must strictly increase")
            return idx
        raise SelectionError(f"unknown selection kind {self.kind!r}")


def _linear(x: Tensor, *pairs) -> list:
    return [add(matmul(x, w), b) for w, b in pairs]


class _Network:
    """The network's parts by canonical name, and one forward pass over them.

    ``parts`` maps each canonical name (docs/formats.md) to its part, in
    the order of _param_shapes.  Every part is a Tensor, except that the
    int8 model holds a QuantizedLinear in each linear's weight slot.  The
    two differ only in the kernel that _forward applies to each linear.
    """

    def __init__(self, config: ModelConfig, params: dict):
        self.config = config
        self.parts = {name: params[name] for name, _ in _param_shapes(config)}

    def named_params(self) -> list:
        """(name, part) pairs in the canonical serialization order."""
        return list(self.parts.items())

    def _forward(self, waveform, linear) -> tuple:
        """Run one utterance, with linear(x, *pairs) as every linear layer.

        Args:
            waveform: 1-D array or Tensor of samples.
            linear: kernel taking the (N, d_in) input Tensor and one or
                more (weight, bias) part pairs, returning one (N, d_out)
                Tensor per pair.  Q, K and V are one call on the same
                input, so the int8 kernel quantizes that input once.

        Returns:
            (logits, conv_out): per-frame token logits of shape (N, M) and
            the final conv features of shape (N, C), both on the tape when
            any weight requires grad and the tape is on.  Gradients do not
            flow to the input.
        """
        data = waveform.data if isinstance(waveform, Tensor) else np.asarray(waveform)
        if data.ndim != 1:
            raise ShapeError(f"forward: expected a 1-D waveform, got shape {data.shape}")
        n = self.config.n_frames(data.shape[0])
        if n > self.config.max_frames:
            raise ShapeError(
                f"utterance needs {n} frames but max_frames is {self.config.max_frames}"
            )
        p = self.parts
        x = Tensor(np.ascontiguousarray(data[None, :], dtype=np.float32))
        for i, (_, _, stride) in enumerate(self.config.conv_layers):
            x = gelu(add(conv1d(x, p[f"conv{i}.w"], stride), p[f"conv{i}.b"]))
        conv_out = transpose(x)
        h = add(conv_out, p["pos"][:n])
        for i in range(self.config.n_transformer_layers):
            at = f"layer{i}."
            q, k, v = linear(h, self._pair(at, "q"), self._pair(at, "k"), self._pair(at, "v"))
            core = attention_core(q, k, v, self.config.n_heads)
            (o,) = linear(core, self._pair(at, "o"))
            h = layer_norm(add(h, o), p[at + "ln1_g"], p[at + "ln1_b"])
            (f1,) = linear(h, self._pair(at, "f1"))
            (ff,) = linear(gelu(f1), self._pair(at, "f2"))
            h = layer_norm(add(h, ff), p[at + "ln2_g"], p[at + "ln2_b"])
        (logits,) = linear(h, self._pair("head.", ""))
        return logits, conv_out

    def _pair(self, prefix: str, suffix: str) -> tuple:
        """A linear's (weight, bias) parts: ("layer0.", "q") gives layer0.wq, layer0.bq."""
        return self.parts[f"{prefix}w{suffix}"], self.parts[f"{prefix}b{suffix}"]


class AcousticModel(_Network):
    """Float32 model with trainable parameters on the autodiff tape."""

    # -- construction -----------------------------------------------------

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 42) -> "AcousticModel":
        """Fresh random model; identical config and seed give identical weights.

        Weights draw from one stream in canonical order: conv kernels
        at std sqrt(2 / fan_in), linear weights at sqrt(1 / fan_in), the
        positional table at 0.02.  Layer-norm gains start at one, biases
        and shifts at zero.
        """
        rng = Rng(seed)
        linears = set(linear_weight_names(config))
        params = {}
        for name, shape in _param_shapes(config):
            if name in linears:
                data = rng.normal(shape, std=np.sqrt(1.0 / shape[0]), dtype=np.float32)
            elif len(shape) == 3:
                data = rng.normal(shape, std=np.sqrt(2.0 / (shape[1] * shape[2])), dtype=np.float32)
            elif name == "pos":
                data = rng.normal(shape, std=0.02, dtype=np.float32)
            elif name.endswith("_g"):
                data = np.ones(shape, dtype=np.float32)
            else:
                data = np.zeros(shape, dtype=np.float32)
            params[name] = Tensor(data, requires_grad=True)
        return cls(config, params)

    def params(self) -> list:
        return [t for _, t in self.named_params()]

    def count_params(self) -> int:
        return sum(t.size for t in self.params())

    def zero_grad(self) -> None:
        for t in self.params():
            t.zero_grad()

    def copy(self) -> "AcousticModel":
        params = {
            name: Tensor(t.data.copy(), requires_grad=t.requires_grad)
            for name, t in self.named_params()
        }
        return AcousticModel(self.config, params)

    # -- forward ----------------------------------------------------------

    def forward(self, waveform) -> tuple:
        """Run one utterance through the float linears.

        Returns (logits, conv_out) as _Network._forward documents: (N, M)
        logits and (N, C) conv features, on the tape when any weight
        requires grad, outside no_grad().
        """
        return self._forward(waveform, _linear)

    def infer(self, waveform) -> np.ndarray:
        """Logits only, with the tape off.  For decoding and timing."""
        with no_grad():
            logits, _ = self.forward(waveform)
        return logits.data


def sinusoidal_positions(n_positions: int, d_model: int) -> np.ndarray:
    """The fixed sinusoid table of Vaswani et al. 2017, float32 (n, d).

    Column 2i holds sin(p / 10000^(2i/d)) and column 2i+1 the matching
    cosine, so every position gets a distinct unit-amplitude code and
    a shift by k positions acts on it as a fixed rotation.
    """
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    pair = np.arange(d_model) // 2
    angle = pos / 10000.0 ** (2.0 * pair / d_model)
    table = np.where(np.arange(d_model) % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(np.float32)


def init_student(teacher: AcousticModel, selection: LayerSelection) -> AcousticModel:
    """Build a student by copying selected teacher layers.

    The conv frontend, positional table, and head copy over whole; the
    student's transformer depth is the selection size.  Selecting every
    layer in order reproduces the teacher exactly.
    """
    depth = teacher.config.n_transformer_layers
    picked = selection.resolve(depth)
    cfg = replace(teacher.config, n_transformer_layers=len(picked))
    renamed = {f"layer{old}": f"layer{new}" for new, old in enumerate(picked)}
    params = {}
    for name, t in teacher.named_params():
        layer, dot, field = name.partition(".")
        if layer.startswith("layer"):
            if layer not in renamed:
                continue
            name = renamed[layer] + dot + field
        params[name] = Tensor(t.data.copy(), requires_grad=True)
    return AcousticModel(cfg, params)


# ---------------------------------------------------------------------------
# SWAV and SWQ8 checkpoints (see docs/formats.md)


#: The uint32 config fields that follow the conv triples, in file order.
#: Spelled out, not read from ModelConfig, so that reordering the
#: dataclass cannot change the format.
HEADER_FIELDS = ("d_model", "n_transformer_layers", "n_heads", "ffn_dim", "n_tokens", "max_frames")


def _header_length(n_conv: int) -> int:
    """Magic, version, conv count, n_conv conv triples and HEADER_FIELDS."""
    return 12 + 12 * n_conv + 4 * len(HEADER_FIELDS)


def _pack_config(config: ModelConfig) -> bytes:
    values = [len(config.conv_layers), *(v for trip in config.conv_layers for v in trip)]
    values += [getattr(config, name) for name in HEADER_FIELDS]
    return struct.pack(f"<{len(values)}I", *values)


def header_bytes(config: ModelConfig) -> int:
    """Length of the header, which SWAV and SWQ8 share, for this config."""
    return _header_length(len(config.conv_layers))


def checkpoint_bytes(config: ModelConfig) -> int:
    """Exact on-disk size of a float checkpoint: header plus 4 bytes a weight."""
    return header_bytes(config) + 4 * count_params(config)


def save_model(model: AcousticModel, path) -> None:
    _write_checkpoint(path, MAGIC, model)


def load_model(path) -> AcousticModel:
    config, arrays, _ = _read_checkpoint(path, MAGIC, checkpoint_bytes)
    params = {name: Tensor(a, requires_grad=True) for name, a in arrays.items()}
    return AcousticModel(config, params)


def _write_checkpoint(path, magic: bytes, model: _Network, records: bytes = b"") -> None:
    """Write the header, every Tensor part as float32 in canonical order, then records.

    The int8 model's linear weight matrices are not Tensors; the caller
    serializes them into records.
    """
    blob = [magic, struct.pack("<I", FORMAT_VERSION), _pack_config(model.config)]
    for _, part in model.named_params():
        if isinstance(part, Tensor):
            blob.append(np.ascontiguousarray(part.data, dtype="<f4").tobytes())
    blob.append(records)
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


def _read_checkpoint(path, magic: bytes, file_bytes, moved=None) -> tuple:
    """Parse a file of _write_checkpoint's, file_bytes(config) bytes long.

    moved(config), if given, names the parts stored in the records, not
    the float section.  A float part holding nan or inf is a
    CheckpointError naming it.  Returns (config, float32 arrays by name,
    records).
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    config, offset = _parse_header(raw, magic)
    expected = file_bytes(config) - offset
    payload = len(raw) - offset
    if payload < expected:
        raise TruncatedError(f"payload has {payload} bytes, config needs {expected}")
    if payload > expected:
        raise TruncatedError(f"{payload - expected} trailing bytes after payload")
    skip = set(moved(config)) if moved else set()
    arrays = {}
    for name, shape in _param_shapes(config):
        if name in skip:
            continue
        n = math.prod(shape)
        flat = np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
        if not np.isfinite(flat).all():
            raise CheckpointError(f"{name}: holds nan or inf")
        arrays[name] = flat.reshape(shape).astype(np.float32, copy=True)
        offset += 4 * n
    return config, arrays, raw[offset:]


def _parse_header(raw: bytes, magic: bytes) -> tuple:
    if raw[:4] != magic:
        raise BadMagicError(f"expected magic {magic!r}, found {raw[:4]!r}")
    if len(raw) < 12:
        raise TruncatedError("file too short for a header")
    version, n_conv = struct.unpack_from("<II", raw, 4)
    if version != FORMAT_VERSION:
        raise BadVersionError(f"unsupported version {version}")
    end = _header_length(n_conv)
    if len(raw) < end:
        raise TruncatedError("file too short for its config block")
    values = struct.unpack_from(f"<{3 * n_conv + len(HEADER_FIELDS)}I", raw, 12)
    conv = tuple(values[i : i + 3] for i in range(0, 3 * n_conv, 3))
    try:
        config = ModelConfig(conv_layers=conv, **dict(zip(HEADER_FIELDS, values[3 * n_conv :])))
    except ConfigError as exc:
        raise CheckpointError(f"config block invalid: {exc}") from exc
    return config, end


#: weight-matrix fields of an encoder layer's linears
LINEAR_FIELDS = ("wq", "wk", "wv", "wo", "wf1", "wf2")


def linear_weight_names(config: ModelConfig) -> list:
    """Names of the linear weight matrices, in canonical order, head.w last."""
    layers = range(config.n_transformer_layers)
    return [f"layer{i}.{f}" for i in layers for f in LINEAR_FIELDS] + ["head.w"]


def _param_shapes(config: ModelConfig) -> list:
    shapes = []
    c_in = 1
    for i, (c_out, width, _) in enumerate(config.conv_layers):
        shapes.append((f"conv{i}.w", (c_out, c_in, width)))
        shapes.append((f"conv{i}.b", (c_out, 1)))
        c_in = c_out
    d, f = config.d_model, config.ffn_dim
    shapes.append(("pos", (config.max_frames, d)))
    for i in range(config.n_transformer_layers):
        for name, shape in (
            ("wq", (d, d)), ("bq", (d,)), ("wk", (d, d)), ("bk", (d,)),
            ("wv", (d, d)), ("bv", (d,)), ("wo", (d, d)), ("bo", (d,)),
            ("ln1_g", (d,)), ("ln1_b", (d,)),
            ("wf1", (d, f)), ("bf1", (f,)), ("wf2", (f, d)), ("bf2", (d,)),
            ("ln2_g", (d,)), ("ln2_b", (d,)),
        ):
            shapes.append((f"layer{i}.{name}", shape))
    shapes.append(("head.w", (d, config.n_tokens)))
    shapes.append(("head.b", (config.n_tokens,)))
    return shapes
