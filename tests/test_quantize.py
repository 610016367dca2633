"""Quantization: affine mappings, the int8 linear kernel, model round trips.

The float64 product x @ w + b is the oracle for every kernel error
bound, a float32 reference written out step by step for every bit-exact
kernel check, and file sizes are checked against actual bytes on disk
rather than the accounting function alone.
"""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallwav.data import SynthSpec, generate_dataset
from smallwav.model import (
    AcousticModel,
    BadMagicError,
    BadVersionError,
    CheckpointError,
    ModelConfig,
    TruncatedError,
    checkpoint_bytes,
    count_params,
    header_bytes,
    linear_weight_names,
    load_model,
    save_model,
)
from smallwav.quantize import (
    FLOAT32_CARRY_MAX_K,
    QUANT_PARAMS_BYTES,
    QuantizedLinear,
    QuantParams,
    _qlinear,
    carry_dtype,
    dynamic_activation_params,
    load_quantized_model,
    model_size_bytes,
    prepack,
    qlinear_forward,
    quantize_model,
    quantize_weights,
    quantized_checkpoint_bytes,
    save_quantized_model,
)
from smallwav.tensor import NumericError, ShapeError, Tensor, attention_core

SMALL_CFG = ModelConfig(
    conv_layers=((8, 6, 2), (16, 4, 2)),
    d_model=16,
    n_transformer_layers=2,
    n_heads=2,
    ffn_dim=32,
    n_tokens=12,
    max_frames=96,
)


# ---------------------------------------------------------------------------
# weight quantization


def test_zero_weights_use_unit_scale():
    q, params = quantize_weights(np.zeros((3, 4), dtype=np.float32))
    assert params.scale == 1.0
    assert params.zero_point == 0
    assert np.array_equal(q, np.zeros((3, 4), dtype=np.int8))


def test_weight_codes_hit_the_symmetric_extremes():
    q, params = quantize_weights(np.array([-1.27, 0.5, 1.27]))
    assert params.scale == pytest.approx(0.01, rel=1e-6)
    assert q.tolist() == [-127, 50, 127]


def test_weights_never_use_minus_128():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w = rng.normal(size=(5, 5)) * 10.0 ** rng.uniform(-3, 3)
        q, _ = quantize_weights(w)
        assert q.min() >= -127


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=40)
)
def test_weight_round_trip_within_half_step(values):
    w = np.array(values)
    q, params = quantize_weights(w)
    err = np.abs(params.dequantize(q) - w)
    assert np.all(err <= params.scale / 2 + 1e-9)


def test_weight_quantization_rejects_nan():
    with pytest.raises(NumericError):
        quantize_weights(np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# activation quantization


def test_constant_integer_activation_round_trips_exactly():
    for c in (0.0, 3.0, -3.0):
        params = dynamic_activation_params(np.full((2, 3), c))
        assert params.scale == 1.0
        back = params.dequantize(params.quantize(np.full((2, 3), c)))
        assert np.array_equal(back, np.full((2, 3), float(c)))


def test_min_maps_to_lowest_code():
    params = dynamic_activation_params(np.array([0.0, 1.0, 2.55]))
    assert params.scale == pytest.approx(0.01, rel=1e-6)
    assert params.zero_point == -128
    assert params.quantize(np.array([0.0]))[0] == -128


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=40)
)
def test_activation_round_trip_for_zero_straddling_data(values):
    x = np.array(values)
    x = x - x.mean()  # guarantees min <= 0 <= max, the regime the model lives in
    params = dynamic_activation_params(x)
    assert -128 <= params.zero_point <= 127
    err = np.abs(params.dequantize(params.quantize(x)) - x)
    assert np.all(err <= params.scale / 2 + 1e-9)


def test_activation_range_away_from_zero_saturates():
    # The zero point clamps at -128, so the representable window starts
    # at 0 and everything above it pins to the top code.
    x = np.array([10.0, 11.0, 12.0])
    params = dynamic_activation_params(x)
    assert params.zero_point == -128
    back = params.dequantize(params.quantize(x))
    top = (127 - params.zero_point) * params.scale
    assert np.allclose(back, top)


def test_a_range_too_narrow_for_a_float32_reciprocal_gets_unit_scale():
    # 1e-38 / 255 is a scale whose reciprocal overflows float32, so the
    # kernel would multiply by inf; unit scale codes it all as zero.
    x = np.array([[0.0, 1e-38]], dtype=np.float32)
    assert dynamic_activation_params(x) == QuantParams(scale=1.0, zero_point=-128)
    b = np.array([0.5, -0.25], dtype=np.float32)
    (out,) = qlinear_forward(x, (QuantizedLinear.from_float(np.ones((2, 2))), b))
    assert np.array_equal(out, b[None, :])
    wide = np.array([[0.0, 1e-36]], dtype=np.float32)
    assert dynamic_activation_params(wide).scale == float(wide.max()) / 255.0


def test_activation_params_reject_inf_and_empty():
    with pytest.raises(NumericError):
        dynamic_activation_params(np.array([np.inf, 0.0]))
    with pytest.raises(ShapeError):
        dynamic_activation_params(np.zeros((0, 4)))


@pytest.mark.parametrize(
    "codes",
    [np.zeros(4, dtype=np.int8), np.zeros((2, 2, 2), dtype=np.int8)],
    ids=["1-D", "3-D"],
)
def test_a_quantized_linear_takes_2d_codes_only(codes):
    with pytest.raises(ShapeError, match="QuantizedLinear: weights must be 2-D"):
        QuantizedLinear(codes, QuantParams(scale=1.0, zero_point=0))


# ---------------------------------------------------------------------------
# the int8 linear kernel


def _qlin(w, b=None):
    """A (QuantizedLinear, float32 bias) pair; the bias defaults to zeros."""
    w = np.asarray(w, dtype=np.float32)
    if b is None:
        b = np.zeros(w.shape[1], dtype=np.float32)
    return QuantizedLinear.from_float(w), np.asarray(b, dtype=np.float32)


def test_zero_weight_layer_returns_bias():
    pair = _qlin(np.zeros((3, 2)), b=np.array([1.5, -2.0], dtype=np.float32))
    (out,) = qlinear_forward(np.array([[0.3, -4.0, 2.2]], dtype=np.float32), pair)
    assert np.array_equal(out, np.array([[1.5, -2.0]], dtype=np.float32))


def test_one_by_one_product_lands_near_the_float_answer():
    lin, b = _qlin(np.array([[0.5]]))
    (out,) = qlinear_forward(np.array([[2.0]], dtype=np.float32), (lin, b))
    s_w = lin.w_params.scale
    bound = 0.75 * (s_w * 2.0 + 1.0 * 0.5)
    assert abs(float(out[0, 0]) - 1.0) <= bound
    assert abs(float(out[0, 0]) - 1.0) <= 1e-6


def test_kernel_shape_mismatch_raises():
    pair = _qlin(np.eye(3))
    with pytest.raises(ShapeError):
        qlinear_forward(np.zeros((2, 4), dtype=np.float32), pair)
    with pytest.raises(ShapeError):
        qlinear_forward(np.zeros(3, dtype=np.float32), pair)


def test_kernel_error_stays_inside_documented_bound():
    # err <= 0.75 * (s_w ||x||_1 + s_x ||w||_1) with full-tensor 1-norms,
    # checked against the exact float64 product over random layers.
    rng = np.random.default_rng(99)
    for trial in range(300):
        n = int(rng.integers(1, 5))
        d_in = int(rng.integers(1, 17))
        d_out = int(rng.integers(1, 17))
        mag_x = 10.0 ** rng.uniform(-2, 2)
        mag_w = 10.0 ** rng.uniform(-2, 2)
        x = (rng.normal(size=(n, d_in)) * mag_x).astype(np.float32)
        x -= x.mean()
        w = (rng.normal(size=(d_in, d_out)) * mag_w).astype(np.float32)
        if trial % 50 == 0:
            w[:] = 0.0
        b = rng.normal(size=d_out).astype(np.float32)
        lin = QuantizedLinear.from_float(w)
        (got,) = qlinear_forward(x, (lin, b))
        got = got.astype(np.float64)
        oracle = x.astype(np.float64) @ w.astype(np.float64) + b.astype(np.float64)
        s_x = dynamic_activation_params(x).scale
        s_w = lin.w_params.scale
        bound = 0.75 * (s_w * np.abs(x).sum() + s_x * np.abs(w).sum())
        slack = 6e-8 * (1.0 + np.abs(oracle)) + 1e-9
        assert np.all(np.abs(got - oracle) <= bound + slack), f"trial {trial}"


def test_one_call_serves_several_layers_and_unpacks_each_once():
    rng = np.random.default_rng(4)
    pairs = [_qlin(rng.normal(size=(5, 3)), rng.normal(size=3)) for _ in range(3)]
    layers = [lin for lin, _ in pairs]
    x = rng.normal(size=(4, 5)).astype(np.float32)
    together = qlinear_forward(x, *pairs)
    assert [lin.unpack_count for lin in layers] == [1, 1, 1]
    for pair, y in zip(pairs, together):
        (alone,) = qlinear_forward(x, pair)
        assert np.array_equal(y, alone)
    assert [lin.unpack_count for lin in layers] == [2, 2, 2]
    for lin in layers:
        lin.prepack()
    qlinear_forward(x, *pairs)
    assert [lin.unpack_count for lin in layers] == [2, 2, 2]
    with pytest.raises(ShapeError):
        qlinear_forward(x, pairs[0], _qlin(np.eye(4)))


@pytest.mark.parametrize("width", [2, 4])
def test_kernel_rejects_a_bias_of_the_wrong_width(width):
    lin, _ = _qlin(np.eye(3))
    with pytest.raises(ShapeError):
        qlinear_forward(np.zeros((2, 3), dtype=np.float32), (lin, np.zeros(width, dtype=np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_and_inf_inputs_raise_numeric_error(dtype, bad):
    x = np.zeros((3, 4), dtype=dtype)
    x[1, 2] = bad
    with pytest.raises(NumericError):
        dynamic_activation_params(x)
    with pytest.raises(NumericError):
        qlinear_forward(x, _qlin(np.eye(4)))


# ---------------------------------------------------------------------------
# bit-exact against a reference written out step by step
#
# The kernel quantizes once per input, carries the integer product in
# float32 where that is exact, and takes the codes and the rescale in
# float32.  The reference quantizes per layer, takes the integer
# product in int64, and spells out each float32 step; no output may
# differ by a bit.  The float64 reference (QuantParams.quantize's codes,
# rescaled in float64) bounds how far those float32 steps move a code
# and an output.


def reference_activation_params(x) -> QuantParams:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("input contains nan or inf")
    mn = float(x.min())
    mx = float(x.max())
    scale = (mx - mn) / 255.0
    # Unit scale for a constant input, or for a range so narrow that
    # 1 / scale overflows float32.
    if scale == 0.0 or 1.0 / scale > float(np.finfo(np.float32).max):
        scale = 1.0
    zp = int(np.clip(-128 - np.rint(mn / scale), -128, 127))
    return QuantParams(scale=scale, zero_point=zp)


def reference_codes(x, aparams: QuantParams) -> np.ndarray:
    """Activation codes minus the zero point, as float32 integers."""
    inv_scale = np.float32(1.0 / aparams.scale)
    codes = np.rint(np.asarray(x, dtype=np.float32) * inv_scale)
    return np.clip(codes, -128 - aparams.zero_point, 127 - aparams.zero_point)


def reference_qlinear(x, layer: QuantizedLinear, bias) -> np.ndarray:
    aparams = reference_activation_params(x)
    codes = reference_codes(x, aparams).astype(np.int64)
    acc = (codes @ layer.w_q.astype(np.int64)).astype(np.float32)
    combined = np.float32(aparams.scale * layer.w_params.scale)
    return acc * combined + np.asarray(bias, dtype=np.float32)


def float64_reference_qlinear(x, layer: QuantizedLinear, bias) -> np.ndarray:
    """The mapping's float64 statement: quantize's codes, rescaled in float64."""
    aparams = reference_activation_params(x)
    x_q = aparams.quantize(x).astype(np.float64)
    acc = (x_q - aparams.zero_point) @ layer.w_q.astype(np.float64)
    combined = aparams.scale * layer.w_params.scale
    return (acc * combined + bias.astype(np.float64)).astype(np.float32)


def test_int8_model_is_bit_exact_against_the_reference_kernel():
    # The default config, over the 23-93 frame utterances of the lab's
    # traffic: d_model 64 and ffn_dim 256 take the float32 carry.
    cfg = ModelConfig()
    model = AcousticModel.init(cfg, seed=0)
    fresh, packed = quantize_model(model), prepack(quantize_model(model))
    rng = np.random.default_rng(23)
    qkv = []

    def reference_kernel(x, *pairs):
        return [Tensor(reference_qlinear(x.data, w, b.data)) for w, b in pairs]

    def recording_kernel(x, *pairs):
        out = _qlinear(x, *pairs)
        if len(pairs) == 3:
            qkv.extend(out)
        return out

    for n in range(23, 94):
        length = cfg.receptive_field() + cfg.total_stride() * (n - 1)
        assert cfg.n_frames(length) == n
        wave = rng.normal(size=length).astype(np.float32)
        ref, _ = fresh._forward(wave, reference_kernel)
        assert np.array_equal(fresh.infer(wave), ref.data), f"unprepacked, {n} frames"
        assert np.array_equal(packed.infer(wave), ref.data), f"prepacked, {n} frames"
        logits, _ = packed._forward(wave, recording_kernel)
        assert np.array_equal(logits.data, ref.data)
    assert len(qkv) == 3 * cfg.n_transformer_layers * 71
    assert all(t.data.flags.c_contiguous for t in qkv)


def _extreme_codes(k, rng):
    """Activation codes at +-255 and weight codes at +-127, K deep.

    The first row and column are all at the top code, so one output is
    K * 255 * 127, the largest sum a K-deep product can reach.
    """
    x = np.vstack([np.full((1, k), 255), rng.choice([-255, 255], size=(5, k))])
    w = np.hstack([np.full((k, 1), 127), rng.choice([-127, 127], size=(k, 4))])
    return x, w


def test_float32_carry_is_exact_up_to_k_518():
    rng = np.random.default_rng(518)
    assert FLOAT32_CARRY_MAX_K == 518
    assert carry_dtype(518) is np.float32
    assert carry_dtype(519) is np.float64
    for k in (1, 64, 256, 518, 519, 1024):
        x, w = _extreme_codes(k, rng)
        exact = x.astype(np.int64) @ w.astype(np.int64)
        carry = carry_dtype(k)
        assert np.array_equal(x.astype(carry) @ w.astype(carry), exact), f"K = {k}"
    # One step past the rule float32 is not enough: 519 * 255 * 127 is odd
    # and above 2**24.
    x, w = _extreme_codes(519, rng)
    exact = x.astype(np.int64) @ w.astype(np.int64)
    assert not np.array_equal(x.astype(np.float32) @ w.astype(np.float32), exact)


@pytest.mark.parametrize("k", [518, 519, 1024, 1037])
def test_kernel_matches_the_reference_at_the_carry_boundary(k):
    rng = np.random.default_rng(k)
    # Weights of +-1 quantize to codes +-127.  An input in {0, 1} puts its
    # ones at code 255 above the zero point, one in {-1, 0} its minus ones
    # at -255.
    lin, b = _qlin(rng.choice([-1.0, 1.0], size=(k, 5)), rng.normal(size=5))
    assert lin._kernel_weights().dtype == carry_dtype(k)
    lin.prepack()
    assert lin._w_op.dtype == carry_dtype(k)
    assert lin._w_op.nbytes == lin.w_q.size * np.dtype(carry_dtype(k)).itemsize
    for sign in (1.0, -1.0):
        x = sign * (rng.random((4, k)) < 0.9).astype(np.float32)
        (got,) = qlinear_forward(x, (lin, b))
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert np.array_equal(got, reference_qlinear(x, lin, b))


@pytest.mark.parametrize("offset", [10.0, -12.0])
def test_kernel_matches_the_reference_when_the_zero_point_clamps(offset):
    # A range that does not straddle zero clamps the zero point, and the
    # clip pins everything past the window to the end code.
    rng = np.random.default_rng(12)
    lin, b = _qlin(rng.normal(size=(8, 3)), rng.normal(size=3))
    x = (offset + 2.0 * rng.random((4, 8))).astype(np.float32)
    (got,) = qlinear_forward(x, (lin, b))
    assert np.array_equal(got, reference_qlinear(x, lin, b))


def test_float32_codes_stay_within_one_step_of_the_float64_kernel():
    # Taking the codes in float32 moves one by at most a step, at a
    # near-tie; the rescale adds float32 rounding of the output.
    rng = np.random.default_rng(64)
    moved = 0
    for _ in range(200):
        x = (rng.normal(size=(8, 64)) * 10.0 ** rng.uniform(-2, 2)).astype(np.float32)
        lin, b = _qlin(rng.normal(size=(64, 16)), rng.normal(size=16))
        aparams = reference_activation_params(x)
        # Every input but the extremes to the float32 value nearest a tie,
        # so the scale and zero point stay as they are.
        ties = (np.floor(x / aparams.scale) + 0.5) * aparams.scale
        ties = np.clip(ties, x.min(), x.max()).astype(np.float32)
        x = np.where((x == x.min()) | (x == x.max()), x, ties)
        assert reference_activation_params(x) == aparams
        float64_codes = aparams.quantize(x).astype(np.float64) - aparams.zero_point
        steps = np.abs(reference_codes(x, aparams) - float64_codes)
        assert steps.max() <= 1
        moved += int(steps.sum())
        (got,) = qlinear_forward(x, (lin, b))
        old = float64_reference_qlinear(x, lin, b).astype(np.float64)
        one_step = aparams.scale * lin.w_params.scale * np.abs(lin.w_q.astype(np.float64)).max(axis=0)
        bound = steps.sum(axis=1, keepdims=True) * one_step + 1e-6 * (1.0 + np.abs(old))
        assert np.all(np.abs(got - old) <= bound)
    assert moved > 0


def _code_reader(k):
    """A layer whose outputs are the activation codes times float32(scale_x)."""
    return QuantizedLinear(np.eye(k, dtype=np.int8), QuantParams(scale=1.0, zero_point=0))


def _tie_inputs(draw, straddle):
    """Inputs on rounding ties of x / scale, extremes included.

    scale is a power of two, so x * float32(1 / scale) is exact and every
    element lands on j + 1/2.  Rounding half to even can then carry the
    top element one code past 127 - zero_point, which the clamp catches.
    """
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 16))
    step = 2.0 ** draw(st.integers(-12, 6))
    low = draw(st.integers(-255, -1) if straddle else st.integers(1, 600))
    ties = draw(st.lists(st.integers(0, 255), min_size=n * k, max_size=n * k))
    ties[0], ties[-1] = 0, 255
    x = (np.array(ties, dtype=np.float64).reshape(n, k) + low + 0.5) * step
    return x.astype(np.float32) * draw(st.sampled_from([1.0, -1.0]))


@st.composite
def _kernel_inputs(draw):
    straddle = draw(st.booleans())
    if draw(st.booleans()):
        x = _tie_inputs(draw, straddle)
    else:
        n, k = draw(st.integers(1, 4)), draw(st.integers(1, 16))
        values = st.floats(-1e6, 1e6, allow_nan=False, width=32)
        x = np.array(draw(st.lists(values, min_size=n * k, max_size=n * k)), dtype=np.float32)
        x = x.reshape(n, k)
        if straddle:
            x -= x.mean(dtype=np.float32)
    return x, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
def test_codes_stay_in_the_window_and_the_error_inside_the_bound(case):
    x, seed = case
    aparams = dynamic_activation_params(x)
    zp = aparams.zero_point
    (scaled,) = qlinear_forward(x, (_code_reader(x.shape[1]), np.zeros(x.shape[1], np.float32)))
    codes = np.rint(scaled.astype(np.float64) / np.float32(aparams.scale))
    assert np.all((-128 - zp <= codes) & (codes <= 127 - zp))
    assert np.array_equal(codes, reference_codes(x, aparams))
    if not (x.min() <= 0.0 <= x.max()):
        return
    # Criterion 08's bound and slack, for a zero-straddling input.
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((x.shape[1], 5)) * 10.0 ** rng.uniform(-2, 1)).astype(np.float32)
    lin = QuantizedLinear.from_float(w)
    (got,) = qlinear_forward(x, (lin, np.zeros(5, dtype=np.float32)))
    oracle = x.astype(np.float64) @ w.astype(np.float64)
    bound = 0.75 * (lin.w_params.scale * np.abs(x).sum() + aparams.scale * np.abs(w).sum())
    slack = 6e-8 * (1.0 + np.abs(oracle)) + 1e-9
    assert np.all(np.abs(got.astype(np.float64) - oracle) <= bound + slack)


# ---------------------------------------------------------------------------
# whole-model quantization


def _tiny_quantized():
    model = AcousticModel.init(SMALL_CFG, seed=5)
    return model, quantize_model(model)


def _bias_names(qm):
    """Each linear's bias part: layer0.wq -> layer0.bq, head.w -> head.b."""
    return [name.replace(".w", ".b", 1) for name, _ in qm.named_linears()]


def test_quantizing_twice_is_rejected():
    _, qm = _tiny_quantized()
    with pytest.raises(TypeError):
        quantize_model(qm)
    with pytest.raises(TypeError):
        quantize_model("not a model")


def test_editing_the_float_model_leaves_the_int8_copy_alone():
    model, qm = _tiny_quantized()
    head_bias = qm.parts["head.b"].data.copy()
    biases = [qm.parts[name].data.copy() for name in _bias_names(qm)]
    model.parts["head.b"].data += 1
    assert np.array_equal(qm.parts["head.b"].data, head_bias)
    for p in model.params():
        p.data += 1
    for name, before in zip(_bias_names(qm), biases):
        assert np.array_equal(qm.parts[name].data, before), name


def test_every_part_of_a_quantized_model_is_a_weight_or_a_tensor(tmp_path):
    _, qm = _tiny_quantized()
    save_quantized_model(qm, tmp_path / "m.swq8")
    linears = set(linear_weight_names(SMALL_CFG))
    for m in (qm, load_quantized_model(tmp_path / "m.swq8")):
        for name, part in m.named_params():
            assert isinstance(part, QuantizedLinear if name in linears else Tensor), name


def test_all_zero_model_stays_zero_through_both_paths():
    model = AcousticModel.init(SMALL_CFG, seed=5)
    for t in model.params():
        t.data[:] = 0.0
    qm = quantize_model(model)
    wave = np.zeros(128, dtype=np.float32)
    float_logits = model.infer(wave)
    quant_logits = qm.infer(wave)
    assert np.array_equal(float_logits, np.zeros_like(float_logits))
    assert np.array_equal(quant_logits, np.zeros_like(quant_logits))


def test_quantized_logits_track_the_float_model():
    model, qm = _tiny_quantized()
    wave = np.random.default_rng(0).normal(size=160).astype(np.float32)
    diff = np.abs(qm.infer(wave) - model.infer(wave))
    assert diff.max() < 0.15


def test_quantized_model_rejects_bad_waveforms():
    _, qm = _tiny_quantized()
    with pytest.raises(ShapeError):
        qm.infer(np.zeros((2, 50)))
    with pytest.raises(ShapeError):
        qm.infer(np.zeros(4))


def test_prepack_is_bit_exact_and_stops_unpacking():
    _, qm = _tiny_quantized()
    rng = np.random.default_rng(1)
    waves = [rng.normal(size=140).astype(np.float32) for _ in range(3)]
    before = [qm.infer(w) for w in waves]
    n_linears = len(qm.named_linears())
    assert qm.unpack_count() == 3 * n_linears

    prepack(qm)
    qm.reset_unpack_count()
    after = [qm.infer(w) for w in waves]
    assert qm.unpack_count() == 0
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_int8_tensors_cannot_reach_attention_scores():
    # A raw int8 buffer smuggled around the constructor (the way a buggy
    # quantized path would leak codes) is refused at the score gate.
    q = Tensor(np.zeros((4, 16)))
    q.data = np.zeros((4, 16), dtype=np.int8)
    f = Tensor(np.zeros((4, 16), dtype=np.float32))
    with pytest.raises(TypeError):
        attention_core(q, f, f, 2)


# ---------------------------------------------------------------------------
# size accounting and the SWQ8 format


def test_quantized_file_length_matches_accounting(tmp_path):
    _, qm = _tiny_quantized()
    path = tmp_path / "m.swq8"
    save_quantized_model(qm, path)
    expected = quantized_checkpoint_bytes(SMALL_CFG)
    assert path.stat().st_size == expected
    assert model_size_bytes(qm) == expected

    tally = 12 + 12 * len(SMALL_CFG.conv_layers) + 24
    n_linear_elems = 0
    for _, lin in qm.named_linears():
        tally += QUANT_PARAMS_BYTES + lin.w_q.size
        n_linear_elems += lin.w_q.size
    tally += 4 * (count_params(SMALL_CFG) - n_linear_elems)
    assert expected == tally


def test_swq8_round_trip_is_bit_exact(tmp_path):
    _, qm = _tiny_quantized()
    path = tmp_path / "m.swq8"
    save_quantized_model(qm, path)
    back = load_quantized_model(path)
    assert back.config == qm.config
    for (name, a), (_, b) in zip(qm.named_linears(), back.named_linears()):
        assert np.array_equal(a.w_q, b.w_q), name
        assert a.w_params == b.w_params, name
    for name in _bias_names(qm):
        assert np.array_equal(qm.parts[name].data, back.parts[name].data), name
    wave = np.random.default_rng(3).normal(size=150).astype(np.float32)
    assert np.array_equal(qm.infer(wave), back.infer(wave))


def test_swq8_float_section_is_the_swav_payload_without_linear_matrices(tmp_path):
    model, qm = _tiny_quantized()
    save_model(model, tmp_path / "m.swav")
    save_quantized_model(qm, tmp_path / "m.swq8")
    swav = (tmp_path / "m.swav").read_bytes()
    swq8 = (tmp_path / "m.swq8").read_bytes()
    header = header_bytes(SMALL_CFG)
    assert swq8[4:header] == swav[4:header]
    linears = set(linear_weight_names(SMALL_CFG))
    kept, offset = [], header
    for name, t in model.named_params():
        end = offset + 4 * t.data.size
        if name not in linears:
            kept.append(swav[offset:end])
        offset = end
    assert offset == len(swav)
    float_section = b"".join(kept)
    assert swq8[header : header + len(float_section)] == float_section


def test_swq8_rejects_foreign_and_damaged_files(tmp_path):
    model, qm = _tiny_quantized()
    fpath = tmp_path / "m.swav"
    save_model(model, fpath)
    with pytest.raises(BadMagicError):
        load_quantized_model(fpath)

    qpath = tmp_path / "m.swq8"
    save_quantized_model(qm, qpath)
    raw = qpath.read_bytes()

    (tmp_path / "v.swq8").write_bytes(raw[:4] + b"\x09\x00\x00\x00" + raw[8:])
    with pytest.raises(BadVersionError):
        load_quantized_model(tmp_path / "v.swq8")

    (tmp_path / "short.swq8").write_bytes(raw[:-5])
    with pytest.raises(TruncatedError):
        load_quantized_model(tmp_path / "short.swq8")

    (tmp_path / "long.swq8").write_bytes(raw + b"\x00\x00")
    with pytest.raises(TruncatedError):
        load_quantized_model(tmp_path / "long.swq8")


# Every header value distinct, but for the last conv width that d_model must equal.
HEADER_CFG = ModelConfig(
    conv_layers=((10, 9, 3), (24, 7, 5)),
    d_model=24,
    n_transformer_layers=4,
    n_heads=6,
    ffn_dim=48,
    n_tokens=13,
    max_frames=77,
)


def _save_swq8(model, path):
    save_quantized_model(quantize_model(model), path)


CONTAINERS = pytest.mark.parametrize(
    "magic, save, load",
    [(b"SWAV", save_model, load_model), (b"SWQ8", _save_swq8, load_quantized_model)],
    ids=["swav", "swq8"],
)


def _saved_header_cfg(tmp_path, save) -> bytes:
    path = tmp_path / "m.ckpt"
    save(AcousticModel.init(HEADER_CFG, seed=0), path)
    return path.read_bytes()


@CONTAINERS
def test_header_values_sit_at_the_documented_offsets(tmp_path, magic, save, load):
    # docs/formats.md's SWAV table, for n = 2 conv layers.
    raw = _saved_header_cfg(tmp_path, save)
    assert raw[:4] == magic
    expected = {
        4: 1,  # format version
        8: 2,  # conv layers
        12: 10, 16: 9, 20: 3,  # conv0 out_channels, kernel_width, stride
        24: 24, 28: 7, 32: 5,  # conv1
        36: 24, 40: 4, 44: 6, 48: 48, 52: 13, 56: 77,  # d_model .. max_frames
    }
    for offset, value in expected.items():
        assert struct.unpack_from("<I", raw, offset) == (value,), offset
    assert header_bytes(HEADER_CFG) == 60
    first = AcousticModel.init(HEADER_CFG, seed=0).parts["conv0.w"].data.flat[0]
    assert struct.unpack_from("<f", raw, 60) == (first,)


def _patched(tmp_path, raw: bytes, offset: int, value: int):
    path = tmp_path / "patched.ckpt"
    data = bytearray(raw)
    struct.pack_into("<I", data, offset, value)
    path.write_bytes(bytes(data))
    return path


@CONTAINERS
def test_a_file_of_magic_and_version_alone_is_too_short_for_a_header(
    tmp_path, magic, save, load
):
    path = tmp_path / "short.ckpt"
    path.write_bytes(_saved_header_cfg(tmp_path, save)[:8])
    with pytest.raises(TruncatedError, match="file too short for a header"):
        load(path)


@CONTAINERS
def test_more_conv_layers_than_the_file_holds_is_too_short_for_the_config_block(
    tmp_path, magic, save, load
):
    raw = _saved_header_cfg(tmp_path, save)
    path = _patched(tmp_path, raw, 8, len(raw))
    with pytest.raises(TruncatedError, match="file too short for its config block"):
        load(path)


@CONTAINERS
@pytest.mark.parametrize(
    "offset, value, cause",
    [
        (8, 0, "conv_layers must not be empty"),
        (44, 5, "d_model 24 not divisible by n_heads 5"),
        (44, 0, "n_heads must be >= 1"),
    ],
    ids=["no conv layers", "heads not dividing d_model", "no heads"],
)
def test_an_invalid_config_block_is_a_checkpoint_error(
    tmp_path, magic, save, load, offset, value, cause
):
    path = _patched(tmp_path, _saved_header_cfg(tmp_path, save), offset, value)
    with pytest.raises(CheckpointError, match=f"config block invalid: {cause}") as info:
        load(path)
    assert info.type is CheckpointError


@pytest.mark.parametrize(
    "patch", [{"zero_point": 5}, {"scale": -1.0}, {"scale": float("nan")}], ids=str
)
def test_swq8_rejects_a_weight_record_that_is_not_symmetric_int8(tmp_path, patch):
    _, qm = _tiny_quantized()
    path = tmp_path / "m.swq8"
    save_quantized_model(qm, path)
    raw = bytearray(path.read_bytes())
    name, first = qm.named_linears()[0]
    at = len(raw) - sum(QUANT_PARAMS_BYTES + lin.w_q.size for _, lin in qm.named_linears())
    record = {"scale": first.w_params.scale, "zero_point": 0}
    assert struct.unpack_from("<fi", raw, at) == tuple(record.values())
    record.update(patch)
    struct.pack_into("<fi", raw, at, *record.values())
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match=re.escape(name)):
        load_quantized_model(path)


def test_swq8_rejects_a_float_part_that_is_not_finite(tmp_path):
    _, qm = _tiny_quantized()
    qm.parts["layer1.bq"].data[0] = np.nan
    path = tmp_path / "m.swq8"
    save_quantized_model(qm, path)
    with pytest.raises(CheckpointError, match=r"layer1\.bq: holds nan or inf"):
        load_quantized_model(path)


def test_swq8_rejects_weight_code_minus_128(tmp_path):
    # Codes of -128 break the float32 carry bound: at K = 518, a column of
    # 517 codes of -128 and one of -127 against activation codes of 255
    # sums to -16,907,265, which float32 cannot hold.
    assert 517 * -128 * 255 + -127 * 255 == -16_907_265
    assert int(np.float32(-16_907_265)) != -16_907_265
    _, qm = _tiny_quantized()
    name, lin = qm.named_linears()[-1]
    lin.w_q[0, 0] = -128
    path = tmp_path / "m.swq8"
    save_quantized_model(qm, path)
    with pytest.raises(CheckpointError, match=re.escape(f"{name}: weight code -128")):
        load_quantized_model(path)


def test_size_ratio_for_a_linear_dominated_config():
    cfg = ModelConfig(
        conv_layers=((64, 3, 2),),
        d_model=64,
        n_transformer_layers=4,
        n_heads=4,
        ffn_dim=256,
        n_tokens=12,
        max_frames=16,
    )
    d, f = cfg.d_model, cfg.ffn_dim
    linear_elems = cfg.n_transformer_layers * (4 * d * d + 2 * d * f) + d * cfg.n_tokens
    assert linear_elems / count_params(cfg) >= 0.95

    ratio = checkpoint_bytes(cfg) / quantized_checkpoint_bytes(cfg)
    assert 3.3 <= ratio <= 3.95


def test_model_size_bytes_dispatch():
    model, qm = _tiny_quantized()
    assert model_size_bytes(model) == checkpoint_bytes(SMALL_CFG)
    assert model_size_bytes(qm) < model_size_bytes(model)
    with pytest.raises(TypeError):
        model_size_bytes(SMALL_CFG)


def test_quantized_argmaxes_track_the_float_model_on_speech():
    # Smoke-level accuracy check: an untrained model is garbage either
    # way, so compare frame argmaxes instead of WER here.  The trained
    # WER comparison lives in the acceptance suite.
    model, qm = _tiny_quantized()
    ds = generate_dataset(SynthSpec(seed=9, n_utterances=2, tokens_per_utterance=(1, 2)))
    for wave, _ in ds:
        a = model.infer(wave).argmax(axis=1)
        b = qm.infer(wave).argmax(axis=1)
        assert (a == b).mean() > 0.9
