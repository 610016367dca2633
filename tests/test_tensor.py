import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from smallwav.ctc import ctc_loss
from smallwav.tensor import (
    NumericError,
    Rng,
    ShapeError,
    Tensor,
    _accumulate,
    _erf,
    add,
    attention_core,
    clamp_min,
    conv1d,
    gelu,
    layer_norm,
    matmul,
    mul,
    neg,
    no_grad,
    softmax,
    square,
    sub,
    tlog,
    tmean,
    transpose,
    tsum,
)

from helpers import close, fd_check


# ---------------------------------------------------------------------------
# worked examples with independently derived expectations


def test_matmul_small_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    out = matmul(a, b)
    assert out.data.tolist() == [[17.0], [39.0]]


def test_softmax_two_logits():
    # exp(0) = 1 and exp(ln 2) = 2, so the masses are 1/3 and 2/3.
    out = softmax(Tensor([0.0, np.log(2.0)]))
    assert close(out.data, [1.0 / 3.0, 2.0 / 3.0])


def test_gelu_at_one_matches_quadrature():
    # Independent oracle: integrate the standard normal pdf up to 1.
    pdf = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    phi1, _ = quad(pdf, -np.inf, 1.0)
    out = gelu(Tensor([1.0]))
    assert close(out.data, [1.0 * phi1])
    assert abs(float(out.data[0]) - 0.841344746) < 1e-6


def test_erf_and_gelu_match_float64_erf_on_a_dense_float32_grid():
    x = np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32)
    wide = x.astype(np.float64)
    e = _erf(x)
    assert e.dtype == np.float32
    assert np.max(np.abs(e - erf(wide))) < 5e-7
    out = gelu(Tensor(x)).data
    assert out.dtype == np.float32
    exact = wide * 0.5 * (1.0 + erf(wide / np.sqrt(2.0)))
    assert np.max(np.abs(out - exact)) < 2e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erf_and_gelu_keep_the_special_values(dtype):
    x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=dtype)
    with np.errstate(invalid="ignore"):
        expect_gelu = x * (0.5 * (1.0 + erf(x * dtype(1.0 / np.sqrt(2.0)))))
        out = gelu(Tensor(x)).data
        e = _erf(x)
    assert np.array_equal(e, erf(x), equal_nan=True)
    assert np.array_equal(np.signbit(e), np.signbit(erf(x)))
    assert np.array_equal(out, expect_gelu, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(expect_gelu))
    assert out.dtype == e.dtype == dtype


def test_layer_norm_two_values():
    x = Tensor([[1.0, 3.0]])
    out = layer_norm(x, Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    assert close(out.data, [[-1.0, 1.0]], rtol=1e-4)


def test_conv1d_stride_two():
    x = Tensor([[1.0, 2.0, 3.0, 4.0]])
    k = Tensor([[[1.0, 1.0]]])
    out = conv1d(x, k, stride=2)
    assert out.data.tolist() == [[3.0, 7.0]]


def test_conv1d_output_length_formula():
    rng = np.random.default_rng(0)
    for length, width, stride in [(10, 3, 1), (10, 3, 2), (17, 5, 3), (8, 8, 2)]:
        x = Tensor(rng.standard_normal((2, length)))
        k = Tensor(rng.standard_normal((3, 2, width)))
        out = conv1d(x, k, stride=stride)
        assert out.shape == (3, (length - width) // stride + 1)


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    tsum(square(x)).backward()
    assert x.grad.tolist() == [2.0, 4.0]


# ---------------------------------------------------------------------------
# contracts and tape semantics


def test_matmul_rejects_mismatched_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_conv1d_rejects_short_signal():
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 1, 4))), stride=1)


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ShapeError):
        conv1d(Tensor(np.ones((2, 8))), Tensor(np.ones((1, 3, 2))), stride=1)


def test_attention_rejects_bad_head_count():
    q = Tensor(np.ones((4, 6)))
    with pytest.raises(ShapeError):
        attention_core(q, q, q, n_heads=4)


def test_attention_rejects_integer_inputs():
    q = Tensor(np.ones((2, 4)))
    bad = Tensor(np.ones((2, 4)))
    bad.data = np.ones((2, 4), dtype=np.int8)
    with pytest.raises(TypeError):
        attention_core(bad, q, q, n_heads=2)


def _zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _zeros(2).item(), ShapeError, r"item: tensor of shape \(2,\) is not a scalar"),
        (lambda: add(_zeros(2, 3), _zeros(4)), ShapeError, "add: shapes .* do not broadcast"),
        (lambda: mul(_zeros(2, 3), _zeros(2)), ShapeError, "mul: shapes .* do not broadcast"),
        (lambda: transpose(_zeros(2, 2, 2)), ShapeError, "transpose: expected a 2-D tensor"),
        (lambda: softmax(Tensor(np.array([0.0, np.inf]))), NumericError, "softmax: input must"),
        (lambda: softmax(Tensor(np.array([0.0, np.nan]))), NumericError, "softmax: input must"),
        (
            lambda: layer_norm(_zeros(2, 4), _zeros(3), _zeros(4)),
            ShapeError,
            r"layer_norm: gain \(3,\)",
        ),
        (
            lambda: layer_norm(_zeros(2, 4), _zeros(4), _zeros(4, 1)),
            ShapeError,
            r"bias \(4, 1\)",
        ),
        (lambda: conv1d(_zeros(8), _zeros(1, 1, 2), 1), ShapeError, "conv1d: expected x"),
        (lambda: conv1d(_zeros(1, 8), _zeros(1, 2), 1), ShapeError, "conv1d: expected x"),
        (lambda: conv1d(_zeros(1, 8), _zeros(1, 1, 2), 0), ShapeError, "stride must be >= 1"),
        (
            lambda: attention_core(_zeros(3, 4), _zeros(3, 4), _zeros(2, 4), 2),
            ShapeError,
            "attention_core: q .* must match",
        ),
        (
            lambda: attention_core(_zeros(4), _zeros(4), _zeros(4), 2),
            ShapeError,
            r"attention_core: expected \(N, d\) inputs",
        ),
    ],
    ids=[
        "item of a vector",
        "add unbroadcastable",
        "mul unbroadcastable",
        "transpose of 3-D",
        "softmax of inf",
        "softmax of nan",
        "layer_norm gain",
        "layer_norm bias",
        "conv1d 1-D signal",
        "conv1d 2-D kernels",
        "conv1d zero stride",
        "attention mismatched v",
        "attention of 1-D",
    ],
)
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_log_rejects_nonpositive():
    with pytest.raises(NumericError):
        tlog(Tensor([1.0, 0.0]))


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        mul(x, 2.0).backward()


def test_grads_accumulate_until_cleared():
    x = Tensor([3.0], requires_grad=True)
    loss = tsum(square(x))
    loss.backward()
    first = x.grad.copy()
    tsum(square(x)).backward()
    assert close(x.grad, 2.0 * first)
    x.zero_grad()
    assert x.grad is None


def test_detach_blocks_gradient():
    x = Tensor([2.0], requires_grad=True)
    tsum(mul(x.detach(), x)).backward()
    # d/dx of detach(x) * x is detach(x), not 2x.
    assert close(x.grad, [2.0])


# Every op on the tape: its call and the shapes of its inputs.
TAPE_OPS = {
    "add": (add, [(3, 4), (3, 1)]),
    "sub": (sub, [(3, 4), (4,)]),
    "neg": (neg, [(3,)]),
    "mul": (mul, [(2, 5), (2, 5)]),
    "matmul": (matmul, [(3, 4), (4, 2)]),
    "tsum": (tsum, [(3, 4)]),
    "tsum_axis": (lambda a: tsum(a, axis=0), [(3, 4)]),
    "tmean": (tmean, [(3, 4)]),
    "square": (square, [(3, 3)]),
    "tlog": (tlog, [(3, 4)]),
    "clamp_min": (lambda a: clamp_min(a, 1.0), [(6,)]),
    "getitem": (lambda a: a[1:3], [(5, 4)]),
    "transpose": (transpose, [(3, 5)]),
    "softmax": (softmax, [(3, 5)]),
    "gelu": (gelu, [(4, 4)]),
    "layer_norm": (layer_norm, [(4, 6), (6,), (6,)]),
    "conv1d": (lambda x, k: conv1d(x, k, stride=2), [(2, 12), (3, 2, 4)]),
    "attention_core": (lambda q, k, v: attention_core(q, k, v, 2), [(4, 6)] * 3),
    "ctc_loss": (lambda lg: ctc_loss(lg, [1, 2]), [(6, 4)]),
}
MULTI_INPUT_OPS = ("add", "mul", "matmul", "layer_norm", "conv1d", "attention_core")


def _inputs(name, grad_index=None):
    r = np.random.default_rng(5)
    return [
        Tensor(r.uniform(0.5, 2.0, shape), requires_grad=i == grad_index)
        for i, shape in enumerate(TAPE_OPS[name][1])
    ]


@pytest.mark.parametrize("name", TAPE_OPS)
def test_no_tape_without_requires_grad(name):
    out = TAPE_OPS[name][0](*_inputs(name))
    assert not out.requires_grad
    assert out._backward is None and out._parents == ()


@pytest.mark.parametrize(
    "name, grad_index",
    [(name, i) for name in MULTI_INPUT_OPS for i in range(len(TAPE_OPS[name][1]))],
)
def test_backward_leaves_the_constant_inputs_of_an_op_without_grad(name, grad_index):
    inputs = _inputs(name, grad_index)
    tsum(TAPE_OPS[name][0](*inputs)).backward()
    for i, t in enumerate(inputs):
        assert (t.grad is not None) == (i == grad_index), i


def test_no_grad_builds_no_tape_from_grad_leaves():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    w = Tensor(np.ones((3, 3)), requires_grad=True)
    with no_grad():
        outs = [matmul(x, w), gelu(add(matmul(x, w), 1.0)), tsum(x), x[:1]]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert x.requires_grad and w.requires_grad
    assert matmul(x, w).requires_grad


def test_no_grad_restores_the_mode_after_nesting_and_errors():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with no_grad():
        with no_grad():
            assert not mul(x, x).requires_grad
        assert not mul(x, x).requires_grad
    assert mul(x, x).requires_grad
    with pytest.raises(ShapeError):
        with no_grad():
            matmul(x, x)
    assert mul(x, x).requires_grad


def test_no_grad_is_per_thread():
    x = Tensor([3.0], requires_grad=True)
    entered, release = threading.Event(), threading.Event()
    seen = []

    def hold_no_grad():
        with no_grad():
            entered.set()
            release.wait(timeout=10)
            seen.append(mul(x, x).requires_grad)

    worker = threading.Thread(target=hold_no_grad)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        y = tsum(mul(x, x))
        assert y.requires_grad
        y.backward()
        assert close(x.grad, [6.0])
    finally:
        release.set()
        worker.join()
    assert seen == [False]


class _FlagRecorder(Tensor):
    """A Tensor that logs every write to requires_grad after construction."""

    __slots__ = ("writes",)

    def __setattr__(self, name, value):
        if name == "requires_grad" and hasattr(self, "writes"):
            self.writes.append(value)
        object.__setattr__(self, name, value)


def _recorded(t):
    out = _FlagRecorder(t.data, requires_grad=t.requires_grad)
    out.writes = []
    return out


def test_no_grad_never_writes_requires_grad():
    w = _recorded(Tensor(np.ones((2, 2)), requires_grad=True))
    with no_grad():
        matmul(w, w)
        layer_norm(w, np.ones(2), np.zeros(2))
    assert w.writes == [] and w.requires_grad

    # Inference on a model whose parameters are shared with training.
    from smallwav.model import AcousticModel, ModelConfig

    cfg = ModelConfig(
        conv_layers=((8, 6, 2), (16, 4, 2)), d_model=16, n_transformer_layers=1,
        n_heads=2, ffn_dim=32, max_frames=64,
    )
    params = {n: _recorded(t) for n, t in AcousticModel.init(cfg, seed=1).named_params()}
    model = AcousticModel(cfg, params)
    model.infer(np.zeros(120, dtype=np.float32))
    assert all(t.writes == [] and t.requires_grad for t in params.values())


def test_float32_stays_float32():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((3, 3), dtype=np.float32), requires_grad=True)
    out = gelu(add(matmul(x, w), 0.5))
    assert out.dtype == np.float32
    loss = tmean(square(out))
    assert loss.dtype == np.float32
    loss.backward()
    assert x.grad.dtype == np.float32


def test_broadcast_add_bias_column():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.array([[1.0], [2.0]]), requires_grad=True)
    tsum(add(x, b)).backward()
    assert b.grad.tolist() == [[3.0], [3.0]]
    assert x.grad.tolist() == [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]


def test_getitem_rows_backward():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    tsum(x[:2]).backward()
    expect = np.zeros((4, 3))
    expect[:2] = 1.0
    assert x.grad.tolist() == expect.tolist()


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_softmax_rows_are_distributions(logits):
    out = softmax(Tensor(np.asarray(logits))).data
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-30, max_value=30, allow_nan=False),
        min_size=2,
        max_size=8,
    ),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_softmax_shift_invariance(logits, shift):
    x = np.asarray(logits)
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + shift)).data
    assert close(a, b, rtol=1e-9, floor=1e-12)


def test_attention_uniform_when_query_is_zero():
    # Zero queries give flat scores, so the output is the mean of v rows.
    rng = np.random.default_rng(3)
    v = rng.standard_normal((5, 8))
    out = attention_core(
        Tensor(np.zeros((5, 8))), Tensor(rng.standard_normal((5, 8))), Tensor(v), n_heads=2
    )
    assert close(out.data, np.tile(v.mean(axis=0), (5, 1)))


# ---------------------------------------------------------------------------
# bit-exact against the einsum contractions the ops were written with
#
# The model's trained weights hash the same only if every product keeps
# the values and the memory layout of these references: a softmax sum
# over a strided axis adds in another order than over a contiguous one,
# and a matmul reading a column-major operand may round differently.


def einsum_conv1d(x, kernels, stride, g):
    """Forward output and (dx, dkernels) for upstream gradient g."""
    k = kernels.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)[:, ::stride]
    out = np.einsum("oik,ilk->ol", kernels, windows, optimize=True)
    l_out = out.shape[1]
    dk = np.einsum("ol,ilk->oik", g, windows, optimize=True)
    dx = np.zeros_like(x)
    for tap in range(k):
        contrib = np.einsum("ol,oi->il", g, kernels[:, :, tap], optimize=True)
        dx[:, tap : tap + stride * l_out : stride] += contrib
    return out, dx, dk


def einsum_attention(q, k, v, n_heads, g):
    """Forward output and (dq, dk, dv) for upstream gradient g."""
    n, d = q.shape
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    qh, kh, vh = (a.reshape(n, n_heads, dh) for a in (q, k, v))
    scores = np.einsum("ihd,jhd->hij", qh, kh, optimize=True) * qh.dtype.type(scale)
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    att = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("hij,jhd->ihd", att, vh, optimize=True).reshape(n, d)
    gh = g.reshape(n, n_heads, dh)
    dv = np.einsum("hij,ihd->jhd", att, gh, optimize=True).reshape(n, d)
    datt = np.einsum("ihd,jhd->hij", gh, vh, optimize=True)
    inner = (datt * att).sum(axis=-1, keepdims=True)
    dscore = att * (datt - inner) * att.dtype.type(scale)
    dq = np.einsum("hij,jhd->ihd", dscore, kh, optimize=True).reshape(n, d)
    dk = np.einsum("hij,ihd->jhd", dscore, qh, optimize=True).reshape(n, d)
    return out, dq, dk, dv


def test_attention_core_is_bit_exact_against_einsum():
    rng = np.random.default_rng(17)
    for n in range(1, 101):
        q, k, v, g = (rng.standard_normal((n, 64)).astype(np.float32) for _ in range(4))
        out_ref, *grads_ref = einsum_attention(q, k, v, 4, g)
        tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
        out = attention_core(tq, tk, tv, n_heads=4)
        out._backward(g)
        assert np.array_equal(out.data, out_ref), f"forward differs at n={n}"
        assert out.data.strides == out_ref.strides, f"forward layout differs at n={n}"
        for name, t, ref in zip("qkv", (tq, tk, tv), grads_ref):
            assert np.array_equal(t.grad, ref), f"d{name} differs at n={n}"


@pytest.mark.parametrize("c_in,length,c_out,width", [(1, 480, 32, 16), (32, 233, 32, 8), (32, 113, 64, 8)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_conv1d_is_bit_exact_against_einsum(c_in, length, c_out, width, order):
    # The default ModelConfig's three conv layers at stride 2.  Inside the
    # model the deeper layers read a transposed input, so both memory
    # orders are checked, for the input and the upstream gradient.
    rng = np.random.default_rng(c_in + length)
    x = np.asarray(rng.standard_normal((c_in, length)), dtype=np.float32, order=order)
    kernels = rng.standard_normal((c_out, c_in, width)).astype(np.float32)
    l_out = (length - width) // 2 + 1
    g = np.asarray(rng.standard_normal((c_out, l_out)), dtype=np.float32, order=order)
    out_ref, dx_ref, dk_ref = einsum_conv1d(x, kernels, 2, g)
    tx, tk = Tensor(x, requires_grad=True), Tensor(kernels, requires_grad=True)
    out = conv1d(tx, tk, stride=2)
    out._backward(g)
    assert np.array_equal(out.data, out_ref) and out.data.strides == out_ref.strides
    assert np.array_equal(tx.grad, dx_ref)
    assert np.array_equal(tk.grad, dk_ref)


@pytest.mark.parametrize("stride", [1, 3, 4])
@pytest.mark.parametrize("order", ["C", "F"])
def test_conv1d_windows_follow_the_stride(stride, order):
    rng = np.random.default_rng(stride)
    x = np.asarray(rng.standard_normal((3, 29)), dtype=np.float32, order=order)
    kernels = rng.standard_normal((5, 3, 4)).astype(np.float32)
    g = rng.standard_normal((5, (29 - 4) // stride + 1)).astype(np.float32)
    out_ref, dx_ref, dk_ref = einsum_conv1d(x, kernels, stride, g)
    tx, tk = Tensor(x, requires_grad=True), Tensor(kernels, requires_grad=True)
    out = conv1d(tx, tk, stride=stride)
    out._backward(g)
    assert np.array_equal(out.data, out_ref)
    assert np.array_equal(tx.grad, dx_ref)
    assert np.array_equal(tk.grad, dk_ref)


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """Forward output and (dx, dgain, dbias) with ndarray.mean and .var."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = (x - mu) * inv
    out = gain * xhat + bias
    gh = g * gain
    m1 = gh.mean(axis=-1, keepdims=True)
    m2 = (gh * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (gh - m1 - xhat * m2)
    return out, dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_is_bit_exact_against_mean_and_var(dtype):
    rng = np.random.default_rng(23)
    for n in range(1, 101):
        x, g = (rng.standard_normal((5, n)).astype(dtype) for _ in range(2))
        gain = rng.uniform(0.5, 1.5, n).astype(dtype)
        bias = rng.standard_normal(n).astype(dtype)
        out_ref, *grads_ref = reference_layer_norm(x, gain, bias, g)
        tx, tg, tb = (Tensor(a, requires_grad=True) for a in (x, gain, bias))
        out = layer_norm(tx, tg, tb)
        out._backward(g)
        assert np.array_equal(out.data, out_ref), f"forward differs at n={n}"
        for name, t, ref in zip(("x", "gain", "bias"), (tx, tg, tb), grads_ref):
            assert np.array_equal(t.grad, ref), f"d{name} differs at n={n}"


def test_first_gradient_write_keeps_layout_and_clears_negative_zero():
    t = Tensor(np.zeros((3, 2), dtype=np.float32).T, requires_grad=True)
    g = np.array([[-0.0, 1.5, 2.0], [3.0, -0.0, 4.0]], dtype=np.float32)
    _accumulate(t, g)
    assert t.grad.strides == t.data.strides != g.strides
    assert np.array_equal(t.grad, g) and t.grad.dtype == np.float32
    assert not np.signbit(t.grad).any()
    _accumulate(t, g)
    assert np.array_equal(t.grad, 2 * g)


def test_gradient_of_another_shape_is_rejected():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match=r"\(3, 2\).*\(2, 3\)"):
        _accumulate(t, np.zeros((3, 2)))
    _accumulate(t, np.ones((2, 3)))
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 3\)"):
        _accumulate(t, np.ones(3))


# ---------------------------------------------------------------------------
# finite-difference spot checks (the acceptance suite runs the full sweep)


def _fd_cases():
    r = np.random.default_rng(7)
    yield "matmul", lambda a, b: matmul(a, b), [r.standard_normal((3, 4)), r.standard_normal((4, 2))], None
    yield "add_broadcast", lambda a, b: add(a, b), [r.standard_normal((3, 4)), r.standard_normal((3, 1))], None
    yield "mul", lambda a, b: mul(a, b), [r.standard_normal((2, 5)), r.standard_normal((2, 5))], None
    yield "sum_axis", lambda a: tsum(a, axis=0), [r.standard_normal((3, 4))], None
    yield "mean", lambda a: tmean(a), [r.standard_normal((4, 3))], None
    yield "square", square, [r.standard_normal((3, 3))], None
    yield "log", tlog, [r.uniform(0.2, 3.0, (3, 4))], None
    yield "clamp_min", lambda a: clamp_min(a, 0.5), [r.uniform(0.7, 2.0, (6,))], None
    yield "softmax", lambda a: softmax(a, axis=-1), [r.standard_normal((3, 5))], None
    yield "gelu", gelu, [r.standard_normal((4, 4))], None
    yield "transpose", transpose, [r.standard_normal((3, 5))], None
    yield "slice", lambda a: a[1:3], [r.standard_normal((5, 4))], None
    yield "layer_norm", layer_norm, [r.standard_normal((4, 6)), r.uniform(0.5, 1.5, 6), r.standard_normal(6)], None
    yield "conv1d", lambda x, k: conv1d(x, k, stride=2), [r.standard_normal((2, 12)), r.standard_normal((3, 2, 4))], None
    yield "attention", lambda q, k, v: attention_core(q, k, v, 2), [r.standard_normal((4, 6)) for _ in range(3)], None


@pytest.mark.parametrize("name,forward,arrays,mask", list(_fd_cases()), ids=lambda c: c if isinstance(c, str) else "")
def test_gradients_match_finite_differences(name, forward, arrays, mask):
    ok, worst = fd_check(forward, arrays, grad_mask=mask)
    assert ok, f"{name}: worst elementwise gap {worst:.3e}"


# ---------------------------------------------------------------------------
# random streams


def test_rng_is_reproducible():
    a = Rng(42).normal((4, 4))
    b = Rng(42).normal((4, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(43).normal((4, 4)))


def test_rng_children_are_independent_of_draw_order():
    root = Rng(7)
    c0 = root.child(0).normal(8)
    # Drawing from the root before splitting must not disturb children.
    root2 = Rng(7)
    root2.normal(100)
    assert np.array_equal(c0, root2.child(0).normal(8))
    assert not np.array_equal(c0, root2.child(1).normal(8))


def test_rng_permutation_covers_range():
    p = Rng(5).permutation(10)
    assert sorted(p.tolist()) == list(range(10))
