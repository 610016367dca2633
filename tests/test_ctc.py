import itertools

import numpy as np
import pytest

from smallwav.ctc import _log_softmax, ctc_loss, min_frames
from smallwav.tensor import ShapeError, Tensor

from helpers import close, fd_check


def softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def collapse(path):
    merged = [t for t, _ in itertools.groupby(path)]
    return [t for t in merged if t != 0]


def brute_force_nll(logits, targets):
    """Sum the probability of every frame path whose collapse is `targets`."""
    probs = softmax_rows(np.asarray(logits, dtype=np.float64))
    n, m = probs.shape
    total = 0.0
    for path in itertools.product(range(m), repeat=n):
        if collapse(path) == list(targets):
            p = 1.0
            for t, k in enumerate(path):
                p *= probs[t, k]
            total += p
    assert total > 0.0, "oracle: target unreachable"
    return -np.log(total)


@pytest.mark.parametrize(
    "n,targets",
    [
        (1, [1]),
        (2, [1]),
        (3, [1, 2]),
        (4, [1, 2]),
        (4, [2, 1]),
        (3, [1, 1]),  # repeat needs a separating blank
        (5, [1, 1]),
        (4, [2, 2, 1]),
        (3, []),
        (1, []),
        (5, [1, 2, 1]),
    ],
)
def test_loss_matches_path_enumeration(n, targets):
    rng = np.random.default_rng(hash((n, tuple(targets))) % 2**32)
    logits = rng.standard_normal((n, 3))
    loss = ctc_loss(Tensor(logits), targets)
    assert abs(float(loss.data) - brute_force_nll(logits, targets)) < 1e-10


def test_loss_matches_enumeration_on_random_cases():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        while True:
            u = int(rng.integers(0, 3))
            targets = rng.integers(1, m, u).tolist()
            if min_frames(targets) <= n:
                break
        logits = rng.standard_normal((n, m))
        loss = ctc_loss(Tensor(logits), targets)
        assert abs(float(loss.data) - brute_force_nll(logits, targets)) < 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for targets in ([1, 2], [1, 1], [3, 2, 1], []):
        logits = rng.standard_normal((6, 4))
        ok, worst = fd_check(lambda lg: ctc_loss(lg, targets), [logits], rng=rng)
        assert ok, f"targets {targets}: worst gap {worst:.3e}"


def concatenate_ctc(logits, targets):
    """Loss and gradient by the shift-by-concatenate recursions, blank 0.

    The reference for ctc_loss's slice-shifted loops: the same
    logaddexp/where sequence, so both must agree to the bit.
    """
    n, m = logits.shape
    z = np.zeros(2 * len(targets) + 1, dtype=np.int64)
    z[1::2] = targets
    s = z.shape[0]
    logp = _log_softmax(logits.astype(np.float64))
    emit = logp[:, z]
    skip = np.zeros(s, dtype=bool)
    if s > 2:
        skip[2:] = (z[2:] != 0) & (z[2:] != z[:-2])
    alpha = np.full((n, s), -np.inf)
    alpha[0, 0] = emit[0, 0]
    if s > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, n):
        prev = alpha[t - 1]
        acc = np.logaddexp(prev, np.concatenate(([-np.inf], prev))[:s])
        jump = np.concatenate(([-np.inf, -np.inf], prev))[:s]
        alpha[t] = emit[t] + np.where(skip, np.logaddexp(acc, jump), acc)
    tail = alpha[n - 1, s - 1]
    if s > 1:
        tail = np.logaddexp(tail, alpha[n - 1, s - 2])
    log_z = float(tail)
    beta = np.full((n, s), -np.inf)
    beta[n - 1, s - 1] = 0.0
    if s > 1:
        beta[n - 1, s - 2] = 0.0
    for t in range(n - 2, -1, -1):
        nxt = beta[t + 1] + emit[t + 1]
        acc = np.logaddexp(nxt, np.concatenate((nxt, [-np.inf]))[1 : s + 1])
        jump = np.concatenate((nxt, [-np.inf, -np.inf]))[2 : s + 2]
        skip_ahead = np.concatenate((skip, [False, False]))[2 : s + 2]
        beta[t] = np.where(skip_ahead, np.logaddexp(acc, jump), acc)
    with np.errstate(invalid="ignore"):
        gamma = np.exp(alpha + beta - log_z)
    gamma[~np.isfinite(gamma)] = 0.0
    posterior = np.zeros((n, m))
    np.add.at(posterior.T, z, gamma.T)
    grad = np.exp(logp) - posterior
    return np.asarray(-log_z, dtype=logits.dtype), grad.astype(logits.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "targets,extra",
    [
        ([], 0),  # s = 1, one frame
        ([], 6),
        ([3], 0),
        ([1, 2], 0),
        ([2, 2], 0),  # a repeat at min_frames: the blank between is forced
        ([4, 4, 4, 1], 0),
        ([4, 4, 4, 1], 9),
        ([1, 2, 1, 2, 3, 3, 5], 0),
        ([1, 2, 1, 2, 3, 3, 5], 40),
    ],
)
def test_loss_and_gradient_match_concatenate_recursions_bit_for_bit(targets, extra, dtype):
    n = max(min_frames(targets), 1) + extra
    rng = np.random.default_rng(len(targets) * 100 + extra)
    logits = Tensor((3.0 * rng.standard_normal((n, 6))).astype(dtype), requires_grad=True)
    loss = ctc_loss(logits, targets)
    loss.backward()
    loss_ref, grad_ref = concatenate_ctc(logits.data, targets)
    assert loss.data.dtype == dtype and np.array_equal(loss.data, loss_ref)
    assert np.array_equal(logits.grad, grad_ref)


def test_gradient_rows_sum_to_zero():
    # softmax minus a per-frame distribution: each row's grad sums to 0.
    rng = np.random.default_rng(9)
    logits = Tensor(rng.standard_normal((8, 5)), requires_grad=True)
    ctc_loss(logits, [2, 4, 1]).backward()
    assert close(logits.grad.sum(axis=1), np.zeros(8), rtol=1e-9, floor=1e-9)


def test_min_frames():
    assert min_frames([]) == 0
    assert min_frames([1, 2]) == 2
    assert min_frames([1, 1]) == 3
    assert min_frames([1, 1, 1, 2]) == 6


def test_contract_errors():
    logits = Tensor(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        ctc_loss(logits, [0, 1])  # blank in targets
    with pytest.raises(ValueError):
        ctc_loss(logits, [9])  # id out of range
    with pytest.raises(ValueError):
        ctc_loss(logits, [1, 2, 3, 1])  # too long for 3 frames
    with pytest.raises(ValueError):
        ctc_loss(logits, [1, 1, 2])  # repeat needs a blank: 4 frames minimum


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4)], ids=["1-D", "3-D"])
def test_ctc_loss_takes_frame_by_token_logits_only(shape):
    with pytest.raises(ShapeError, match=r"ctc_loss: expected \(N, M\) logits"):
        ctc_loss(Tensor(np.zeros(shape)), [1])


def test_loss_is_float_and_positive():
    rng = np.random.default_rng(2)
    loss = ctc_loss(Tensor(rng.standard_normal((10, 6))), [1, 3, 5])
    assert float(loss.data) > 0.0
    assert loss.shape == ()


def test_perfect_logits_drive_loss_down():
    # Strongly peaked logits on a clean alignment give a near-zero loss.
    big = 50.0
    frames = [1, 0, 2, 0]
    logits = np.full((4, 3), -big)
    for t, k in enumerate(frames):
        logits[t, k] = big
    loss = ctc_loss(Tensor(logits), [1, 2])
    assert float(loss.data) < 1e-6
