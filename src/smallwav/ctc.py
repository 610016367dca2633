"""CTC loss for training the teacher from scratch.

Forward-backward over the blank-extended target lattice, in log space
and float64 internally.  The backward pass uses the classic identity
d(loss)/d(logit) = softmax(logits) - posterior, wired into the autodiff
tape as a single fused op.
"""

from __future__ import annotations

import numpy as np

from .decode import BLANK
from .tensor import ShapeError, Tensor, _accumulate, _make

NEG_INF = -np.inf


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def min_frames(targets) -> int:
    """Fewest frames that can emit this target sequence."""
    repeats = sum(1 for a, b in zip(targets, targets[1:]) if a == b)
    return len(targets) + repeats


def ctc_loss(logits, targets) -> Tensor:
    """Negative log-likelihood of `targets` under all CTC alignments.

    Args:
        logits: Tensor of shape (N, M), pre-softmax frame scores.
        targets: token ids, none equal to decode.BLANK, all in [0, M).

    Returns:
        A scalar Tensor on the tape of `logits`.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"ctc_loss: expected (N, M) logits, got {logits.shape}")
    n, m = logits.data.shape
    targets = [int(t) for t in targets]
    if any(t == BLANK for t in targets):
        raise ValueError("ctc_loss: targets must not contain the blank id")
    if any(not 0 <= t < m for t in targets):
        raise ValueError(f"ctc_loss: target ids must lie in [0, {m})")
    need = min_frames(targets)
    if n < need or n == 0:
        raise ValueError(
            f"ctc_loss: {n} frames cannot emit {len(targets)} targets "
            f"(need at least {max(need, 1)})"
        )

    # Blank-extended label sequence: blank, t1, blank, t2, ..., blank.
    z = np.full(2 * len(targets) + 1, BLANK, dtype=np.int64)
    z[1::2] = targets
    s = z.shape[0]
    logp = _log_softmax(logits.data.astype(np.float64))
    emit = logp[:, z]  # (N, S): log prob of each lattice state's symbol per frame

    # A diagonal skip into state s is legal when it does not jump over a
    # needed blank: z[s] real and different from z[s-2].
    skip = np.zeros(s, dtype=bool)
    if s > 2:
        skip[2:] = (z[2:] != BLANK) & (z[2:] != z[:-2])

    # Two leading -inf columns: stay, step and jump are slices of a row.
    padded = np.full((n, s + 2), NEG_INF)
    alpha = padded[:, 2:]
    alpha[0, 0] = emit[0, 0]
    if s > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, n):
        prev = padded[t - 1]
        acc = np.logaddexp(prev[2:], prev[1:-1])
        acc = np.where(skip, np.logaddexp(acc, prev[:-2]), acc)
        alpha[t] = emit[t] + acc

    tail = alpha[n - 1, s - 1]
    if s > 1:
        tail = np.logaddexp(tail, alpha[n - 1, s - 2])
    log_z = float(tail)
    loss_value = np.asarray(-log_z, dtype=logits.data.dtype)

    def bw(g):
        # Suffix scores excluding the current frame's emission, so that
        # alpha + beta counts each emission exactly once.
        beta = np.full((n, s), NEG_INF)
        beta[n - 1, s - 1] = 0.0
        if s > 1:
            beta[n - 1, s - 2] = 0.0
        # Two trailing -inf columns: stay, step and jump are slices of nxt.
        nxt = np.full(s + 2, NEG_INF)
        skip_ahead = np.append(skip, [False, False])[2:]
        for t in range(n - 2, -1, -1):
            np.add(beta[t + 1], emit[t + 1], out=nxt[:s])
            acc = np.logaddexp(nxt[:s], nxt[1:-1])
            beta[t] = np.where(skip_ahead, np.logaddexp(acc, nxt[2:]), acc)
        with np.errstate(invalid="ignore"):
            gamma = np.exp(alpha + beta - log_z)  # (N, S) posteriors
        gamma[~np.isfinite(gamma)] = 0.0
        posterior = np.zeros((n, m))
        np.add.at(posterior.T, z, gamma.T)
        grad = np.exp(logp) - posterior
        _accumulate(logits, (float(g) * grad).astype(logits.data.dtype))

    return _make(loss_value, (logits,), bw)
