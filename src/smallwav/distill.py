"""Knowledge distillation: objective, optimizer, schedule, training and validation.

The training signal is KL(teacher || student) between per-frame token
distributions, averaged over frames, plus a small penalty on the energy
of the student's conv features.  The teacher is frozen and always
detached; only student weights move.  Its logits are a fixed function
of each utterance, so a distill() call runs the teacher once per
utterance, off the tape, and every step and evaluation reads those.
Updates come from AdamW with decoupled weight decay and a per-epoch
warmup/decay learning-rate ramp.

Both KL terms go through the same log path, so a student that matches
the teacher bit for bit yields a loss of exactly zero even in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decode import best_path_decode, wer
from .model import AcousticModel, ConfigError
from .tensor import (
    Rng, Tensor, add, clamp_min, mul, no_grad, softmax, square, sub, tlog, tmean, tsum,
)

KL_FLOOR = 1e-9


@dataclass(frozen=True)
class DistillConfig:
    """Hyperparameters for one distillation run.

    peak_lr defaults to ten times base_lr.  The ramp is per epoch: base
    to peak linearly across warmup_epochs, then linearly toward zero at
    `epochs`.  Each utterance is one optimizer step; utterances vary in
    length, so there are no batches.
    """

    epochs: int = 12
    base_lr: float = 2.5e-5
    peak_lr: float | None = None
    warmup_epochs: int = 2
    adam_betas: tuple = (0.9, 0.98)
    adam_eps: float = 1e-6
    weight_decay: float = 0.01
    seed: int = 42
    feature_penalty_weight: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if self.peak_lr is None:
            object.__setattr__(self, "peak_lr", 10.0 * self.base_lr)
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.base_lr <= 0 or self.peak_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ConfigError(
                f"warmup_epochs {self.warmup_epochs} must lie in [0, epochs)"
            )
        if self.temperature <= 0:
            raise ConfigError("temperature must be positive")
        if self.feature_penalty_weight < 0:
            raise ConfigError("feature_penalty_weight must be >= 0")
        b1, b2 = self.adam_betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"adam_betas {self.adam_betas} must lie in [0, 1)")


def lr_at(epoch: int, cfg: DistillConfig) -> float:
    """Learning rate at the start of `epoch` (0-based)."""
    if not 0 <= epoch < cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        frac = epoch / cfg.warmup_epochs
        return cfg.base_lr + (cfg.peak_lr - cfg.base_lr) * frac
    return cfg.peak_lr * (cfg.epochs - epoch) / (cfg.epochs - cfg.warmup_epochs)


class ProbSeq:
    """Per-frame token probabilities, shape (N, M), rows summing to one.

    Wraps a Tensor so gradients can flow through when the rows came from
    a student's softmax.  Construction validates normalization to 1e-4.
    """

    def __init__(self, probs):
        t = probs if isinstance(probs, Tensor) else Tensor(np.asarray(probs))
        if t.data.ndim != 2:
            raise ValueError(f"ProbSeq: expected (N, M), got {t.shape}")
        if not np.all(np.isfinite(t.data)) or np.any(t.data < 0):
            raise ValueError("ProbSeq: entries must be finite and nonnegative")
        if t.data.shape[0] > 0:
            gap = np.abs(t.data.sum(axis=1) - 1.0).max()
            if gap > 1e-4:
                raise ValueError(f"ProbSeq: rows deviate from sum 1 by {gap:.2e}")
        self.probs = t

    @classmethod
    def from_logits(cls, logits: Tensor, temperature: float = 1.0) -> "ProbSeq":
        scaled = logits if temperature == 1.0 else mul(logits, 1.0 / temperature)
        return cls(softmax(scaled, axis=-1))

    @property
    def shape(self) -> tuple:
        return self.probs.shape


def kl_distill_loss(teacher: ProbSeq, student: ProbSeq) -> Tensor:
    """Mean per-frame KL(teacher || student), teacher detached.

    Both distributions are floored at 1e-9 inside their logs, through
    the same code path, so identical inputs cancel exactly.  Zero-mass
    teacher entries contribute nothing.  Gradient reaches only the
    student.
    """
    if teacher.shape != student.shape:
        raise ValueError(
            f"kl_distill_loss: teacher {teacher.shape} vs student {student.shape}"
        )
    n = teacher.shape[0]
    if n == 0:
        raise ValueError("kl_distill_loss: no frames")
    t_const = teacher.probs.detach()
    log_t = tlog(clamp_min(t_const, KL_FLOOR))
    log_s = tlog(clamp_min(student.probs, KL_FLOOR))
    per_entry = mul(t_const, sub(log_t, log_s))
    return mul(tsum(per_entry), 1.0 / n)


def feature_penalty(conv_out: Tensor) -> Tensor:
    """Mean squared conv feature activation; discourages blowups."""
    if conv_out.size == 0:
        raise ValueError("feature_penalty: empty features")
    return tmean(square(conv_out))


@dataclass
class LossBreakdown:
    distill: Tensor
    feature: Tensor
    total: Tensor


def objective(
    teacher_logits: Tensor,
    student_logits: Tensor,
    student_conv_out: Tensor,
    cfg: DistillConfig,
) -> LossBreakdown:
    """Full distillation loss: KL term plus weighted feature penalty."""
    t_probs = ProbSeq.from_logits(teacher_logits.detach(), cfg.temperature)
    s_probs = ProbSeq.from_logits(student_logits, cfg.temperature)
    distill = kl_distill_loss(t_probs, s_probs)
    feat = feature_penalty(student_conv_out)
    total = add(distill, mul(feat, cfg.feature_penalty_weight))
    return LossBreakdown(distill, feat, total)


# ---------------------------------------------------------------------------
# AdamW


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0


def init_adam_state(params) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
    )


def adamw_step(params, grads, state: AdamState, lr: float, cfg: DistillConfig) -> None:
    """One AdamW update in place.

    Weight decay is decoupled: each parameter first shrinks by
    lr * weight_decay * w, independent of the gradient moments.  Moments
    use bias correction; eps sits outside the square root.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError(
            f"adamw_step: {len(params)} params, {len(grads)} grads, "
            f"{len(state.m)} state slots"
        )
    b1, b2 = cfg.adam_betas
    state.step += 1
    t = state.step
    correct1 = 1.0 - b1**t
    correct2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g.shape != p.data.shape:
            raise ValueError(f"adamw_step: grad shape {g.shape} vs param {p.data.shape}")
        if cfg.weight_decay:
            p.data -= p.data.dtype.type(lr * cfg.weight_decay) * p.data
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / correct1
        v_hat = v / correct2
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_total: float
    train_distill: float
    train_feature: float
    val_total: float
    val_wer: float


@dataclass
class DistillHistory:
    initial_val_total: float
    initial_val_wer: float
    epochs: list = field(default_factory=list)

    def final(self) -> EpochStats:
        if not self.epochs:
            raise ValueError("history has no trained epochs")
        return self.epochs[-1]


def teacher_logits(teacher: AcousticModel, dataset) -> list:
    """The teacher's logits for each utterance of a dataset, off the tape."""
    with no_grad():
        return [teacher.forward(wave)[0] for wave, _ in dataset]


def evaluate(model: AcousticModel, dataset, targets: list, loss) -> tuple:
    """Mean loss and WER (percent) of a model on a dataset, off the tape.

    The lab's one validation routine, for the CTC teacher and the
    student alike.  targets holds one target per utterance of dataset,
    in order: the transcripts for CTC, or the teacher's logits as
    teacher_logits() builds them.  loss(logits, conv_out, target)
    returns one utterance's scalar loss Tensor.  Words split at the
    model's boundary token, model.config.boundary.
    """
    if len(targets) != len(dataset):
        raise ValueError(
            f"evaluate: {len(targets)} targets for {len(dataset)} utterances"
        )
    losses = []
    refs, hyps = [], []
    with no_grad():
        for target, (wave, transcript) in zip(targets, dataset):
            logits, conv_out = model.forward(wave)
            losses.append(loss(logits, conv_out, target).item())
            refs.append(list(transcript))
            hyps.append(best_path_decode(logits.data))
    report = wer(refs, hyps, boundary=model.config.boundary)
    return float(np.mean(losses)), 100.0 * report.wer


def fit(
    model: AcousticModel, n_items: int, cfg: DistillConfig, steps, loss, validate, record
) -> tuple:
    """The lab's one training loop, for the CTC teacher and the student alike.

    Trains `model` in place for cfg.epochs.  Each epoch draws a fresh
    order of range(n_items) from cfg.seed, and steps(epoch, order)
    yields the items of that epoch's optimizer steps.  loss(model, item)
    returns a tuple of scalar Tensors: AdamW at the epoch's lr_at rate
    minimizes the first, and each is summed over the epoch's steps and
    divided by n_items (>= 1).  validate(model) returns (val_loss,
    val_wer); it runs before the first epoch and after each.  The
    epoch's record is record(epoch, lr, *train means, val_loss, val_wer).

    Returns:
        (best, initial, rows): a copy of the model at its lowest
        validation loss, the untrained model counting; validate's
        result before training; and one record per epoch.
    """
    params = model.params()
    state = init_adam_state(params)
    shuffler = Rng(cfg.seed)
    initial = validate(model)
    best = (initial[0], model.copy())
    rows = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = [int(i) for i in shuffler.child(epoch).permutation(n_items)]
        sums = 0.0
        for item in steps(epoch, order):
            terms = loss(model, item)
            model.zero_grad()
            terms[0].backward()
            adamw_step(params, [p.grad for p in params], state, lr, cfg)
            sums += np.array([t.item() for t in terms])
        val = validate(model)
        rows.append(record(epoch, lr, *(sums / n_items).tolist(), *val))
        if val[0] < best[0]:
            best = (val[0], model.copy())
    return best[1], initial, rows


def distill(
    teacher: AcousticModel,
    student: AcousticModel,
    train_set,
    val_set,
    cfg: DistillConfig,
) -> tuple:
    """Distill `student` toward `teacher` on a fixed dataset.

    Runs fit() for cfg.epochs passes, one optimizer step per utterance,
    on the KL-plus-feature objective.  Validation loss and WER, with
    words split at student.config.boundary, are recorded after every
    epoch; the returned model is the snapshot with the lowest
    validation loss (the input model is not mutated).

    The teacher runs once per utterance per call: on val_set, and on
    train_set when there is an epoch to train.  Steps and evaluations
    read those logits.

    Returns:
        (best_student, DistillHistory)
    """
    if not train_set or not val_set:
        raise ConfigError("distill: train and validation sets must be nonempty")
    val_targets = teacher_logits(teacher, val_set)
    train_targets = teacher_logits(teacher, train_set) if cfg.epochs else []

    def terms(model, idx):
        s_logits, s_conv = model.forward(train_set[idx][0])
        lb = objective(train_targets[idx], s_logits, s_conv, cfg)
        return lb.total, lb.distill, lb.feature

    best, initial, rows = fit(
        student.copy(),
        len(train_set),
        cfg,
        lambda epoch, order: order,
        terms,
        lambda model: evaluate(
            model, val_set, val_targets, lambda s, c, t: objective(t, s, c, cfg).total
        ),
        EpochStats,
    )
    return best, DistillHistory(*initial, rows)
