from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallwav.data import SynthSpec, generate_dataset
from smallwav.distill import (
    AdamState,
    DistillConfig,
    EpochStats,
    DistillHistory,
    ProbSeq,
    adamw_step,
    distill,
    evaluate,
    feature_penalty,
    fit,
    init_adam_state,
    kl_distill_loss,
    lr_at,
    objective,
    teacher_logits,
)
from smallwav.model import AcousticModel, ConfigError, LayerSelection, ModelConfig, init_student
from smallwav.table import read_table, write_records
from smallwav.tensor import Tensor, add, square, tsum

from helpers import close, fd_check

LN2 = float(np.log(2.0))
HISTORY_COLUMNS = (
    "epoch", "lr", "train_total", "train_distill", "train_feature", "val_total", "val_wer",
)


def dirichlet_rows(rng, n, m):
    x = rng.gamma(1.0, 1.0, (n, m))
    return x / x.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# KL term


def test_kl_hand_case_ln2():
    t = ProbSeq(np.array([[1.0, 0.0]]))
    s = ProbSeq(np.array([[0.5, 0.5]]))
    assert close(float(kl_distill_loss(t, s).data), LN2, rtol=1e-9)


def test_kl_identical_inputs_is_exactly_zero():
    rng = np.random.default_rng(0)
    p = dirichlet_rows(rng, 6, 5).astype(np.float32)
    loss = kl_distill_loss(ProbSeq(p), ProbSeq(p.copy()))
    assert float(loss.data) == 0.0


def test_kl_averages_over_frames():
    t1 = np.array([[1.0, 0.0]])
    s1 = np.array([[0.5, 0.5]])
    single = float(kl_distill_loss(ProbSeq(t1), ProbSeq(s1)).data)
    double = float(
        kl_distill_loss(
            ProbSeq(np.vstack([t1, t1])), ProbSeq(np.vstack([s1, s1]))
        ).data
    )
    assert close(single, double, rtol=1e-12)
    mixed = float(
        kl_distill_loss(
            ProbSeq(np.vstack([t1, s1])), ProbSeq(np.vstack([s1, s1]))
        ).data
    )
    assert close(mixed, single / 2.0, rtol=1e-9)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n, m = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        t = ProbSeq(dirichlet_rows(rng, n, m))
        s = ProbSeq(dirichlet_rows(rng, n, m))
        val = float(kl_distill_loss(t, s).data)
        assert val >= 0.0
        assert np.isfinite(val)


def test_kl_invariant_to_joint_frame_permutation():
    rng = np.random.default_rng(2)
    t = dirichlet_rows(rng, 8, 4)
    s = dirichlet_rows(rng, 8, 4)
    perm = rng.permutation(8)
    a = float(kl_distill_loss(ProbSeq(t), ProbSeq(s)).data)
    b = float(kl_distill_loss(ProbSeq(t[perm]), ProbSeq(s[perm])).data)
    assert close(a, b, rtol=1e-12)


def test_kl_gradient_reaches_student_only():
    rng = np.random.default_rng(3)
    t_logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    s_logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    conv = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    lb = objective(t_logits, s_logits, conv, DistillConfig())
    lb.total.backward()
    assert t_logits.grad is None
    assert s_logits.grad is not None and np.any(s_logits.grad != 0)
    assert conv.grad is not None and np.any(conv.grad != 0)


def test_kl_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    t = ProbSeq(dirichlet_rows(rng, 3, 4))

    def forward(logits):
        from smallwav.tensor import softmax

        return kl_distill_loss(t, ProbSeq(softmax(logits, axis=-1)))

    ok, worst = fd_check(forward, [rng.standard_normal((3, 4))], rng=rng)
    assert ok, f"worst gap {worst:.3e}"


def test_kl_gradient_zero_at_matching_logits():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((5, 6))
    s = Tensor(logits.copy(), requires_grad=True)
    lb = objective(Tensor(logits), s, Tensor(np.zeros((5, 2))), DistillConfig())
    lb.total.backward()
    assert np.abs(s.grad).max() < 1e-12


def test_probseq_validation():
    with pytest.raises(ValueError):
        ProbSeq(np.array([[0.6, 0.6]]))  # rows off by 0.2
    with pytest.raises(ValueError):
        ProbSeq(np.array([[1.2, -0.2]]))  # negative mass
    with pytest.raises(ValueError):
        ProbSeq(np.zeros(3))  # wrong rank
    ProbSeq(np.array([[0.50004, 0.50003]]))  # inside the 1e-4 budget


def test_kl_shape_mismatch():
    a = ProbSeq(np.array([[1.0, 0.0]]))
    b = ProbSeq(np.array([[1.0, 0.0], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        kl_distill_loss(a, b)


# ---------------------------------------------------------------------------
# feature penalty and composition


def test_feature_penalty_hand_case():
    assert float(feature_penalty(Tensor([[3.0, 4.0]])).data) == 12.5


def test_objective_composition():
    rng = np.random.default_rng(6)
    for w in (0.0, 0.1, 1.0, 3.0):
        cfg = DistillConfig(feature_penalty_weight=w)
        t = Tensor(rng.standard_normal((3, 4)))
        s = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        conv = Tensor(rng.standard_normal((3, 2)))
        lb = objective(t, s, conv, cfg)
        assert close(
            float(lb.total.data),
            float(lb.distill.data) + w * float(lb.feature.data),
            rtol=1e-12,
        )


def test_objective_against_plain_numpy_oracle():
    # teacher logits [ln2, 0] -> T = [2/3, 1/3]; student zeros -> S = [1/2, 1/2]
    t_logits = Tensor(np.array([[LN2, 0.0]]))
    s_logits = Tensor(np.array([[0.0, 0.0]]))
    conv = Tensor(np.array([[3.0, 4.0]]))
    cfg = DistillConfig(feature_penalty_weight=0.1)
    lb = objective(t_logits, s_logits, conv, cfg)
    t = np.array([2.0 / 3.0, 1.0 / 3.0])
    s = np.array([0.5, 0.5])
    expect_kl = float(np.sum(t * np.log(t / s)))
    assert close(float(lb.distill.data), expect_kl, rtol=1e-9)
    assert close(float(lb.total.data), expect_kl + 0.1 * 12.5, rtol=1e-9)


def test_identity_student_zero_total_with_zero_penalty_weight():
    cfg_model = ModelConfig(
        conv_layers=((8, 6, 2), (16, 4, 2)), d_model=16, n_transformer_layers=2,
        n_heads=2, ffn_dim=32, n_tokens=5, max_frames=64,
    )
    teacher = AcousticModel.init(cfg_model, seed=3)
    student = init_student(teacher, LayerSelection.alternating(2))
    wave = np.random.default_rng(0).standard_normal(100).astype(np.float32)
    t_logits, _ = teacher.forward(wave)
    s_logits, s_conv = student.forward(wave)
    lb = objective(t_logits, s_logits, s_conv, DistillConfig(feature_penalty_weight=0.0))
    assert float(lb.total.data) == 0.0


# ---------------------------------------------------------------------------
# learning-rate ramp


def test_lr_endpoints_and_example():
    cfg = DistillConfig(epochs=12, warmup_epochs=2)
    assert lr_at(0, cfg) == cfg.base_lr
    assert lr_at(2, cfg) == cfg.peak_lr
    assert close(lr_at(7, cfg), cfg.peak_lr * (12 - 7) / (12 - 2), rtol=1e-12)
    assert close(lr_at(1, cfg), (cfg.base_lr + cfg.peak_lr) / 2.0, rtol=1e-12)


def test_lr_peak_default_is_ten_times_base():
    cfg = DistillConfig()
    assert close(cfg.peak_lr, 10.0 * cfg.base_lr, rtol=1e-12)
    custom = DistillConfig(peak_lr=1e-3)
    assert custom.peak_lr == 1e-3


def test_lr_profile_shape():
    cfg = DistillConfig(epochs=10, warmup_epochs=3)
    lrs = [lr_at(e, cfg) for e in range(10)]
    assert all(v > 0 for v in lrs)
    assert lrs[:4] == sorted(lrs[:4])  # rising through warmup to the peak
    assert lrs[3:] == sorted(lrs[3:], reverse=True)  # then falling
    assert max(lrs) == cfg.peak_lr


def test_lr_domain_errors():
    cfg = DistillConfig(epochs=4, warmup_epochs=1)
    with pytest.raises(ValueError):
        lr_at(-1, cfg)
    with pytest.raises(ValueError):
        lr_at(4, cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(warmup_epochs=12, epochs=12)
    with pytest.raises(ConfigError):
        DistillConfig(base_lr=0.0)
    with pytest.raises(ConfigError):
        DistillConfig(temperature=0.0)


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_first_step_closed_form():
    cfg = DistillConfig(weight_decay=0.0)
    w = Tensor(np.array([1.0]), requires_grad=True)
    state = init_adam_state([w])
    adamw_step([w], [np.array([1.0])], state, lr=0.1, cfg=cfg)
    # Bias-corrected m_hat = g, v_hat = g^2, so the step is lr/(1 + eps).
    expect = 1.0 - 0.1 / (1.0 + cfg.adam_eps)
    assert close(float(w.data[0]), expect, rtol=1e-12)


def test_adamw_decay_only_shrinks_multiplicatively():
    cfg = DistillConfig(weight_decay=0.01)
    w = Tensor(np.array([2.0]), requires_grad=True)
    state = init_adam_state([w])
    adamw_step([w], [np.array([0.0])], state, lr=0.5, cfg=cfg)
    assert close(float(w.data[0]), 2.0 * (1.0 - 0.5 * 0.01), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-3, max_value=10.0), st.booleans())
def test_adamw_fresh_step_moves_against_gradient(mag, flip):
    g = mag if not flip else -mag
    cfg = DistillConfig(weight_decay=0.0)
    w = Tensor(np.array([0.5]), requires_grad=True)
    state = init_adam_state([w])
    adamw_step([w], [np.array([g])], state, lr=0.01, cfg=cfg)
    moved = float(w.data[0]) - 0.5
    assert np.sign(moved) == -np.sign(g)


def test_adamw_multi_step_matches_reference_loop():
    # Straight-line reference implementation, kept separate on purpose.
    cfg = DistillConfig(weight_decay=0.01)
    b1, b2 = cfg.adam_betas
    rng = np.random.default_rng(8)
    grads = [rng.standard_normal(3) for _ in range(5)]
    lr = 0.02

    w_ref = np.array([0.3, -1.2, 2.0])
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        w_ref = w_ref - lr * cfg.weight_decay * w_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w_ref = w_ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + cfg.adam_eps)

    w = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
    state = init_adam_state([w])
    for g in grads:
        adamw_step([w], [g], state, lr=lr, cfg=cfg)
    assert close(w.data, w_ref, rtol=1e-10)


def test_adamw_shape_mismatch_rejected():
    cfg = DistillConfig()
    w = Tensor(np.zeros(3), requires_grad=True)
    state = init_adam_state([w])
    with pytest.raises(ValueError):
        adamw_step([w], [np.zeros(4)], state, lr=0.1, cfg=cfg)
    with pytest.raises(ValueError):
        adamw_step([w], [], state, lr=0.1, cfg=cfg)


# ---------------------------------------------------------------------------
# training loop


MODEL_CFG = ModelConfig(
    conv_layers=((8, 6, 2), (16, 4, 2)),
    d_model=16,
    n_transformer_layers=2,
    n_heads=2,
    ffn_dim=32,
    n_tokens=12,
    max_frames=96,
)
DATA_SPEC = SynthSpec(seed=5, n_utterances=6, tokens_per_utterance=(1, 2), word_len=(1, 2))


def tiny_setup():
    teacher = AcousticModel.init(MODEL_CFG, seed=1)
    student = init_student(teacher, LayerSelection.alternating(1))
    ds = generate_dataset(DATA_SPEC)
    return teacher, student, ds[:4], ds[4:]


def test_fit_validates_every_epoch_averages_per_item_and_keeps_the_best_snapshot():
    model = AcousticModel.init(MODEL_CFG, seed=0)
    cfg = DistillConfig(epochs=4, warmup_epochs=1, base_lr=1e-3, seed=3)
    scripted = iter([5.0, 3.0, 1.0, 2.0, 4.0])  # lowest after epoch 1, then rising
    seen, firsts = [], []

    def validate(m):
        seen.append(m.parts["head.w"].data.copy())
        return next(scripted), 10.0 * len(seen)

    def loss(m, items):
        first = reduce(add, [tsum(square(p)) for p in m.params()])
        firsts.append(first.item())
        return first, Tensor(np.array(float(len(items))))

    def steps(epoch, order):
        assert sorted(order) == [0, 1, 2]
        return [order[:2], order[2:]]  # two steps over three items, as joins do

    best, initial, rows = fit(model, 3, cfg, steps, loss, validate, lambda *row: row)
    assert len(seen) == cfg.epochs + 1
    assert initial == (5.0, 10.0)
    assert [r[0] for r in rows] == list(range(cfg.epochs))
    assert [r[1] for r in rows] == [lr_at(e, cfg) for e in range(cfg.epochs)]
    for e, row in enumerate(rows):
        assert close(row[2], (firsts[2 * e] + firsts[2 * e + 1]) / 3, rtol=1e-12)
        assert row[3] == 1.0  # (2 + 1) items over 3
        assert row[4:] == ([3.0, 1.0, 2.0, 4.0][e], 10.0 * (e + 2))
    assert np.array_equal(best.parts["head.w"].data, seen[2])
    assert not np.array_equal(best.parts["head.w"].data, model.parts["head.w"].data)


def test_distill_zero_epochs_is_identity():
    teacher, student, train, val = tiny_setup()
    out, history = distill(teacher, student, train, val, DistillConfig(epochs=0))
    assert history.epochs == []
    assert np.isfinite(history.initial_val_total)
    for (_, a), (_, b) in zip(student.named_params(), out.named_params()):
        assert np.array_equal(a.data, b.data)


def test_distill_does_not_mutate_inputs_and_restores_flags():
    teacher, student, train, val = tiny_setup()
    before = [t.data.copy() for t in student.params()]
    distill(teacher, student, train, val, DistillConfig(epochs=1, warmup_epochs=0))
    for t, b in zip(student.params(), before):
        assert np.array_equal(t.data, b)
    assert all(t.requires_grad for t in teacher.params())
    assert all(t.requires_grad for t in student.params())


def test_distill_is_seed_deterministic():
    teacher, student, train, val = tiny_setup()
    cfg = DistillConfig(epochs=2, warmup_epochs=1, seed=42)
    out1, hist1 = distill(teacher, student, train, val, cfg)
    out2, hist2 = distill(teacher, student, train, val, cfg)
    assert hist1 == hist2
    for (_, a), (_, b) in zip(out1.named_params(), out2.named_params()):
        assert np.array_equal(a.data, b.data)


def test_distill_history_is_well_formed():
    teacher, student, train, val = tiny_setup()
    cfg = DistillConfig(epochs=3, warmup_epochs=1)
    _, history = distill(teacher, student, train, val, cfg)
    assert [row.epoch for row in history.epochs] == [0, 1, 2]
    for row in history.epochs:
        assert row.lr == lr_at(row.epoch, cfg)
        for col in HISTORY_COLUMNS[1:]:
            assert np.isfinite(getattr(row, col))


def test_distill_requires_data():
    teacher, student, train, val = tiny_setup()
    with pytest.raises(ConfigError, match="nonempty"):
        distill(teacher, student, [], val, DistillConfig(epochs=1, warmup_epochs=0))



def _distill_without(split):
    teacher, student, train, val = tiny_setup()
    sets = {"train": train, "val": val, split: []}
    cfg = DistillConfig(epochs=1, warmup_epochs=0)
    return distill(teacher, student, sets["train"], sets["val"], cfg)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: DistillConfig(epochs=-1), ConfigError, "epochs must be >= 0"),
        (lambda: DistillConfig(warmup_epochs=-1), ConfigError, "warmup_epochs must be >= 0"),
        (
            lambda: DistillConfig(feature_penalty_weight=-0.5),
            ConfigError,
            "feature_penalty_weight must be >= 0",
        ),
        (lambda: DistillConfig(adam_betas=(0.9, 1.0)), ConfigError, r"adam_betas \(0.9, 1.0\)"),
        (lambda: DistillConfig(adam_betas=(-0.1, 0.98)), ConfigError, r"adam_betas \(-0.1, 0.98\)"),
        (
            lambda: kl_distill_loss(ProbSeq(np.zeros((0, 3))), ProbSeq(np.zeros((0, 3)))),
            ValueError,
            "kl_distill_loss: no frames",
        ),
        (
            lambda: feature_penalty(Tensor(np.zeros((0, 4)))),
            ValueError,
            "feature_penalty: empty features",
        ),
        (lambda: DistillHistory(1.0, 50.0).final(), ValueError, "history has no trained epochs"),
        (lambda: _distill_without("train"), ConfigError, "must be nonempty"),
        (lambda: _distill_without("val"), ConfigError, "must be nonempty"),
    ],
    ids=[
        "negative epochs",
        "negative warmup",
        "negative feature weight",
        "beta2 of 1",
        "negative beta1",
        "kl of no frames",
        "penalty of no features",
        "final of no epochs",
        "distill on no train",
        "distill on no val",
    ],
)
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_returned_model_has_best_val_loss():
    teacher, student, train, val = tiny_setup()
    cfg = DistillConfig(epochs=3, warmup_epochs=1)
    best, history = distill(teacher, student, train, val, cfg)
    best_recorded = min(
        [history.initial_val_total] + [r.val_total for r in history.epochs]
    )
    targets = teacher_logits(teacher, val)
    got, _ = evaluate(best, val, targets, lambda s, c, t: objective(t, s, c, cfg).total)
    assert close(got, best_recorded, rtol=1e-6)


def _count_forwards(model):
    """Wrap one instance's forward with a call counter; return the counter."""
    calls = []
    forward = model.forward

    def counted(wave):
        calls.append(len(wave))
        return forward(wave)

    model.forward = counted
    return calls


@pytest.mark.parametrize("epochs", [1, 3])
def test_distill_runs_the_teacher_once_per_utterance(epochs):
    teacher, student, train, val = tiny_setup()
    calls = _count_forwards(teacher)
    distill(teacher, student, train, val, DistillConfig(epochs=epochs, warmup_epochs=0))
    assert len(calls) == len(train) + len(val)


def test_distill_without_epochs_runs_the_teacher_on_val_only():
    teacher, student, train, val = tiny_setup()
    calls = _count_forwards(teacher)
    distill(teacher, student, train, val, DistillConfig(epochs=0))
    assert calls == [len(wave) for wave, _ in val]


def test_teacher_logits_carry_no_tape():
    teacher, _, train, _ = tiny_setup()
    assert all(p.requires_grad for p in teacher.params())
    targets = teacher_logits(teacher, train)
    assert len(targets) == len(train)
    for t, (wave, _) in zip(targets, train):
        assert not t.requires_grad
        assert t._parents == ()
        assert np.array_equal(t.data, teacher.infer(wave))


def test_evaluate_rejects_logits_for_a_set_of_another_length():
    teacher, student, _, val = tiny_setup()
    with pytest.raises(ValueError):
        evaluate(
            student,
            val,
            teacher_logits(teacher, val[:1]),
            lambda s, c, t: objective(t, s, c, DistillConfig()).total,
        )


def test_history_csv_roundtrip(tmp_path):
    history = DistillHistory(1.5, 50.0)
    history.epochs = [
        EpochStats(0, 2.5e-5, 1.25, 1.0, 0.25, 1.125, 40.0),
        EpochStats(1, 2.5e-4, 0.5, 0.375, 0.125, 0.4375, 12.5),
    ]
    path = tmp_path / "history.csv"
    write_records(path, EpochStats, history.epochs)
    first = path.read_text().splitlines()[0]
    assert first == "epoch,lr,train_total,train_distill,train_feature,val_total,val_wer"
    rows = read_table(path, HISTORY_COLUMNS)
    assert [EpochStats(int(r[0]), *map(float, r[1:])) for r in rows] == history.epochs
