"""Acceptance gate: thirteen checks over the whole pipeline.

Each test prints one [criterion NN] PASS/FAIL line (run with -s to see
them on success).  The trained-teacher fixture is shared by the
distillation, quantization, sweep and pruning criteria, so this file
runs end to end in a few minutes on one core.
"""

import itertools
import os
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy.stats import norm

from smallwav.bench import (
    eval_wer,
    run_data_experiment,
    run_init_experiment,
    run_tradeoff_sweep,
    train_teacher,
)
from smallwav.cli import main
from smallwav.config import teacher_config_from
from smallwav.data import SynthSpec, generate_dataset
from smallwav.decode import best_path_decode, edit_distance
from smallwav.distill import DistillConfig, ProbSeq, distill, kl_distill_loss, objective
from smallwav.model import (
    AcousticModel,
    LayerSelection,
    ModelConfig,
    checkpoint_bytes,
    init_student,
    save_model,
)
from smallwav.prune import default_sensitivity_map, prune_layer, prune_model
from smallwav.quantize import (
    QuantizedLinear,
    dynamic_activation_params,
    prepack,
    qlinear_forward,
    quantize_model,
    quantized_checkpoint_bytes,
    save_quantized_model,
)
from smallwav.tensor import (
    Tensor,
    add,
    attention_core,
    clamp_min,
    conv1d,
    gelu,
    layer_norm,
    matmul,
    mul,
    softmax,
    square,
    sub,
    tlog,
    tmean,
    transpose,
    tsum,
)

from helpers import fd_check


def verdict(num: int, label: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    line = f"[criterion {num:02d}] {tag} {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def dataset(seed: int, n: int):
    return generate_dataset(SynthSpec(seed=seed, n_utterances=n, noise_std=0.02))


@pytest.fixture(scope="session")
def trained():
    """A competent 4-layer teacher plus the shared data splits."""
    t0 = time.perf_counter()
    train = dataset(42, 160)
    val = dataset(43, 16)
    eval_set = dataset(44, 32)
    teacher, history = train_teacher(train, val, ModelConfig(), teacher_config_from({}, 42))
    return {
        "teacher": teacher,
        "train": train,
        "val": val,
        "eval": eval_set,
        "teacher_wer": eval_wer(teacher, eval_set),
        "build_seconds": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# 1. gradients


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)

    def rand(*shape):
        return rng.standard_normal(shape)

    def shapes_2d():
        return int(rng.integers(1, 5)), int(rng.integers(1, 5))

    failures = []
    for trial in range(20):
        n, m = shapes_2d()
        k = int(rng.integers(1, 5))
        cases = [
            ("add", lambda a, b: add(a, b), [rand(n, m), rand(n, m)]),
            ("sub", lambda a, b: sub(a, b), [rand(n, m), rand(n, m)]),
            ("mul", lambda a, b: mul(a, b), [rand(n, m), rand(n, m)]),
            ("matmul", lambda a, b: matmul(a, b), [rand(n, k), rand(k, m)]),
            ("sum", lambda a: tsum(a), [rand(n, m)]),
            ("mean", lambda a: tmean(a, axis=0), [rand(n, m)]),
            ("square", lambda a: square(a), [rand(n, m)]),
            ("log", lambda a: tlog(a), [np.abs(rand(n, m)) + 0.5]),
            ("clamp_min", lambda a: clamp_min(a, 0.1), [np.abs(rand(n, m)) + 0.3]),
            ("getitem", lambda a: a[0], [rand(n, m)]),
            ("transpose", lambda a: transpose(a), [rand(n, m)]),
            ("softmax", lambda a: softmax(a, axis=-1), [rand(n, m)]),
            ("gelu", lambda a: gelu(a), [rand(n, m)]),
            (
                "layer_norm",
                lambda x, g, b: layer_norm(x, g, b),
                [rand(n, 2 * m), rand(2 * m), rand(2 * m)],
            ),
            (
                "conv1d",
                lambda x, w: conv1d(x, w, stride=2),
                [rand(2, 11), rng.standard_normal((3, 2, 4))],
            ),
            (
                "attention",
                lambda q, k_, v: attention_core(q, k_, v, n_heads=2),
                [rand(n + 1, 4), rand(n + 1, 4), rand(n + 1, 4)],
            ),
        ]
        for name, fn, arrays in cases:
            ok, worst = fd_check(fn, arrays, rng=rng)
            if not ok:
                failures.append(f"{name}@trial{trial}: {worst:.2e}")
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "finite differences agree for every differentiable op",
        not failures and elapsed < 60.0,
        f"20 shapes x 16 ops, {elapsed:.1f}s" + (f"; {failures[:3]}" if failures else ""),
    )


# ---------------------------------------------------------------------------
# 2-3. distillation loss properties


def test_criterion_02_kl_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    nonneg = True
    for _ in range(1000):
        frames, toks = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        t = ProbSeq.from_logits(Tensor(rng.standard_normal((frames, toks))))
        s = ProbSeq.from_logits(Tensor(rng.standard_normal((frames, toks))))
        if float(kl_distill_loss(t, s).data) < -1e-12:
            nonneg = False
    zero = True
    for _ in range(100):
        logits = rng.standard_normal((int(rng.integers(1, 6)), 4))
        t = ProbSeq.from_logits(Tensor(logits))
        s = ProbSeq.from_logits(Tensor(logits.copy()))
        if abs(float(kl_distill_loss(t, s).data)) >= 1e-9:
            zero = False

    logits_t = rng.standard_normal((7, 5))
    logits_s = rng.standard_normal((7, 5))
    t = ProbSeq.from_logits(Tensor(logits_t))
    s = ProbSeq.from_logits(Tensor(logits_s))
    packaged = float(kl_distill_loss(t, s).data)

    def dist(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    pt, ps = dist(logits_t), dist(logits_s)
    per_frame = (pt * (np.log(pt) - np.log(ps))).sum(axis=-1)
    averaged = float(per_frame.mean())
    frame_structure = abs(packaged - averaged) < 1e-9

    elapsed = time.perf_counter() - t0
    verdict(
        2,
        "distillation loss is nonnegative, zero at identity, frame-averaged",
        nonneg and zero and frame_structure and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_03_identity_student_is_a_fixed_point():
    cfg = ModelConfig(
        conv_layers=((8, 6, 2), (16, 4, 2)),
        d_model=16,
        n_transformer_layers=3,
        n_heads=2,
        ffn_dim=32,
    )
    teacher = AcousticModel.init(cfg, seed=3)
    student = init_student(teacher, LayerSelection.alternating(cfg.n_transformer_layers))
    loss_cfg = DistillConfig(feature_penalty_weight=0.0)
    worst = 0.0
    for wave, _ in dataset(60, 3):
        t_logits, _ = teacher.forward(wave)
        s_logits, s_conv = student.forward(wave)
        worst = max(worst, abs(float(objective(t_logits, s_logits, s_conv, loss_cfg).total.data)))
    verdict(3, "full-depth student scores an exactly zero objective", worst < 1e-9, f"max {worst:.1e}")


# ---------------------------------------------------------------------------
# 4-6. end-to-end distillation and the two trend experiments


def test_criterion_04_end_to_end_distillation(trained):
    t0 = time.perf_counter()
    teacher_wer = trained["teacher_wer"]
    student = init_student(trained["teacher"], LayerSelection.alternating(2))
    best, history = distill(
        trained["teacher"],
        student,
        trained["train"],
        trained["val"],
        DistillConfig(epochs=12, seed=42),
    )
    student_wer = eval_wer(best, trained["eval"])
    final_val = history.final().val_total
    runtime = trained["build_seconds"] + (time.perf_counter() - t0)
    ok = (
        teacher_wer <= 2.0
        and student_wer <= teacher_wer + 15.0
        and final_val < history.initial_val_total
        and runtime < 600.0
    )
    verdict(
        4,
        "distilled 2-layer student tracks the teacher",
        ok,
        f"teacher {teacher_wer:.2f}%, student {student_wer:.2f}%, "
        f"val {history.initial_val_total:.3f}->{final_val:.3f}, {runtime:.0f}s",
    )


def test_criterion_05_alternating_init_wins_early(trained):
    train = trained["train"][:96]
    winners = 0
    details = []
    for seed in (41, 42, 43):
        cfg = DistillConfig(epochs=4, seed=seed)
        alt, last = run_init_experiment(trained["teacher"], 2, cfg, train, trained["val"])
        dominated = all(
            a.val_total <= l.val_total for a, l in zip(alt.epochs, last.epochs)
        )
        winners += dominated
        details.append(f"seed {seed}: {'<=' if dominated else 'inverted'}")
    verdict(
        5,
        "alternating picks lead last-k at every epoch in 2 of 3 seeds",
        winners >= 2,
        "; ".join(details),
    )


def test_criterion_06_more_data_helps(trained):
    winners = 0
    details = []
    for seed in (41, 42, 43):
        cfg = DistillConfig(epochs=3, seed=seed)
        results = run_data_experiment(
            trained["teacher"], 2, [16, 48], cfg, trained["train"], trained["val"]
        )
        small = results[0][1].final().val_wer
        large = results[1][1].final().val_wer
        winners += large <= small
        details.append(f"seed {seed}: {small:.1f}% vs {large:.1f}%")
    verdict(6, "3x training data never hurts final WER, 2 of 3 seeds", winners >= 2, "; ".join(details))


# ---------------------------------------------------------------------------
# 7-9. quantization


def test_criterion_07_quantized_size_ratio(tmp_path):
    cfg = ModelConfig(
        conv_layers=((64, 3, 2),),
        d_model=64,
        n_transformer_layers=4,
        n_heads=4,
        ffn_dim=256,
        n_tokens=12,
        max_frames=16,
    )
    model = AcousticModel.init(cfg, seed=7)
    fpath, qpath = tmp_path / "m.swav", tmp_path / "m.swq8"
    save_model(model, fpath)
    save_quantized_model(quantize_model(model), qpath)
    fbytes, qbytes = os.path.getsize(fpath), os.path.getsize(qpath)
    accounted = fbytes == checkpoint_bytes(cfg) and qbytes == quantized_checkpoint_bytes(cfg)
    ratio = qbytes / fbytes
    verdict(
        7,
        "int8 checkpoint is about a quarter of the float one",
        accounted and 0.253 <= ratio <= 0.30,
        f"ratio {ratio:.4f}, files {fbytes}/{qbytes} match closed forms: {accounted}",
    )


def test_criterion_08_quantization_fidelity(trained):
    teacher_wer = trained["teacher_wer"]
    q_wer = eval_wer(quantize_model(trained["teacher"]), trained["eval"])
    delta = q_wer - teacher_wer

    rng = np.random.default_rng(8)
    inside = True
    worst_ratio = 0.0
    for trial in range(1000):
        n_in = int(rng.integers(1, 17))
        n_out = int(rng.integers(1, 17))
        scale = 10.0 ** rng.uniform(-2, 1)
        w = (rng.standard_normal((n_in, n_out)) * scale).astype(np.float32)
        if trial % 50 == 0:
            w.fill(0.0)
        layer = QuantizedLinear.from_float(w)
        x = rng.standard_normal((int(rng.integers(1, 5)), n_in)).astype(np.float32)
        x -= x.mean()
        (got,) = qlinear_forward(x, (layer, np.zeros(n_out, dtype=np.float32)))
        oracle = x.astype(np.float64) @ w.astype(np.float64)
        s_w = layer.w_params.scale
        s_x = dynamic_activation_params(x).scale
        bound = 0.75 * (s_w * np.abs(x).sum() + s_x * np.abs(w).sum())
        slack = 6e-8 * (1.0 + np.abs(oracle)) + 1e-9
        err = np.abs(got.astype(np.float64) - oracle)
        if not np.all(err <= bound + slack):
            inside = False
        if bound > 0:
            worst_ratio = max(worst_ratio, float((err / (bound + slack)).max()))
    verdict(
        8,
        "int8 inference costs at most one WER point and honors the error bound",
        delta <= 1.0 and inside,
        f"dWER {delta:+.2f}, worst err/bound {worst_ratio:.3f} over 1000 layers",
    )


def test_criterion_09_prepack_is_faster_and_lossless():
    cfg = ModelConfig(
        conv_layers=((256, 16, 8),),
        d_model=256,
        n_transformer_layers=2,
        n_heads=4,
        ffn_dim=1024,
        n_tokens=12,
        max_frames=8,
    )
    qmodel = quantize_model(AcousticModel.init(cfg, seed=9))
    rng = np.random.default_rng(9)
    waves = [rng.standard_normal(40) for _ in range(100)]

    cold = [qmodel.infer(w) for w in waves[:5]]
    prepack(qmodel)
    warm = [qmodel.infer(w) for w in waves[:5]]
    lossless = all((a == b).all() for a, b in zip(cold, warm))
    qmodel.reset_unpack_count()
    for w in waves[:5]:
        qmodel.infer(w)
    no_unpacks = qmodel.unpack_count() == 0

    fresh = quantize_model(AcousticModel.init(cfg, seed=9))
    packed = prepack(quantize_model(AcousticModel.init(cfg, seed=9)))

    def batch_seconds(models):
        # Rounds alternate between the models, so host speed drift over
        # the seconds this takes hits both alike.
        for model in models:
            for w in waves[:3]:
                model.infer(w)
        totals = [[] for _ in models]
        for _ in range(3):
            for model, row in zip(models, totals):
                t0 = time.perf_counter()
                for w in waves:
                    model.infer(w)
                row.append(time.perf_counter() - t0)
        return [float(np.median(row)) for row in totals]

    t_fresh, t_packed = batch_seconds([fresh, packed])
    verdict(
        9,
        "prepacking changes no bits and wins the 100-utterance race",
        lossless and no_unpacks and t_packed < t_fresh,
        f"{t_fresh * 1e3:.0f}ms -> {t_packed * 1e3:.0f}ms "
        f"({100.0 * (t_fresh - t_packed) / t_fresh:+.1f}% saved)",
    )


# ---------------------------------------------------------------------------
# 10. depth sweep


def test_criterion_10_depth_tradeoff(trained):
    reports = run_tradeoff_sweep(
        trained["teacher"],
        [1, 2, 3, 4],
        DistillConfig(epochs=4, seed=42),
        trained["train"][:96],
        trained["val"],
        trained["eval"],
    )
    teacher_row = reports[0]
    students = {r.layers: r for r in reports[1:]}
    by_depth_desc = [students[k] for k in (4, 3, 2, 1)]
    time_inversions = sum(
        1 for a, b in zip(by_depth_desc, by_depth_desc[1:]) if b.cpu_s > a.cpu_s
    )
    wer_inversions = sum(
        1 for a, b in zip(by_depth_desc, by_depth_desc[1:]) if b.wer < a.wer
    )
    speedup = teacher_row.cpu_s / students[2].cpu_s
    rows = "; ".join(
        f"{r.model} {r.wer:.2f}% {1e3 * r.cpu_s:.0f}ms" for r in [teacher_row] + by_depth_desc
    )
    verdict(
        10,
        "shallower students run faster without scrambling accuracy",
        time_inversions + wer_inversions <= 1 and speedup >= 1.4,
        f"time inv {time_inversions}, wer inv {wer_inversions}, 2-layer speedup {speedup:.2f}x; "
        f"{rows}",
    )


# ---------------------------------------------------------------------------
# 11. pruning


def test_criterion_11_pruning_oracles(trained):
    rng = np.random.default_rng(11)
    gaussian_ok = True
    details = []
    for s in (0.1, 0.3, 0.4):
        w = rng.standard_normal(100_000)
        _, mask = prune_layer(w, s)
        measured = 1.0 - mask.mean()
        predicted = 2.0 * norm.cdf(s) - 1.0
        details.append(f"s={s}: {measured:.4f} vs {predicted:.4f}")
        if abs(measured - predicted) > 0.01:
            gaussian_ok = False

    monotone = True
    grid = (0.0, 0.1, 0.2, 0.4, 0.8, 1.6)
    for _ in range(100):
        w = rng.standard_normal(int(rng.integers(2, 400))) * 10.0 ** rng.uniform(-2, 2)
        sparsities = [1.0 - prune_layer(w, s)[1].mean() for s in grid]
        if any(b < a for a, b in zip(sparsities, sparsities[1:])):
            monotone = False

    teacher = trained["teacher"]
    pruned, report = prune_model(teacher, default_sensitivity_map(teacher.config))
    delta = eval_wer(pruned, trained["eval"]) - trained["teacher_wer"]
    verdict(
        11,
        "sparsity follows the Gaussian law and pruning spares accuracy",
        gaussian_ok and monotone and delta <= 1.0,
        f"{'; '.join(details)}; global {100.0 * report.global_sparsity:.1f}%, dWER {delta:+.2f}",
    )


# ---------------------------------------------------------------------------
# 12. decoding oracles


def test_criterion_12_decoder_and_edit_distance_oracles():
    def collapse_oracle(path):
        merged = [t for t, _ in itertools.groupby(path)]
        return [t for t in merged if t != 0]

    decode_ok = True
    for length in range(1, 6):
        for path in itertools.product(range(3), repeat=length):
            logits = np.full((length, 3), -10.0)
            for i, t in enumerate(path):
                logits[i, t] = 10.0
            if best_path_decode(logits) != collapse_oracle(path):
                decode_ok = False

    rng = np.random.default_rng(12)

    def brute(ref, hyp):
        @lru_cache(maxsize=None)
        def go(i, j):
            if i == len(ref):
                return len(hyp) - j
            if j == len(hyp):
                return len(ref) - i
            best = go(i + 1, j + 1) + (ref[i] != hyp[j])
            best = min(best, go(i + 1, j) + 1, go(i, j + 1) + 1)
            return best

        return go(0, 0)

    edit_ok = True
    for _ in range(500):
        ref = tuple(rng.integers(0, 4, size=int(rng.integers(0, 7))))
        hyp = tuple(rng.integers(0, 4, size=int(rng.integers(0, 7))))
        if edit_distance(list(ref), list(hyp)).total != brute(ref, hyp):
            edit_ok = False
    verdict(
        12,
        "best-path collapse and edit distance match independent oracles",
        decode_ok and edit_ok,
        "363 exhaustive paths, 500 random pairs",
    )


# ---------------------------------------------------------------------------
# 13. determinism


def test_criterion_13_bench_rerun_determinism(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "conv_layers = ((8, 6, 2), (16, 4, 2))\n"
        "d_model = 16\n"
        "n_transformer_layers = 2\n"
        "n_heads = 2\n"
        "ffn_dim = 32\n"
        "n_utterances = 4\n"
        "val_utterances = 2\n"
        "eval_utterances = 2\n"
        "tokens_per_utterance = (2, 3)\n"
        "epochs = 1\n"
        "warmup_epochs = 0\n"
        "teacher_epochs = 1\n"
        "teacher_warmup = 0\n"
        "student_layers = 1\n"
    )
    redacted = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["bench", "--config", str(cfg_path), "--out", str(out), "--seed", "42"])
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        cols = [line.split(",") for line in lines]
        for row in cols[1:]:
            row[4] = "<clock>"
        redacted.append("\n".join(",".join(row) for row in cols))
    verdict(
        13,
        "reseeded bench reruns agree byte for byte outside the clock column",
        redacted[0] == redacted[1],
        "3 rows compared",
    )
