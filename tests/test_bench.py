"""Experiment drivers: timing, sweeps, teacher training, reports."""

from dataclasses import replace

import numpy as np
import pytest

from smallwav import bench
from smallwav.bench import (
    BenchReport,
    TeacherEpoch,
    _teacher_steps,
    eval_wer,
    history_curve,
    measure_inference_all,
    read_report,
    run_compression_bench,
    run_data_experiment,
    run_init_experiment,
    run_tradeoff_sweep,
    train_teacher,
    write_curve,
)
from smallwav.ctc import ctc_loss
from smallwav.data import SynthSpec, generate_dataset
from smallwav.decode import best_path_decode, wer
from smallwav.distill import (
    DistillConfig,
    EpochStats,
    evaluate,
    lr_at,
    objective,
    teacher_logits,
)
from smallwav.model import (
    AcousticModel,
    ConfigError,
    ModelConfig,
    checkpoint_bytes,
    count_params,
)
from smallwav.prune import PruneRow
from smallwav.quantize import quantized_checkpoint_bytes
from smallwav.table import read_table, write_records, write_table

SMALL_CFG = ModelConfig(
    conv_layers=((8, 6, 2), (16, 4, 2)),
    d_model=16,
    n_transformer_layers=2,
    n_heads=2,
    ffn_dim=32,
)

FAST_CFG = DistillConfig(epochs=1, warmup_epochs=0, seed=7)


def ctc(logits, _conv_out, transcript):
    return ctc_loss(logits, transcript)


def make_set(n, seed):
    return generate_dataset(
        SynthSpec(seed=seed, n_utterances=n, tokens_per_utterance=(2, 3), noise_std=0.02)
    )


@pytest.fixture(scope="module")
def teacher():
    return AcousticModel.init(SMALL_CFG, seed=0)


@pytest.fixture(scope="module")
def tiny_sets():
    return make_set(4, seed=10), make_set(2, seed=11), make_set(2, seed=12)


# ---------------------------------------------------------------------------
# BenchReport


def test_report_rejects_negative_fields():
    with pytest.raises(ConfigError):
        BenchReport("m", -1, 10, 10, 0.1, 0.0)
    with pytest.raises(ConfigError):
        BenchReport("m", 1, 10, 10, -0.1, 0.0)


def test_report_roundtrips_through_csv(tmp_path):
    reports = [
        BenchReport("teacher", 4, 125, 1000, 0.25, 1.5),
        BenchReport("student-2", 2, 60, 500, 0.125, 3.25),
    ]
    path = tmp_path / "r.csv"
    write_records(path, BenchReport, reports)
    lines = path.read_text().splitlines()
    assert lines[0] == "model,layers,params,bytes,cpu_s,wer"
    assert read_report(path) == reports


def test_empty_report_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_records(path, BenchReport, [])
    assert path.read_text() == "model,layers,params,bytes,cpu_s,wer\n"
    assert read_report(path) == []


F32 = np.float32(0.1)


@pytest.mark.parametrize(
    "record, numpy_row, python_row",
    [
        (
            BenchReport,
            BenchReport("m", np.int64(2), 60, 500, np.float64(0.125), F32),
            BenchReport("m", 2, 60, 500, 0.125, float(F32)),
        ),
        (
            TeacherEpoch,
            TeacherEpoch(0, np.float64(1e-4), F32, np.float64(2.75), 37.5),
            TeacherEpoch(0, 1e-4, float(F32), 2.75, 37.5),
        ),
        (
            PruneRow,
            PruneRow("head.w", "default", np.float64(0.3), F32, np.int64(3), 8),
            PruneRow("head.w", "default", 0.3, float(F32), 3, 8),
        ),
    ],
    ids=["bench", "teacher", "sparsity"],
)
def test_numpy_floats_write_the_bytes_of_python_floats(tmp_path, record, numpy_row, python_row):
    # csv writes a float subclass with repr, which is "np.float64(0.125)"
    # under numpy 2, so every float field must go out as a Python float.
    written = []
    for name, row in (("numpy", numpy_row), ("python", python_row)):
        path = tmp_path / f"{name}.csv"
        write_records(path, record, [row])
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert b"np." not in written[0]
    assert b"0.10000000149011612" in written[0]


def test_report_io_errors_name_the_path(tmp_path):
    missing_dir = tmp_path / "nope" / "r.csv"
    writers = [
        lambda p: write_records(p, BenchReport, []),
        lambda p: write_records(p, TeacherEpoch, []),
        lambda p: write_records(p, EpochStats, []),
        lambda p: write_records(p, PruneRow, []),
        # the data_summary.csv write of `smallwav exp-data`
        lambda p: write_table(p, ("size", "final_val_total", "final_val_wer"), []),
    ]
    for write in writers:
        with pytest.raises(OSError, match="cannot write .*nope"):
            write(missing_dir)
    with pytest.raises(OSError, match="cannot read .*gone.csv"):
        read_report(tmp_path / "gone.csv")
    with pytest.raises(OSError, match="cannot read .*gone.csv"):
        read_table(tmp_path / "gone.csv", ("size",))


def test_teacher_history_csv_roundtrip(tmp_path):
    history = [
        TeacherEpoch(0, 1e-4, 12.5, np.float32(0.1), 100.0),
        TeacherEpoch(1, 5e-4, 3.125, 2.75, 37.5),
    ]
    path = tmp_path / "teacher_history.csv"
    write_records(path, TeacherEpoch, history)
    assert path.read_text() == (
        "epoch,lr,train_loss,val_loss,val_wer\n"
        "0,0.0001,12.5,0.10000000149011612,100.0\n"
        "1,0.0005,3.125,2.75,37.5\n"
    )
    rows = read_table(path, ("epoch", "lr", "train_loss", "val_loss", "val_wer"))
    assert [TeacherEpoch(int(r[0]), *map(float, r[1:])) for r in rows] == history


@pytest.mark.parametrize(
    "record, header",
    [
        (TeacherEpoch, "epoch,lr,train_loss,val_loss,val_wer"),
        (EpochStats, "epoch,lr,train_total,train_distill,train_feature,val_total,val_wer"),
    ],
    ids=["teacher", "student"],
)
def test_an_empty_history_is_header_only(tmp_path, record, header):
    path = tmp_path / "history.csv"
    write_records(path, record, [])
    assert path.read_text() == header + "\n"


def test_foreign_csv_is_rejected(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("epoch,lr\n0,0.1\n")
    with pytest.raises(ValueError, match="header in .*other.csv"):
        read_report(path)


# ---------------------------------------------------------------------------
# timing


def test_measure_inference_needs_three_repeats(teacher, tiny_sets):
    with pytest.raises(ConfigError):
        measure_inference_all([teacher], tiny_sets[2], repeats=2)


def test_empty_eval_set_times_at_zero(teacher):
    assert measure_inference_all([teacher], [], repeats=3)[0] < 1e-3


def test_medians_are_stable_across_repeat_counts():
    model = AcousticModel.init(
        ModelConfig(
            conv_layers=((32, 16, 2), (32, 8, 2), (64, 8, 2)),
            d_model=64,
            n_transformer_layers=3,
            n_heads=4,
            ffn_dim=256,
        ),
        seed=1,
    )
    eval_set = make_set(4, seed=20)
    # ABBA order: the host's speed drifts between calls, and a linear
    # drift shifts both counts' means alike.  The drift is not linear
    # everywhere: the host switches between speed states that hold for
    # hundreds of passes (one pass reads 5.5 ms in one state, 9 ms in
    # another), so one cycle can straddle a switch.  Eight cycles, about
    # 1.5 s, average that out.
    t3, t5 = [], []
    for _ in range(8):
        t3.append(measure_inference_all([model], eval_set, repeats=3)[0])
        t5.append(measure_inference_all([model], eval_set, repeats=5)[0])
        t5.append(measure_inference_all([model], eval_set, repeats=5)[0])
        t3.append(measure_inference_all([model], eval_set, repeats=3)[0])
    t3, t5 = float(np.mean(t3)), float(np.mean(t5))
    assert abs(t3 - t5) / min(t3, t5) < 0.20


def test_shallower_student_times_faster():
    deep_cfg = ModelConfig(
        conv_layers=((64, 16, 2),),
        d_model=64,
        n_transformer_layers=4,
        n_heads=4,
        ffn_dim=256,
        max_frames=512,
    )
    shallow_cfg = ModelConfig(
        conv_layers=((64, 16, 2),),
        d_model=64,
        n_transformer_layers=1,
        n_heads=4,
        ffn_dim=256,
        max_frames=512,
    )
    deep = AcousticModel.init(deep_cfg, seed=2)
    shallow = AcousticModel.init(shallow_cfg, seed=2)
    eval_set = make_set(3, seed=21)
    shallow_s, deep_s = measure_inference_all([shallow, deep], eval_set)
    assert shallow_s < deep_s


# ---------------------------------------------------------------------------
# teacher training


def test_teacher_training_reduces_ctc_loss():
    train = make_set(8, seed=30)
    val = make_set(3, seed=31)
    cfg = DistillConfig(epochs=4, base_lr=1e-4, warmup_epochs=1, seed=5)
    model, history = train_teacher(train, val, SMALL_CFG, cfg)
    assert len(history) == cfg.epochs
    assert [h.lr for h in history] == [lr_at(e, cfg) for e in range(cfg.epochs)]
    assert history[-1].train_loss < history[0].train_loss
    assert all(np.isfinite(h.val_loss) for h in history)
    assert model.config == SMALL_CFG


def test_teacher_returns_the_best_validation_snapshot():
    train = make_set(6, seed=32)
    val = make_set(3, seed=33)
    cfg = DistillConfig(epochs=3, base_lr=1e-4, warmup_epochs=1, seed=6)
    model, history = train_teacher(train, val, SMALL_CFG, cfg)
    returned, _ = evaluate(model, val, [t for _, t in val], ctc)
    best_seen = min(h.val_loss for h in history)
    assert returned <= best_seen + 1e-9


def test_teacher_training_requires_a_validation_set():
    cfg = DistillConfig(epochs=1, base_lr=1e-4, warmup_epochs=0, seed=6)
    with pytest.raises(ConfigError):
        train_teacher(make_set(2, seed=32), [], SMALL_CFG, cfg)
    with pytest.raises(ConfigError):
        train_teacher([], make_set(2, seed=33), SMALL_CFG, cfg)


def test_teacher_training_is_deterministic():
    train = make_set(4, seed=34)
    val = make_set(2, seed=35)
    cfg = DistillConfig(epochs=2, base_lr=1e-4, warmup_epochs=1, seed=9)
    _, h1 = train_teacher(train, val, SMALL_CFG, cfg)
    _, h2 = train_teacher(train, val, SMALL_CFG, cfg)
    assert h1 == h2


def test_teacher_steps_join_consecutive_pairs_that_fit():
    train = make_set(5, seed=36)
    order = [4, 0, 3, 1, 2]
    steps = list(_teacher_steps(train, order, SMALL_CFG, join=False))
    assert [t for _, t in steps] == [train[i][1] for i in order]

    steps = list(_teacher_steps(train, order, SMALL_CFG, join=True))
    assert len(steps) == 3
    wave, transcript = steps[0]
    assert (wave == np.concatenate([train[4][0], train[0][0]])).all()
    assert transcript == train[4][1] + train[0][1]
    assert steps[2][1] == train[2][1]

    short = replace(SMALL_CFG, max_frames=SMALL_CFG.n_frames(len(train[4][0])))
    steps = list(_teacher_steps(train, order[:2], short, join=True))
    assert [t for _, t in steps] == [train[4][1], train[0][1]]


def test_length_curriculum_run_is_deterministic_and_keeps_the_contract(monkeypatch):
    monkeypatch.setattr(bench, "JOIN_FROM_EPOCH", 2)
    monkeypatch.setattr(bench, "CURRICULUM_MIN_UTTERANCES", 5)
    train = make_set(5, seed=37)
    val = make_set(2, seed=38)
    cfg = DistillConfig(epochs=4, base_lr=1e-4, warmup_epochs=1, seed=9)
    m1, h1 = train_teacher(train, val, SMALL_CFG, cfg)
    m2, h2 = train_teacher(train, val, SMALL_CFG, cfg)
    assert h1 == h2
    assert all((a.data == b.data).all() for a, b in zip(m1.params(), m2.params()))
    returned, _ = evaluate(m1, val, [t for _, t in val], ctc)
    assert returned <= min(h.val_loss for h in h1) + 1e-9
    _, h_short = train_teacher(train[:4], val, SMALL_CFG, cfg)

    monkeypatch.setattr(bench, "CURRICULUM_MIN_UTTERANCES", 6)
    _, h_plain = train_teacher(train, val, SMALL_CFG, cfg)
    assert h_plain != h1
    _, h_short_plain = train_teacher(train[:4], val, SMALL_CFG, cfg)
    assert h_short == h_short_plain


# ---------------------------------------------------------------------------
# sweep


def test_sweep_reports_teacher_plus_one_row_per_count(teacher, tiny_sets):
    train, val, eval_set = tiny_sets
    reports = run_tradeoff_sweep(teacher, [1, 2], FAST_CFG, train, val, eval_set)
    assert [r.model for r in reports] == ["teacher", "student-1", "student-2"]
    for r, layers in zip(reports, [2, 1, 2]):
        assert r.layers == layers
        cfg = ModelConfig(
            conv_layers=SMALL_CFG.conv_layers,
            d_model=SMALL_CFG.d_model,
            n_transformer_layers=layers,
            n_heads=SMALL_CFG.n_heads,
            ffn_dim=SMALL_CFG.ffn_dim,
        )
        assert r.params == count_params(cfg)
        assert r.bytes == checkpoint_bytes(cfg)
        assert r.cpu_s > 0


def test_sweep_rejects_counts_beyond_teacher_depth(teacher, tiny_sets):
    train, val, eval_set = tiny_sets
    with pytest.raises(ConfigError):
        run_tradeoff_sweep(teacher, [3], FAST_CFG, train, val, eval_set)
    with pytest.raises(ConfigError):
        run_tradeoff_sweep(teacher, [0], FAST_CFG, train, val, eval_set)


# ---------------------------------------------------------------------------
# initialization and data-size experiments


def test_init_experiment_rejects_full_depth(teacher, tiny_sets):
    train, val, _ = tiny_sets
    with pytest.raises(ConfigError, match="differ"):
        run_init_experiment(teacher, 2, FAST_CFG, train, val)


def test_init_experiment_brings_paired_histories(teacher, tiny_sets):
    train, val, _ = tiny_sets
    alt, last = run_init_experiment(teacher, 1, FAST_CFG, train, val)
    assert len(alt.epochs) == len(last.epochs) == FAST_CFG.epochs
    alt2, last2 = run_init_experiment(teacher, 1, FAST_CFG, train, val)
    assert alt.epochs == alt2.epochs and last.epochs == last2.epochs
    assert alt.initial_val_total == alt2.initial_val_total


def test_data_experiment_validates_sizes(teacher, tiny_sets):
    train, val, _ = tiny_sets
    with pytest.raises(ConfigError, match="nondecreasing"):
        run_data_experiment(teacher, 1, [4, 2], FAST_CFG, train, val)
    with pytest.raises(ConfigError, match="outside"):
        run_data_experiment(teacher, 1, [99], FAST_CFG, train, val)
    assert run_data_experiment(teacher, 1, [], FAST_CFG, train, val) == []


def test_identical_sizes_give_identical_histories(teacher, tiny_sets):
    train, val, _ = tiny_sets
    (s1, h1), (s2, h2) = run_data_experiment(teacher, 1, [3, 3], FAST_CFG, train, val)
    assert s1 == s2 == 3
    assert h1.initial_val_total == h2.initial_val_total
    assert h1.epochs == h2.epochs


# ---------------------------------------------------------------------------
# curves and the three-row table


def test_history_curve_starts_at_the_pretraining_point(teacher, tiny_sets):
    train, val, _ = tiny_sets
    alt, _ = run_init_experiment(teacher, 1, FAST_CFG, train, val)
    points = history_curve(alt)
    assert points[0] == (0, alt.initial_val_total)
    assert len(points) == FAST_CFG.epochs + 1
    assert [x for x, _ in points] == list(range(FAST_CFG.epochs + 1))


def test_curve_files_roundtrip(tmp_path):
    points = [(0, 0.5), (1, 0.25), (2, 0.125)]
    path = tmp_path / "c.dat"
    write_curve(points, path)
    assert path.read_text() == "0 0.5\n1 0.25\n2 0.125\n"


def test_compression_bench_emits_exactly_three_rows(teacher, tiny_sets):
    train, val, eval_set = tiny_sets
    rows = run_compression_bench(teacher, FAST_CFG, 1, train, val, eval_set)
    assert [r.model for r in rows] == ["original", "distilled", "quantized"]
    original, distilled, quantized = rows
    assert original.params == count_params(SMALL_CFG)
    assert distilled.params == quantized.params
    assert distilled.layers == quantized.layers == 1
    assert quantized.bytes < distilled.bytes
    assert quantized.bytes == quantized_checkpoint_bytes(
        ModelConfig(
            conv_layers=SMALL_CFG.conv_layers,
            d_model=SMALL_CFG.d_model,
            n_transformer_layers=1,
            n_heads=SMALL_CFG.n_heads,
            ffn_dim=SMALL_CFG.ffn_dim,
        )
    )


def test_eval_wer_handles_float_and_quantized_models(teacher, tiny_sets):
    _, _, eval_set = tiny_sets
    from smallwav.quantize import quantize_model

    w_float = eval_wer(teacher, eval_set)
    w_quant = eval_wer(quantize_model(teacher), eval_set)
    assert w_float >= 0 and w_quant >= 0


def test_every_scorer_splits_words_at_the_model_boundary():
    model = AcousticModel.init(replace(SMALL_CFG, n_tokens=13), seed=0)
    spec = SynthSpec(
        seed=40, n_utterances=4, tokens_per_utterance=(2, 3), noise_std=0.02, boundary=12
    )
    val = generate_dataset(spec)
    refs = [t for _, t in val]
    hyps = [best_path_decode(model.infer(w)) for w, _ in val]
    expected = 100.0 * wer(refs, hyps, boundary=12).wer
    assert expected != 100.0 * wer(refs, hyps, boundary=11).wer
    _, ctc_wer = evaluate(model, val, refs, ctc)
    _, distill_wer = evaluate(
        model, val, teacher_logits(model, val), lambda s, c, t: objective(t, s, c, FAST_CFG).total
    )
    assert ctc_wer == eval_wer(model, val) == distill_wer == expected
