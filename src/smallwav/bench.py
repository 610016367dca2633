"""Experiment drivers: teacher training, timing, sweeps, reports.

Everything here composes the other modules into runnable studies: train
a CTC teacher on the synthetic task, distill students at several depths,
time and size each model, and emit CSV/plot-data artifacts.  Runs are
deterministic in their seeds except for the wall-clock columns.

Timing methodology, pinned once: wall clock over the full eval set
(forward plus decode), driver loop on a single thread, one warm-up pass
excluded, median over at least three repeats.  Models compared in one
table are timed in interleaved rounds (measure_inference_all).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .ctc import ctc_loss
from .decode import best_path_decode, wer
from .distill import DistillConfig, DistillHistory, distill, fit
from .model import (
    AcousticModel,
    ConfigError,
    LayerSelection,
    ModelConfig,
    count_params,
    init_student,
    sinusoidal_positions,
)
from .quantize import model_size_bytes, prepack, quantize_model
from .table import read_table, write_table, write_text
from .tensor import no_grad

REPORT_COLUMNS = ("model", "layers", "params", "bytes", "cpu_s", "wer")

TEACHER_COLUMNS = ("epoch", "lr", "train_loss", "val_loss", "val_wer")

# First epoch of the length curriculum that trains on joined pairs.  Joins
# wait until a fresh model has left the all-blank plateau, which the lab's
# recipe does by epoch 2-7 on the measured seeds.  Without shortest-first
# warmup, joining from epoch 3 held one seed there for the whole run.
JOIN_FROM_EPOCH = 8

# Smallest training set that train_teacher runs its length curriculum on.
# Below it the plain schedule did better: over init seeds 41-50 the
# curriculum left more 20- and 32-utterance runs on the blank plateau, and
# it tripled the last-epoch val loss of perfbench's 10-utterance train_ctc
# calls.  From 40 to 120 utterances the two were about level, counted in
# runs stuck and runs inside 2% eval WER, and at 160 the curriculum was
# better (CHANGES.md has the table).
CURRICULUM_MIN_UTTERANCES = 40

# Fewest timed passes measure_inference takes its median over.
MIN_REPEATS = 3


@dataclass(frozen=True)
class BenchReport:
    """One row of the size/latency/accuracy table.

    wer is in percent; cpu_s is the median eval-set wall clock from
    measure_inference and the only field that varies between identically
    seeded runs.
    """

    model: str
    layers: int
    params: int
    size_bytes: int
    cpu_s: float
    wer: float

    def __post_init__(self):
        for field in ("layers", "params", "size_bytes", "cpu_s", "wer"):
            if getattr(self, field) < 0:
                raise ConfigError(f"BenchReport.{field} must be nonnegative")


def eval_wer(model, eval_set, boundary: int) -> float:
    """Corpus WER of a model over a dataset, in percent.

    Works on float and quantized models alike; both expose infer().
    """
    refs, hyps = [], []
    for wave, transcript in eval_set:
        refs.append(list(transcript))
        hyps.append(best_path_decode(model.infer(wave)))
    return 100.0 * wer(refs, hyps, boundary=boundary).wer


def measure_inference(model, eval_set, repeats: int = 3) -> float:
    """Median wall-clock seconds for forward+decode over the eval set.

    One untimed pass warms caches first; then the full set runs
    `repeats` times and the median is returned.  The loop itself is
    single-threaded; callers wanting exclusive timing must not run
    anything else concurrently.
    """
    return measure_inference_all([model], eval_set, repeats)[0]


def measure_inference_all(models, eval_set, repeats: int = 3) -> list:
    """measure_inference for several models, their repeats interleaved.

    Each model gets its warm-up pass; then every round times each model
    once, in turn.  The host's speed drifts over seconds (copies of one
    model timed back to back ranged over 100-151 ms on a 2-core VM), so
    timing the models one after another can rank them by when they
    ran.  Interleaved rounds expose every model to the same drift.
    """
    if repeats < MIN_REPEATS:
        raise ConfigError(f"measure_inference: repeats must be >= {MIN_REPEATS}, got {repeats}")

    def one_pass(model):
        for wave, _ in eval_set:
            best_path_decode(model.infer(wave))

    for model in models:
        one_pass(model)
    times = [[] for _ in models]
    for _ in range(repeats):
        for model, row in zip(models, times):
            t0 = time.perf_counter()
            one_pass(model)
            row.append(time.perf_counter() - t0)
    return [float(np.median(row)) for row in times]


# ---------------------------------------------------------------------------
# teacher training


@dataclass(frozen=True)
class TeacherEpoch:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    val_wer: float


def train_teacher(
    train, val, model_config: ModelConfig, cfg: DistillConfig, boundary: int | None = None
) -> tuple:
    """Train a fresh model with CTC loss on the synthetic task.

    Runs distill.fit, the loop distillation runs too (cfg's epochs,
    learning rates, decay and shuffling seed), with the CTC loss and
    this function's step plan.  Returns the snapshot with the lowest
    validation loss and the per-epoch history; train_loss is per
    utterance.

    On a training set of CURRICULUM_MIN_UTTERANCES or more, the run
    follows a length curriculum.  On the lab's 160-utterance set it
    learns the task on every init seed measured, where the plain
    schedule gets some seeds stuck (CHANGES.md has the seed tables).
    On the plain schedule a fresh model either stalls on the all-blank
    plateau and then fits the training set by position, or learns the
    tones but miscounts runs of a repeated token in the last word.  The
    curriculum has three parts:

    - The positional table starts from sinusoids
      (sinusoidal_positions), not small noise, so every position has a
      code from the first step.  A noise table is written in row by
      row, and rows past the usual utterance length stay undertrained.
    - The warmup epochs visit utterances shortest first, which gets the
      model off the blank plateau sooner (SortaGrad, Amodei et al.
      2016, "Deep Speech 2").
    - From epoch JOIN_FROM_EPOCH on, each step trains on two
      consecutive utterances of the shuffled order joined end to end,
      when they fit in max_frames.  The join is exact for the
      transcript and puts every stretch of audio at new absolute
      positions, so runs of a repeated token are counted at positions
      the plain set rarely reaches.  Joins wait that long because long
      inputs hold a model on the blank plateau.

    A smaller training set gets the plain schedule, which did better
    there.

    Returns:
        (AcousticModel, list of TeacherEpoch)
    """
    if boundary is None:
        boundary = model_config.n_tokens - 1
    if not train or not val:
        raise ConfigError("train_teacher: train and validation sets must be nonempty")
    curriculum = len(train) >= CURRICULUM_MIN_UTTERANCES
    model = AcousticModel.init(model_config, seed=cfg.seed)
    if curriculum:
        pos = sinusoidal_positions(model_config.max_frames, model_config.d_model)
        model.parts["pos"].data[...] = pos

    def steps(epoch, order):
        if curriculum and epoch < cfg.warmup_epochs:
            order = sorted(order, key=lambda i: len(train[i][0]))
        return _teacher_steps(train, order, model_config, curriculum and epoch >= JOIN_FROM_EPOCH)

    def terms(m, step):
        wave, transcript = step
        return (ctc_loss(m.forward(wave)[0], transcript),)

    best, _, rows = fit(
        model, len(train), cfg, steps, terms, lambda m: _teacher_val(m, val, boundary)
    )
    return best, [TeacherEpoch(*row) for row in rows]


def _teacher_steps(train, order, config: ModelConfig, join: bool):
    """(waveform, transcript) per optimizer step, visiting train in order.

    With join, consecutive pairs are concatenated, waves and
    transcripts alike; a pair too long for config.max_frames, and an
    odd one out at the end, go alone.
    """
    k = 0
    while k < len(order):
        wave, transcript = train[order[k]]
        k += 1
        if join and k < len(order):
            wave2, transcript2 = train[order[k]]
            joined = np.concatenate([wave, wave2])
            if config.n_frames(joined.shape[0]) <= config.max_frames:
                wave, transcript = joined, list(transcript) + list(transcript2)
                k += 1
        yield wave, transcript


def _teacher_val(model: AcousticModel, val, boundary: int) -> tuple:
    """Mean CTC loss and WER (percent) over val, one forward per utterance."""
    total = 0.0
    refs, hyps = [], []
    with no_grad():
        for wave, transcript in val:
            logits, _ = model.forward(wave)
            total += ctc_loss(logits, transcript).item()
            refs.append(list(transcript))
            hyps.append(best_path_decode(logits.data))
    return total / len(val), 100.0 * wer(refs, hyps, boundary=boundary).wer


def write_teacher_history_csv(history, path) -> None:
    rows = [
        (r.epoch, float(r.lr), float(r.train_loss), float(r.val_loss), float(r.val_wer))
        for r in history
    ]
    write_table(path, TEACHER_COLUMNS, rows)


# ---------------------------------------------------------------------------
# experiment drivers


def run_tradeoff_sweep(
    teacher: AcousticModel,
    layer_counts,
    cfg: DistillConfig,
    train,
    val,
    eval_set,
    repeats: int = 3,
) -> list:
    """Distill one student per layer count and table them with the teacher.

    Students use the alternating selection.  All models are timed
    together once the students are trained (measure_inference_all).
    """
    counts = [int(k) for k in layer_counts]
    depth = teacher.config.n_transformer_layers
    for k in counts:
        if not 1 <= k <= depth:
            raise ConfigError(f"sweep: layer count {k} outside [1, {depth}]")
    boundary = teacher.config.n_tokens - 1

    students = []
    for k in counts:
        student = init_student(teacher, LayerSelection.alternating(k))
        best, _ = distill(teacher, student, train, val, cfg)
        students.append(best)
    named = [("teacher", teacher)] + [(f"student-{k}", s) for k, s in zip(counts, students)]
    return _report_rows(named, eval_set, boundary, repeats)


def _report_rows(named_models, eval_set, boundary, repeats) -> list:
    """One BenchReport per (name, model), timed together."""
    models = [model for _, model in named_models]
    seconds = measure_inference_all(models, eval_set, repeats)
    rows = []
    for (name, model), cpu_s in zip(named_models, seconds):
        rows.append(
            BenchReport(
                model=name,
                layers=model.config.n_transformer_layers,
                params=count_params(model.config),
                size_bytes=model_size_bytes(model),
                cpu_s=cpu_s,
                wer=eval_wer(model, eval_set, boundary),
            )
        )
    return rows


def run_init_experiment(teacher: AcousticModel, k: int, cfg: DistillConfig, train, val) -> tuple:
    """Distill the same depth from alternating vs last-k picks.

    Both runs share the data, config and seed; only the initialization
    differs.  k must be strictly below the teacher depth, otherwise the
    two selections are the same layers.

    Returns:
        (alternating history, last-k history)
    """
    depth = teacher.config.n_transformer_layers
    if not 1 <= k < depth:
        raise ConfigError(
            f"init experiment: k must be in [1, {depth}) so the strategies differ, got {k}"
        )
    histories = []
    for sel in (LayerSelection.alternating(k), LayerSelection.last_k(k)):
        student = init_student(teacher, sel)
        _, hist = distill(teacher, student, train, val, cfg)
        histories.append(hist)
    return tuple(histories)


def run_data_experiment(
    teacher: AcousticModel, k: int, sizes, cfg: DistillConfig, train, val
) -> list:
    """Distill identical students on nested prefixes of the training set.

    sizes must be nondecreasing and within the dataset; the validation
    set stays fixed, so curves are comparable across sizes.

    Returns:
        list of (size, DistillHistory), one per requested size
    """
    sizes = [int(s) for s in sizes]
    for a, b in zip(sizes, sizes[1:]):
        if b < a:
            raise ConfigError(f"data experiment: sizes must be nondecreasing, got {sizes}")
    for s in sizes:
        if not 1 <= s <= len(train):
            raise ConfigError(
                f"data experiment: size {s} outside the {len(train)}-utterance train set"
            )
    out = []
    for s in sizes:
        student = init_student(teacher, LayerSelection.alternating(k))
        _, hist = distill(teacher, student, train[:s], val, cfg)
        out.append((s, hist))
    return out


# ---------------------------------------------------------------------------
# report and plot-data emission


def emit_report(reports, path) -> None:
    """Write BenchReports as CSV with the fixed six-column header."""
    rows = [
        (r.model, r.layers, r.params, r.size_bytes, float(r.cpu_s), float(r.wer))
        for r in reports
    ]
    write_table(path, REPORT_COLUMNS, rows)


def read_report(path) -> list:
    """Parse emit_report output back into BenchReport records."""
    return [
        BenchReport(model, int(layers), int(params), int(nbytes), float(cpu_s), float(w))
        for model, layers, params, nbytes, cpu_s, w in read_table(path, REPORT_COLUMNS)
    ]


def history_curve(history: DistillHistory) -> list:
    """(epoch, validation loss) points, starting from the pre-training value."""
    points = [(0, history.initial_val_total)]
    for row in history.epochs:
        points.append((row.epoch + 1, row.val_total))
    return points


def write_curve(points, path) -> None:
    """Plot-data file: one "x y" pair per line."""
    write_text(path, "\n".join(f"{x} {y!r}" for x, y in points) + "\n")


# ---------------------------------------------------------------------------
# the three-row compression table


def run_compression_bench(
    teacher: AcousticModel,
    cfg: DistillConfig,
    student_layers: int,
    train,
    val,
    eval_set,
    repeats: int = 3,
) -> list:
    """Original vs distilled vs distilled+quantized, one row each."""
    boundary = teacher.config.n_tokens - 1
    student = init_student(teacher, LayerSelection.alternating(student_layers))
    best, _ = distill(teacher, student, train, val, cfg)
    quantized = prepack(quantize_model(best))
    named = [("original", teacher), ("distilled", best), ("quantized", quantized)]
    return _report_rows(named, eval_set, boundary, repeats)
