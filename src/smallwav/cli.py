"""Command-line front end.

Ten subcommands cover the full workflow: synthesize data, train the
CTC teacher, distill a student, quantize or prune it, evaluate any
checkpoint, and run the benchmark table plus the three experiment
drivers.  Every subcommand takes --seed/--config/--out; with a fixed
seed the artifacts are byte-reproducible except for wall-clock columns.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    BenchReport,
    TeacherEpoch,
    eval_wer,
    history_curve,
    run_compression_bench,
    run_data_experiment,
    run_init_experiment,
    run_tradeoff_sweep,
    train_teacher,
    write_curve,
)
from .config import (
    distill_config_from,
    driver_value,
    effective_seed,
    eval_split,
    experiment_datasets,
    model_config_from,
    parse_config,
    teacher_config_from,
    time_repeats_from,
)
from .data import save_dataset
from .decode import best_path_decode, token_error_rate, wer, write_transcripts
from .distill import EpochStats, distill
from .model import (
    CheckpointError,
    ConfigError,
    LayerSelection,
    SelectionError,
    init_student,
    load_model,
    save_model,
)
from .prune import PruneRow, SensitivityMap, default_sensitivity_map, prune_model
from .quantize import (
    QMAGIC,
    load_quantized_model,
    model_size_bytes,
    prepack,
    quantize_model,
    save_quantized_model,
)
from .table import write_records, write_table


def _int_list(text: str) -> list:
    """The value of a comma-list flag (--indices, --layers, --sizes)."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}"
        ) from None


def _sensitivity(text: str) -> tuple:
    """The (pattern, value) of one --sensitivity PATTERN=VALUE."""
    pattern, _, value = text.partition("=")
    try:
        return pattern, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PATTERN=VALUE with a number for VALUE, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="run seed (default 42)")
    common.add_argument("--config", default=None, help="key=value config file")
    common.add_argument("--out", default=".", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="smallwav",
        description="distill, quantize and prune a small CTC acoustic model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-data", parents=[common], help="write train/val/eval datasets")

    sub.add_parser("train-teacher", parents=[common], help="train the CTC teacher")

    p = sub.add_parser("distill", parents=[common], help="distill a student")
    p.add_argument("--teacher", default=None, help="teacher checkpoint (.swav)")
    p.add_argument("--layers", type=int, default=None, help="student transformer depth")
    p.add_argument(
        "--select",
        choices=("alternating", "last_k", "explicit"),
        default="alternating",
        help="which teacher layers initialize the student",
    )
    p.add_argument(
        "--indices", type=_int_list, default=None, help="comma list for --select explicit"
    )

    p = sub.add_parser("quantize", parents=[common], help="int8-quantize a checkpoint")
    p.add_argument("--model", default=None, help="float checkpoint (.swav)")

    p = sub.add_parser("prune", parents=[common], help="magnitude-prune a checkpoint")
    p.add_argument("--model", default=None, help="float checkpoint (.swav)")
    p.add_argument(
        "--sensitivity",
        type=_sensitivity,
        action="append",
        default=[],
        metavar="PATTERN=VALUE",
        help="sensitivity for a layer-name pattern (repeatable)",
    )
    p.add_argument(
        "--default-sensitivity",
        type=float,
        default=None,
        help="sensitivity for layers no pattern matches",
    )

    p = sub.add_parser("eval", parents=[common], help="report WER of any checkpoint")
    p.add_argument("--model", default=None, help=".swav or .swq8 checkpoint")

    p = sub.add_parser("bench", parents=[common], help="original/distilled/quantized table")
    p.add_argument("--layers", type=int, default=None, help="student transformer depth")

    p = sub.add_parser("sweep-layers", parents=[common], help="depth/accuracy tradeoff")
    p.add_argument("--teacher", default=None, help="teacher checkpoint (.swav)")
    p.add_argument(
        "--layers", type=_int_list, default=None, help="comma list of depths (default all)"
    )

    p = sub.add_parser("exp-init", parents=[common], help="alternating vs last-k picks")
    p.add_argument("--teacher", default=None, help="teacher checkpoint (.swav)")
    p.add_argument("--k", type=int, default=None, help="student depth (< teacher depth)")

    p = sub.add_parser("exp-data", parents=[common], help="distill on nested subsets")
    p.add_argument("--teacher", default=None, help="teacher checkpoint (.swav)")
    p.add_argument("--k", type=int, default=None, help="student transformer depth")
    p.add_argument("--sizes", type=_int_list, default=None, help="comma list of train-set sizes")

    return parser


def _setup(args) -> tuple:
    cfg = parse_config(args.config) if args.config else {}
    seed = effective_seed(cfg, args.seed)
    os.makedirs(args.out, exist_ok=True)
    return cfg, seed, args.out


def _checkpoint(out, name, override) -> str:
    """The checkpoint to load, override or name in out, which must exist."""
    path = override or os.path.join(out, name)
    if not os.path.exists(path):
        if override:
            raise CheckpointError(f"no checkpoint at {path}")
        kind = os.path.splitext(name)[0]
        writer = {"teacher": "train-teacher", "student": "distill"}[kind]
        raise CheckpointError(f"no {kind} checkpoint at {path}; run {writer} first")
    return path


def cmd_gen_data(args) -> int:
    cfg, seed, out = _setup(args)
    train, val, eval_set = experiment_datasets(cfg, seed)
    boundary = model_config_from(cfg).boundary
    for name, ds in (("train", train), ("val", val), ("eval", eval_set)):
        save_dataset(os.path.join(out, f"{name}.npz"), ds)
        write_transcripts(
            os.path.join(out, f"{name}_transcripts.txt"),
            [t for _, t in ds],
            boundary=boundary,
        )
        print(f"{name}: {len(ds)} utterances -> {name}.npz")
    return 0


def cmd_train_teacher(args) -> int:
    cfg, seed, out = _setup(args)
    train, val, eval_set = experiment_datasets(cfg, seed)
    model_cfg = model_config_from(cfg)
    teacher_cfg = teacher_config_from(cfg, seed)
    model, history = train_teacher(train, val, model_cfg, teacher_cfg)
    save_model(model, os.path.join(out, "teacher.swav"))
    write_records(os.path.join(out, "teacher_history.csv"), TeacherEpoch, history)
    final = history[-1]
    print(
        f"teacher: {model.count_params()} params, "
        f"val loss {final.val_loss:.4f}, val WER {final.val_wer:.2f}%"
    )
    print(f"eval WER {eval_wer(model, eval_set):.2f}%")
    return 0


def _selection(args, cfg: dict) -> LayerSelection:
    if args.select == "explicit":
        if args.indices is None:
            raise SelectionError("--select explicit needs --indices")
        return LayerSelection.explicit(args.indices)
    layers = args.layers if args.layers is not None else driver_value(cfg, "student_layers")
    if args.select == "last_k":
        return LayerSelection.last_k(layers)
    return LayerSelection.alternating(layers)


def cmd_distill(args) -> int:
    cfg, seed, out = _setup(args)
    teacher = load_model(_checkpoint(out, "teacher.swav", args.teacher))
    student = init_student(teacher, _selection(args, cfg))
    train, val, eval_set = experiment_datasets(cfg, seed, teacher)
    best, history = distill(teacher, student, train, val, distill_config_from(cfg, seed))
    save_model(best, os.path.join(out, "student.swav"))
    write_records(os.path.join(out, "history.csv"), EpochStats, history.epochs)
    final = history.final()
    print(
        f"student: {best.config.n_transformer_layers} layers, "
        f"val loss {final.val_total:.4f}, val WER {final.val_wer:.2f}%"
    )
    print(f"eval WER {eval_wer(best, eval_set):.2f}%")
    return 0


def cmd_quantize(args) -> int:
    _, _, out = _setup(args)
    model = load_model(_checkpoint(out, "student.swav", args.model))
    quantized = quantize_model(model)
    save_quantized_model(quantized, os.path.join(out, "model.swq8"))
    fbytes = model_size_bytes(model)
    qbytes = model_size_bytes(quantized)
    print(f"float {fbytes} bytes -> int8 {qbytes} bytes ({fbytes / qbytes:.2f}x smaller)")
    return 0


def cmd_prune(args) -> int:
    cfg, seed, out = _setup(args)
    model = load_model(_checkpoint(out, "student.swav", args.model))
    eval_set = eval_split(cfg, seed, model)
    if args.sensitivity or args.default_sensitivity is not None:
        smap = SensitivityMap(args.sensitivity, default=args.default_sensitivity)
    else:
        smap = default_sensitivity_map(model.config)
    pruned, report = prune_model(model, smap)
    save_model(pruned, os.path.join(out, "pruned.swav"))
    write_records(os.path.join(out, "sparsity.csv"), PruneRow, report.rows)
    print(f"global sparsity {100.0 * report.global_sparsity:.1f}%")
    print(f"eval WER {eval_wer(pruned, eval_set):.2f}%")
    return 0


def _load_any(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == QMAGIC:
        return prepack(load_quantized_model(path))
    return load_model(path)


def cmd_eval(args) -> int:
    cfg, seed, out = _setup(args)
    path = _checkpoint(out, "student.swav", args.model)
    model = _load_any(path)
    eval_set = eval_split(cfg, seed, model)
    boundary = model.config.boundary
    refs = [list(t) for _, t in eval_set]
    hyps = [best_path_decode(model.infer(w)) for w, _ in eval_set]
    report = wer(refs, hyps, boundary=boundary)
    stem = os.path.splitext(os.path.basename(path))[0]
    write_transcripts(os.path.join(out, f"eval_{stem}_transcripts.txt"), hyps, boundary=boundary)
    print(report)
    print(f"token error rate {100.0 * token_error_rate(refs, hyps):.2f}%")
    return 0


def cmd_bench(args) -> int:
    cfg, seed, out = _setup(args)
    teacher_cfg = teacher_config_from(cfg, seed)
    student_cfg = distill_config_from(cfg, seed)
    repeats = time_repeats_from(cfg)
    model_cfg = model_config_from(cfg)
    depth = model_cfg.n_transformer_layers
    layers = args.layers if args.layers is not None else driver_value(cfg, "student_layers")
    if not 1 <= layers <= depth:
        raise ConfigError(f"bench: student depth {layers} outside [1, {depth}]")
    train, val, eval_set = experiment_datasets(cfg, seed)
    teacher, _ = train_teacher(train, val, model_cfg, teacher_cfg)
    reports = run_compression_bench(
        teacher, student_cfg, layers, train, val, eval_set, repeats=repeats
    )
    write_records(os.path.join(out, "bench.csv"), BenchReport, reports)
    for r in reports:
        print(
            f"{r.model:>9}: {r.layers} layers, {r.params} params, "
            f"{r.bytes} bytes, {r.cpu_s * 1e3:.1f} ms, WER {r.wer:.2f}%"
        )
    return 0


def cmd_sweep_layers(args) -> int:
    cfg, seed, out = _setup(args)
    student_cfg = distill_config_from(cfg, seed)
    repeats = time_repeats_from(cfg)
    teacher = load_model(_checkpoint(out, "teacher.swav", args.teacher))
    depth = teacher.config.n_transformer_layers
    counts = args.layers or list(range(1, depth + 1))
    train, val, eval_set = experiment_datasets(cfg, seed, teacher)
    reports = run_tradeoff_sweep(
        teacher, counts, student_cfg, train, val, eval_set, repeats=repeats
    )
    write_records(os.path.join(out, "sweep.csv"), BenchReport, reports)
    students = [r for r in reports if r.model != "teacher"]
    write_curve([(r.layers, r.cpu_s) for r in students], os.path.join(out, "sweep_time.dat"))
    write_curve([(r.layers, r.wer) for r in students], os.path.join(out, "sweep_wer.dat"))
    for r in reports:
        print(f"{r.model:>10}: {r.cpu_s * 1e3:.1f} ms, WER {r.wer:.2f}%")
    return 0


def cmd_exp_init(args) -> int:
    cfg, seed, out = _setup(args)
    teacher = load_model(_checkpoint(out, "teacher.swav", args.teacher))
    depth = teacher.config.n_transformer_layers
    k = args.k if args.k is not None else min(driver_value(cfg, "student_layers"), depth - 1)
    train, val, _ = experiment_datasets(cfg, seed, teacher)
    alt, last = run_init_experiment(teacher, k, distill_config_from(cfg, seed), train, val)
    for name, label, hist in (
        ("init_alternating", "alternating", alt),
        ("init_last_k", f"last-{k}", last),
    ):
        write_records(os.path.join(out, f"{name}.csv"), EpochStats, hist.epochs)
        write_curve(history_curve(hist), os.path.join(out, f"{name}.dat"))
        final = hist.final()
        print(f"{label}: final val loss {final.val_total:.4f}, WER {final.val_wer:.2f}%")
    return 0


def cmd_exp_data(args) -> int:
    cfg, seed, out = _setup(args)
    teacher = load_model(_checkpoint(out, "teacher.swav", args.teacher))
    k = args.k if args.k is not None else driver_value(cfg, "student_layers")
    train, val, _ = experiment_datasets(cfg, seed, teacher)
    n = len(train)
    sizes = args.sizes or sorted({max(1, n // 4), max(1, n // 2), n})
    results = run_data_experiment(teacher, k, sizes, distill_config_from(cfg, seed), train, val)
    rows = []
    for size, hist in results:
        write_curve(history_curve(hist), os.path.join(out, f"data_{size}.dat"))
        final = hist.final()
        rows.append((size, float(final.val_total), float(final.val_wer)))
        print(f"{size:>5} utterances: val loss {final.val_total:.4f}, WER {final.val_wer:.2f}%")
    write_table(
        os.path.join(out, "data_summary.csv"), ("size", "final_val_total", "final_val_wer"), rows
    )
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-teacher": cmd_train_teacher,
    "distill": cmd_distill,
    "quantize": cmd_quantize,
    "prune": cmd_prune,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "sweep-layers": cmd_sweep_layers,
    "exp-init": cmd_exp_init,
    "exp-data": cmd_exp_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SelectionError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
