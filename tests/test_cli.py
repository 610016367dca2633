"""Config file parsing and the command-line workflow."""

import os

import numpy as np
import pytest

from smallwav import cli, config
from smallwav.cli import main
from smallwav.config import (
    distill_config_from,
    effective_seed,
    experiment_datasets,
    model_config_from,
    parse_config,
    synth_spec_from,
)
from smallwav.data import SynthSpec, generate_dataset, load_dataset
from smallwav.distill import distill
from smallwav.model import (
    AcousticModel,
    ConfigError,
    LayerSelection,
    init_student,
    load_model,
    save_model,
)
from smallwav.quantize import quantize_model, save_quantized_model
from smallwav.table import read_table

SPARSITY_COLUMNS = ("layer", "group", "sensitivity", "threshold", "pruned", "total", "sparsity")

TINY_CFG_TEXT = """
# micro model, micro run
conv_layers = ((8, 6, 2), (16, 4, 2))
d_model = 16
n_transformer_layers = 2
n_heads = 2
ffn_dim = 32

n_utterances = 4
val_utterances = 2
eval_utterances = 2
tokens_per_utterance = (2, 3)
noise_std = 0.02

epochs = 1
warmup_epochs = 0
teacher_epochs = 1
teacher_warmup = 0
student_layers = 1
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG_TEXT)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_reads_literals(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("d_model = 32\nepochs=3\n\n# comment\nadam_betas = (0.9, 0.95)\n")
    cfg = parse_config(path)
    assert cfg == {"d_model": 32, "epochs": 3, "adam_betas": (0.9, 0.95)}


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("dmodel = 32\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)
    path.write_text("batch_size = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(path)


def test_parse_config_rejects_garbage_values(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("epochs = three\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config(path)
    path.write_text("no equals sign here\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_parse_config_reports_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/definitely/not/here.cfg")


WRONG_TYPES = [
    ("gen-data", "conv_layers = 5"),
    ("gen-data", "tokens_per_utterance = 3"),
    ("gen-data", "word_len = (1,)"),
    ("gen-data", "seed = 'a'"),
    ("gen-data", "noise_std = 'a'"),
    ("train-teacher", "adam_betas = 0.9"),
    ("gen-data", "student_layers = 1.5"),
    ("gen-data", "val_utterances = 2.7"),
    ("gen-data", "n_tokens = 2.5"),
]


@pytest.mark.parametrize(
    "command, line", WRONG_TYPES, ids=[line.split(" =")[0] for _, line in WRONG_TYPES]
)
def test_a_config_value_of_the_wrong_type_exits_2_before_any_work(command, line, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and line in err
    assert not out.exists()


def test_parse_config_takes_every_form_of_a_default_type(tmp_path):
    path = tmp_path / "a.cfg"
    text = "peak_lr = None\nbase_lr = 1\nconv_layers = [[16, 4, 2]]\nword_len = [1, 2]\n"
    path.write_text(text + "frequencies = {1: 300, 2: 450.5}\n")
    assert parse_config(path) == {
        "peak_lr": None,
        "base_lr": 1,
        "conv_layers": [[16, 4, 2]],
        "word_len": [1, 2],
        "frequencies": {1: 300, 2: 450.5},
    }


def test_every_config_key_is_documented():
    with open(os.path.join(os.path.dirname(__file__), "..", "docs", "formats.md")) as fh:
        section = fh.read().split("## Run configuration files")[1].split("\n## ")[0]
    assert sorted(k for k in config.KNOWN_KEYS if f"`{k}`" not in section) == []


def test_config_seed_beats_the_flag():
    assert effective_seed({"seed": 7}, 42) == 7
    assert effective_seed({}, 42) == 42


def test_builders_pick_only_their_fields():
    cfg = {"d_model": 16, "conv_layers": ((16, 4, 2),), "epochs": 3, "noise_std": 0.1}
    mc = model_config_from(cfg)
    assert mc.d_model == 16 and mc.n_heads == 4
    dc = distill_config_from(cfg, seed=5)
    assert dc.epochs == 3 and dc.seed == 5
    spec = synth_spec_from(cfg, seed=5, n_utterances=2)
    assert spec.noise_std == 0.1 and spec.n_utterances == 2 and spec.seed == 5


def test_experiment_datasets_split_seeds():
    cfg = {"n_utterances": 3, "val_utterances": 2, "eval_utterances": 2, "noise_std": 0.02}
    train, val, eval_set = experiment_datasets(cfg, seed=9)
    assert (len(train), len(val), len(eval_set)) == (3, 2, 2)
    expect_val = generate_dataset(SynthSpec(seed=10, n_utterances=2, noise_std=0.02))
    assert all(
        (a[0] == b[0]).all() and a[1] == b[1] for a, b in zip(val, expect_val)
    )


def test_experiment_datasets_split_words_at_the_last_token_of_the_model():
    cfg = {"n_tokens": 13, "n_utterances": 8, "val_utterances": 4, "eval_utterances": 4}
    for ds in experiment_datasets(cfg, seed=9):
        tokens = {t for _, transcript in ds for t in transcript}
        assert 12 in tokens and 11 not in tokens


# ---------------------------------------------------------------------------
# subcommands


def test_gen_data_writes_all_three_splits(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert main(["gen-data", "--config", tiny_cfg, "--out", out]) == 0
    for name, count in (("train", 4), ("val", 2), ("eval", 2)):
        ds = load_dataset(os.path.join(out, f"{name}.npz"))
        assert len(ds) == count
        assert os.path.exists(os.path.join(out, f"{name}_transcripts.txt"))


def test_workflow_train_distill_quantize_prune_eval(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train-teacher", "--config", tiny_cfg, "--out", out]) == 0
    teacher = load_model(os.path.join(out, "teacher.swav"))
    assert teacher.config.n_transformer_layers == 2
    assert os.path.exists(os.path.join(out, "teacher_history.csv"))

    assert main(["distill", "--config", tiny_cfg, "--out", out]) == 0
    student = load_model(os.path.join(out, "student.swav"))
    assert student.config.n_transformer_layers == 1
    assert os.path.exists(os.path.join(out, "history.csv"))

    assert main(["quantize", "--config", tiny_cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "model.swq8"))

    assert main(["prune", "--config", tiny_cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "pruned.swav"))
    assert os.path.exists(os.path.join(out, "sparsity.csv"))

    capsys.readouterr()
    model_path = os.path.join(out, "model.swq8")
    assert main(["eval", "--config", tiny_cfg, "--out", out, "--model", model_path]) == 0
    shown = capsys.readouterr().out
    assert "WER" in shown and "token error rate" in shown
    assert os.path.exists(os.path.join(out, "eval_model_transcripts.txt"))

    assert main(["sweep-layers", "--config", tiny_cfg, "--out", out, "--layers", "1"]) == 0
    assert main(["exp-init", "--config", tiny_cfg, "--out", out, "--k", "1"]) == 0
    assert main(["exp-data", "--config", tiny_cfg, "--out", out, "--sizes", "2"]) == 0
    student_history = "epoch,lr,train_total,train_distill,train_feature,val_total,val_wer"
    headers = {
        "data_summary.csv": "size,final_val_total,final_val_wer",
        "history.csv": student_history,
        "init_alternating.csv": student_history,
        "init_last_k.csv": student_history,
        "sparsity.csv": ",".join(SPARSITY_COLUMNS),
        "sweep.csv": "model,layers,params,bytes,cpu_s,wer",
        "teacher_history.csv": "epoch,lr,train_loss,val_loss,val_wer",
    }
    tables = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    assert tables == sorted(headers)
    for name in tables:
        with open(os.path.join(out, name), "rb") as fh:
            text = fh.read()
        assert b"\r" not in text, name
        assert text.decode().split("\n")[0] == headers[name], name


def test_eval_of_two_checkpoints_leaves_one_transcript_file_each(tiny_cfg, tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    model = AcousticModel.init(model_config_from(parse_config(tiny_cfg)), seed=0)
    save_model(model, str(out / "student.swav"))
    save_quantized_model(quantize_model(model), str(out / "model.swq8"))
    assert main(["eval", "--config", tiny_cfg, "--out", str(out)]) == 0
    model_path = str(out / "model.swq8")
    assert main(["eval", "--config", tiny_cfg, "--out", str(out), "--model", model_path]) == 0
    dumps = sorted(f for f in os.listdir(out) if f.endswith("_transcripts.txt"))
    assert dumps == ["eval_model_transcripts.txt", "eval_student_transcripts.txt"]


def test_prune_reports_a_pattern_that_holds_a_comma(tiny_cfg, tmp_path):
    # "[0,1]" is an fnmatch character class, so the pattern picks layer0.wq
    # and layer1.wq; the comma must stay inside the report's group cell.
    out = tmp_path / "run"
    out.mkdir()
    model_path = str(out / "m.swav")
    save_model(AcousticModel.init(model_config_from(parse_config(tiny_cfg)), seed=0), model_path)
    args = ["--sensitivity", "layer[0,1].wq=0.3", "--default-sensitivity", "0"]
    assert main(["prune", "--config", tiny_cfg, "--out", str(out), "--model", model_path] + args) == 0
    rows = read_table(out / "sparsity.csv", SPARSITY_COLUMNS)
    assert all(len(r) == len(SPARSITY_COLUMNS) for r in rows)
    picked = [(r[0], r[2]) for r in rows if r[1] == "layer[0,1].wq"]
    assert picked == [("layer0.wq", "0.3"), ("layer1.wq", "0.3")]


def test_distill_without_teacher_fails_cleanly(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "empty")
    assert main(["distill", "--config", tiny_cfg, "--out", out]) == 2
    assert "train-teacher first" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, command",
    [
        ("teacher_epochs", "train-teacher"),
        ("epochs", "distill"),
        ("epochs", "exp-init"),
        ("epochs", "exp-data"),
    ],
)
def test_zero_epochs_is_a_config_error(tiny_cfg, tmp_path, capsys, key, command):
    path = tmp_path / "zero.cfg"
    path.write_text(open(tiny_cfg).read() + f"{key} = 0\n")
    out = tmp_path / "run"
    out.mkdir()
    teacher = AcousticModel.init(model_config_from(parse_config(path)), seed=0)
    save_model(teacher, out / "teacher.swav")
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {key} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "sweep-layers"])
def test_too_few_time_repeats_fail_before_training(
    tiny_cfg, tmp_path, capsys, monkeypatch, command
):
    path = tmp_path / "repeats.cfg"
    path.write_text(open(tiny_cfg).read() + "time_repeats = 1\n")
    out = tmp_path / "run"
    out.mkdir()
    teacher = AcousticModel.init(model_config_from(parse_config(path)), seed=0)
    save_model(teacher, out / "teacher.swav")

    def no_training(*args, **kwargs):
        raise AssertionError("training started before time_repeats was checked")

    for name in ("train_teacher", "run_compression_bench", "run_tradeoff_sweep"):
        monkeypatch.setattr(cli, name, no_training)
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "error: time_repeats must be >= 3, got 1" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["teacher.swav"]


@pytest.mark.parametrize(
    "extra, argv",
    [("", ["--layers", "0"]), ("", ["--layers", "3"]), ("student_layers = 3\n", [])],
    ids=["--layers 0", "--layers 3", "student_layers = 3"],
)
def test_a_student_depth_outside_the_teacher_fails_before_training(
    tiny_cfg, tmp_path, capsys, monkeypatch, extra, argv
):
    path = tmp_path / "depth.cfg"
    path.write_text(open(tiny_cfg).read() + extra)

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the student depth was checked")

    monkeypatch.setattr(cli, "train_teacher", no_training)
    out = tmp_path / "run"
    assert main(["bench", "--config", str(path), "--out", str(out)] + argv) == 2
    depth = argv[-1] if argv else "3"
    assert f"error: bench: student depth {depth} outside [1, 2]" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_a_boundary_key_fails_before_any_file_is_written(tiny_cfg, tmp_path, capsys):
    path = tmp_path / "boundary.cfg"
    path.write_text(open(tiny_cfg).read() + "n_tokens = 13\nboundary = 12\n")
    out = tmp_path / "run"
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 2
    assert "unknown key 'boundary'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra", ["n_tokens = 8", "n_tokens = 11", "frequencies = {1: 1000.0, 12: 2000.0}"]
)
def test_tones_that_reach_the_boundary_fail_before_training(
    tiny_cfg, tmp_path, capsys, monkeypatch, extra
):
    path = tmp_path / "tones.cfg"
    path.write_text(open(tiny_cfg).read() + extra + "\n")

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the tone ids were checked")

    monkeypatch.setattr(cli, "train_teacher", no_training)
    out = tmp_path / "run"
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 2
    assert "outside [1, n_tokens - 1 = " in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "extra, message",
    [
        ("val_utterances = 0", "val_utterances must be >= 1, got 0"),
        ("eval_utterances = 0", "eval_utterances must be >= 1, got 0"),
        ("max_frames = 10", "train utterance 0 needs 38 frames; max_frames is 10"),
        ("segment_len = 2", "train utterance 0: waveform of 4 samples too short for conv"),
        ("segment_len = 6", "train utterance 0: CTC needs 2 frames, the conv stack gives 1"),
    ],
    ids=["no val", "no eval", "past max_frames", "short for the conv", "short for CTC"],
)
def test_data_the_model_cannot_train_on_fails_before_any_work(
    tiny_cfg, tmp_path, capsys, monkeypatch, extra, message
):
    path = tmp_path / "data.cfg"
    path.write_text(open(tiny_cfg).read() + extra + "\n")

    def no_training(*args, **kwargs):
        raise AssertionError("training started before the data was checked")

    monkeypatch.setattr(cli, "train_teacher", no_training)
    out = tmp_path / "run"
    assert main(["train-teacher", "--config", str(path), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["distill"],
        ["prune"],
        ["eval"],
        ["eval", "--model", "model.swq8"],
        ["sweep-layers"],
        ["exp-init", "--k", "1"],
        ["exp-data"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_checkpoint_in_another_token_layout_fails_before_any_work(
    tiny_cfg, tmp_path, capsys, monkeypatch, argv
):
    out = tmp_path / "run"
    out.mkdir()
    model = AcousticModel.init(model_config_from({**parse_config(tiny_cfg), "n_tokens": 13}))
    for name in ("teacher.swav", "student.swav"):
        save_model(model, out / name)
    save_quantized_model(quantize_model(model), out / "model.swq8")
    argv = [part if part != "model.swq8" else str(out / part) for part in argv]

    def no_data(*args, **kwargs):
        raise AssertionError("data was built before the token layouts were compared")

    monkeypatch.setattr(config, "generate_dataset", no_data)
    assert main(argv + ["--config", tiny_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint has n_tokens = 13" in err
    assert "config builds data with n_tokens = 12" in err
    assert sorted(os.listdir(out)) == ["model.swq8", "student.swav", "teacher.swav"]


@pytest.mark.parametrize(
    "argv, split, frames",
    [
        (["distill"], "train", 38),
        (["prune"], "eval", 78),
        (["eval"], "eval", 78),
        (["eval", "--model", "model.swq8"], "eval", 78),
        (["sweep-layers"], "train", 38),
        (["exp-init", "--k", "1"], "train", 38),
        (["exp-data"], "train", 38),
    ],
    ids=[
        "distill",
        "prune",
        "eval",
        "eval --model model.swq8",
        "sweep-layers",
        "exp-init --k 1",
        "exp-data",
    ],
)
def test_data_the_checkpoint_cannot_run_fails_before_any_work(
    tiny_cfg, tmp_path, capsys, argv, split, frames
):
    # The config's own model (max_frames unset) fits the data; the
    # checkpoint's max_frames does not.  Commands that only score the
    # checkpoint check the eval split alone.
    out = tmp_path / "run"
    out.mkdir()
    model = AcousticModel.init(model_config_from({**parse_config(tiny_cfg), "max_frames": 10}))
    for name in ("teacher.swav", "student.swav"):
        save_model(model, out / name)
    save_quantized_model(quantize_model(model), out / "model.swq8")
    argv = [part if part != "model.swq8" else str(out / part) for part in argv]
    assert main(argv + ["--config", tiny_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {split} utterance 0 needs {frames} frames; max_frames is 10" in err
    assert sorted(os.listdir(out)) == ["model.swq8", "student.swav", "teacher.swav"]


@pytest.mark.parametrize(
    "config_extra, checkpoint_extra, train_error",
    [
        ("", {"max_frames": 78}, "train utterance 0 needs 98 frames; max_frames is 78"),
        ("segment_len = 6", {}, "train utterance 3: CTC needs 3 frames, the conv stack gives 2"),
    ],
    ids=["train past the checkpoint's max_frames", "train short for CTC"],
)
def test_eval_and_prune_check_only_the_eval_split(
    tiny_cfg, tmp_path, capsys, config_extra, checkpoint_extra, train_error
):
    # Under seed 0 the train split holds the longest utterance (98
    # frames against eval's 78) and, with segment_len = 6, utterances
    # too short for CTC; neither matters to scoring the eval split.
    path = tmp_path / "run.cfg"
    path.write_text(open(tiny_cfg).read() + config_extra + "\n")
    out = tmp_path / "run"
    out.mkdir()
    model = AcousticModel.init(model_config_from({**parse_config(path), **checkpoint_extra}))
    for name in ("teacher.swav", "student.swav"):
        save_model(model, out / name)
    common = ["--config", str(path), "--out", str(out), "--seed", "0"]
    assert main(["eval"] + common) == 0
    assert main(["prune"] + common) == 0
    capsys.readouterr()
    assert main(["distill"] + common) == 2
    assert f"error: {train_error}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["quantize", "prune", "eval"])
def test_a_checkpoint_holding_nan_fails_before_any_work(tiny_cfg, tmp_path, capsys, command):
    out = tmp_path / "run"
    out.mkdir()
    model = AcousticModel.init(model_config_from(parse_config(tiny_cfg)))
    model.parts["layer0.wq"].data[0, 0] = float("nan")
    save_model(model, out / "student.swav")
    assert main([command, "--config", tiny_cfg, "--out", str(out)]) == 2
    assert "error: layer0.wq: holds nan or inf" in capsys.readouterr().err
    assert os.listdir(out) == ["student.swav"]


@pytest.mark.parametrize(
    "command, name, writer",
    [
        ("quantize", "student", "distill"),
        ("prune", "student", "distill"),
        ("eval", "student", "distill"),
        ("distill", "teacher", "train-teacher"),
        ("sweep-layers", "teacher", "train-teacher"),
        ("exp-init", "teacher", "train-teacher"),
        ("exp-data", "teacher", "train-teacher"),
    ],
)
def test_a_missing_checkpoint_names_its_path_and_the_command_that_writes_it(
    tiny_cfg, tmp_path, capsys, command, name, writer
):
    out = tmp_path / "run"
    assert main([command, "--config", tiny_cfg, "--out", str(out)]) == 2
    path = out / f"{name}.swav"
    assert f"error: no {name} checkpoint at {path}; run {writer} first" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--model", "model.swq8"],
        ["quantize", "--model", "elsewhere.swav"],
        ["distill", "--teacher", "elsewhere.swav"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_missing_checkpoint_named_by_a_flag_is_reported_by_its_path_alone(
    tiny_cfg, tmp_path, capsys, argv
):
    # The flag's file may be of any kind and from any writer, so the
    # message guesses neither.
    out = tmp_path / "run"
    path = out / argv[-1]
    assert main(argv[:-1] + [str(path), "--config", tiny_cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: no checkpoint at {path}\n"
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "flags, selection",
    [
        (["--select", "last_k"], LayerSelection.last_k(1)),
        (["--select", "explicit", "--indices", "1"], LayerSelection.explicit([1])),
    ],
    ids=["last_k", "explicit 1"],
)
def test_distill_saves_the_student_its_selection_starts_from(tiny_cfg, tmp_path, flags, selection):
    out = tmp_path / "run"
    out.mkdir()
    cfg = parse_config(tiny_cfg)
    save_model(AcousticModel.init(model_config_from(cfg), seed=0), out / "teacher.swav")
    assert main(["distill", "--config", tiny_cfg, "--out", str(out)] + flags) == 0
    teacher = load_model(out / "teacher.swav")
    seed = effective_seed(cfg, 42)
    train, val, _ = experiment_datasets(cfg, seed, teacher)
    student = init_student(teacher, selection)
    best, _ = distill(teacher, student, train, val, distill_config_from(cfg, seed))
    saved = load_model(out / "student.swav")
    assert saved.config == best.config
    assert list(saved.parts) == list(best.parts)
    for name, part in best.parts.items():
        assert np.array_equal(saved.parts[name].data, part.data), name


def test_explicit_selection_needs_indices(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train-teacher", "--config", tiny_cfg, "--out", out]) == 0
    code = main(
        ["distill", "--config", tiny_cfg, "--out", out, "--select", "explicit"]
    )
    assert code == 2
    assert "--indices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["distill", "--select", "explicit", "--indices", "0,a"],
        ["sweep-layers", "--layers", "1,x"],
        ["exp-data", "--sizes", "4,q"],
        ["prune", "--sensitivity", "conv*=abc"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_malformed_list_flag_exits_2_before_any_work(
    tiny_cfg, tmp_path, capsys, monkeypatch, argv
):
    out = tmp_path / "run"
    out.mkdir()
    model = AcousticModel.init(model_config_from(parse_config(tiny_cfg)), seed=0)
    for name in ("teacher.swav", "student.swav"):
        save_model(model, out / name)

    def no_data(*args, **kwargs):
        raise AssertionError("data was built before the flag was parsed")

    monkeypatch.setattr(cli, "experiment_datasets", no_data)
    monkeypatch.setattr(cli, "eval_split", no_data)
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--config", tiny_cfg, "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {argv[-2]}: " in err
    assert repr(argv[-1]) in err
    assert sorted(os.listdir(out)) == ["student.swav", "teacher.swav"]


def test_bench_reruns_identically_except_wall_clock(tiny_cfg, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["bench", "--config", tiny_cfg, "--out", out, "--seed", "42"]) == 0
        outs.append(open(os.path.join(out, "bench.csv")).read().splitlines())
    first, second = outs
    assert first[0] == second[0] == "model,layers,params,bytes,cpu_s,wer"
    assert len(first) == len(second) == 4
    for a, b in zip(first[1:], second[1:]):
        fa, fb = a.split(","), b.split(",")
        assert fa[:4] == fb[:4]
        assert fa[5] == fb[5]


def test_bench_rows_are_the_three_stages(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert main(["bench", "--config", tiny_cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "bench.csv")).read().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "original",
        "distilled",
        "quantized",
    ]


def test_sweep_and_experiments_write_artifacts(tiny_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train-teacher", "--config", tiny_cfg, "--out", out]) == 0
    assert main(["sweep-layers", "--config", tiny_cfg, "--out", out]) == 0
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "teacher",
        "student-1",
        "student-2",
    ]
    assert os.path.exists(os.path.join(out, "sweep_time.dat"))
    assert os.path.exists(os.path.join(out, "sweep_wer.dat"))

    assert main(["exp-init", "--config", tiny_cfg, "--out", out, "--k", "1"]) == 0
    assert os.path.exists(os.path.join(out, "init_alternating.dat"))
    assert os.path.exists(os.path.join(out, "init_last_k.dat"))

    assert main(["exp-data", "--config", tiny_cfg, "--out", out, "--sizes", "2,4"]) == 0
    assert os.path.exists(os.path.join(out, "data_2.dat"))
    assert os.path.exists(os.path.join(out, "data_4.dat"))
    summary = open(os.path.join(out, "data_summary.csv")).read().splitlines()
    assert summary[0] == "size,final_val_total,final_val_wer"
    assert len(summary) == 3


def test_prune_accepts_pattern_overrides(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train-teacher", "--config", tiny_cfg, "--out", out]) == 0
    code = main(
        [
            "prune",
            "--config",
            tiny_cfg,
            "--out",
            out,
            "--model",
            os.path.join(out, "teacher.swav"),
            "--sensitivity",
            "layer*.wf1=1.0",
            "--default-sensitivity",
            "0.0",
        ]
    )
    assert code == 0
    rows = open(os.path.join(out, "sparsity.csv")).read().splitlines()
    touched = [r for r in rows[1:] if r.split(",")[1] == "layer*.wf1"]
    assert len(touched) == 2
    assert all(float(r.split(",")[2]) == 1.0 for r in touched)
