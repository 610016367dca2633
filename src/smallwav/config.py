"""Flat key=value run configuration shared by the command-line tools.

One file configures a whole run.  Keys are the field names of
ModelConfig, SynthSpec and DistillConfig plus a handful of driver knobs
(split sizes, student depth, teacher schedule, timing repeats).  Values
are Python literals, so tuples and dicts work:

    d_model = 32
    conv_layers = ((16, 8, 4), (32, 4, 2))
    epochs = 6
    noise_std = 0.02
    tokens_per_utterance = (3, 6)

A single `seed` key (or the --seed flag) feeds every consumer: model
init, shuffling and the train split all use seed s, validation s+1 and
evaluation s+2.  A `seed` set in the file wins over the flag so that a
config file freezes the full experiment.
"""

from __future__ import annotations

import ast
import dataclasses

from .bench import MIN_REPEATS
from .ctc import min_frames
from .data import SynthSpec, default_frequencies, generate_dataset
from .distill import DistillConfig
from .model import ConfigError, ModelConfig
from .tensor import ShapeError

_MODEL_KEYS = frozenset(f.name for f in dataclasses.fields(ModelConfig))
_SPEC_KEYS = frozenset(f.name for f in dataclasses.fields(SynthSpec)) - {"boundary"}
_DISTILL_KEYS = frozenset(f.name for f in dataclasses.fields(DistillConfig))

DRIVER_DEFAULTS = {
    "val_utterances": 16,
    "eval_utterances": 32,
    "student_layers": 2,
    "time_repeats": 3,
    "teacher_epochs": 22,
    "teacher_base_lr": 1e-4,
    "teacher_warmup": 3,
}

KNOWN_KEYS = _MODEL_KEYS | _SPEC_KEYS | _DISTILL_KEYS | frozenset(DRIVER_DEFAULTS)

# Every key's default value, whose type a config value must have.
_DEFAULTS = {**vars(ModelConfig()), **vars(SynthSpec()), **vars(DistillConfig()), **DRIVER_DEFAULTS}
_OPTIONAL_KEYS = frozenset(f.name for f in dataclasses.fields(DistillConfig) if f.default is None)


def parse_config(path) -> dict:
    """Read a key=value file into a dict of Python values.

    Blank lines and lines starting with # are skipped.  Unknown keys,
    unparseable values and values without the type of the key's default
    raise ConfigError naming the offending line.
    """
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(
                f"{path}:{lineno}: cannot parse value for {key!r}: {exc}"
            ) from exc
        like = _DEFAULTS[key]
        if not (out[key] is None and key in _OPTIONAL_KEYS or _fits(out[key], like)):
            kind = ("None or " if key in _OPTIONAL_KEYS else "") + _kind(like)
            raise ConfigError(f"{path}:{lineno}: {key} = {out[key]!r} is not {kind}")
    return out


def _fits(value, like) -> bool:
    """Whether value has the type of the default like.

    An int takes no bool and no float, a float also takes an int, and
    a tuple (or list) has the default's length and member type; a tuple
    of tuples, such as conv_layers, may have any length.
    """
    if isinstance(like, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(like, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(like, dict):
        key, item = next(iter(like.items()))
        return isinstance(value, dict) and all(
            _fits(k, key) and _fits(v, item) for k, v in value.items()
        )
    if not isinstance(value, (tuple, list)):
        return False
    sized = isinstance(like[0], tuple) or len(value) == len(like)
    return sized and all(_fits(v, like[0]) for v in value)


def _kind(like) -> str:
    """The type _fits asks for, in words."""
    if isinstance(like, float):
        return "a number"
    if isinstance(like, int):
        return "an integer"
    if isinstance(like, dict):
        key, item = next(iter(like.items()))
        return f"a dict from {_kind(key)} to {_kind(item)}"
    size = "any length" if isinstance(like[0], tuple) else len(like)
    return f"a tuple of {size}, each {_kind(like[0])}"


def effective_seed(cfg: dict, flag_seed: int) -> int:
    return cfg.get("seed", flag_seed)


def model_config_from(cfg: dict) -> ModelConfig:
    return ModelConfig(**{k: cfg[k] for k in _MODEL_KEYS if k in cfg})


def distill_config_from(cfg: dict, seed: int) -> DistillConfig:
    kwargs = {k: cfg[k] for k in _DISTILL_KEYS if k in cfg}
    kwargs["seed"] = seed
    return _trained(DistillConfig(**kwargs), "epochs")


def teacher_config_from(cfg: dict, seed: int) -> DistillConfig:
    """Optimizer schedule for CTC teacher training: the lab's recipe.

    Reuses the distillation optimizer with its own epoch count and
    learning ramp; the teacher_* keys exist because a good teacher
    needs a longer run than a distillation pass.  On a training set of
    bench.CURRICULUM_MIN_UTTERANCES or more, train_teacher adds its
    length curriculum to this schedule.
    """
    shared = {k: cfg[k] for k in ("weight_decay", "adam_betas", "adam_eps") if k in cfg}
    config = DistillConfig(
        epochs=driver_value(cfg, "teacher_epochs"),
        base_lr=driver_value(cfg, "teacher_base_lr"),
        warmup_epochs=driver_value(cfg, "teacher_warmup"),
        seed=seed,
        **shared,
    )
    return _trained(config, "teacher_epochs")


def _trained(config: DistillConfig, key: str) -> DistillConfig:
    """config, if it trains at least one epoch.

    The subcommands save and report a trained model, so a run of zero
    epochs has nothing to give them.
    """
    if config.epochs < 1:
        raise ConfigError(f"{key} must be >= 1, got {config.epochs}")
    return config


def time_repeats_from(cfg: dict) -> int:
    """Timed passes per model for bench and sweep-layers.

    Checked when the subcommand reads its config, before it trains
    anything: bench.measure_inference_all needs at least MIN_REPEATS
    passes for a median, and only runs after the training is done.
    """
    repeats = driver_value(cfg, "time_repeats")
    if repeats < MIN_REPEATS:
        raise ConfigError(f"time_repeats must be >= {MIN_REPEATS}, got {repeats}")
    return repeats


def synth_spec_from(cfg: dict, seed: int, n_utterances: int | None = None) -> SynthSpec:
    """The run's data recipe, in the model's token layout (ModelConfig.boundary)."""
    boundary = model_config_from(cfg).boundary
    kwargs = {k: cfg[k] for k in _SPEC_KEYS if k in cfg}
    kwargs.update(seed=seed, boundary=boundary)
    if n_utterances is not None:
        kwargs["n_utterances"] = n_utterances
    tones = kwargs.get("frequencies", default_frequencies())
    outside = sorted(t for t in tones if not 1 <= t < boundary)
    if outside:
        raise ConfigError(f"tone ids {outside} outside [1, n_tokens - 1 = {boundary})")
    return SynthSpec(**kwargs)


def driver_value(cfg: dict, key: str):
    return cfg.get(key, DRIVER_DEFAULTS[key])


def experiment_datasets(cfg: dict, seed: int, model=None) -> tuple:
    """The standard three splits: train (seed), val (seed+1), eval (seed+2).

    Checked before any work against the model the run goes on with,
    the loaded one if given, else the config's: val and eval are
    nonempty, the config's n_tokens is the model's, every utterance fits
    the conv stack and max_frames, and every train and val utterance has
    the frames CTC needs for its transcript.  A ConfigError names the
    split, utterance and bound.

    Returns:
        (train, val, eval_set) lists of (waveform, transcript)
    """
    n_val, n_eval = (_split_size(cfg, key) for key in ("val_utterances", "eval_utterances"))
    model_cfg = model.config if model is not None else model_config_from(cfg)
    train = _fitting(model_cfg, "train", synth_spec_from(cfg, seed))
    val = _fitting(model_cfg, "val", synth_spec_from(cfg, seed + 1, n_val))
    return train, val, _fitting(model_cfg, "eval", synth_spec_from(cfg, seed + 2, n_eval))


def eval_split(cfg: dict, seed: int, model) -> list:
    """The eval split, checked against the scoring model's n_tokens, conv stack and max_frames."""
    n_eval = _split_size(cfg, "eval_utterances")
    return _fitting(model.config, "eval", synth_spec_from(cfg, seed + 2, n_eval))


def _split_size(cfg: dict, key: str) -> int:
    n = driver_value(cfg, key)
    if n < 1:
        raise ConfigError(f"{key} must be >= 1, got {n}")
    return n


def _fitting(model_cfg: ModelConfig, split: str, spec: SynthSpec) -> list:
    if spec.boundary != model_cfg.boundary:
        raise ConfigError(
            f"the checkpoint has n_tokens = {model_cfg.n_tokens}, "
            f"but the config builds data with n_tokens = {spec.boundary + 1}"
        )
    dataset = generate_dataset(spec)
    for i, (wave, transcript) in enumerate(dataset):
        where = f"{split} utterance {i}"
        try:
            n = model_cfg.n_frames(wave.shape[0])
        except ShapeError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if n > model_cfg.max_frames:
            raise ConfigError(f"{where} needs {n} frames; max_frames is {model_cfg.max_frames}")
        need = min_frames(transcript)
        if split != "eval" and n < need:
            raise ConfigError(f"{where}: CTC needs {need} frames, the conv stack gives {n}")
    return dataset
