"""Compression lab for a small convolutional-transformer CTC model.

The pieces compose in the order a run uses them: synthesize tone-word
data, train or load an acoustic model, distill it into fewer layers,
then quantize or prune the result and measure what that cost.
"""

from .bench import (
    BenchReport,
    eval_wer,
    read_report,
    run_compression_bench,
    run_data_experiment,
    run_init_experiment,
    run_tradeoff_sweep,
    train_teacher,
)
from .config import parse_config
from .ctc import ctc_loss
from .data import SynthSpec, generate_dataset, load_dataset, save_dataset
from .decode import best_path_decode, edit_distance, token_error_rate, wer
from .distill import DistillConfig, DistillHistory, distill, kl_distill_loss, objective
from .model import (
    AcousticModel,
    CheckpointError,
    ConfigError,
    LayerSelection,
    ModelConfig,
    SelectionError,
    count_params,
    init_student,
    load_model,
    save_model,
)
from .prune import SensitivityMap, default_sensitivity_map, prune_model, sparsity
from .quantize import (
    QuantizedModel,
    load_quantized_model,
    model_size_bytes,
    prepack,
    quantize_model,
    save_quantized_model,
)
from .tensor import Rng, Tensor

__version__ = "0.1.0"

__all__ = [
    "AcousticModel",
    "BenchReport",
    "CheckpointError",
    "ConfigError",
    "DistillConfig",
    "DistillHistory",
    "LayerSelection",
    "ModelConfig",
    "QuantizedModel",
    "Rng",
    "SelectionError",
    "SensitivityMap",
    "SynthSpec",
    "Tensor",
    "best_path_decode",
    "count_params",
    "ctc_loss",
    "default_sensitivity_map",
    "distill",
    "edit_distance",
    "eval_wer",
    "generate_dataset",
    "init_student",
    "kl_distill_loss",
    "load_dataset",
    "load_model",
    "load_quantized_model",
    "model_size_bytes",
    "objective",
    "parse_config",
    "prepack",
    "prune_model",
    "quantize_model",
    "read_report",
    "run_compression_bench",
    "run_data_experiment",
    "run_init_experiment",
    "run_tradeoff_sweep",
    "save_dataset",
    "save_model",
    "save_quantized_model",
    "sparsity",
    "token_error_rate",
    "train_teacher",
    "wer",
]
