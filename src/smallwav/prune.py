"""Sensitivity-scaled magnitude pruning and sparsity accounting.

Each prunable layer gets a threshold equal to its sensitivity times the
population standard deviation of its own weights; entries strictly
below the threshold are zeroed.  Prunable means the conv kernels, the
transformer linear weight matrices, and the token head weights; biases,
layer norms and the positional table never count.  One-shot only: no
retraining afterwards, and masks are reporting artifacts rather than
constraints on later updates.

Sparsity here is an accounting property (zeros over totals); nothing
gets stored sparse and nothing runs faster because of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

import numpy as np

from .model import AcousticModel, ConfigError, ModelConfig, linear_weight_names


def prunable_names(config: ModelConfig) -> list:
    """Canonical names of the tensors pruning may touch, in model order."""
    return [f"conv{i}.w" for i in range(len(config.conv_layers))] + linear_weight_names(config)


@dataclass(frozen=True)
class SensitivityMap:
    """Pattern-keyed sensitivities with an optional catch-all default.

    Patterns use shell-style wildcards against canonical parameter names
    ("conv*", "layer2.*", "head.w").  Resolution must be unambiguous: a
    name matching two patterns is a configuration error, and a name
    matching none falls to the default group, which is an error to omit
    when needed.
    """

    groups: tuple
    default: float | None = None

    def __init__(self, groups, default=None):
        if isinstance(groups, dict):
            groups = tuple(groups.items())
        groups = tuple((str(p), float(s)) for p, s in groups)
        for pattern, s in groups:
            if s < 0:
                raise ConfigError(f"sensitivity for {pattern!r} must be >= 0, got {s}")
        if default is not None and float(default) < 0:
            raise ConfigError(f"default sensitivity must be >= 0, got {default}")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "default", None if default is None else float(default))

    def resolve(self, name: str) -> tuple:
        """(group label, sensitivity) for one layer name."""
        hits = [(p, s) for p, s in self.groups if fnmatchcase(name, p)]
        if len(hits) > 1:
            raise ConfigError(
                f"layer {name!r} matches several patterns: "
                + ", ".join(repr(p) for p, _ in hits)
            )
        if hits:
            return hits[0]
        if self.default is None:
            raise ConfigError(f"layer {name!r} matches no pattern and there is no default")
        return "default", self.default


def default_sensitivity_map(config: ModelConfig) -> SensitivityMap:
    """The reference assignment scaled to this model's depth.

    Convolutions get 0.1.  Transformer layers are assigned by their
    fractional position in the stack: the first eighth stays unpruned,
    positions up to about 0.71 get 0.3, and the rest get 0.4.  Anything
    else (the head) falls to an unpruned default group.
    """
    groups = {"conv*": 0.1}
    depth = config.n_transformer_layers
    for j in range(depth):
        p = j / depth
        if p < 3 / 24:
            s = 0.0
        elif p < 17 / 24:
            s = 0.3
        else:
            s = 0.4
        groups[f"layer{j}.*"] = s
    return SensitivityMap(groups, default=0.0)


def prune_layer(w, sensitivity: float) -> tuple:
    """Zero the entries of one tensor below sensitivity * std(w).

    std is the population form (divide by n).  The mask keeps |w| >= t,
    so sensitivity 0 keeps everything.

    Returns:
        (pruned array of w's dtype, boolean keep-mask)
    """
    if sensitivity < 0:
        raise ConfigError(f"sensitivity must be >= 0, got {sensitivity}")
    w = np.asarray(w)
    t = float(sensitivity) * float(w.std())
    mask = np.abs(w) >= t
    return w * mask, mask


@dataclass(frozen=True)
class PruneRow:
    """One layer's line in a sparsity report (sparsity.csv).

    sparsity is set from the other fields: pruned / total.
    """

    layer: str
    group: str
    sensitivity: float
    threshold: float
    pruned: int
    total: int
    sparsity: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sparsity", self.pruned / self.total)


@dataclass(frozen=True)
class PruneReport:
    rows: tuple

    @property
    def global_sparsity(self) -> float:
        total = sum(r.total for r in self.rows)
        return sum(r.pruned for r in self.rows) / total


def prune_model(model: AcousticModel, smap: SensitivityMap) -> tuple:
    """Apply the sensitivity map to a copy of the model.

    The input model is untouched.  Every prunable tensor must resolve to
    exactly one group; biases, layer norms and the positional table pass
    through unchanged.

    Returns:
        (pruned model, PruneReport with one row per prunable tensor)
    """
    out = model.copy()
    rows = []
    for name in prunable_names(model.config):
        group, s = smap.resolve(name)
        tensor = out.parts[name]
        original = tensor.data
        pruned, mask = prune_layer(original, s)
        tensor.data = pruned.astype(original.dtype, copy=False)
        rows.append(
            PruneRow(
                layer=name,
                group=group,
                sensitivity=float(s),
                threshold=float(s) * float(original.std()),
                pruned=int(mask.size - mask.sum()),
                total=int(mask.size),
            )
        )
    return out, PruneReport(rows=tuple(rows))


def sparsity(model: AcousticModel) -> float:
    """Zero-valued weights over total weights, prunable layers only."""
    zeros = 0
    total = 0
    for name in prunable_names(model.config):
        data = model.parts[name].data
        zeros += int((data == 0).sum())
        total += data.size
    return zeros / total
