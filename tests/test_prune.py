"""Pruning: thresholds, masks, the Gaussian sparsity law, reporting.

The normal-CDF oracle comes from scipy; the hand example works its
standard deviation out longhand instead of calling np.std.
"""

import numpy as np
import pytest
from scipy.stats import norm

from smallwav.model import (
    AcousticModel,
    ConfigError,
    ModelConfig,
    load_model,
    save_model,
)
from smallwav.prune import (
    PruneRow,
    SensitivityMap,
    default_sensitivity_map,
    prunable_names,
    prune_layer,
    prune_model,
    sparsity,
)
from smallwav.table import read_table, write_records

SMALL_CFG = ModelConfig(
    conv_layers=((8, 6, 2), (16, 4, 2)),
    d_model=16,
    n_transformer_layers=2,
    n_heads=2,
    ffn_dim=32,
    n_tokens=12,
    max_frames=96,
)

SPARSITY_COLUMNS = ("layer", "group", "sensitivity", "threshold", "pruned", "total", "sparsity")


# ---------------------------------------------------------------------------
# single-layer pruning


def test_zero_sensitivity_keeps_everything():
    w = np.array([0.0, 1e-8, -5.0, 2.0])
    pruned, mask = prune_layer(w, 0.0)
    assert mask.all()
    assert np.array_equal(pruned, w)


def test_hand_worked_threshold():
    w = [1.0, -1.0, 0.1]
    mean = sum(w) / 3
    var = sum((v - mean) ** 2 for v in w) / 3
    t = 0.3 * var**0.5
    assert t == pytest.approx(0.2454, abs=1e-4)

    pruned, mask = prune_layer(np.array(w), 0.3)
    assert mask.tolist() == [True, True, False]
    assert pruned.tolist() == [1.0, -1.0, 0.0]


def test_negative_sensitivity_is_rejected():
    with pytest.raises(ConfigError):
        prune_layer(np.ones(3), -0.1)


@pytest.mark.parametrize("s", [0.1, 0.3, 0.4])
@pytest.mark.parametrize("sigma", [0.02, 1.0, 7.0])
def test_gaussian_sparsity_law(s, sigma):
    # For N(0, sigma^2) weights the expected pruned fraction is
    # P(|w| < s * sigma) = 2 * Phi(s) - 1, independent of sigma.
    rng = np.random.default_rng(hash((s, sigma)) % 2**32)
    w = rng.normal(scale=sigma, size=100_000)
    _, mask = prune_layer(w, s)
    got = 1.0 - mask.mean()
    assert got == pytest.approx(2 * norm.cdf(s) - 1, abs=0.01)


def test_sparsity_monotone_in_sensitivity():
    rng = np.random.default_rng(17)
    for _ in range(30):
        w = rng.normal(size=400) * 10.0 ** rng.uniform(-2, 2)
        kept_prev = None
        for s in (0.0, 0.1, 0.3, 0.4, 1.0, 2.5):
            _, mask = prune_layer(w, s)
            if kept_prev is not None:
                # Raising sensitivity can only shrink the kept set.
                assert np.all(kept_prev | ~mask)
            kept_prev = mask


# ---------------------------------------------------------------------------
# sensitivity maps


def test_map_resolution_picks_the_single_match():
    smap = SensitivityMap({"conv*": 0.1, "layer0.*": 0.3}, default=0.0)
    assert smap.resolve("conv1.w") == ("conv*", 0.1)
    assert smap.resolve("layer0.wq") == ("layer0.*", 0.3)
    assert smap.resolve("head.w") == ("default", 0.0)


def test_map_rejects_ambiguity_and_gaps():
    smap = SensitivityMap({"conv*": 0.1, "conv0.*": 0.2}, default=0.0)
    with pytest.raises(ConfigError, match="several patterns"):
        smap.resolve("conv0.w")

    gappy = SensitivityMap({"conv*": 0.1})
    with pytest.raises(ConfigError, match="no default"):
        gappy.resolve("head.w")

    with pytest.raises(ConfigError):
        SensitivityMap({"conv*": -0.5})
    with pytest.raises(ConfigError):
        SensitivityMap({}, default=-1.0)


def test_default_map_scales_the_reference_assignment():
    cfg = ModelConfig()  # 4 transformer layers
    smap = default_sensitivity_map(cfg)
    assert smap.resolve("conv0.w") == ("conv*", 0.1)
    assert smap.resolve("layer0.wq")[1] == 0.0
    assert smap.resolve("layer1.wf1")[1] == 0.3
    assert smap.resolve("layer2.wo")[1] == 0.3
    assert smap.resolve("layer3.wk")[1] == 0.4
    assert smap.resolve("head.w") == ("default", 0.0)


# ---------------------------------------------------------------------------
# whole-model pruning


def test_all_zero_sensitivities_change_nothing():
    model = AcousticModel.init(SMALL_CFG, seed=3)
    pruned, report = prune_model(model, SensitivityMap({}, default=0.0))
    assert report.global_sparsity == 0.0
    for (name, a), (_, b) in zip(model.named_params(), pruned.named_params()):
        assert np.array_equal(a.data, b.data), name


def test_pruning_leaves_the_input_model_alone():
    model = AcousticModel.init(SMALL_CFG, seed=3)
    before = {n: t.data.copy() for n, t in model.named_params()}
    prune_model(model, default_sensitivity_map(SMALL_CFG))
    for name, t in model.named_params():
        assert np.array_equal(t.data, before[name]), name


def test_pruning_touches_only_prunable_tensors():
    model = AcousticModel.init(SMALL_CFG, seed=3)
    pruned, _ = prune_model(model, SensitivityMap({"*": 2.0}))
    prunable = set(prunable_names(SMALL_CFG))
    for name, t in pruned.named_params():
        if name in prunable:
            assert (t.data == 0).any(), name
        else:
            assert np.array_equal(t.data, model.parts[name].data), name


def test_report_matches_the_arrays():
    model = AcousticModel.init(SMALL_CFG, seed=3)
    pruned, report = prune_model(model, default_sensitivity_map(SMALL_CFG))
    assert [r.layer for r in report.rows] == prunable_names(SMALL_CFG)
    for row in report.rows:
        data = pruned.parts[row.layer].data
        assert row.total == data.size
        assert row.pruned == int((data == 0).sum())
        assert row.sparsity == row.pruned / row.total

    # Global sparsity is the weight-count-weighted mean of layer rates.
    weighted = sum(r.sparsity * r.total for r in report.rows) / sum(
        r.total for r in report.rows
    )
    assert report.global_sparsity == pytest.approx(weighted, rel=1e-12)
    assert sparsity(pruned) == pytest.approx(report.global_sparsity, rel=1e-12)


def test_fresh_model_sparsity_is_near_zero():
    model = AcousticModel.init(SMALL_CFG, seed=3)
    assert sparsity(model) < 1e-4


def test_half_masked_layer_reports_half():
    model = AcousticModel.init(SMALL_CFG, seed=3)
    w = model.parts["layer0.wq"].data
    w.reshape(-1)[: w.size // 2] = 0.0
    _, report = prune_model(model, SensitivityMap({}, default=0.0))
    row = {r.layer: r for r in report.rows}["layer0.wq"]
    assert row.sparsity == 0.0  # nothing newly pruned
    assert (model.parts["layer0.wq"].data == 0).mean() == 0.5


def test_gaussian_init_matches_the_cdf_prediction():
    # Freshly initialized weights are exactly layerwise Gaussian, so the
    # law predicts the global rate up to Monte-Carlo noise.
    cfg = ModelConfig()
    model = AcousticModel.init(cfg, seed=11)
    _, report = prune_model(model, default_sensitivity_map(cfg))
    expected = sum(
        (2 * norm.cdf(r.sensitivity) - 1) * r.total for r in report.rows
    ) / sum(r.total for r in report.rows)
    assert report.global_sparsity == pytest.approx(expected, abs=0.01)
    assert 0.15 <= report.global_sparsity <= 0.35


def test_masked_zeros_survive_checkpointing(tmp_path):
    model = AcousticModel.init(SMALL_CFG, seed=3)
    pruned, report = prune_model(model, SensitivityMap({"*": 0.5}))
    path = tmp_path / "pruned.swav"
    save_model(pruned, path)
    back = load_model(path)
    assert sparsity(back) == report.global_sparsity
    for name in prunable_names(SMALL_CFG):
        a = pruned.parts[name].data
        b = back.parts[name].data
        assert np.array_equal(a == 0, b == 0), name
        assert np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# report CSV


def test_report_csv_round_trip(tmp_path):
    model = AcousticModel.init(SMALL_CFG, seed=3)
    _, report = prune_model(model, default_sensitivity_map(SMALL_CFG))
    path = tmp_path / "sparsity.csv"
    write_records(path, PruneRow, report.rows)

    first = path.read_text().splitlines()[0]
    assert first == "layer,group,sensitivity,threshold,pruned,total,sparsity"

    rows = [
        PruneRow(layer, group, float(s), float(t), int(pruned), int(total))
        for layer, group, s, t, pruned, total, _ in read_table(path, SPARSITY_COLUMNS)
    ]
    assert rows == list(report.rows)


def test_report_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("model,layers\nx,1\n")
    with pytest.raises(ValueError, match="other.csv"):
        read_table(path, SPARSITY_COLUMNS)
