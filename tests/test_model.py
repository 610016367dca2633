import numpy as np
import pytest

from smallwav.model import (
    AcousticModel,
    BadMagicError,
    BadVersionError,
    CheckpointError,
    ConfigError,
    LayerSelection,
    ModelConfig,
    SelectionError,
    ShapeError,
    TruncatedError,
    checkpoint_bytes,
    count_params,
    header_bytes,
    init_student,
    load_model,
    save_model,
    sinusoidal_positions,
)

TINY = ModelConfig(
    conv_layers=((8, 6, 2), (16, 4, 2)),
    d_model=16,
    n_transformer_layers=3,
    n_heads=2,
    ffn_dim=32,
    n_tokens=5,
    max_frames=64,
)


def test_frame_count_matches_stepwise_oracle():
    # Oracle: walk the conv stack layer by layer with the textbook formula.
    for n in [30, 31, 64, 100, 257]:
        length = n
        for _, width, stride in TINY.conv_layers:
            length = (length - width) // stride + 1
        assert TINY.n_frames(n) == length


def test_frame_count_matches_actual_forward():
    model = AcousticModel.init(TINY, seed=0)
    wave = np.random.default_rng(0).standard_normal(100)
    logits, conv_out = model.forward(wave)
    n = TINY.n_frames(100)
    assert logits.shape == (n, TINY.n_tokens)
    assert conv_out.shape == (n, TINY.d_model)


def test_receptive_field_by_perturbation():
    # Conv frame 0 must react to samples inside its receptive field and
    # ignore the first sample beyond it.  (Attention mixes frames, so the
    # probe looks at conv features, not logits.)
    model = AcousticModel.init(TINY, seed=1)
    span = TINY.receptive_field()

    def conv_frame0(wave):
        _, conv_out = model.forward(wave)
        return conv_out.data[0]

    base = conv_frame0(np.zeros(120))
    poke = np.zeros(120)
    poke[span - 1] = 1.0
    assert not np.array_equal(conv_frame0(poke), base)
    poke = np.zeros(120)
    poke[span] = 1.0
    assert np.array_equal(conv_frame0(poke), base)


def test_too_short_waveform_raises():
    with pytest.raises(ShapeError):
        TINY.n_frames(3)


def test_max_frames_enforced():
    model = AcousticModel.init(TINY, seed=0)
    too_long = TINY.max_frames * TINY.total_stride() * 2
    with pytest.raises(ShapeError, match="max_frames"):
        model.forward(np.zeros(too_long))


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(conv_layers=((8, 4, 2),), d_model=16)  # last conv != d_model
    with pytest.raises(ConfigError):
        ModelConfig(d_model=30, n_heads=4, conv_layers=((32, 8, 2),))
    with pytest.raises(ConfigError):
        ModelConfig(n_tokens=1)
    with pytest.raises(ConfigError, match="n_heads must be >= 1"):
        ModelConfig(n_heads=0)


def test_init_is_seed_deterministic():
    a = AcousticModel.init(TINY, seed=9)
    b = AcousticModel.init(TINY, seed=9)
    c = AcousticModel.init(TINY, seed=10)
    for (_, ta), (_, tb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(ta.data, tb.data)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.named_params(), c.named_params())
    )


def test_sinusoidal_positions_follow_the_closed_form():
    table = sinusoidal_positions(50, 6)
    assert table.shape == (50, 6) and table.dtype == np.float32
    p = 37
    for i in range(3):
        angle = p / 10000.0 ** (2 * i / 6)
        assert table[p, 2 * i] == pytest.approx(np.sin(angle), abs=1e-6)
        assert table[p, 2 * i + 1] == pytest.approx(np.cos(angle), abs=1e-6)
    assert sinusoidal_positions(4, 5).shape == (4, 5)


def test_params_are_float32():
    model = AcousticModel.init(TINY, seed=0)
    assert all(t.dtype == np.float32 for t in model.params())


def test_gradients_reach_every_parameter():
    from smallwav.tensor import tsum

    model = AcousticModel.init(TINY, seed=2)
    wave = np.random.default_rng(1).standard_normal(80)
    logits, _ = model.forward(wave)
    tsum(logits).backward()
    for name, t in model.named_params():
        assert t.grad is not None, name
        assert np.any(t.grad != 0) or "pos" in name or name.endswith(".b"), name


# ---------------------------------------------------------------------------
# layer selection


def test_alternating_indices():
    assert LayerSelection.alternating(2).resolve(4) == [0, 2]
    assert LayerSelection.alternating(3).resolve(6) == [0, 2, 4]
    assert LayerSelection.alternating(3).resolve(4) == [0, 1, 2]
    assert LayerSelection.alternating(4).resolve(4) == [0, 1, 2, 3]
    assert LayerSelection.alternating(1).resolve(4) == [0]


def test_last_k_indices():
    assert LayerSelection.last_k(2).resolve(4) == [2, 3]
    assert LayerSelection.last_k(4).resolve(4) == [0, 1, 2, 3]


def test_selection_errors():
    with pytest.raises(SelectionError):
        LayerSelection.alternating(5).resolve(4)
    with pytest.raises(SelectionError):
        LayerSelection.alternating(0).resolve(4)
    with pytest.raises(SelectionError):
        LayerSelection.last_k(9).resolve(4)
    with pytest.raises(SelectionError):
        LayerSelection.explicit([]).resolve(4)
    with pytest.raises(SelectionError):
        LayerSelection.explicit([0, 0, 1]).resolve(4)
    with pytest.raises(SelectionError):
        LayerSelection.explicit([3, 1]).resolve(4)
    with pytest.raises(SelectionError):
        LayerSelection.explicit([0, 4]).resolve(4)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ModelConfig(conv_layers=((16, 8),)), ConfigError, r"bad conv layer spec \(16, 8\)"),
        (
            lambda: ModelConfig(conv_layers=((16, 0, 4),)),
            ConfigError,
            r"bad conv layer spec \(16, 0, 4\)",
        ),
        (
            lambda: LayerSelection("random", keep=1).resolve(4),
            SelectionError,
            "unknown selection kind 'random'",
        ),
    ],
    ids=["two-field conv spec", "zero-width conv kernel", "unknown selection kind"],
)
def test_input_checks_name_what_is_wrong(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_identity_student_is_bit_exact():
    teacher = AcousticModel.init(TINY, seed=4)
    student = init_student(teacher, LayerSelection.alternating(TINY.n_transformer_layers))
    wave = np.random.default_rng(2).standard_normal(96)
    assert np.array_equal(teacher.infer(wave), student.infer(wave))


def test_student_layers_match_selected_teacher_layers():
    teacher = AcousticModel.init(TINY, seed=5)
    student = init_student(teacher, LayerSelection.explicit([0, 2]))
    assert student.config.n_transformer_layers == 2
    assert np.array_equal(student.parts["layer0.wq"].data, teacher.parts["layer0.wq"].data)
    assert np.array_equal(student.parts["layer1.wq"].data, teacher.parts["layer2.wq"].data)
    # Copies, not views: mutating the student leaves the teacher alone.
    student.parts["layer0.wq"].data[0, 0] += 1.0
    assert not np.array_equal(student.parts["layer0.wq"].data, teacher.parts["layer0.wq"].data)


# ---------------------------------------------------------------------------
# parameter counting and checkpoints


def test_count_params_closed_form_matches_model():
    for cfg in [TINY, ModelConfig()]:
        model = AcousticModel.init(cfg, seed=0)
        # Oracle: sum the sizes of the actual arrays.
        actual = sum(t.data.size for _, t in model.named_params())
        assert count_params(cfg) == actual == model.count_params()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = AcousticModel.init(TINY, seed=6)
    path = tmp_path / "m.swav"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.config == TINY
    for (na, ta), (nb, tb) in zip(model.named_params(), loaded.named_params()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na
        assert tb.dtype == np.float32


def test_checkpoint_size_formula(tmp_path):
    model = AcousticModel.init(TINY, seed=0)
    path = tmp_path / "m.swav"
    save_model(model, path)
    on_disk = path.stat().st_size
    assert on_disk == checkpoint_bytes(TINY)
    assert on_disk == header_bytes(TINY) + 4 * count_params(TINY)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "m.swav"
    save_model(AcousticModel.init(TINY, seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_model(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "m.swav"
    save_model(AcousticModel.init(TINY, seed=0), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersionError):
        load_model(path)


def test_checkpoint_truncated_and_padded(tmp_path):
    path = tmp_path / "m.swav"
    save_model(AcousticModel.init(TINY, seed=0), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(TruncatedError):
        load_model(path)
    path.write_bytes(raw + b"\x00\x00")
    with pytest.raises(TruncatedError):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
def test_checkpoint_rejects_a_part_that_is_not_finite(tmp_path, value):
    model = AcousticModel.init(TINY, seed=0)
    model.parts["layer0.wq"].data[1, 2] = value
    path = tmp_path / "m.swav"
    save_model(model, path)
    with pytest.raises(CheckpointError, match=r"layer0\.wq: holds nan or inf"):
        load_model(path)


def test_checkpoint_errors_share_base(tmp_path):
    assert issubclass(BadMagicError, CheckpointError)
    assert issubclass(BadVersionError, CheckpointError)
    assert issubclass(TruncatedError, CheckpointError)
