import numpy as np
import pytest
from dataclasses import replace

from smallwav.data import (
    SynthSpec,
    default_frequencies,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from smallwav.model import ConfigError


def test_generation_is_seed_deterministic():
    spec = SynthSpec(seed=7, n_utterances=6)
    a = generate_dataset(spec)
    b = generate_dataset(spec)
    assert len(a) == len(b) == 6
    for (wa, ta), (wb, tb) in zip(a, b):
        assert np.array_equal(wa, wb)
        assert ta == tb
    c = generate_dataset(replace(spec, seed=8))
    assert any(not np.array_equal(wa, wc) for (wa, _), (wc, _) in zip(a, c))


def test_datasets_nest_by_prefix():
    small = generate_dataset(SynthSpec(seed=3, n_utterances=4))
    big = generate_dataset(SynthSpec(seed=3, n_utterances=12))
    for (ws, ts), (wb, tb) in zip(small, big):
        assert np.array_equal(ws, wb)
        assert ts == tb


def test_transcript_structure():
    spec = SynthSpec(seed=1, n_utterances=20)
    tones = set(spec.tone_ids())
    for wave, transcript in generate_dataset(spec):
        assert len(wave) == len(transcript) * spec.segment_len
        assert wave.dtype == np.float32
        assert transcript[0] != spec.boundary and transcript[-1] != spec.boundary
        for a, b in zip(transcript, transcript[1:]):
            assert not (a == spec.boundary and b == spec.boundary)
        n_tones = sum(1 for t in transcript if t != spec.boundary)
        lo, hi = spec.tokens_per_utterance
        assert lo <= n_tones <= hi
        assert all(t in tones or t == spec.boundary for t in transcript)


def test_clean_single_tone_has_dft_peak_at_its_frequency():
    # Default frequencies land exactly on DFT bins of one segment, so a
    # noiseless single-token utterance must peak at bin f * L / sr.
    spec = SynthSpec(seed=5, n_utterances=40, tokens_per_utterance=(1, 1), noise_std=0.0)
    for wave, transcript in generate_dataset(spec):
        (tok,) = transcript
        spectrum = np.abs(np.fft.rfft(wave))
        expect_bin = spec.frequencies[tok] * spec.segment_len / spec.sample_rate
        assert float(expect_bin) == int(expect_bin)
        assert int(np.argmax(spectrum)) == int(expect_bin)


def test_boundary_segments_are_silent_without_noise():
    spec = SynthSpec(seed=2, n_utterances=10, tokens_per_utterance=(4, 6), noise_std=0.0)
    seg = spec.segment_len
    saw_boundary = False
    for wave, transcript in generate_dataset(spec):
        for i, tok in enumerate(transcript):
            if tok == spec.boundary:
                saw_boundary = True
                assert np.all(wave[i * seg : (i + 1) * seg] == 0.0)
    assert saw_boundary


def test_empty_dataset():
    assert generate_dataset(SynthSpec(n_utterances=0)) == []


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(frequencies={})
    with pytest.raises(ConfigError):
        SynthSpec(frequencies={1: 9000.0})  # above Nyquist at 16 kHz
    with pytest.raises(ConfigError):
        SynthSpec(frequencies={11: 1000.0})  # collides with boundary
    with pytest.raises(ConfigError):
        SynthSpec(frequencies={1: 1000.0, 2: 1000.0})
    with pytest.raises(ConfigError):
        SynthSpec(tokens_per_utterance=(0, 3))
    with pytest.raises(ConfigError):
        SynthSpec(segment_len=1)



@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_utterances": -1}, "n_utterances must be >= 0"),
        ({"word_len": (0, 2)}, r"bad word_len range \(0, 2\)"),
        ({"word_len": (3, 2)}, r"bad word_len range \(3, 2\)"),
    ],
    ids=["negative count", "empty words", "reversed word range"],
)
def test_spec_checks_name_the_bad_field(fields, message):
    with pytest.raises(ConfigError, match=message):
        SynthSpec(**fields)


def test_a_negative_noise_std_is_rejected():
    with pytest.raises(ConfigError, match="noise_std must be >= 0, got -0.5"):
        SynthSpec(noise_std=-0.5)
    assert SynthSpec(noise_std=0.0).noise_std == 0.0


def test_default_frequencies_shape():
    freqs = default_frequencies()
    assert sorted(freqs) == list(range(1, 11))
    assert freqs[1] == 1000.0 and freqs[10] == 6400.0


def test_dataset_roundtrip(tmp_path):
    ds = generate_dataset(SynthSpec(seed=11, n_utterances=5))
    path = tmp_path / "ds.npz"
    save_dataset(path, ds)
    back = load_dataset(path)
    assert len(back) == 5
    for (wa, ta), (wb, tb) in zip(ds, back):
        assert np.array_equal(wa, wb)
        assert ta == tb
