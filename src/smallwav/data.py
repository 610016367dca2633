"""Synthetic tone-sequence speech task.

Each utterance is a string of fixed-length segments: tone tokens become
pure sinusoids at a per-token frequency, the word boundary token becomes
silence, and white Gaussian noise covers everything.  Transcripts are
the generating token sequences, so references are exact by design.

Generation is deterministic in the seed, and utterance i only consumes
its own child random stream.  Datasets generated with the same seed and
different sizes therefore agree on their common prefix, which the
data-scaling experiment relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ConfigError
from .tensor import Rng


def default_frequencies(n_tones: int = 10, base_hz: float = 1000.0, step_hz: float = 600.0) -> dict:
    """Evenly spaced tone frequencies for token ids 1..n_tones."""
    return {k: base_hz + step_hz * (k - 1) for k in range(1, n_tones + 1)}


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one dataset.

    tokens_per_utterance is an inclusive range of tone-token counts;
    word_len likewise bounds how many tones group into one word before a
    boundary token is inserted.  segment_len is the per-token duration
    in samples.  The boundary id must not collide with blank (0) or any
    tone id.
    """

    seed: int = 42
    n_utterances: int = 48
    tokens_per_utterance: tuple = (3, 6)
    frequencies: dict = field(default_factory=default_frequencies)
    sample_rate: int = 16000
    noise_std: float = 0.05
    segment_len: int = 80
    boundary: int = 11
    word_len: tuple = (1, 3)
    amplitude: float = 1.0

    def __post_init__(self):
        if self.n_utterances < 0:
            raise ConfigError("n_utterances must be >= 0")
        lo, hi = self.tokens_per_utterance
        if not 1 <= lo <= hi:
            raise ConfigError(f"bad tokens_per_utterance range {self.tokens_per_utterance}")
        wlo, whi = self.word_len
        if not 1 <= wlo <= whi:
            raise ConfigError(f"bad word_len range {self.word_len}")
        if self.segment_len < 2:
            raise ConfigError("segment_len must be >= 2")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if not self.frequencies:
            raise ConfigError("frequencies map must not be empty")
        nyquist = self.sample_rate / 2.0
        seen = set()
        for tok, hz in self.frequencies.items():
            if tok in (0, self.boundary):
                raise ConfigError(f"token {tok} collides with blank or boundary")
            if not 0.0 < hz < nyquist:
                raise ConfigError(f"frequency {hz} Hz for token {tok} outside (0, {nyquist})")
            if hz in seen:
                raise ConfigError(f"duplicate frequency {hz} Hz")
            seen.add(hz)

    def tone_ids(self) -> list:
        return sorted(self.frequencies)


def _one_utterance(spec: SynthSpec, rng: Rng) -> tuple:
    lo, hi = spec.tokens_per_utterance
    n_tones = int(rng.integers(lo, hi + 1))
    tones = spec.tone_ids()
    picks = [tones[i] for i in rng.integers(0, len(tones), n_tones)]

    transcript = []
    wlo, whi = spec.word_len
    remaining = picks
    while remaining:
        take = min(int(rng.integers(wlo, whi + 1)), len(remaining))
        if transcript:
            transcript.append(spec.boundary)
        transcript.extend(remaining[:take])
        remaining = remaining[take:]

    seg = spec.segment_len
    wave = np.zeros(len(transcript) * seg, dtype=np.float64)
    t = np.arange(seg, dtype=np.float64)
    for i, tok in enumerate(transcript):
        if tok == spec.boundary:
            continue
        hz = spec.frequencies[tok]
        wave[i * seg : (i + 1) * seg] = spec.amplitude * np.sin(
            2.0 * np.pi * hz / spec.sample_rate * t
        )
    if spec.noise_std > 0:
        wave += rng.normal(wave.shape[0], std=spec.noise_std)
    return wave.astype(np.float32), transcript


def generate_dataset(spec: SynthSpec) -> list:
    """List of (waveform float32, transcript token list), seed-deterministic."""
    root = Rng(spec.seed)
    return [_one_utterance(spec, root.child(i)) for i in range(spec.n_utterances)]


def save_dataset(path, dataset) -> None:
    arrays = {"n_utterances": np.asarray(len(dataset))}
    for i, (wave, transcript) in enumerate(dataset):
        arrays[f"wave_{i}"] = np.asarray(wave, dtype=np.float32)
        arrays[f"tokens_{i}"] = np.asarray(transcript, dtype=np.int64)
    np.savez(path, **arrays)


def load_dataset(path) -> list:
    with np.load(path) as blob:
        n = int(blob["n_utterances"])
        return [
            (blob[f"wave_{i}"], blob[f"tokens_{i}"].tolist()) for i in range(n)
        ]
