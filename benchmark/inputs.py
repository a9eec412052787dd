"""Seeded input generation for the benchmark workloads.

Everything the program reads during a run is written here from the
workload seed: WAV files (with the benchmark's own writer, so the program
under test never produces its own inputs) and the corpus directories.
Sizes and sample rates are fixed; only the signal content depends on the
seed, so every seed asks the program for the same amount of work.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WAVE_PCM = 1
WAVE_IEEE_FLOAT = 3
WAVE_EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_PCM: 00000001-0000-0010-8000-00aa00389b71
PCM_SUBFORMAT_GUID = bytes.fromhex("0100000000001000800000aa00389b71")

SYNTH_RATE = 44100  # the checkpoint's rate; the 48 kHz pair is resampled to it


def write_wav(path, samples, rate: int, encoding: str = "pcm16") -> None:
    """Write mono samples as PCM16, float32 or PCM16 WAVE_FORMAT_EXTENSIBLE."""
    samples = np.asarray(samples, dtype=np.float64)
    if encoding == "float32":
        tag, bits = WAVE_IEEE_FLOAT, 32
        payload = samples.astype("<f4").tobytes()
    else:
        tag, bits = WAVE_PCM, 16
        payload = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    block = bits // 8
    fmt = struct.pack("<HHIIHH", tag, 1, rate, rate * block, block, bits)
    if encoding == "extensible16":
        fmt = struct.pack("<HHIIHH", WAVE_EXTENSIBLE, 1, rate, rate * block, block, bits)
        fmt += struct.pack("<HHI", 22, bits, 0x4) + PCM_SUBFORMAT_GUID
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        body += b"\x00"
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def _partials(rng, n: int, rate: int, lo: float, hi: float, count: int) -> np.ndarray:
    t = np.arange(n) / rate
    out = np.zeros(n)
    for _ in range(count):
        freq = rng.uniform(lo, hi)
        decay = rng.uniform(0.1, 1.5)
        out += rng.uniform(0.2, 1.0) * np.exp(-decay * (t % 2.5)) * np.sin(
            2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi)
        )
    return out


def _scaled(x: np.ndarray, peak: float) -> np.ndarray:
    return x * (peak / np.max(np.abs(x)))


def music_like(rng, seconds: float, rate: int) -> np.ndarray:
    """Decaying partials re-struck every 2.5 s, plus a little noise."""
    n = int(round(seconds * rate))
    x = _partials(rng, n, rate, 80.0, 2000.0, 5) + 0.05 * rng.standard_normal(n)
    return _scaled(x, rng.uniform(0.6, 0.9))


# ------------------------------------------------------------ synth-session

@dataclass(frozen=True)
class SynthInputs:
    train_dir: Path
    a44: Path
    b44: Path
    a48: Path
    b48: Path
    extensible: Path


def make_synth_inputs(root: Path, seed: int) -> SynthInputs:
    """Two 10 s pairs (PCM16 at 44.1 kHz, float32 at 48 kHz), a short
    training corpus for the checkpoint, and the fixed extensible file."""
    rng = np.random.default_rng([seed, 1])
    root.mkdir(parents=True, exist_ok=True)
    train_dir = root / "ckpt_corpus"
    train_dir.mkdir(exist_ok=True)
    for i, rate in enumerate((44100, 48000)):
        write_wav(train_dir / f"t{i}.wav", music_like(rng, 1.5, rate), rate)
    paths = SynthInputs(
        train_dir, root / "a44.wav", root / "b44.wav", root / "a48.wav",
        root / "b48.wav", root / "a44_extensible.wav",
    )
    # b runs longer than a, so every blend also truncates the pair
    write_wav(paths.a44, music_like(rng, 10.0, 44100), 44100, "pcm16")
    write_wav(paths.b44, music_like(rng, 10.25, 44100), 44100, "pcm16")
    write_wav(paths.a48, music_like(rng, 10.0, 48000), 48000, "float32")
    write_wav(paths.b48, music_like(rng, 10.25, 48000), 48000, "float32")
    # seed-independent, so the known-fault operation fails identically on every seed
    fixed = np.random.default_rng(20230524)
    write_wav(paths.extensible, music_like(fixed, 10.0, 44100), 44100, "extensible16")
    return paths


# ------------------------------------------------------------ corpus: training part

TRAIN_FILES = ((44100, 1.50), (48000, 2.00), (44100, 2.50), (48000, 1.75),
               (44100, 2.25), (48000, 1.90))
TRAIN_HOP = 256
TRAIN_WINDOW = 1024
TRAIN_BATCH = 128
TRAIN_EPOCHS = 2


def train_window_count() -> int:
    """Windows the train command sees: per file after resampling to 44.1 kHz."""
    total = 0
    for rate, seconds in TRAIN_FILES:
        n = int(round(int(round(seconds * rate)) * SYNTH_RATE / rate))
        total += (n - TRAIN_WINDOW) // TRAIN_HOP + 1
    return total


def make_train_corpus(root: Path, seed: int) -> Path:
    rng = np.random.default_rng([seed, 2])
    corpus = root / "train_corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for i, (rate, seconds) in enumerate(TRAIN_FILES):
        write_wav(corpus / f"take{i}.wav", music_like(rng, seconds, rate), rate,
                  "pcm16" if i % 2 == 0 else "float32")
    return corpus


# ------------------------------------------------------------ corpus: SOM part

SOM_CLIPS = 200
SOM_FAMILIES = ("low-tone", "mid-tone", "band-noise", "buzz")
SOM_RATES = (22050, 44100, 48000)


def _band_noise(rng, n: int, rate: int, lo: float, hi: float) -> np.ndarray:
    """White noise with every FFT bin outside [lo, hi] Hz zeroed, unit RMS."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum[(freqs < lo) | (freqs > hi)] = 0.0
    x = np.fft.irfft(spectrum, n)
    return x / np.sqrt(np.mean(x * x))


def _som_clip(rng, family: int, seconds: float, rate: int) -> np.ndarray:
    """Content stays below 10 kHz, inside every rate's band, so a family
    sounds the same from 22.05, 44.1 or 48 kHz files; a faint noise floor
    keeps the log-mel bands of the tonal families off their numeric floor."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    if family == 0:  # a low fundamental with two weak harmonics
        f = rng.uniform(100.0, 160.0)
        x = sum(g * np.sin(2 * np.pi * f * h * t) for h, g in ((1, 1.0), (2, 0.3), (3, 0.1)))
    elif family == 1:  # a pure mid tone
        x = np.sin(2 * np.pi * rng.uniform(1500.0, 2500.0) * t)
    elif family == 2:  # band noise
        x = _band_noise(rng, n, rate, 500.0, 8000.0)
    else:  # band-limited sawtooth buzz: every harmonic up to 8 kHz
        f = rng.uniform(300.0, 500.0)
        x = sum(np.sin(2 * np.pi * f * h * t) / h for h in range(1, int(8000.0 / f) + 1))
    x = _scaled(np.asarray(x, dtype=np.float64), 1.0)
    x = x + 0.01 * _band_noise(rng, n, rate, 50.0, 10000.0)
    return _scaled(x, rng.uniform(0.3, 0.9))


@dataclass(frozen=True)
class SomCorpus:
    directory: Path
    family: dict  # file name -> family index


def make_som_corpus(root: Path, seed: int) -> SomCorpus:
    """SOM_CLIPS clips of 0.5-1.0 s from four timbre families at three rates.

    Names are a seeded shuffle of clip_NNN.wav, so a file's name says
    nothing about its family; the benchmark keeps the family map itself.
    """
    rng = np.random.default_rng([seed, 3])
    corpus = root / "som_corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    names = rng.permutation(SOM_CLIPS)
    family = {}
    for i in range(SOM_CLIPS):
        fam = i % len(SOM_FAMILIES)
        rate = SOM_RATES[i % len(SOM_RATES)]
        seconds = 0.5 + 0.05 * ((7 * i) % 11)
        name = f"clip_{names[i]:03d}.wav"
        write_wav(corpus / name, _som_clip(rng, fam, seconds, rate), rate,
                  "pcm16" if i % 2 == 0 else "float32")
        family[name] = fam
    return SomCorpus(corpus, family)
