"""Shared builders for test fixtures."""

import numpy as np

from latentaudio import AudioBuffer, VaeHyperParams, init_model, save_wav


def make_sine(freq=440.0, seconds=1.0, rate=44100, amplitude=0.8, phase=0.0):
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    samples = amplitude * np.sin(2 * np.pi * freq * t + phase)
    return AudioBuffer(samples.astype(np.float32), rate)


def make_noise(seconds=1.0, rate=8000, amplitude=0.5, seed=0):
    rng = np.random.default_rng(seed)
    n = int(round(seconds * rate))
    samples = amplitude * rng.uniform(-1.0, 1.0, n)
    return AudioBuffer(samples.astype(np.float32), rate)


def float32_model(hyper: VaeHyperParams):
    """An untrained model in the float32 inference dtype."""
    return init_model(hyper, dtype=np.float32)


def write_corpus(directory, rate=8000, n_files=4, seconds=1.0):
    """Small deterministic WAV corpus; returns the file paths."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    paths = []
    for i, freq in enumerate((220.0, 330.0, 495.0, 742.5)[:n_files]):
        n = int(round(seconds * rate))
        t = np.arange(n) / rate
        x = 0.8 * np.sin(2 * np.pi * freq * t) + 0.02 * rng.standard_normal(n)
        buf = AudioBuffer(np.clip(x, -1.0, 1.0).astype(np.float32), rate)
        path = directory / f"tone{i}.wav"
        save_wav(buf, path)
        paths.append(path)
    return paths
