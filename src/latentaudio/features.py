"""Per-file bag-of-frames thumbnails.

A recording is summarized by framing it, computing a small per-frame
feature vector (MFCCs, spectral centroid, RMS energy by default), and
concatenating the per-feature means with the per-feature standard
deviations. Two files sound alike when their thumbnails are close, which
is all the map layer needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioBuffer, frame_view, resample
from .exceptions import TooShortError


@dataclass(frozen=True)
class FeatureConfig:
    """Thumbnail recipe; a thumbnail has 2 x (n_mfcc + centroid + rms) entries.

    Buffers are resampled to sample_rate before analysis so thumbnails
    from mixed-rate corpora stay comparable.
    """

    sample_rate: int = 44100
    frame_size: int = 2048
    hop: int = 1024
    n_mfcc: int = 13
    n_mels: int = 26
    centroid: bool = True
    rms: bool = True

    def __post_init__(self):
        if self.frame_size < 2 or self.hop < 1:
            raise ValueError("frame_size must be >= 2 and hop >= 1")
        if not 0 < self.n_mfcc <= self.n_mels:
            raise ValueError("need 0 < n_mfcc <= n_mels")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")


@dataclass(frozen=True)
class Thumbnail:
    """Feature means then stds for one file."""

    features: np.ndarray
    file_ref: str | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 1:
            raise ValueError(f"features must be 1-D, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("thumbnail features must be finite")
        object.__setattr__(self, "features", features)


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(sample_rate: int, n_fft: int, n_mels: int) -> np.ndarray:
    """Triangular filters spaced evenly on the mel scale, (n_mels, n_fft//2+1)."""
    mel_points = np.linspace(0.0, _hz_to_mel(sample_rate / 2), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    bank = np.zeros((n_mels, len(bin_freqs)))
    for i in range(n_mels):
        left, center, right = hz_points[i : i + 3]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def dct_ii_matrix(n_in: int, n_out: int) -> np.ndarray:
    """First n_out rows of the orthonormal DCT-II on n_in points, (n_out, n_in).

    Row k is sqrt(2/n_in) * cos(pi * k * (2n + 1) / (2 * n_in)), with row 0
    scaled to sqrt(1/n_in), so x @ matrix.T is the orthonormal DCT-II of x
    truncated to its first n_out coefficients.
    """
    k = np.arange(n_out)[:, None]
    n = np.arange(n_in)
    scale = np.full((n_out, 1), np.sqrt(2.0 / n_in))
    scale[0] = np.sqrt(1.0 / n_in)
    return scale * np.cos(np.pi * k * (2 * n + 1) / (2 * n_in))


@lru_cache(maxsize=16)
def _spectral_tables(sample_rate: int, frame_size: int, n_mels: int, n_mfcc: int) -> tuple:
    """Hann window, mel bank, rfft bin frequencies and MFCC DCT for one recipe.

    Built once per recipe and shared by every call, so they are read-only.
    """
    tables = (
        np.hanning(frame_size),
        mel_filterbank(sample_rate, frame_size, n_mels),
        np.arange(frame_size // 2 + 1) * (sample_rate / frame_size),
        dct_ii_matrix(n_mels, n_mfcc),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def frame_features(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Per-frame feature matrix, one row per frame: the MFCCs, then the
    centroid and the RMS where config asks for them.

    frames may be any (N, frame_size) array, a strided view included; it
    is converted to float64 (one copy, none for float64) and not modified.
    """
    hann, bank, bin_freqs, dct = _spectral_tables(
        config.sample_rate, config.frame_size, config.n_mels, config.n_mfcc
    )
    frames = np.asarray(frames, dtype=np.float64)
    # one work buffer: the squares for the RMS, then the Hann-windowed frames
    work = np.empty_like(frames)
    if config.rms:
        # np.mean's own steps: add.reduce, then divide by the count
        squares = np.multiply(frames, frames, out=work)
        rms = np.sqrt(np.add.reduce(squares, axis=1) / frames.shape[1])
    spectra = np.abs(np.fft.rfft(np.multiply(frames, hann, out=work), axis=1))
    log_mel = np.log(spectra @ bank.T + 1e-10)
    mfcc = log_mel @ dct.T

    columns = [mfcc]
    if config.centroid:
        total = spectra.sum(axis=1)
        # silent frames have no spectral mass; define their centroid as 0
        centroid = np.divide(
            spectra @ bin_freqs, total, out=np.zeros_like(total), where=total > 0
        )
        columns.append(centroid[:, None])
    if config.rms:
        columns.append(rms[:, None])
    return np.concatenate(columns, axis=1)


def extract_thumbnail(buffer: AudioBuffer, config: FeatureConfig, file_ref=None) -> Thumbnail:
    """Per-feature means then standard deviations of one buffer, named file_ref."""
    buffer = resample(buffer, config.sample_rate)
    if len(buffer) < config.frame_size:
        raise TooShortError(
            f"need at least {config.frame_size} samples at {config.sample_rate} Hz, "
            f"got {len(buffer)}"
        )
    frames = frame_view(buffer.samples, config.frame_size, config.hop)
    feats = frame_features(frames, config)
    # anchor on the first frame so constant features get exactly zero spread
    centered = feats - feats[0]
    offsets = centered.mean(axis=0)
    means = feats[0] + offsets
    stds = np.sqrt(((centered - offsets) ** 2).mean(axis=0))
    return Thumbnail(np.concatenate([means, stds]), file_ref=file_ref)
