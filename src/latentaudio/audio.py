"""Audio loading, writing, and windowing.

Everything downstream consumes mono float32 buffers in [-1, 1], so the
decoders here normalize channel count and sample format at the door.
The WAV codec is deliberately minimal: RIFF/WAVE little-endian with
"fmt " and "data" chunks, PCM16, PCM24 or IEEE float32 payloads (plain
or WAVE_FORMAT_EXTENSIBLE) on input, float32 on output, nothing else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .container import atomic_write
from .exceptions import (
    MalformedWavError,
    RateMismatchError,
    TooShortError,
    UnsupportedEncodingError,
)

_WAVE_PCM = 1
_WAVE_IEEE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
# bytes 2-15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0-1 hold the plain tag
_KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")
_FMT = struct.Struct("<HHIIHH")  # tag, channels, rate, byte rate, block align, bits
# the 32-bit RIFF size counts "WAVE", both chunk headers, the fmt body and the data
_RIFF_OVERHEAD = 4 + 8 + _FMT.size + 8
_RIFF_MAX = 2**32 - 1
MAX_FLOAT32_SAMPLES = (_RIFF_MAX - _RIFF_OVERHEAD) // 4  # the most one float32 WAV holds
_RESAMPLE_BLOCK = 65536  # output samples interpolated at a time
_DOWNMIX_BLOCK = 65536  # frames averaged at a time


@dataclass(frozen=True)
class AudioBuffer:
    """Mono float32 samples plus their sample rate.

    Samples are dimensionless amplitudes; after normalization every value
    satisfies |s| <= 1. Empty buffers are legal but rejected by windowing.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float32)
        if samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def load_wav(path) -> AudioBuffer:
    """Decode a RIFF/WAVE file into a mono AudioBuffer.

    PCM16 and PCM24 samples are scaled by 1/2**15 and 1/2**23, exactly;
    multichannel input is downmixed by arithmetic mean, taken in float64
    and rounded to float32 once, so loud finite channels cannot sum to
    inf; the float64 means are taken _DOWNMIX_BLOCK frames at a time. The
    buffer keeps the file's native sample rate.

    Raises:
        MalformedWavError: broken header or chunk bookkeeping, or NaN/inf
            float samples.
        UnsupportedEncodingError: any encoding other than PCM16/PCM24/float32,
            plain or as the subformat of WAVE_FORMAT_EXTENSIBLE.
    """
    return _decode_wav(Path(path).read_bytes(), path)


def _decode_wav(raw: bytes, path) -> AudioBuffer:
    """load_wav on the file's bytes, already read; path names the file in errors."""
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    chunks = memoryview(raw)  # chunk bodies are views: the data is not copied out
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = chunks[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedWavError(f"{path}: chunk {chunk_id!r} overruns file")
        if chunk_id == b"fmt ":
            if size < 16:
                raise MalformedWavError(f"{path}: fmt chunk too small ({size} bytes)")
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise MalformedWavError(f"{path}: missing fmt or data chunk")

    tag, channels, rate, _byte_rate, _block_align, bits = _FMT.unpack_from(fmt)
    if tag == _WAVE_EXTENSIBLE:
        # cbSize, valid bits and channel mask, then the 16-byte SubFormat GUID
        if len(fmt) < 40:
            raise MalformedWavError(f"{path}: extensible fmt chunk of {len(fmt)} bytes")
        if fmt[26:40] != _KSDATAFORMAT_TAIL:
            raise UnsupportedEncodingError(f"{path}: unknown subformat {fmt[24:40].hex()}")
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if channels < 1 or rate <= 0:
        raise MalformedWavError(f"{path}: invalid fmt fields (ch={channels}, rate={rate})")
    if (tag, bits) not in ((_WAVE_PCM, 16), (_WAVE_PCM, 24), (_WAVE_IEEE_FLOAT, 32)):
        raise UnsupportedEncodingError(
            f"{path}: format tag {tag} at {bits} bits not supported"
        )

    if len(data) % (bits // 8 * channels) != 0:
        raise MalformedWavError(f"{path}: data size not a whole number of frames")
    if bits == 24:
        samples = _int24_samples(data)
    else:
        samples = np.frombuffer(data, dtype="<i2" if bits == 16 else "<f4").astype(np.float32)
    if tag == _WAVE_IEEE_FLOAT and not np.isfinite(samples).all():
        raise MalformedWavError(f"{path}: non-finite samples in float data")
    if tag == _WAVE_PCM:
        samples /= np.float32(2.0 ** (bits - 1))  # a power of two: exact in float32
    if channels > 1:
        # each row's mean is independent of the others: blocks give the whole array's bits
        frames = samples.reshape(-1, channels)
        samples = np.empty(len(frames), dtype=np.float32)
        for start in range(0, len(frames), _DOWNMIX_BLOCK):
            block = frames[start : start + _DOWNMIX_BLOCK]
            samples[start : start + len(block)] = block.mean(axis=1, dtype=np.float64)
    return AudioBuffer(samples, int(rate))


def _int24_samples(data) -> np.ndarray:
    """3-byte little-endian PCM as float32 integer values, exactly.

    Each sample goes into the top three bytes of an int32, an arithmetic
    shift sign-extends it, and the int32 array is converted to float32 in
    its own buffer, so memory is the file's bytes plus one array.
    """
    ints = np.zeros(len(data) // 3, dtype="<i4")
    ints.view(np.uint8).reshape(-1, 4)[:, 1:] = np.frombuffer(data, np.uint8).reshape(-1, 3)
    ints >>= 8
    samples = ints.view(np.float32)
    samples[...] = ints  # same 1-D layout: numpy casts element by element, no copy
    return samples


def save_wav(buffer: AudioBuffer, path) -> None:
    """Write a buffer as an IEEE float32 WAV, atomically.

    It round-trips bit-exactly through load_wav. A buffer too long for
    the 32-bit RIFF size raises ValueError before anything is copied.
    """
    write_wav((buffer.samples,), len(buffer), buffer.sample_rate, path)


def write_wav(blocks, n_samples: int, sample_rate: int, path) -> None:
    """save_wav for n_samples mono samples that arrive as consecutive 1-D blocks.

    The header is built and checked from n_samples before the file is
    opened, and each block is converted and written as it comes, so memory
    is a block, not the whole output. If the blocks raise, or hold other
    than n_samples samples, the error propagates and path keeps its old
    content, as for any atomic_write.
    """
    if n_samples == 0:
        raise ValueError("refusing to write an empty buffer")
    # from _RIFF_MAX at call time, not from MAX_FLOAT32_SAMPLES, so a patched limit holds
    if n_samples > (_RIFF_MAX - _RIFF_OVERHEAD) // 4:
        raise ValueError(f"{n_samples} samples are more than one float32 WAV holds")
    data_bytes = n_samples * 4
    fmt_chunk = _FMT.pack(_WAVE_IEEE_FLOAT, 1, sample_rate, sample_rate * 4, 4, 32)
    # mono 4-byte samples leave the data chunk word-aligned: no pad byte
    with atomic_write(path) as fh:
        fh.write(b"RIFF" + struct.pack("<I", _RIFF_OVERHEAD + data_bytes) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk)
        fh.write(b"data" + struct.pack("<I", data_bytes))
        written = 0
        for block in blocks:
            payload = np.ascontiguousarray(block, dtype="<f4")
            fh.write(payload)
            written += len(payload)
        if written != n_samples:
            raise ValueError(f"{written} samples written under a header for {n_samples}")


def peak_normalize(buffer: AudioBuffer) -> AudioBuffer:
    """Scale so the loudest sample sits at exactly 1.0.

    Division by the peak (rather than multiplying by its reciprocal) makes
    the operation exactly idempotent. All-zero buffers pass through.
    """
    peak = np.max(np.abs(buffer.samples)) if len(buffer) else np.float32(0.0)
    if peak == 0.0 or peak == 1.0:
        return buffer
    return AudioBuffer(buffer.samples / peak, buffer.sample_rate)


def resample(buffer: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Linear-interpolation resampling to target_rate.

    Output length is round(L * target_rate / source_rate). The identity
    rate returns the buffer unchanged. The output is filled in blocks of
    _RESAMPLE_BLOCK samples, so temporaries beyond it are a block in size.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == buffer.sample_rate:
        return buffer
    n_out = int(round(len(buffer) * target_rate / buffer.sample_rate))
    if len(buffer) == 0 or n_out == 0:
        return AudioBuffer(np.zeros(n_out, dtype=np.float32), target_rate)
    ratio = buffer.sample_rate / target_rate
    out = np.empty(n_out, dtype=np.float32)
    for start in range(0, n_out, _RESAMPLE_BLOCK):
        positions = np.arange(start, min(start + _RESAMPLE_BLOCK, n_out)) * ratio
        # interp over the samples that bracket these positions gives the bits of
        # one interp over the whole input; past the last sample both clamp to it
        lo, hi = int(positions[0]), min(int(positions[-1]) + 2, len(buffer))
        out[start : start + len(positions)] = np.interp(
            positions, np.arange(lo, hi, dtype=np.float64), buffer.samples[lo:hi]
        )
    return AudioBuffer(out, target_rate)


def window_count(n_samples: int, window_size: int, hop: int) -> int:
    """N = floor((L - window_size)/hop) + 1 frames fit in L samples.

    ValueError for a size or hop below 1, TooShortError below one window.
    """
    if window_size < 1:
        raise ValueError(f"window_size must be >= 1, got {window_size}")
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if n_samples < window_size:
        raise TooShortError(
            f"{n_samples} samples are shorter than one {window_size}-sample window"
        )
    return (n_samples - window_size) // hop + 1


def frame_view(samples: np.ndarray, window_size: int, hop: int) -> np.ndarray:
    """window()'s frames as a read-only strided view of samples, no copy."""
    n = window_count(len(samples), window_size, hop)
    return sliding_window_view(samples, window_size)[: n * hop : hop]


def window(buffer: AudioBuffer, window_size: int, hop: int) -> np.ndarray:
    """A float32 (N, window_size) copy of frame_view: row i holds samples
    [i*hop, i*hop + window_size), N = window_count(len(buffer), window_size, hop)."""
    return frame_view(buffer.samples, window_size, hop).copy()


def truncate_pair(a: AudioBuffer, b: AudioBuffer) -> tuple[AudioBuffer, AudioBuffer]:
    """Cut the longer buffer so both share the shorter one's length.

    Truncation keeps the head (sample 0 onward); the shorter buffer is
    returned unchanged.
    """
    if a.sample_rate != b.sample_rate:
        raise RateMismatchError(
            f"sample rates differ: {a.sample_rate} vs {b.sample_rate}"
        )
    n = min(len(a), len(b))
    if len(a) > n:
        a = AudioBuffer(a.samples[:n], a.sample_rate)
    if len(b) > n:
        b = AudioBuffer(b.samples[:n], b.sample_rate)
    return a, b
