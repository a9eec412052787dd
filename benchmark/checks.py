"""Independent checks on the program's outputs.

Nothing here imports latentaudio. Files are parsed by the benchmark's
own readers, and model outputs are compared against the benchmark's own
numpy forward pass over the checkpoint tensors, taken in the order the
program documents: encoder hidden layers, mu head, logvar head, decoder
layers, each as W (fan_in, fan_out) then b; then the Adam first and
second moments in the same order, then the (epochs, 2) loss history.
"""

from __future__ import annotations

import math
import struct
import zlib
from pathlib import Path

import numpy as np

LEAKY_SLOPE = np.float32(0.01)
# float32 outputs in (-1, 1): BLAS blocking may reorder the sums, nothing more
SAMPLE_ATOL = 1e-4
LATENT_ATOL = 1e-4


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ------------------------------------------------------------ file readers

def read_wav(path) -> tuple[np.ndarray, int]:
    """Mono PCM16 or float32 WAV -> (float32 samples, rate)."""
    raw = Path(path).read_bytes()
    require(raw[:4] == b"RIFF" and raw[8:12] == b"WAVE", f"{path}: not RIFF/WAVE")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", raw, pos + 8)
        elif cid == b"data":
            data = raw[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    require(fmt is not None and data is not None, f"{path}: missing fmt or data")
    tag, channels, rate, _, _, bits = fmt
    require(channels == 1, f"{path}: expected mono, got {channels} channels")
    if (tag, bits) == (3, 32):
        return np.frombuffer(data, "<f4").astype(np.float32), rate
    require(bits == 16 and tag in (1, 0xFFFE), f"{path}: tag {tag} at {bits} bits")
    return (np.frombuffer(data, "<i2").astype(np.float32) / np.float32(32768.0)), rate


def read_container(path) -> tuple[dict, list]:
    """magic(7) u32 header_len, key=value header, tensors, CRC32 trailer."""
    raw = Path(path).read_bytes()
    (crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    require(zlib.crc32(raw[:-4]) & 0xFFFFFFFF == crc, f"{path}: CRC mismatch")
    (hlen,) = struct.unpack_from("<I", raw, 7)
    header = dict(
        line.split("=", 1) for line in raw[11:11 + hlen].decode().splitlines() if line
    )
    pos, end, tensors = 11 + hlen, len(raw) - 4, []
    while pos < end:
        (rank,) = struct.unpack_from("<I", raw, pos)
        shape = struct.unpack_from(f"<{rank}I", raw, pos + 4)
        pos += 4 + 4 * rank
        count = math.prod(shape)
        tensors.append(np.frombuffer(raw, "<f4", count, pos).reshape(shape))
        pos += 4 * count
    return header, tensors


# ------------------------------------------------------------ reference model

def checkpoint_shapes(header: dict) -> list:
    """Parameter shapes the checkpoint's hyperparameters imply, in stream order."""
    w, m = int(header["window_size"]), int(header["latent_dim"])
    hidden = [int(h) for h in header["hidden_sizes"].split(",") if h]
    enc = [w, *hidden]
    dec = [m, *reversed(hidden), w]
    shapes = []
    for i, o in zip(enc[:-1], enc[1:]):
        shapes += [(i, o), (o,)]
    shapes += [(enc[-1], m), (m,), (enc[-1], m), (m,)]
    for i, o in zip(dec[:-1], dec[1:]):
        shapes += [(i, o), (o,)]
    return shapes


class ReferenceModel:
    """Dense VAE forward pass in float32: leaky hidden layers, tanh output."""

    def __init__(self, checkpoint_path):
        header, tensors = read_container(checkpoint_path)
        check_checkpoint(header, tensors)
        self.window = int(header["window_size"])
        self.latent = int(header["latent_dim"])
        self.rate = int(header["sample_rate"])
        n_hidden = len([h for h in header["hidden_sizes"].split(",") if h])
        params = [np.asarray(t, dtype=np.float32) for t in tensors[: 4 * n_hidden + 6]]
        pairs = [params[i:i + 2] for i in range(0, len(params), 2)]
        self.encoder = pairs[:n_hidden]
        self.mu_head, self.logvar_head = pairs[n_hidden], pairs[n_hidden + 1]
        self.decoder = pairs[n_hidden + 2:]

    @staticmethod
    def _leaky(pre):
        return np.where(pre > 0, pre, LEAKY_SLOPE * pre)

    def encode(self, frames) -> tuple[np.ndarray, np.ndarray]:
        h = np.asarray(frames, dtype=np.float32)
        for w, b in self.encoder:
            h = self._leaky(h @ w + b)
        return h @ self.mu_head[0] + self.mu_head[1], h @ self.logvar_head[0] + self.logvar_head[1]

    def decode(self, z) -> np.ndarray:
        h = np.asarray(z, dtype=np.float32)
        for w, b in self.decoder[:-1]:
            h = self._leaky(h @ w + b)
        w, b = self.decoder[-1]
        return np.tanh(h @ w + b)


def resample_linear(samples: np.ndarray, src: int, dst: int) -> np.ndarray:
    """The program's documented law: linear interpolation, round(L*dst/src) samples."""
    if src == dst:
        return samples
    n_out = int(round(len(samples) * dst / src))
    pos = np.arange(n_out) * (src / dst)
    return np.interp(pos, np.arange(len(samples)), samples).astype(np.float32)


def load_at(path, rate: int) -> np.ndarray:
    samples, src = read_wav(path)
    return resample_linear(samples, src, rate)


def frames_of(x: np.ndarray, size: int, hop: int) -> np.ndarray:
    n = (len(x) - size) // hop + 1
    idx = np.arange(n)[:, None] * hop + np.arange(size)
    return x[idx]


def blend_decode(model: ReferenceModel, a, b, weights, hop: int, tiles: int = 1) -> np.ndarray:
    """Mean-mode decode of w*mu_a + (1-w)*mu_b, windows joined end to end."""
    n = min(len(a), len(b))
    mu_a, _ = model.encode(frames_of(a[:n], model.window, hop))
    mu_b, _ = model.encode(frames_of(b[:n], model.window, hop))
    w = np.asarray(weights, dtype=np.float64)[:, None]
    z = w * np.tile(mu_a, (tiles, 1)).astype(np.float64) + (1.0 - w) * np.tile(
        mu_b, (tiles, 1)
    ).astype(np.float64)
    return model.decode(z.astype(np.float32))


def crossfade_expected(frames: np.ndarray, k: int) -> np.ndarray:
    """Seams overlap by k samples; a linear ramp (j+1)/(k+1) fades the next frame in."""
    n, width = frames.shape
    ramp = (np.arange(k) + 1) / (k + 1)
    env = np.ones((n, width))
    env[1:, :k] = ramp
    env[:-1, width - k:] = 1.0 - ramp
    starts = np.arange(n)[:, None] * (width - k) + np.arange(width)
    out = np.zeros(n * width - (n - 1) * k)
    np.add.at(out, starts.reshape(-1), (env * frames).reshape(-1))
    return out


# ------------------------------------------------------------ length laws

def window_count(n: int, size: int, hop: int) -> int:
    return (n - size) // hop + 1 if n >= size else 0


def joined_length(n_windows: int, size: int, crossfade: int = 0) -> int:
    return n_windows * size - max(n_windows - 1, 0) * crossfade


def step_segments(range_r: float, step_s: float) -> int:
    return int(math.floor(range_r / step_s + 1e-9)) + 1


# ------------------------------------------------------------ checks

def check_audio(samples: np.ndarray, label: str) -> None:
    require(len(samples) > 0, f"{label}: empty output")
    require(bool(np.isfinite(samples).all()), f"{label}: non-finite samples")
    peak = float(np.max(np.abs(samples)))
    require(peak < 1.0, f"{label}: peak |s| = {peak} is not below 1")


def check_length(actual: int, expected: int, label: str) -> None:
    require(actual == expected, f"{label}: {actual} samples, the length law gives {expected}")


def check_close(actual, expected, atol: float, label: str) -> None:
    actual, expected = np.asarray(actual), np.asarray(expected)
    require(actual.shape == expected.shape, f"{label}: shape {actual.shape} != {expected.shape}")
    err = float(np.max(np.abs(actual.astype(np.float64) - expected))) if actual.size else 0.0
    require(err <= atol, f"{label}: max deviation {err:.3g} from the reference exceeds {atol}")


def check_identical(a: bytes, b: bytes, label: str) -> None:
    require(a == b, f"{label}: outputs differ byte for byte")


def check_latents_csv(text: str, mu: np.ndarray, logvar: np.ndarray) -> None:
    lines = text.splitlines()
    m = mu.shape[1]
    require(lines[0].split(",") == ["idx"] + [f"mu_{i}" for i in range(m)] + [f"lv_{i}" for i in range(m)],
            "export-latents: unexpected header")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    require(rows.shape == (len(mu), 1 + 2 * m), f"export-latents: table shape {rows.shape}")
    require(bool((rows[:, 0] == np.arange(len(mu))).all()), "export-latents: bad row index")
    check_close(rows[:, 1:1 + m], mu, LATENT_ATOL, "export-latents mu")
    check_close(rows[:, 1 + m:], logvar, LATENT_ATOL, "export-latents logvar")


def check_checkpoint(header: dict, tensors: list, epochs: int | None = None) -> None:
    """Parameters, then Adam m and v of the same shapes, then the loss history."""
    shapes = checkpoint_shapes(header)
    require(len(tensors) == 3 * len(shapes) + 1,
            f"checkpoint: {len(tensors)} tensors, hyperparameters imply {3 * len(shapes) + 1}")
    got = [tuple(t.shape) for t in tensors[:-1]]
    require(got == shapes * 3, "checkpoint: tensor shapes do not follow the hyperparameters")
    rows = int(header["epochs"]) if epochs is None else epochs
    require(tuple(tensors[-1].shape) == (rows, 2), f"checkpoint: loss history {tensors[-1].shape}")


def check_loss_log(text: str, epochs: int) -> None:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    require(len(rows) == epochs, f"loss log: {len(rows)} rows for {epochs} epochs")
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    require([int(row[0]) for row in rows] == list(range(1, epochs + 1)), "loss log: epoch column")
    require(bool(np.isfinite(values).all()), "loss log: non-finite loss")
    require(values[-1, 0] < values[0, 0],
            f"loss log: reconstruction {values[-1, 0]} did not fall below {values[0, 0]}")


def parse_clusters(text: str) -> dict:
    """'x,y: a.wav;b.wav' lines -> {(x, y): [names]}."""
    clusters = {}
    for line in text.splitlines():
        unit, _, members = line.partition(": ")
        x, y = (int(v) for v in unit.split(","))
        clusters[(x, y)] = members.split(";")
    return clusters


def check_clusters(clusters: dict, family: dict) -> None:
    members = [m for ms in clusters.values() for m in ms]
    require(sorted(members) == sorted(family), "som clusters: not a partition of the corpus")
    for unit, ms in clusters.items():
        families = {family[m] for m in ms}
        require(len(families) == 1, f"som clusters: unit {unit} mixes families {sorted(families)}")


def check_qe(qe_history) -> None:
    qe = np.asarray(qe_history, dtype=np.float64)
    require(len(qe) > 0 and bool(np.isfinite(qe).all()), "som map: bad QE history")
    require(qe[-1] <= qe[0], f"som map: final QE {qe[-1]} exceeds the first epoch's {qe[0]}")


def concat_length(lengths_rates: list) -> int:
    """Members sorted by name, each resampled to the first member's rate."""
    rate0 = lengths_rates[0][1]
    return sum(n if r == rate0 else int(round(n * rate0 / r)) for n, r in lengths_rates)
