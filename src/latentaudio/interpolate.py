"""Latent-path encoding and the three interpolation synthesis strategies.

A recording becomes a path: (N, M) arrays of mu and log-variance, one
row per window. Synthesis blends two paths, window by window, and
decodes the blend back to audio:

  * stepwise: one global weight per segment, swept from 0 to r in steps
    of s, segments concatenated in sweep order;
  * meso: a per-window weight curve over non-overlapping windows, output
    duration matches the (truncated) inputs;
  * extended: the same per-window blend over overlapping windows, whose
    decoded frames are concatenated without overlap-add, stretching
    duration by window_size / hop.

Blending is linear in mu and in sigma (not log-variance), weight on a
and complement on b. Synthesis blends a block of at most _BLOCK windows
at a time in float64 (so weights 0 and 1 reproduce the endpoint
encodings bit-exactly), casts it to the model dtype, decodes it and
joins its frames. Frame i of a window-W, crossfade-k join starts at
sample i * (W - k); array passes ramp seams in frame order, so once block
[i0, i1) is joined, every sample before i1 * (W - k) is final. A
Rendering yields those samples block by block and carries only the k
after them: the render_* functions hand it to a writer (the CLI streams
it into the WAV, so memory beyond the encoded paths is a few blocks),
and the *_interpolate functions fill one AudioBuffer from it. Encoding
stays whole-path: batches of other row counts can give other bits.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .audio import MAX_FLOAT32_SAMPLES, AudioBuffer, truncate_pair, window
from .container import atomic_write
from .exceptions import (
    BadStepError,
    CurveLengthMismatchError,
    EmptySpecError,
    ShapeMismatchError,
)
from .vae import VaeModel, decode_frames, encode_frames

_SIGMA_FLOOR = 1e-6
_BLOCK = 256  # windows blended and decoded at a time


@dataclass(frozen=True)
class LatentPath:
    """Posterior stats for one recording: row i of mu and logvar is window i."""

    mu: np.ndarray
    logvar: np.ndarray

    def __post_init__(self):
        mu, logvar = np.asarray(self.mu), np.asarray(self.logvar)
        if mu.ndim != 2 or mu.shape != logvar.shape:
            raise ShapeMismatchError(
                f"mu {mu.shape} and logvar {logvar.shape} must be equal 2-D shapes"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "logvar", logvar)

    def __len__(self) -> int:
        return len(self.mu)

    @property
    def latent_dim(self) -> int:
        return self.mu.shape[1]

    def means(self) -> np.ndarray:
        return self.mu


@dataclass(frozen=True)
class InterpolationCurve:
    """Per-window blend weights, clamped into [-1, 1] on construction."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or len(values) < 1:
            raise ValueError("curve needs a 1-D, nonempty value sequence")
        if not np.isfinite(values).all():
            raise ValueError("curve values must be finite")
        object.__setattr__(self, "values", np.clip(values, -1.0, 1.0))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SynthesisMode:
    """How latents are realized: posterior means, or seeded sampling."""

    kind: str
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("mean_only", "sampled"):
            raise ValueError(f"unknown synthesis mode {self.kind!r}")
        if self.kind == "sampled" and (self.seed is None or self.seed < 0):
            raise ValueError(f"seed must be >= 0 for sampled mode, got {self.seed}")

    @classmethod
    def mean_only(cls) -> "SynthesisMode":
        return cls("mean_only")

    @classmethod
    def sampled(cls, seed: int) -> "SynthesisMode":
        return cls("sampled", seed)


def encode_audio(model: VaeModel, buffer: AudioBuffer, hop: int) -> LatentPath:
    """Window the buffer and encode every window, order preserved.

    The buffer must already be at the model's sample rate; the caller
    owns resampling.
    """
    return LatentPath(*encode_frames(model, window(buffer, model.hyper.window_size, hop)))


def _number(item: str, text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"curve item {item!r} is not a finite number")
    return value


def generate_curve(spec: str, length: int) -> InterpolationCurve:
    """Build a curve of the given length from a compact text spec.

    Forms: "const:<c>", "lin:<a>:<b>", "sine:p=<period>,ph=<phase>,
    a=<amplitude>,o=<offset>" (all optional, value = o + a*sin(2*pi*i/p
    + ph)), "bp:<idx>=<val>,..." (piecewise-linear breakpoints). Values
    land in [-1, 1] by clamping. A number that is not finite, or a spec
    whose arithmetic overflows float64, is a ValueError, not a warning.
    """
    if length < 1:
        raise ValueError(f"curve length must be >= 1, got {length}")
    spec = (spec or "").strip()
    if not spec:
        raise EmptySpecError("empty curve spec")
    kind, _, body = spec.partition(":")
    try:
        with np.errstate(over="raise", invalid="raise"):
            values = _curve_values(kind, body, length)
        if not np.isfinite(values).all():  # np.interp overflows without a floating-point error
            raise FloatingPointError
    except FloatingPointError:
        raise ValueError(f"curve {spec!r} overflows float64 over {length} windows") from None
    return InterpolationCurve(values)


def _curve_values(kind: str, body: str, length: int) -> np.ndarray:
    if kind == "const":
        return np.full(length, _number(body, body))
    if kind == "lin":
        start_s, _, end_s = body.partition(":")
        return np.linspace(_number(start_s, start_s), _number(end_s, end_s), length)
    if kind == "sine":
        params = {"p": float(length), "ph": 0.0, "a": 1.0, "o": 0.0}
        for item in filter(None, body.split(",")):
            key, _, val = item.partition("=")
            if key not in params:
                raise ValueError(f"unknown sine parameter {key!r}")
            params[key] = _number(item, val)
        if params["p"] == 0:
            raise ValueError("sine period must be nonzero")
        i = np.arange(length)
        return params["o"] + params["a"] * np.sin(2.0 * np.pi * i / params["p"] + params["ph"])
    if kind == "bp":
        points = []
        for item in filter(None, body.split(",")):
            idx_s, _, val_s = item.partition("=")
            points.append((_number(item, idx_s), _number(item, val_s)))
        if not points:
            raise ValueError("breakpoint spec needs at least one index=value pair")
        points.sort()
        xs, ys = zip(*points)
        return np.interp(np.arange(length), xs, ys)
    raise ValueError(f"unknown curve kind {kind!r}")


def _check_crossfade(model: VaeModel, crossfade: int) -> None:
    if not 0 <= crossfade < model.hyper.window_size:
        raise ValueError(f"crossfade must be in [0, {model.hyper.window_size}), got {crossfade}")


@dataclass(frozen=True)
class Rendering:
    """Synthesized audio of a known length, made as its blocks are iterated.

    blocks yields 1-D arrays of the model dtype, in output order, whose
    lengths sum to length. Iterating runs the decoder, and it can be done
    once.
    """

    length: int
    sample_rate: int
    blocks: Iterator[np.ndarray]

    def buffer(self) -> AudioBuffer:
        """Every block, in one float32 buffer."""
        out = np.empty(self.length, dtype=np.float32)
        end = 0
        for block in self.blocks:
            out[end : end + len(block)] = block
            end += len(block)
        return AudioBuffer(out, self.sample_rate)


def _render(model: VaeModel, n_rows: int, rows, mode: SynthesisMode, k: int) -> Rendering:
    """The join of the decoded rows as a Rendering; ValueError, before anything
    is decoded, if it is longer than one float32 WAV holds."""
    length = n_rows * (model.hyper.window_size - k) + k if n_rows else 0
    if length > MAX_FLOAT32_SAMPLES:
        raise ValueError(f"{length} output samples are more than one float32 WAV holds")
    return Rendering(length, model.hyper.sample_rate, _decode_blocks(model, n_rows, rows, mode, k))


def _decode_blocks(model: VaeModel, n_rows: int, rows, mode: SynthesisMode, k: int):
    """Decode the rows(i, sampled) -> (means, stds or None) of a path; yield the join.

    Blocks hold 2 to _BLOCK rows (BLAS decodes a lone row through gemv, with
    other bits); eps continues one generator's stream. Frame i starts at i*s,
    s = W - k; pass d = 0, 1, ... ramps, in every seam, the offsets t that lie
    under d = ceil((k - t)/s) - 1 earlier seams. Block [i0, i1) yields samples
    [i0*s, i1*s), which later frames no longer touch, and carries the k after
    them into the next block; the last block yields them too.
    """
    if not n_rows:
        return
    s = model.hyper.window_size - k
    n_blocks = -(-n_rows // _BLOCK)
    bounds = [n_rows * j // n_blocks for j in range(n_blocks + 1)]
    sampled = mode.kind == "sampled"
    rng = np.random.default_rng(mode.seed) if sampled else None
    ramp = (np.arange(k, dtype=model.dtype) + 1) / (k + 1)
    tail = None
    for i0, i1 in zip(bounds, bounds[1:]):
        means, stds = rows(np.arange(i0, i1), sampled)
        z = means + stds * rng.standard_normal(means.shape) if sampled else means
        frames = decode_frames(model, z.astype(model.dtype, copy=False))
        n = i1 - i0
        out = np.empty(n * s + k, dtype=model.dtype)  # samples [i0*s, i1*s + k)
        out[k:].reshape(n, s)[:] = frames[:, k:]
        out[:k] = frames[0, :k] if i0 == 0 else tail
        j = 1 if i0 == 0 else 0  # frame 0 has no seam
        for d in range(-(-k // s)):
            lo, hi = max(k - (d + 1) * s, 0), k - d * s
            seams = out[lo : lo + n * s].reshape(n, s)[j:, : hi - lo]
            seams[...] = seams * (1 - ramp[lo:hi]) + frames[j:, lo:hi] * ramp[lo:hi]
        tail = out[n * s :]
        yield out if i1 == n_rows else out[: n * s]


def decode_path(
    model: VaeModel, means, stds, mode: SynthesisMode, crossfade: int = 0
) -> AudioBuffer:
    """Decode a sequence of latent (mean, std) rows into one buffer.

    mean_only ignores stds; sampled draws one eps row per window from a
    single generator seeded by the mode, so equal seeds give identical
    audio. Frames are joined end-to-end (length = count * window_size)
    unless a crossfade width is given.
    """
    means, stds = np.asarray(means), np.asarray(stds)
    if means.ndim != 2 or means.shape != stds.shape:
        raise ShapeMismatchError(
            f"means {means.shape} and stds {stds.shape} must be equal 2-D shapes"
        )
    if means.shape[1] != model.hyper.latent_dim:
        raise ShapeMismatchError(
            f"latent dim {means.shape[1]} != model's {model.hyper.latent_dim}"
        )
    if np.any(stds < 0):
        raise ValueError("stds must be entrywise >= 0")
    _check_crossfade(model, crossfade)
    return _render(model, len(means), lambda i, _: (means[i], stds[i]), mode, crossfade).buffer()


def _blend_rows(path_a: LatentPath, path_b: LatentPath, weight):
    """rows for _decode_blocks: row i blends window i % N, weight(i) on a; sigma floored.
    Only sampled rows read the sigmas, so only they exponentiate a block's logvar."""

    def rows(i, sampled):
        w, i = weight(i)[:, None], i % len(path_a)
        means = w * path_a.mu[i] + (1.0 - w) * path_b.mu[i]
        if not sampled:
            return means, None
        stds = w * np.exp(path_a.logvar[i] / 2) + (1.0 - w) * np.exp(path_b.logvar[i] / 2)
        return means, np.maximum(stds, _SIGMA_FLOOR)

    return rows


def _encode_pair(model, a: AudioBuffer, b: AudioBuffer, hop: int):
    a, b = truncate_pair(a, b)
    return encode_audio(model, a, hop), encode_audio(model, b, hop)


def stepwise_interpolate(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    range_r: float,
    step_s: float,
    mode: SynthesisMode,
    crossfade: int = 0,
) -> AudioBuffer:
    """Sweep a global blend weight from 0 to range_r in steps of step_s.

    Segment i uses weight w = i * step_s on input a and (1 - w) on input
    b; the floor(range_r / step_s) + 1 equal-length segments are decoded
    as one path and concatenated in sweep order. Weights above 1 (when
    range_r > 1) extrapolate rather than clamp.
    """
    return render_stepwise(model, a, b, range_r, step_s, mode, crossfade).buffer()


def render_stepwise(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    range_r: float,
    step_s: float,
    mode: SynthesisMode,
    crossfade: int = 0,
) -> Rendering:
    """stepwise_interpolate's output as a Rendering: the inputs are encoded
    and every argument is checked now, the blocks are decoded as they are read."""
    if not 0 < step_s < math.inf:
        raise BadStepError(f"step must be finite and > 0, got {step_s}")
    if not 0 <= range_r / step_s < math.inf:
        raise BadStepError(f"range must be >= 0 with a finite range / step, got {range_r}")
    # small epsilon so ratios like 0.8/0.2 land on their exact integer
    n_segments = int(math.floor(range_r / step_s + 1e-9)) + 1
    _check_crossfade(model, crossfade)
    path_a, path_b = _encode_pair(model, a, b, model.hyper.window_size)
    rows = _blend_rows(path_a, path_b, lambda i: i // len(path_a) * step_s)
    return _render(model, n_segments * len(path_a), rows, mode, crossfade)


def meso_interpolate(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    curve: InterpolationCurve,
    mode: SynthesisMode,
    crossfade: int = 0,
) -> AudioBuffer:
    """Blend per window under a weight curve; duration matches the inputs.

    Windows are non-overlapping, so the output is as long as the
    truncated inputs rounded down to whole windows.
    """
    return extended_interpolate(model, a, b, curve, mode, model.hyper.window_size, crossfade)


def extended_interpolate(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    curve: InterpolationCurve,
    mode: SynthesisMode,
    hop: int = 256,
    crossfade: int = 0,
) -> AudioBuffer:
    """Per-window curve blend over overlapping windows.

    Decoded frames are concatenated without overlap-add, so every input
    sample is rendered window_size / hop times and the output duration
    stretches by that factor (4x at the 1024/256 defaults). hop equal to
    window_size degenerates to meso_interpolate.
    """
    return render_extended(model, a, b, curve, mode, hop, crossfade).buffer()


def render_extended(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    curve: InterpolationCurve,
    mode: SynthesisMode,
    hop: int = 256,
    crossfade: int = 0,
) -> Rendering:
    """extended_interpolate's output (meso_interpolate's at hop = window size)
    as a Rendering: checked and encoded now, decoded as it is read."""
    _check_crossfade(model, crossfade)
    path_a, path_b = _encode_pair(model, a, b, hop)
    if len(curve) != len(path_a):
        raise CurveLengthMismatchError(
            f"curve has {len(curve)} values but the inputs give {len(path_a)} windows"
        )
    rows = _blend_rows(path_a, path_b, lambda i: curve.values[i])
    return _render(model, len(path_a), rows, mode, crossfade)


def export_latents(path: LatentPath, file) -> None:
    """Write one CSV row per window to the file path, atomically: index, mu
    entries, logvar entries.

    Values are float32 printed to 9 significant digits, which parse back
    to the same float32; an empty (0, M) path writes just the header.
    """
    m = path.latent_dim
    columns = ["idx"] + [f"mu_{i}" for i in range(m)] + [f"lv_{i}" for i in range(m)]
    row_format = "%d" + ",%.9g" * (2 * m) + "\n"
    rows = np.concatenate([path.mu, path.logvar], axis=1).astype(np.float32)
    with atomic_write(file, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for idx, values in enumerate(rows.tolist()):
            fh.write(row_format % (idx, *values))
