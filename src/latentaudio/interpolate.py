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
and complement on b. Each strategy blends its paths a block of 2 to
_block() windows at a time, in float64 (so weights 0 and 1 reproduce the
endpoint encodings bit-exactly), and hands the blocks to one decoder,
which casts, decodes and joins them in order; a block with stds is
sampled (mean mode encodes no logvar, so it has none). A decoded row
keeps its bits in any block of 2 to 256 rows, but not as a lone row.
Frame i of a window-W, crossfade-k join starts at sample i * (W - k);
array passes ramp seams in frame order, so once a block is joined, every
sample before the next block's first frame is final. The decoder yields
those samples block by block and carries only the k after them: the
render_* functions return (length, those blocks) for a writer (the CLI
streams them into the WAV, so memory is a few blocks), and the
*_interpolate functions fill one AudioBuffer from them.

The matmuls can run on a small pool of worker threads. The pool has as
many workers as the CPUs the process may run on over the threads BLAS
gives each call (taskset and the BLAS thread variables both lower it), at
least 1. With two or more, _ahead hands each recipe-2 encode block and
each decode block to the pool _AHEAD blocks ahead of the one this thread
is joining, in blocks of _POOL_BLOCK rows; with one (BLAS already on
every CPU), the blocks are _BLOCK rows and run on this thread, one at a
time. This thread keeps all that depends on order: the eps draws from
the one seeded generator, the blend, the seam join and the writer. So a
render's bytes do not depend on the pool.

Encoding follows a numbered recipe, which synth and export-latents
sidecars record. _encoded, the one encode loop, yields an input's
latents on the decoder's _spans blocks. Recipe 2 (RECIPE, every new run)
encodes each block when it is reached, copied out of the input and
zero-padded to a multiple of 8 rows: so padded, a row's bits do not
depend on the rows beside it, while a batch of fewer than 8 rows, or of
every window of a long input, can give other bits. stepwise cycles over
its paths, so it joins them whole. Recipe 1 is one unpadded batch of
every window through the same block encoder, as runs made before recipe
2 encoded, so that their sidecars regenerate bit-exactly. Mean mode runs
the mu head only.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .audio import MAX_FLOAT32_SAMPLES, AudioBuffer, frame_view, truncate_pair, window_count
from .container import atomic_write
from .exceptions import (
    BadStepError,
    CurveLengthMismatchError,
    EmptySpecError,
    LoudInputError,
    ShapeMismatchError,
)
from .vae import VaeModel, decode_frames, encode_frames

RECIPE = 2  # the encoding recipe of new runs; a sidecar without one was made by recipe 1
_SIGMA_FLOOR = 1e-6
_BLOCK = 256  # windows encoded, blended and decoded at a time
_POOL_BLOCK = 128  # the same when the blocks run ahead on two or more workers
_AHEAD = 1  # blocks a pool stage runs past the one its reader holds
_OPENBLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_MKL_THREADS = ("MKL_NUM_THREADS", "OMP_NUM_THREADS")
_ROW_ALIGN = 8  # recipe-2 encode blocks are zero-padded to a multiple of this many rows
_CSV_ROWS = 1024  # latent rows formatted at a time


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
    owns resampling. Windows are encoded by recipe 2 (module docstring);
    encode_blocks(..., recipe=1) yields recipe 1's path in blocks.
    """
    return LatentPath(*_encode_path(model, buffer, hop, RECIPE))


def encode_blocks(model: VaeModel, buffer: AudioBuffer, hop: int, recipe: int = RECIPE
                  ) -> Iterator[LatentPath]:
    """encode_audio's path as consecutive LatentPaths, one per _spans block,
    each encoded when it is reached (recipe 1: all at the first block)."""
    return (LatentPath(*stats) for stats in _encoded(model, buffer, hop, recipe))


def _encoded(model: VaeModel, buffer: AudioBuffer, hop: int, recipe: int, with_logvar=True):
    """Yield (mu, logvar or None) for each _spans block of buffer's windows:
    under recipe 2 one _encode_block batch, padded to a multiple of
    _ROW_ALIGN rows, made through _ahead; under recipe 1 a slice of one
    unpadded batch of every window, made at the first block."""
    frames = frame_view(buffer.samples, model.hyper.window_size, hop)
    if recipe >= 2:
        yield from _ahead(lambda span: _encode_block(model, frames[slice(*span)], _ROW_ALIGN,
                                                     with_logvar), _spans(len(frames)))
        return
    whole = None
    for i0, i1 in _spans(len(frames)):
        if whole is None:
            whole = _encode_block(model, frames, 1, with_logvar)
        mu, logvar = whole
        yield mu[i0:i1], None if logvar is None else logvar[i0:i1]


def _encode_path(model: VaeModel, buffer: AudioBuffer, hop: int, recipe: int,
                 with_logvar=True):
    """_encoded's blocks joined into one (mu, logvar or None) pair."""
    mu, logvar = zip(*_encoded(model, buffer, hop, recipe, with_logvar))
    return np.concatenate(mu), np.concatenate(logvar) if with_logvar else None


def _encode_block(model: VaeModel, frames: np.ndarray, align: int, with_logvar=True):
    """encode_frames of frames, copied into a batch zero-padded to a multiple
    of align rows; the padding rows are dropped."""
    n = len(frames)
    batch = np.zeros((-(-n // align) * align, frames.shape[1]), dtype=model.dtype)
    batch[:n] = frames
    mu, logvar = encode_frames(model, batch, with_logvar)
    return mu[:n], None if logvar is None else logvar[:n]


def _number(item: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"item {item!r} is not a finite number")
    return value


def _weights(curve) -> np.ndarray:
    """curve, a 1-D nonempty sequence of finite weights, as float64 clamped into [-1, 1]."""
    values = np.asarray(curve, dtype=np.float64)
    if values.ndim != 1 or len(values) < 1:
        raise ValueError("curve needs a 1-D, nonempty value sequence")
    if not np.isfinite(values).all():
        raise ValueError("curve values must be finite")
    return np.clip(values, -1.0, 1.0)


def generate_curve(spec: str, length: int) -> np.ndarray:
    """The float64 weights of a curve of the given length, from a compact text spec.

    Forms: "const:<c>", "lin:<a>:<b>", "sine:p=<period>,ph=<phase>,
    a=<amplitude>,o=<offset>" (all optional, value = o + a*sin(2*pi*i/p
    + ph)), "bp:<idx>=<val>,..." (piecewise-linear breakpoints). Values
    land in [-1, 1] by clamping. A malformed spec, a number that does not
    parse or is not finite, a breakpoint index or sine parameter given twice,
    or a spec whose arithmetic overflows float64 is a ValueError naming the
    spec, not a warning.
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
    except ValueError as exc:
        raise ValueError(f"curve {spec!r}: {exc}") from None
    return _weights(values)


def _curve_values(kind: str, body: str, length: int) -> np.ndarray:
    if kind == "const":
        return np.full(length, _number(body, body))
    if kind == "lin":
        start_s, _, end_s = body.partition(":")
        return np.linspace(_number(start_s, start_s), _number(end_s, end_s), length)
    if kind == "sine":
        params, given = {"p": float(length), "ph": 0.0, "a": 1.0, "o": 0.0}, set()
        for item in filter(None, body.split(",")):
            key, _, val = item.partition("=")
            if key not in params:
                raise ValueError(f"unknown sine parameter {key!r}")
            if key in given:
                raise ValueError(f"sine parameter {key!r} is given twice")
            given.add(key)
            params[key] = _number(item, val)
        if params["p"] == 0:
            raise ValueError("sine period must be nonzero")
        i = np.arange(length)
        return params["o"] + params["a"] * np.sin(2.0 * np.pi * i / params["p"] + params["ph"])
    if kind == "bp":
        points = {}
        for item in filter(None, body.split(",")):
            idx_s, _, val_s = item.partition("=")
            idx = _number(item, idx_s)
            if idx in points:
                raise ValueError(f"breakpoint index {idx:g} is given twice")
            points[idx] = _number(item, val_s)
        if not points:
            raise ValueError("breakpoint spec needs at least one index=value pair")
        xs = sorted(points)
        return np.interp(np.arange(length), xs, [points[x] for x in xs])
    raise ValueError(f"unknown curve kind {kind!r}")


def _check_crossfade(model: VaeModel, crossfade: int) -> None:
    if not 0 <= crossfade < model.hyper.window_size:
        raise ValueError(f"crossfade must be in [0, {model.hyper.window_size}), got {crossfade}")


def _render(model: VaeModel, n_rows: int, blocks, seed, k: int):
    """(length, the join of the n_rows rows of blocks, in sample blocks); ValueError,
    before anything is encoded or decoded, if it is longer than one float32 WAV holds."""
    length = n_rows * (model.hyper.window_size - k) + k if n_rows else 0
    if length > MAX_FLOAT32_SAMPLES:
        digits = str(length)  # stepwise's count can pass float64's range: no float formats it
        count = digits if len(digits) <= 15 else f"about {digits[0]}.{digits[1:3]}e+{len(digits) - 1}"
        raise ValueError(f"{count} output samples are more than one float32 WAV holds "
                         f"({MAX_FLOAT32_SAMPLES})")
    return length, _decode_blocks(model, blocks, seed, k)


def _fill(model: VaeModel, length: int, blocks) -> AudioBuffer:
    """The length samples of blocks, in one float32 buffer at the model's rate."""
    out = np.empty(length, dtype=np.float32)
    end = 0
    for block in blocks:
        out[end : end + len(block)] = block
        end += len(block)
    return AudioBuffer(out, model.hyper.sample_rate)


def _workers() -> int:
    """The worker pool's size: the CPUs this process may run on over the threads
    numpy's BLAS gives each call, at least 1 and at most the 3 * (_AHEAD + 1)
    calls a render's stages (two encodes and a decode) can have running.

    OpenBLAS takes its count from the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive number, MKL from
    MKL_NUM_THREADS or OMP_NUM_THREADS; with none set, or another BLAS, every
    CPU is taken to be in use, and the pool is 1. A CPU quota (a container's
    cgroup limit) is not read: where it is below the affinity mask, taskset or
    the BLAS variables say how many CPUs there are."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # NumPy < 1.26 keeps its build info as module attributes
        blas = str(vars(np.__config__))
    names = (_OPENBLAS_THREADS if "openblas" in blas
             else _MKL_THREADS if "mkl" in blas else ())
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in names:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(max(1, cpus // int(value)), 3 * (_AHEAD + 1))
    return 1


class _Task:
    """fn(item), run once on a pool worker unless cancelled before it starts;
    done is set either way."""

    def __init__(self, fn, item):
        self.fn, self.item, self.cancelled = fn, item, False
        self.value = self.error = None
        self.done = threading.Event()

    def run(self) -> None:
        if not self.cancelled:
            try:
                self.value = self.fn(self.item)
            except BaseException as exc:  # raised on the reader's thread, by result()
                self.error = exc
        self.fn = self.item = None
        self.done.set()

    def result(self):
        self.done.wait()
        error, self.error = self.error, None  # the traceback holds run's frame: no cycle
        if error is not None:
            raise error
        value, self.value = self.value, None
        return value


@functools.lru_cache(maxsize=None)
def _pool(workers: int):
    """submit(task) onto a pool of that many daemon threads, started at the first
    call for that size: each worker runs the next task submitted, in submission
    order. A forked child starts its own, as it inherits none of the threads;
    a process whose pool size changes keeps the old size's workers, idle.

    This is not concurrent.futures.ThreadPoolExecutor because importing that
    module (and logging, which it loads) takes about 6 ms and 0.5 MB of Python
    objects, which would land inside the first pooled render of every synth
    process, whose memory is otherwise its output plus a few blocks."""
    tasks, ready = collections.deque(), threading.Semaphore(0)

    def work():
        while True:
            ready.acquire()
            tasks.popleft().run()

    for i in range(workers):
        threading.Thread(target=work, name=f"latentaudio-{i}", daemon=True).start()

    def submit(task: _Task) -> None:
        tasks.append(task)
        ready.release()

    return submit


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _ahead(fn, items):
    """Yield fn(item) for each of items, in order: items are read on the caller's
    thread, and fn runs on the worker pool, up to _AHEAD items past the result the
    caller holds; with one worker, fn runs on the caller's thread when its result
    is asked for, as a pool of one would only add a thread switch to each call.
    fn must not wait on the pool (a task that waits on a task behind it in a full
    pool waits forever); items may. Closed, or raising (fn's error is raised
    here), it cancels the calls not yet started and waits for the running ones,
    so no work outlives the render."""
    workers = _workers()
    if workers == 1:
        yield from map(fn, items)
        return
    submit, pending = _pool(workers), collections.deque()
    try:
        for item in items:
            pending.append(_Task(fn, item))
            submit(pending[-1])
            if len(pending) > _AHEAD:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for task in pending:
            task.cancelled = True
        for task in pending:
            task.done.wait()


def _block() -> int:
    """The rows of a block: _BLOCK on one worker, _POOL_BLOCK (at most _BLOCK) on
    more, so that a block its reader holds and one running ahead take about the
    memory one block of _BLOCK takes. A row keeps its bits in blocks of up to 256,
    so the pool size does not change a render's bytes; smaller blocks cost more
    per row, which only a second worker wins back."""
    return _BLOCK if _workers() == 1 else min(_BLOCK, _POOL_BLOCK)


def _spans(n_rows: int):
    """An n_rows path's decode blocks [i0, i1), as even as can be: 2 to _block()
    rows each, a lone row only when the path has one, none for an empty path
    (for a block of 3 or more: at 2, an odd path gets a lone row, which BLAS
    decodes by gemv)."""
    block = _block()
    n_blocks = -(-n_rows // block)
    for j in range(n_blocks):
        yield n_rows * j // n_blocks, n_rows * (j + 1) // n_blocks


def _latents(model: VaeModel, blocks, seed):
    """The z of each (means, stds or None) block, in the model's dtype: the means,
    or, for a block with stds, means + stds * eps, its eps continuing the stream of
    one generator seeded by seed. The generator is made when the first such block
    arrives, so numpy.random's import does not land on a recipe-1 whole-path encode."""
    rng = None
    for means, stds in blocks:
        if stds is None:
            z = means
        else:
            if rng is None:  # the block is made by now
                rng = np.random.default_rng(seed)
            z = rng.standard_normal(means.shape)
            z *= stds
            z += means
        del means, stds
        z = z.astype(model.dtype, copy=False)  # the float64 z is dropped here
        yield z


def _decode_blocks(model: VaeModel, blocks, seed, k: int):
    """Decode the (means, stds or None) blocks of a path in order; yield the join.

    A decoded row has the same bits in any block of 2 to 256 rows, but not as a
    lone row (BLAS decodes it through gemv), so blocks come from _spans. The
    blocks are read, and their eps drawn (_latents), on this thread; each block's
    decode_frames runs on the worker pool, _AHEAD blocks ahead of the one being
    joined here (_ahead). Frame i starts at i*s, s = W - k; pass d = 0, 1, ...
    ramps, in every seam, the offsets t that lie under d = ceil((k - t)/s) - 1
    earlier seams. A block of n rows yields its n*s samples, which later frames no
    longer touch, and carries the k after them into the next block; the last k are
    yielded after the last block.
    """
    s = model.hyper.window_size - k
    ramp = (np.arange(k, dtype=model.dtype) + 1) / (k + 1)
    tail = None
    for frames in _ahead(lambda z: decode_frames(model, z), _latents(model, blocks, seed)):
        n = len(frames)
        out = np.empty(n * s + k, dtype=model.dtype)  # the block's samples and the k after
        out[k:].reshape(n, s)[:] = frames[:, k:]
        out[:k] = frames[0, :k] if tail is None else tail
        j = 1 if tail is None else 0  # frame 0 has no seam
        for d in range(-(-k // s)):
            lo, hi = max(k - (d + 1) * s, 0), k - d * s
            seams = out[lo : lo + n * s].reshape(n, s)[j:, : hi - lo]
            seams[...] = seams * (1 - ramp[lo:hi]) + frames[j:, lo:hi] * ramp[lo:hi]
        tail = out[n * s :]
        del frames  # while the reader holds the block, the frames are not held too
        yield out[: n * s]
    if tail is not None:
        yield tail


def decode_path(
    model: VaeModel, means, stds, mode: SynthesisMode, crossfade: int = 0
) -> AudioBuffer:
    """Decode a sequence of latent (mean, std) rows into one buffer.

    mean_only ignores stds; sampled draws one eps row per window from a
    single generator seeded by the mode, so equal seeds give identical
    audio. Frames are joined end-to-end (length = count * window_size)
    unless a crossfade width is given. A mean that is not finite, or a std
    that is negative or not finite, is a ValueError before anything is decoded.
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
    if not np.isfinite(means).all():
        raise ValueError("means must be finite")
    if not (np.isfinite(stds) & (stds >= 0)).all():
        raise ValueError("stds must be finite and entrywise >= 0")
    _check_crossfade(model, crossfade)
    blocks = ((means[i0:i1], stds[i0:i1] if mode.kind == "sampled" else None)
              for i0, i1 in _spans(len(means)))
    return _fill(model, *_render(model, len(means), blocks, mode.seed, crossfade))


def _blend(path_a, path_b, rows, w, first: int):
    """The (means, stds or None) of rows of two (mu, logvar or None) paths,
    weight w (one per row) on a and 1 - w on b, in float64; sigma floored.
    Paths encoded for mean mode have no logvar, and give no stds.
    LoudInputError names the input and window (first + the row's place) of
    the first sigma that is not finite, before a weight of 0 times inf turns
    it into a NaN of no input."""
    w = w[:, None]
    (mu_a, logvar_a), (mu_b, logvar_b) = path_a, path_b
    means = w * mu_a[rows]
    means += (1.0 - w) * mu_b[rows]
    if logvar_a is None:
        return means, None
    with np.errstate(over="ignore"):  # the error below is the diagnosis
        sigmas = [np.exp(logvar_a[rows] / 2), np.exp(logvar_b[rows] / 2)]
    for index, sigma in enumerate(sigmas):
        bad = ~np.isfinite(sigma).all(axis=1)
        if bad.any():  # stepwise's first segment holds every window, so it names one
            raise LoudInputError(index, first + int(bad.argmax()))
    stds = w * sigmas[0]
    stds += (1.0 - w) * sigmas[1]
    return means, np.maximum(stds, _SIGMA_FLOOR, out=stds)


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
    return _fill(model, *render_stepwise(model, a, b, range_r, step_s, mode, crossfade))


def render_stepwise(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    range_r: float,
    step_s: float,
    mode: SynthesisMode,
    crossfade: int = 0,
    recipe: int = RECIPE,
):
    """stepwise_interpolate's output as (length, its sample blocks): checked now,
    both inputs encoded whole at the first block, decoded as the blocks are read."""
    if not 0 < step_s < math.inf:
        raise BadStepError(f"step must be finite and > 0, got {step_s}")
    if not 0 <= range_r / step_s < math.inf:
        raise BadStepError(f"range must be >= 0 with a finite range / step, got {range_r}")
    # small epsilon so ratios like 0.8/0.2 land on their exact integer
    n_segments = int(math.floor(range_r / step_s + 1e-9)) + 1
    _check_crossfade(model, crossfade)
    pair, width = truncate_pair(a, b), model.hyper.window_size
    n = window_count(len(pair[0]), width, width)

    def blocks():  # row i: window i % n of both paths, weight i // n * step_s on a
        paths = [_encode_path(model, x, width, recipe, mode.kind == "sampled") for x in pair]
        for i0, i1 in _spans(n_segments * n):
            rows = np.arange(i0, i1)
            yield _blend(*paths, rows % n, rows // n * step_s, i0)

    return _render(model, n_segments * n, blocks(), mode.seed, crossfade)


def meso_interpolate(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    curve,
    mode: SynthesisMode,
    crossfade: int = 0,
) -> AudioBuffer:
    """Blend per window under a weight curve; duration matches the inputs.

    Windows are non-overlapping, so the output is as long as the truncated inputs rounded
    down to whole windows. curve is any 1-D sequence of finite weights, clamped into [-1, 1].
    """
    return extended_interpolate(model, a, b, curve, mode, model.hyper.window_size, crossfade)


def extended_interpolate(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    curve,
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
    return _fill(model, *render_extended(model, a, b, curve, mode, hop, crossfade))


def render_extended(
    model: VaeModel,
    a: AudioBuffer,
    b: AudioBuffer,
    curve,
    mode: SynthesisMode,
    hop: int = 256,
    crossfade: int = 0,
    recipe: int = RECIPE,
):
    """extended_interpolate's output (meso_interpolate's at hop = window size)
    as (length, its sample blocks): checked now, encoded and decoded as it is read."""
    _check_crossfade(model, crossfade)
    curve = _weights(curve)
    pair = truncate_pair(a, b)
    n_windows = window_count(len(pair[0]), model.hyper.window_size, hop)
    if len(curve) != n_windows:
        raise CurveLengthMismatchError(
            f"curve has {len(curve)} values but the inputs give {n_windows} windows"
        )
    streams = [_encoded(model, x, hop, recipe, mode.kind == "sampled") for x in pair]
    blocks = (_blend(*stats, slice(None), curve[i0:i1], i0)
              for (i0, i1), *stats in zip(_spans(n_windows), *streams))
    return _render(model, n_windows, blocks, mode.seed, crossfade)


def export_latents(blocks, file) -> int:
    """Write one CSV row per window to the file path, atomically: index, mu
    entries, logvar entries. Return the row count.

    blocks is an iterable of consecutive LatentPaths of one path (as
    encode_blocks yields them; [path] for a whole path), each written as
    it arrives and formatted _CSV_ROWS rows at a time. Values are float32
    printed to 9 significant digits, which parse back to the same float32;
    an empty (0, M) path writes just the header. No block at all is a
    ValueError, and a block whose latent width differs from the first
    block's a ShapeMismatchError; either writes nothing.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        raise ValueError(f"{file}: no latent blocks to export; nothing was written")
    m = first.latent_dim
    columns = ["idx"] + [f"mu_{i}" for i in range(m)] + [f"lv_{i}" for i in range(m)]
    row_format = "%d" + ",%.9g" * (2 * m) + "\n"
    idx = 0
    with atomic_write(file, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for k, block in enumerate(itertools.chain([first], blocks)):
            if block.latent_dim != m:
                raise ShapeMismatchError(f"{file}: latent block {k} is {block.latent_dim} wide, "
                                         f"block 0 is {m} wide; nothing was written")
            for s in range(0, len(block), _CSV_ROWS):
                part = [block.mu[s : s + _CSV_ROWS], block.logvar[s : s + _CSV_ROWS]]
                for values in np.concatenate(part, axis=1, dtype=np.float32).tolist():
                    fh.write(row_format % (idx, *values))
                    idx += 1
    return idx
