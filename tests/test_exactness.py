"""Kernels against verbatim copies of the straightforward code they replaced.

adam_step avoids parameter-sized temporaries and train_som per-call
ones, assign_clusters searches every thumbnail in one pass, init_model walks one list of parameter shapes instead of building
layers, the feature constants are built once per recipe, the latent
blend works on (N, M) arrays instead of tuples of per-window stats,
synthesis blends, decodes and joins the path a block of windows at a
time, inference activations are computed in place, the training step
keeps activations instead of pre-activations and forms no frame
gradient, training gathers each batch from the arrays it is given and
updates each tensor as soon as the backward walk has formed its gradient
in one scratch buffer, checkpoint tensors are
each read into their own array, WAV payloads
are written without copies, and frame features square into a reused
buffer. None of that may change a single bit: each reference below is
the plain numpy code the kernel replaced, and results must be
np.array_equal (or equal as bytes), not merely close.

Encoding has two references, one per recipe. Recipe 1 encodes every
window of an input in one batch; recipe 2 encodes blocks of at most 256
windows, zero-padded to a multiple of 8 rows, and its results must not
depend on where the block boundaries fall.

Training is the one kernel whose numbers were meant to change: it moved
from float64 to float32. Its reference is the float64 training loop it
replaced, and the float32 run must stay within a stated tolerance of it.
"""

import dataclasses
import functools
import math
import struct
import tracemalloc
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import float32_model, make_noise
from latentaudio import (
    AudioBuffer,
    Checkpoint,
    Cluster,
    CorruptFileError,
    EmptyDatasetError,
    FeatureConfig,
    FormatVersionMismatchError,
    InterpolationCurve,
    LatentPath,
    LatentStats,
    NonFiniteLossError,
    ShapeMismatchError,
    SynthesisMode,
    Thumbnail,
    VaeHyperParams,
    adam_step,
    assign_clusters,
    decode_path,
    encode_audio,
    encode_blocks,
    export_latents,
    extended_interpolate,
    extract_thumbnail,
    generate_curve,
    init_model,
    load_checkpoint,
    load_som,
    load_wav,
    meso_interpolate,
    save_checkpoint,
    save_som,
    save_wav,
    stepwise_interpolate,
    train,
    train_som,
    truncate_pair,
    window,
)
from latentaudio import interpolate as interpolate_module
from latentaudio import vae as vae_module
from latentaudio.audio import frame_view
from latentaudio.cli import main as cli_main
from latentaudio.container import MAGIC_LEN, read_container, write_container
from latentaudio.features import _spectral_tables, dct_ii_matrix, frame_features
from latentaudio.interpolate import (
    _SIGMA_FLOOR, _blend, _decode_blocks, _fill, _spans, render_extended, render_stepwise,
)
from latentaudio.som import _LR_FLOOR_FACTOR, _RADIUS_FLOOR, _quantization_error
from latentaudio.vae import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_BLOCK,
    _ADAM_EPS,
    _LEAKY_SLOPE,
    _affine,
    _backward_batch,
    _batch_losses,
    _forward_batch,
    _leaky,
    decode_frames,
    encode_frames,
)


def reference_adam_step(params, grads, m_list, v_list, step, learning_rate):
    correction1 = 1.0 - _ADAM_BETA1 ** step
    correction2 = 1.0 - _ADAM_BETA2 ** step
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        m_hat = m / correction1
        v_hat = v / correction2
        p -= learning_rate * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def reference_train_float64(frames, hyper):
    """The float64 training loop float32 training replaced: (params, history)."""
    frames = np.asarray(frames, dtype=np.float64)
    rng = np.random.default_rng(hyper.seed)
    model = init_model(hyper, rng=rng)
    params = model.params
    adam_m, adam_v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    step = 0
    n = len(frames)
    history = np.zeros((hyper.epochs, 2), dtype=np.float64)
    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        recon_sum = 0.0
        kl_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = frames[order[start : start + hyper.batch_size]]
            eps = rng.standard_normal((len(batch), hyper.latent_dim))
            grads, (_, recon, kl) = reference_backward_batch(model, batch, eps, hyper.alpha)
            step += 1
            reference_adam_step(params, grads, adam_m, adam_v, step, hyper.learning_rate)
            recon_sum += recon * len(batch)
            kl_sum += kl * len(batch)
        history[epoch] = (recon_sum / n, kl_sum / n)
    return params, history


def reference_train(dataset, hyper):
    """train as it was: one concatenated float32 copy, the gradients of the whole
    step in a fresh list, then the textbook Adam update of every tensor."""
    arrays = [dataset] if isinstance(dataset, np.ndarray) else [np.asarray(a) for a in dataset]
    if not arrays or sum(len(a) for a in arrays) == 0:
        raise EmptyDatasetError("training needs at least one window")
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != hyper.window_size:
            raise ShapeMismatchError(
                f"dataset windows are {a.shape[-1]} wide (array shape {a.shape}), "
                f"hyper says {hyper.window_size}"
            )
    frames = np.concatenate(arrays, axis=0, dtype=np.float32)

    rng = np.random.default_rng(hyper.seed)
    model = init_model(hyper, rng=rng, dtype=np.float32)
    params = model.params
    adam_m, adam_v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    step = 0
    n = len(frames)
    history = np.zeros((hyper.epochs, 2), dtype=np.float64)

    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        recon_sum = 0.0
        kl_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            batch_idx = order[start : start + hyper.batch_size]
            batch = frames[batch_idx]
            eps = rng.standard_normal((len(batch), hyper.latent_dim)).astype(np.float32)
            grads, (total, recon, kl) = reference_backward_batch(model, batch, eps, hyper.alpha)
            if not math.isfinite(total):
                raise NonFiniteLossError(f"loss became non-finite at epoch {epoch + 1}")
            step += 1
            reference_adam_step(params, grads, adam_m, adam_v, step, hyper.learning_rate)
            recon_sum += recon * len(batch)
            kl_sum += kl * len(batch)
        history[epoch] = (recon_sum / n, kl_sum / n)

    return Checkpoint(hyper=hyper, params=params, adam_m=adam_m, adam_v=adam_v,
                      adam_step_count=step, loss_history=history.astype(np.float32))


def reference_train_som(data, width, height, epochs, lr0, radius0, seed):
    """Prototypes and QE history from the per-sample loop, on raw features."""
    mean = data.mean(axis=0)
    std = data.std(axis=0)
    std[std == 0] = 1.0
    standardized = (data - mean) / std

    rng = np.random.default_rng(seed)
    n, dim = standardized.shape
    prototypes = standardized[rng.integers(0, n, size=width * height)].reshape(
        height, width, dim
    ).copy()
    grid_y, grid_x = np.mgrid[0:height, 0:width]

    denominator = max(epochs - 1, 1)
    qe_history = np.zeros(epochs)
    for epoch in range(epochs):
        fraction = epoch / denominator
        lr = lr0 * _LR_FLOOR_FACTOR**fraction
        radius = radius0 * (_RADIUS_FLOOR / radius0) ** fraction
        sigma = radius / 2.0
        gauss_denom = 2.0 * sigma * sigma
        for idx in rng.permutation(n):
            sample = standardized[idx]
            d2 = np.sum((prototypes - sample) ** 2, axis=2)
            flat = int(np.argmin(d2))
            by, bx = divmod(flat, width)
            reach = np.exp(-((grid_y - by) ** 2 + (grid_x - bx) ** 2) / gauss_denom)
            prototypes += (lr * reach)[:, :, None] * (sample - prototypes)
        qe_history[epoch] = _quantization_error(prototypes, standardized)
    return prototypes, qe_history


def reference_best_matching_unit(som, features):
    """BMU (x, y) of one thumbnail, searched over the whole grid at once."""
    query = som.standardize(np.asarray(features, dtype=np.float64).reshape(-1))
    d2 = np.sum((som.prototypes - query) ** 2, axis=2)
    y, x = divmod(int(np.argmin(d2)), som.width)
    return (x, y)


def reference_assign_clusters(som, thumbnails):
    """Clusters from one reference_best_matching_unit call per thumbnail."""
    members = {}
    for i, thumb in enumerate(thumbnails):
        unit = reference_best_matching_unit(som, thumb.features)
        members.setdefault(unit, []).append(thumb.file_ref or str(i))
    ordered = sorted(members.items(), key=lambda kv: (-len(kv[1]), kv[0][1], kv[0][0]))
    return [Cluster(unit, refs) for unit, refs in ordered]


class ReferencePath:
    """The tuple-of-LatentStats path, reduced to what blending reads."""

    def __init__(self, stats):
        self.stats = tuple(stats)

    def means(self):
        return np.array([s.mu for s in self.stats])

    def sigmas(self):
        return np.array([np.exp(s.logvar / 2) for s in self.stats])


def reference_init_params(hyper, rng, dtype):
    """The per-layer initializer that walking _param_shapes replaced."""

    def affine(n_in, n_out):
        bound = 1.0 / math.sqrt(n_in)
        w = rng.uniform(-bound, bound, size=(n_in, n_out)).astype(dtype)
        return [w, np.zeros(n_out, dtype=dtype)]

    enc = [hyper.window_size, *hyper.hidden_sizes]
    dec = [hyper.latent_dim, *reversed(hyper.hidden_sizes), hyper.window_size]
    layers = [affine(i, o) for i, o in zip(enc[:-1], enc[1:])]
    layers += [affine(enc[-1], hyper.latent_dim), affine(enc[-1], hyper.latent_dim)]
    layers += [affine(i, o) for i, o in zip(dec[:-1], dec[1:])]
    return [t for layer in layers for t in layer]


def reference_leaky(pre):
    return np.where(pre > 0, pre, pre.dtype.type(_LEAKY_SLOPE) * pre)


def reference_encode_frames(model, frames):
    encoder, mu_head, logvar_head, _ = model.layers()
    h = np.asarray(frames, dtype=model.dtype)
    for w, b in encoder:
        h = reference_leaky(h @ w + b)
    return h @ mu_head[0] + mu_head[1], (
        h @ logvar_head[0] + logvar_head[1]
    )


def reference_decode_frames(model, z):
    decoder = model.layers()[3]
    h = np.asarray(z, dtype=model.dtype)
    for w, b in decoder[:-1]:
        h = reference_leaky(h @ w + b)
    w, b = decoder[-1]
    return np.tanh(h @ w + b)


def reference_leaky_grad(pre):
    one = pre.dtype.type(1.0)
    return np.where(pre > 0, one, pre.dtype.type(_LEAKY_SLOPE))


def reference_forward_batch(model, frames, eps):
    """Forward pass keeping every pre-activation needed by the backward pass."""
    encoder, mu_head, logvar_head, decoder = model.layers()
    enc_pre = []
    h = frames
    for w, b in encoder:
        pre = _affine(h, w, b)
        enc_pre.append((h, pre))
        h = _leaky(pre)
    mu = _affine(h, *mu_head)
    logvar = _affine(h, *logvar_head)
    sigma = np.exp(logvar / 2)
    z = mu + sigma * eps

    dec_pre = []
    d = z
    for w, b in decoder[:-1]:
        pre = _affine(d, w, b)
        dec_pre.append((d, pre))
        d = _leaky(pre)
    x_hat = _affine(d, *decoder[-1])
    np.tanh(x_hat, out=x_hat)
    return {
        "enc_pre": enc_pre, "head_in": h, "mu": mu, "logvar": logvar,
        "sigma": sigma, "z": z, "dec_pre": dec_pre, "dec_in": d, "x_hat": x_hat,
    }


def reference_backward_batch(model, frames, eps, alpha):
    """The training step with pre-activations and a frame gradient, verbatim."""
    encoder, mu_head, logvar_head, decoder = model.layers()
    cache = reference_forward_batch(model, frames, eps)
    batch, width = frames.shape
    total, recon, kl = _batch_losses(frames, cache, alpha)

    grads = []

    # decoder output stage, through tanh
    d_xhat = 2.0 * (cache["x_hat"] - frames) / (batch * width)
    d_pre = d_xhat * (1.0 - cache["x_hat"] ** 2)
    grads += [d_pre.sum(axis=0), cache["dec_in"].T @ d_pre]
    upstream = d_pre @ decoder[-1][0].T
    for (layer_in, pre), (w, _) in zip(reversed(cache["dec_pre"]), reversed(decoder[:-1])):
        d_pre = upstream * reference_leaky_grad(pre)
        grads += [d_pre.sum(axis=0), layer_in.T @ d_pre]
        upstream = d_pre @ w.T

    # reparameterization split: z = mu + sigma * eps
    d_z = upstream
    d_mu = d_z + alpha * cache["mu"] / batch
    d_logvar = d_z * eps * 0.5 * cache["sigma"] + (
        alpha * 0.5 * (np.exp(cache["logvar"]) - 1.0) / batch
    )

    head_in = cache["head_in"]
    grads += [d_logvar.sum(axis=0), head_in.T @ d_logvar]
    grads += [d_mu.sum(axis=0), head_in.T @ d_mu]
    upstream = d_mu @ mu_head[0].T + d_logvar @ logvar_head[0].T

    for (layer_in, pre), (w, _) in zip(reversed(cache["enc_pre"]), reversed(encoder)):
        d_pre = upstream * reference_leaky_grad(pre)
        grads += [d_pre.sum(axis=0), layer_in.T @ d_pre]
        upstream = d_pre @ w.T

    grads.reverse()
    return grads, (total, recon, kl)


def reference_read_container(path, magic):
    raw = Path(path).read_bytes()
    if len(raw) < MAGIC_LEN or raw[: MAGIC_LEN - 1] != magic[: MAGIC_LEN - 1]:
        raise CorruptFileError(f"{path}: magic bytes do not match")
    if raw[MAGIC_LEN - 1] != magic[MAGIC_LEN - 1]:
        raise FormatVersionMismatchError(f"{path}: format version {raw[MAGIC_LEN - 1]}")
    if len(raw) < MAGIC_LEN + 8:
        raise CorruptFileError(f"{path}: file truncated")
    (stored_crc,) = struct.unpack_from("<I", raw, len(raw) - 4)
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptFileError(f"{path}: checksum mismatch")

    pos = MAGIC_LEN
    (header_len,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    end = len(raw) - 4
    if pos + header_len > end:
        raise CorruptFileError(f"{path}: header overruns file")
    header = {}
    for line in raw[pos : pos + header_len].decode("utf-8").splitlines():
        if line:
            key, _, value = line.partition("=")
            header[key] = value
    pos += header_len

    tensors = []
    while pos < end:
        if pos + 4 > end:
            raise CorruptFileError(f"{path}: dangling bytes after last tensor")
        (rank,) = struct.unpack_from("<I", raw, pos)
        pos += 4
        if pos + 4 * rank > end:
            raise CorruptFileError(f"{path}: tensor shape overruns file")
        shape = struct.unpack_from(f"<{rank}I", raw, pos)
        pos += 4 * rank
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        nbytes = 4 * count
        if pos + nbytes > end:
            raise CorruptFileError(f"{path}: tensor payload overruns file")
        arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos)
        tensors.append(arr.reshape(shape).copy())
        pos += nbytes
    return header, tensors


def reference_save_wav(buffer, path, encoding="float32"):
    if encoding == "float32":
        tag, bits = 3, 32
        payload = buffer.samples.astype("<f4").tobytes()
    else:
        tag, bits = 1, 16
        ints = np.clip(np.rint(buffer.samples * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
    block_align = bits // 8
    fmt_chunk = struct.pack(
        "<HHIIHH", tag, 1, buffer.sample_rate, buffer.sample_rate * block_align,
        block_align, bits,
    )
    pad = b"\x00" if len(payload) & 1 else b""
    riff_size = 4 + (8 + len(fmt_chunk)) + (8 + len(payload) + len(pad))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk)
        fh.write(b"data" + struct.pack("<I", len(payload)) + payload + pad)


def reference_load_mono_wav(path):
    """The buffer in a file laid out as reference_save_wav writes it."""
    raw = Path(path).read_bytes()
    tag, _, rate = struct.unpack_from("<HHI", raw, 20)
    (size,) = struct.unpack_from("<I", raw, 40)
    if tag == 3:
        return AudioBuffer(np.frombuffer(raw, "<f4", size // 4, 44), rate)
    ints = np.frombuffer(raw, "<i2", size // 2, 44)
    return AudioBuffer(ints.astype(np.float32) / np.float32(32768.0), rate)


def reference_frame_features(frames, config):
    hann, bank, bin_freqs, dct = _spectral_tables(
        config.sample_rate, config.frame_size, config.n_mels, config.n_mfcc
    )
    frames = np.asarray(frames, dtype=np.float64)
    spectra = np.abs(np.fft.rfft(frames * hann, axis=1))
    log_mel = np.log(spectra @ bank.T + 1e-10)
    mfcc = log_mel @ dct.T

    columns = [mfcc]
    if config.centroid:
        total = spectra.sum(axis=1)
        centroid = np.divide(
            spectra @ bin_freqs, total, out=np.zeros_like(total), where=total > 0
        )
        columns.append(centroid[:, None])
    if config.rms:
        columns.append(np.sqrt(np.mean(frames**2, axis=1))[:, None])
    return np.concatenate(columns, axis=1)


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes()
    )


def reference_tile_path(path, reps):
    return ReferencePath(path.stats * reps)


def reference_blend(path_a, path_b, weights):
    w = weights[:, None]
    means = w * path_a.means() + (1.0 - w) * path_b.means()
    stds = w * path_a.sigmas() + (1.0 - w) * path_b.sigmas()
    return means, np.maximum(stds, _SIGMA_FLOOR)


def reference_crossfade_join(frames, k):
    """Concatenate decoded frames; k > 0 overlaps seams with linear ramps.

    k must lie in [0, width); decode_path checks it before decoding.
    """
    n, width = frames.shape
    if k == 0 or n < 2:
        return frames.reshape(-1)
    ramp = (np.arange(k, dtype=frames.dtype) + 1) / (k + 1)
    out = np.empty(n * width - (n - 1) * k, dtype=frames.dtype)
    out[:width] = frames[0]
    pos = width
    for frame in frames[1:]:
        out[pos - k : pos] = out[pos - k : pos] * (1 - ramp) + frame[:k] * ramp
        out[pos : pos + width - k] = frame[k:]
        pos += width - k
    return out


def reference_decode_path(model, means, stds, mode, crossfade=0):
    """The whole-path decode_path that blockwise synthesis replaced."""
    means = np.asarray(means, dtype=np.float64)
    stds = np.asarray(stds, dtype=np.float64)
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
    width = model.hyper.window_size
    if not 0 <= crossfade < width:
        raise ValueError(f"crossfade must be in [0, {width}), got {crossfade}")

    if mode.kind == "mean_only":
        z = means
    else:
        rng = np.random.default_rng(mode.seed)
        z = means + stds * rng.standard_normal(means.shape)
    frames = decode_frames(model, z.astype(model.dtype, copy=False))
    return AudioBuffer(reference_crossfade_join(frames, crossfade), model.hyper.sample_rate)


def reference_array_blend(path_a, path_b, weights):
    """weights (N,) or per segment (S, 1) on a, complement on b; sigma floored."""
    w = weights[..., None]
    means = w * path_a.means() + (1.0 - w) * path_b.means()
    stds = w * np.exp(path_a.logvar / 2) + (1.0 - w) * np.exp(path_b.logvar / 2)
    m = path_a.latent_dim
    return means.reshape(-1, m), np.maximum(stds, _SIGMA_FLOOR).reshape(-1, m)


def reference_encode_whole(model, buffer, hop):
    """Recipe 1: every window of the buffer encoded in one batch."""
    return LatentPath(*encode_frames(model, window(buffer, model.hyper.window_size, hop)))


def reference_encode_blocks(model, buffer, hop, cuts=None):
    """Recipe 2: windows [cuts[j], cuts[j + 1]) copied into a batch zero-padded
    to a multiple of 8 rows, encoded, the padding rows dropped; by default
    blocks of 256 from window 0."""
    frames = window(buffer, model.hyper.window_size, hop)
    if cuts is None:
        cuts = [*range(0, len(frames), 256), len(frames)]
    mu, logvar = [], []
    for i0, i1 in zip(cuts, cuts[1:]):
        batch = np.zeros((-(-(i1 - i0) // 8) * 8, frames.shape[1]), dtype=model.dtype)
        batch[: i1 - i0] = frames[i0:i1]
        block_mu, block_logvar = encode_frames(model, batch)
        mu.append(block_mu[: i1 - i0])
        logvar.append(block_logvar[: i1 - i0])
    return LatentPath(np.concatenate(mu), np.concatenate(logvar))


def reference_stepwise(model, a, b, range_r, step_s, mode, crossfade,
                       encode=reference_encode_blocks):
    n_segments = int(math.floor(range_r / step_s + 1e-9)) + 1
    a, b = truncate_pair(a, b)
    width = model.hyper.window_size
    path_a, path_b = encode(model, a, width), encode(model, b, width)
    weights = (np.arange(n_segments) * step_s)[:, None]
    means, stds = reference_array_blend(path_a, path_b, weights)
    return reference_decode_path(model, means, stds, mode, crossfade)


def reference_extended(model, a, b, curve, mode, hop, crossfade, encode=reference_encode_blocks):
    a, b = truncate_pair(a, b)
    path_a, path_b = encode(model, a, hop), encode(model, b, hop)
    means, stds = reference_array_blend(path_a, path_b, curve.values)
    return reference_decode_path(model, means, stds, mode, crossfade)


def reference_export_latents(path, file):
    """The export that formatted every row of the path in one call."""
    m = path.latent_dim
    columns = ["idx"] + [f"mu_{i}" for i in range(m)] + [f"lv_{i}" for i in range(m)]
    row_format = "%d" + ",%.9g" * (2 * m) + "\n"
    rows = np.concatenate([path.mu, path.logvar], axis=1).astype(np.float32)
    with open(file, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for idx, values in enumerate(rows.tolist()):
            fh.write(row_format % (idx, *values))


class TestAdamMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_boundaries(self, dtype):
        # sizes below, equal to, and not a multiple of the block; one 2-D tensor
        shapes = [(7,), (_ADAM_BLOCK,), (2 * _ADAM_BLOCK + 3,), (129, 300)]
        rng = np.random.default_rng(5)
        params = [rng.standard_normal(s).astype(dtype) for s in shapes]
        ref_params = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        got_m = [np.zeros_like(p) for p in params]
        got_v = [np.zeros_like(p) for p in params]
        for step in range(1, 5):
            grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
            for p, g, m, v in zip(params, grads, got_m, got_v):
                adam_step(p, g, m, v, step, 1e-3)
            reference_adam_step(ref_params, grads, ref_m, ref_v, step, 1e-3)
        for got, want in zip(params + got_m + got_v, ref_params + ref_m + ref_v):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_non_contiguous_params_rejected(self):
        p = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(p, np.ones((4, 3)), np.zeros((4, 3)), np.zeros((4, 3)), 1, 1e-3)


class TestFloat32TrainingMatchesFloat64Reference:
    @pytest.mark.parametrize("learning_rate", [1e-4, 1e-3])
    def test_loss_history_and_final_parameters(self, learning_rate):
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=30, batch_size=16,
            learning_rate=learning_rate, sample_rate=8000, seed=2,
        )
        # 74 windows: the last batch of every epoch is partial
        windows = window(make_noise(seconds=0.3, rate=8000, seed=3), 64, 32)
        ckpt = train(windows, hyper)
        want_params, want_history = reference_train_float64(windows, hyper)
        assert ckpt.adam_step_count == hyper.epochs * 5
        rel = np.abs(ckpt.loss_history - want_history) / np.abs(want_history)
        assert rel.max() < 1e-4
        for got, want in zip(ckpt.params, want_params):
            assert got.dtype == np.float32 and want.dtype == np.float64
            assert np.abs(got - want).max() < 1e-4


class TestTrainingStepMatchesReference:
    @staticmethod
    def _assert_step_matches(model, frames, eps, alpha):
        grads, losses = _backward_batch(model, frames, eps, alpha)
        want_grads, want_losses = reference_backward_batch(model, frames, eps, alpha)
        assert losses == want_losses
        assert len(grads) == len(want_grads) == len(model.params)
        for got, want in zip(grads, want_grads):
            assert got.dtype == model.dtype and same_bytes(got, want)

    @pytest.mark.parametrize(
        "hidden_sizes", [(), (40,), (40, 24, 16)], ids=["0-hidden", "1-hidden", "3-hidden"]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 7, 128])
    def test_gradients_and_losses(self, hidden_sizes, dtype, batch):
        hyper = VaeHyperParams(
            window_size=48, latent_dim=12, hidden_sizes=hidden_sizes, alpha=0.1
        )
        rng = np.random.default_rng(batch)
        model = init_model(hyper, rng=rng, dtype=dtype)
        for b in model.params[1::2]:
            b[...] = rng.uniform(-0.2, 0.2, b.shape)  # both slopes in every layer
        frames = rng.uniform(-1.0, 1.0, (batch, hyper.window_size)).astype(dtype)
        eps = rng.standard_normal((batch, hyper.latent_dim)).astype(dtype)
        self._assert_step_matches(model, frames, eps, hyper.alpha)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_weight_hidden_layers(self, dtype):
        # +0.0 and -0.0 weights and biases make every hidden pre-activation a
        # zero, where the slope switches; heads and output layer stay random
        # so a nonzero gradient reaches each of those zeros
        hyper = VaeHyperParams(window_size=48, latent_dim=12, hidden_sizes=(40, 24))
        model = init_model(hyper, dtype=dtype)
        encoder, _, _, decoder = model.layers()
        for p in (t for layer in encoder + decoder[:-1] for t in layer):
            p[...] = 0.0
            p.reshape(-1)[::2] = -0.0
        frames = np.random.default_rng(3).uniform(-1.0, 1.0, (7, 48)).astype(dtype)
        frames[0] = -0.0
        eps = np.random.default_rng(4).standard_normal((7, 12)).astype(dtype)
        cache = _forward_batch(model, frames, eps)
        assert all((a == 0).all() for a in cache["enc_acts"][1:] + cache["dec_acts"][1:])
        self._assert_step_matches(model, frames, eps, hyper.alpha)


class TestTrainingOnFrameViews:
    def test_checkpoint_bytes_equal_window_copies(self, tmp_path):
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=3, batch_size=16,
            sample_rate=8000, seed=4,
        )
        buffers = [make_noise(seconds=0.3, rate=8000, seed=s) for s in (1, 2)]
        views = [frame_view(b.samples, 64, 24) for b in buffers]
        assert all(v.base is not None and not v.flags.writeable for v in views)
        save_checkpoint(train(views, hyper), tmp_path / "views.ckpt")
        copies = [window(b, 64, 24) for b in buffers]
        save_checkpoint(train(copies, hyper), tmp_path / "copies.ckpt")
        assert (tmp_path / "views.ckpt").read_bytes() == (tmp_path / "copies.ckpt").read_bytes()


def _views(seconds, dtype=np.float32, window_size=64, hop=24):
    """Frame views of noise clips, one per duration, in the given sample dtype."""
    return [frame_view(make_noise(seconds=t, rate=8000, seed=i).samples.astype(dtype),
                       window_size, hop)
            for i, t in enumerate(seconds)]


class TestTrainingMatchesReference:
    HYPER = VaeHyperParams(window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=3,
                           batch_size=16, sample_rate=8000, seed=4)

    @staticmethod
    def _assert_same_checkpoint(dataset, hyper, tmp_path):
        save_checkpoint(train(dataset, hyper), tmp_path / "got.ckpt")
        save_checkpoint(reference_train(dataset, hyper), tmp_path / "want.ckpt")
        assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()

    def test_several_views_partial_last_batch(self, tmp_path):
        views = _views([0.3, 0.2, 0.45])  # 98 + 65 + 148 = 311 windows, 311 % 16 = 7
        assert sum(len(v) for v in views) % self.HYPER.batch_size
        self._assert_same_checkpoint(views, self.HYPER, tmp_path)

    def test_empty_array_among_views(self, tmp_path):
        views = _views([0.3, 0.2])
        views.insert(1, np.zeros((0, 64), dtype=np.float32))
        self._assert_same_checkpoint(views, self.HYPER, tmp_path)

    def test_float64_windows(self, tmp_path):
        views = _views([0.3, 0.2], dtype=np.float64)
        assert all(v.dtype == np.float64 for v in views)
        self._assert_same_checkpoint(views, self.HYPER, tmp_path)

    def test_batch_larger_than_dataset(self, tmp_path):
        views = _views([0.05, 0.04])  # 15 + 11 windows, one batch an epoch
        hyper = dataclasses.replace(self.HYPER, batch_size=64)
        assert sum(len(v) for v in views) < hyper.batch_size
        self._assert_same_checkpoint(views, hyper, tmp_path)

    def test_traced_peak_below_one_copy_of_the_frames(self):
        hyper = VaeHyperParams(window_size=1024, latent_dim=8, hidden_sizes=(16,), epochs=1,
                               batch_size=128, sample_rate=8000)
        views = _views([60.0, 60.0], window_size=1024, hop=256)
        frame_bytes = sum(len(v) for v in views) * hyper.window_size * 4
        tracemalloc.start()
        try:
            train(views, hyper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frame_bytes, (peak, frame_bytes)

    def test_every_step_writes_the_same_gradient_arrays(self, monkeypatch):
        # every gradient that reaches an update lies at the head of one scratch
        # buffer, allocated once per call and no larger than the largest tensor
        updates = []
        update = vae_module.adam_step

        def spy(p, g, m, v, step, learning_rate):
            updates.append((p, g.base, g.__array_interface__["data"][0], step))
            assert g.dtype == p.dtype == np.float32 and g.shape == p.shape
            return update(p, g, m, v, step, learning_rate)

        monkeypatch.setattr(vae_module, "adam_step", spy)
        train(_views([0.3, 0.2]), self.HYPER)
        n_params = len(vae_module._param_shapes(self.HYPER))
        assert len(updates) == self.HYPER.epochs * 11 * n_params  # 163 windows, batches of 16
        for start in range(0, len(updates), n_params):  # each tensor once a step, steps from 1
            step_updates = updates[start : start + n_params]
            assert len({id(p) for p, _, _, _ in step_updates}) == n_params
            assert {step for _, _, _, step in step_updates} == {start // n_params + 1}
        scratch = updates[0][1]
        assert all(base is scratch for _, base, _, _ in updates)
        assert {address for _, _, address, _ in updates} == {scratch.__array_interface__["data"][0]}
        assert scratch.nbytes == max(p.nbytes for p, _, _, _ in updates[:n_params])

    def test_traced_peak_holds_no_gradient_set(self):
        # params and both Adam moments are 3P; a set of gradients beside them
        # would be a fourth P, where the fused step holds one tensor's worth
        hyper = VaeHyperParams(window_size=1024, latent_dim=256, hidden_sizes=(512,), epochs=1,
                               batch_size=16, sample_rate=8000)
        windows = _views([1.024], window_size=1024, hop=256)[0]
        assert len(windows) == 29
        tensor_bytes = [4 * math.prod(shape) for shape in vae_module._param_shapes(hyper)]
        tracemalloc.start()
        try:
            train(windows, hyper)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 3 * sum(tensor_bytes) + 2 * max(tensor_bytes)
        assert peak < bound, (peak, bound)


class TestSomMatchesReference:
    @pytest.mark.parametrize("width, height", [(1, 1), (3, 2), (13, 5)])
    def test_prototypes_and_qe_history(self, width, height):
        data = np.random.default_rng(11).standard_normal((40, 6)) * [1, 2, 3, 0.5, 1, 4]
        radius0 = max(max(width, height) / 2.0, 1.0)
        som = train_som([Thumbnail(row) for row in data], width, height,
                        epochs=12, lr0=0.5, radius0=radius0, seed=3)
        prototypes, qe_history = reference_train_som(data, width, height, 12, 0.5, radius0, 3)
        assert np.array_equal(som.prototypes, prototypes)
        assert np.array_equal(som.qe_history, qe_history)

    @pytest.mark.parametrize("width, height, dim, duplicated", [(1, 7, 6, False),
                                                               (8, 8, 30, True)])
    def test_thin_and_tied_grids_down_to_the_radius_floor(self, width, height, dim,
                                                            duplicated):
        # 40 epochs: the last ones run with the radius at (or near) its floor of 1.
        # Duplicated rows leave 20 distinct samples for the 64 units of the
        # 8 x 8 grid, so prototypes start out equal and BMU searches tie exactly.
        rng = np.random.default_rng(12)
        data = rng.standard_normal((40, dim)) * rng.uniform(0.5, 4.0, dim)
        if duplicated:
            data[20:] = data[:20]
        radius0 = max(max(width, height) / 2.0, 1.0)
        som = train_som([Thumbnail(row) for row in data], width, height,
                        epochs=40, lr0=0.5, radius0=radius0, seed=5)
        prototypes, qe_history = reference_train_som(data, width, height, 40, 0.5, radius0, 5)
        assert np.array_equal(som.prototypes, prototypes)
        assert np.array_equal(som.qe_history, qe_history)


class TestClustersMatchReference:
    """One BMU search over the whole corpus gives each thumbnail the unit a
    search of its own gives, exact ties included."""

    @pytest.fixture
    def corpus(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((50, 30)) * rng.uniform(0.5, 4.0, 30)
        data[25:] = data[:25]
        thumbs = [Thumbnail(row, f"f{i}.wav") for i, row in enumerate(data)]
        som = train_som(thumbs, 6, 5, epochs=20, seed=2)
        som.prototypes[1, 2] = som.prototypes[0, 4]  # two units equally near every query
        # midpoints of unit pairs: near-ties that rounding decides
        units = som.prototypes.reshape(30, 30)
        pairs = rng.integers(0, 30, size=(200, 2))
        middles = (units[pairs[:, 0]] + units[pairs[:, 1]]) / 2 * som.feature_std + som.feature_mean
        thumbs += [Thumbnail(row, f"m{i}.wav") for i, row in enumerate(middles)]
        return som, thumbs + [Thumbnail(data[3])]  # a thumbnail named by its position

    def _check(self, som, thumbs):
        assert assign_clusters(som, thumbs) == reference_assign_clusters(som, thumbs)
        for thumb in thumbs:
            want = reference_best_matching_unit(som, thumb.features)
            assert assign_clusters(som, [thumb])[0].unit == want

    def test_fresh_float64_map(self, corpus):
        som, thumbs = corpus
        assert som.prototypes.dtype == np.float64
        self._check(som, thumbs)
        tied = som.prototypes[0, 4] * som.feature_std + som.feature_mean
        assert assign_clusters(som, [Thumbnail(tied)])[0].unit == (4, 0)
        assert reference_best_matching_unit(som, tied) == (4, 0)

    def test_loaded_float32_map(self, corpus, tmp_path):
        som, thumbs = corpus
        save_som(som, tmp_path / "map.som")
        loaded = load_som(tmp_path / "map.som")
        assert loaded.prototypes.dtype == np.float32
        self._check(loaded, thumbs)


class TestFeatureTables:
    CONFIG = FeatureConfig(sample_rate=8000, frame_size=512, hop=256)

    def test_cached_tables_are_shared_and_read_only(self):
        args = (8000, 512, 26, 13)
        tables = _spectral_tables(*args)
        assert _spectral_tables(*args) is tables
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_repeat_calls_give_identical_thumbnails(self):
        buf = make_noise(rate=8000, seconds=0.5, seed=4)
        first = extract_thumbnail(buf, self.CONFIG)
        again = extract_thumbnail(buf, self.CONFIG)
        assert np.array_equal(first.features, again.features)

    @pytest.mark.parametrize("n_in, n_out", [(26, 13), (40, 20), (5, 5)])
    def test_dct_matrix_matches_scipy(self, n_in, n_out):
        fft = pytest.importorskip("scipy.fft")
        x = np.random.default_rng(2).standard_normal((17, n_in))
        want = fft.dct(x, type=2, norm="ortho", axis=1)[:, :n_out]
        assert np.max(np.abs(x @ dct_ii_matrix(n_in, n_out).T - want)) < 1e-12


class TestBlendMatchesReference:
    N_WINDOWS = 13

    def _stats(self, m):
        rng = np.random.default_rng(m)
        mu_a, lv_a, mu_b, lv_b = rng.standard_normal((4, self.N_WINDOWS, m)).astype(np.float32)
        ref_a = ReferencePath(LatentStats(mu, lv) for mu, lv in zip(mu_a, lv_a))
        ref_b = ReferencePath(LatentStats(mu, lv) for mu, lv in zip(mu_b, lv_b))
        return (mu_a, lv_a), (mu_b, lv_b), ref_a, ref_b

    @pytest.mark.parametrize("m", [8, 256])
    @pytest.mark.parametrize("segments", [1, 2, 21])
    def test_stepwise_segments(self, m, segments):
        path_a, path_b, ref_a, ref_b = self._stats(m)
        sweep = np.arange(segments) * 0.05
        i = np.arange(segments * self.N_WINDOWS)
        means, stds = _blend(path_a, path_b, i % self.N_WINDOWS, i // self.N_WINDOWS * 0.05, 0)
        want_means, want_stds = reference_blend(
            reference_tile_path(ref_a, segments), reference_tile_path(ref_b, segments),
            np.repeat(sweep, self.N_WINDOWS),
        )
        assert np.array_equal(means, want_means)
        assert np.array_equal(stds, want_stds)

    @pytest.mark.parametrize("m", [8, 256])
    def test_per_window_curve(self, m):
        path_a, path_b, ref_a, ref_b = self._stats(m)
        curve = InterpolationCurve(np.sin(np.arange(self.N_WINDOWS) / 2.0))
        means, stds = _blend(path_a, path_b, slice(0, self.N_WINDOWS), curve.values, 0)
        want_means, want_stds = reference_blend(ref_a, ref_b, curve.values)
        assert np.array_equal(means, want_means)
        assert np.array_equal(stds, want_stds)

    def test_mean_only_rows_skip_stds(self):
        (mu_a, _), (mu_b, _), ref_a, ref_b = self._stats(8)
        # mean mode encodes no logvar, and the blend asks for none
        weights = np.arange(self.N_WINDOWS) * 0.1
        means, stds = _blend((mu_a, None), (mu_b, None), slice(None), weights, 0)
        assert stds is None
        want_means, _ = reference_blend(ref_a, ref_b, weights)
        assert np.array_equal(means, want_means)

    def test_unequal_shapes_rejected(self):
        with pytest.raises(ShapeMismatchError):
            LatentPath(np.zeros((3, 8)), np.zeros((3, 9)))
        with pytest.raises(ShapeMismatchError):
            LatentPath(np.zeros(8), np.zeros(8))


def _noise(n_samples, seed, rate=8000):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.uniform(-1.0, 1.0, n_samples).astype(np.float32), rate)


class TestBlockwiseSynthesisMatchesReference:
    """Every block split against one whole-path blend, decode and join.

    The split puts 2 to _BLOCK rows in each block. Test blocks are 8 rows,
    and the totals cover 0, 1 and 2 rows past a multiple of 8, plus a
    1-row path; the real block size gets its own cases.
    """

    HYPER = VaeHyperParams(window_size=48, latent_dim=12, hidden_sizes=(40, 24), sample_rate=8000)
    BLOCK = 8
    MODES = [SynthesisMode.mean_only(), SynthesisMode.sampled(3)]
    # none, one sample, above width / 2 (seams overlap earlier seams), width - 1;
    # 24, the last one-pass crossfade; 25, the first two-pass one; 32, a multiple of s = 16
    CROSSFADES = [0, 1, 30, 47, 24, 25, 32]

    @pytest.fixture(scope="class")
    def model(self):
        return float32_model(self.HYPER)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(interpolate_module, "_BLOCK", self.BLOCK)

    def _pair(self, n_windows, hop):
        n = self.HYPER.window_size + (n_windows - 1) * hop
        return _noise(n, 1), _noise(n + 5, 2)  # truncation keeps the head of b

    @staticmethod
    def _assert_same(got, want):
        assert got.sample_rate == want.sample_rate
        assert same_bytes(got.samples, want.samples)

    # (segments, windows): totals 1, 16, 17, 18, 16, 18, 168, 105, 42
    @pytest.mark.parametrize(
        "segments,windows", [(1, 1), (1, 16), (1, 17), (1, 18), (2, 8), (2, 9), (21, 8), (21, 5), (21, 2)]
    )
    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    @pytest.mark.parametrize("crossfade", CROSSFADES)
    def test_stepwise(self, model, small_blocks, segments, windows, mode, crossfade):
        a, b = self._pair(windows, self.HYPER.window_size)
        range_r, step_s = {1: (0.0, 0.5), 2: (0.5, 0.5), 21: (1.0, 0.05)}[segments]
        got = stepwise_interpolate(model, a, b, range_r, step_s, mode, crossfade)
        want = reference_stepwise(model, a, b, range_r, step_s, mode, crossfade)
        self._assert_same(got, want)

    @pytest.mark.parametrize("windows", [1, 16, 17, 18])
    @pytest.mark.parametrize("hop", [16, 48])
    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    @pytest.mark.parametrize("crossfade", CROSSFADES)
    def test_extended_and_meso(self, model, small_blocks, windows, hop, mode, crossfade):
        a, b = self._pair(windows, hop)
        # weights outside [0, 1] extrapolate and drive some sigmas to the floor
        curve = InterpolationCurve(1.5 * np.sin(np.arange(windows) * 0.7))
        if hop == self.HYPER.window_size:
            got = meso_interpolate(model, a, b, curve, mode, crossfade)
        else:
            got = extended_interpolate(model, a, b, curve, mode, hop, crossfade)
        want = reference_extended(model, a, b, curve, mode, hop, crossfade)
        self._assert_same(got, want)

    @pytest.mark.parametrize("rows", [1, 16, 17, 18])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    @pytest.mark.parametrize("crossfade", CROSSFADES)
    def test_decode_path(self, model, small_blocks, rows, dtype, mode, crossfade):
        rng = np.random.default_rng(rows)
        means = (3.0 * rng.standard_normal((rows, self.HYPER.latent_dim))).astype(dtype)
        stds = rng.uniform(0.0, 2.0, means.shape).astype(dtype)
        stds[::2] = 0.0
        got = decode_path(model, means, stds, mode, crossfade)
        want = reference_decode_path(model, means, stds, mode, crossfade)
        self._assert_same(got, want)

    @pytest.mark.parametrize("extra", [0, 1, 2])
    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    def test_real_block_size(self, model, extra, mode):
        block = interpolate_module._BLOCK
        a, b = self._pair(block + extra, self.HYPER.window_size)
        for crossfade in (7, 40):  # one pass, three chained passes
            for segments, (range_r, step_s) in ((1, (0.0, 1.0)), (2, (1.0, 1.0))):
                got = stepwise_interpolate(model, a, b, range_r, step_s, mode, crossfade)
                want = reference_stepwise(model, a, b, range_r, step_s, mode, crossfade)
                self._assert_same(got, want)
        means = np.random.default_rng(extra).standard_normal((2 * block + extra, 12))
        stds = np.full_like(means, 0.5)
        self._assert_same(decode_path(model, means, stds, mode),
                          reference_decode_path(model, means, stds, mode))

    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    def test_default_shape_one_row_past_a_block(self, mode):
        # at this shape BLAS decodes a lone row through gemv, with other bits
        model = float32_model(VaeHyperParams())
        rng = np.random.default_rng(5)
        means = rng.standard_normal((interpolate_module._BLOCK + 1, model.hyper.latent_dim))
        stds = rng.uniform(0.0, 1.0, means.shape)
        self._assert_same(decode_path(model, means, stds, mode, 100),
                          reference_decode_path(model, means, stds, mode, 100))

    def test_blocks_hold_two_to_block_rows(self, model, small_blocks, monkeypatch):
        sizes = []

        def record(model, z):
            sizes.append(len(z))
            return decode_frames(model, z)

        monkeypatch.setattr(interpolate_module, "decode_frames", record)
        for total in range(1, 60):
            sizes.clear()
            zeros = np.zeros((total, self.HYPER.latent_dim))
            decode_path(model, zeros, zeros, SynthesisMode.mean_only())
            assert sum(sizes) == total
            assert max(sizes) <= self.BLOCK
            assert min(sizes) >= min(total, 2)

    @pytest.mark.parametrize("segments,windows", [(1, 17), (21, 5)])
    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    @pytest.mark.parametrize("crossfade", [0, 30])
    def test_recipe_1_stepwise(self, model, small_blocks, segments, windows, mode, crossfade):
        a, b = self._pair(windows, self.HYPER.window_size)
        range_r, step_s = {1: (0.0, 0.5), 21: (1.0, 0.05)}[segments]
        got = render_stepwise(model, a, b, range_r, step_s, mode, crossfade, recipe=1)
        want = reference_stepwise(model, a, b, range_r, step_s, mode, crossfade,
                                  encode=reference_encode_whole)
        self._assert_same(_fill(model, *got), want)

    # 748 windows: at this shape one batch of them encodes to other bits than blocks do
    @pytest.mark.parametrize("windows,hop", [(1, 48), (17, 16), (748, 16)])
    def test_recipe_1_encode_blocks_is_one_batch(self, model, small_blocks, windows, hop):
        # the decoder's blocks, sliced out of one batch of every window
        a, _ = self._pair(windows, hop)
        blocks = list(encode_blocks(model, a, hop, recipe=1))
        assert [len(p) for p in blocks] == [i1 - i0 for i0, i1 in _spans(windows)]
        want = reference_encode_whole(model, a, hop)
        got_mu, got_logvar = (np.concatenate([getattr(p, f) for p in blocks])
                              for f in ("mu", "logvar"))
        assert same_bytes(got_mu, want.mu) and same_bytes(got_logvar, want.logvar)

    # 700 windows: at this shape one batch of them encodes to other bits than blocks do
    @pytest.mark.parametrize("windows,hop", [(1, 48), (17, 48), (17, 16), (700, 16)])
    @pytest.mark.parametrize("mode", MODES, ids=["mean", "sampled"])
    @pytest.mark.parametrize("crossfade", [0, 30])
    def test_recipe_1_extended_and_meso(self, model, windows, hop, mode, crossfade):
        a, b = self._pair(windows, hop)
        curve = InterpolationCurve(1.5 * np.sin(np.arange(windows) * 0.7))
        got = render_extended(model, a, b, curve, mode, hop, crossfade, recipe=1)
        want = reference_extended(model, a, b, curve, mode, hop, crossfade,
                                  encode=reference_encode_whole)
        self._assert_same(_fill(model, *got), want)


@settings(max_examples=40, deadline=None)
@given(width=st.integers(2, 24), rows=st.integers(0, 20), seed=st.integers(0, 2**16),
       sampled=st.booleans())
def test_every_crossfade_joins_like_the_reference(width, rows, seed, sampled):
    """Blocks of 3 rows, every crossfade of the width: one-pass, chained and s = 1 seams."""
    hyper = VaeHyperParams(window_size=width, latent_dim=3, hidden_sizes=(5,), sample_rate=8000)
    model = float32_model(hyper)
    rng = np.random.default_rng(seed)
    means = 3.0 * rng.standard_normal((rows, hyper.latent_dim))
    stds = rng.uniform(0.0, 2.0, means.shape)
    mode = SynthesisMode.sampled(seed) if sampled else SynthesisMode.mean_only()
    with mock.patch.object(interpolate_module, "_BLOCK", 3):
        for crossfade in range(width):
            got = decode_path(model, means, stds, mode, crossfade)
            want = reference_decode_path(model, means, stds, mode, crossfade)
            assert same_bytes(got.samples, want.samples), crossfade


@functools.lru_cache(maxsize=None)
def _partition_model(shape):
    return float32_model({"48-wide": TestBlockwiseSynthesisMatchesReference.HYPER,
                          "default": VaeHyperParams()}[shape])


@st.composite
def _partitions(draw, n):
    """Cut points 0 = c0 < c1 < ... = n, blocks of 1 to 256 rows."""
    cuts = [0]
    while cuts[-1] < n:
        cuts.append(min(n, cuts[-1] + draw(st.integers(1, 256))))
    return cuts


@pytest.mark.parametrize("shape", ["48-wide", "default"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), windows=st.integers(1, 700), hop_den=st.sampled_from([1, 2, 4]),
       block=st.integers(8, 256), sampled=st.booleans(), crossfade=st.sampled_from([0, 5]))
def test_recipe_2_bits_do_not_depend_on_the_block_partition(shape, data, windows, hop_den,
                                                              block, sampled, crossfade):
    """Any partition into padded blocks of at most 256 windows gives each window's
    latents, and so the render, the bits of encode_audio's _spans blocks."""
    model = _partition_model(shape)
    width = model.hyper.window_size
    hop = width // hop_den
    a = _noise(width + (windows - 1) * hop, 1)
    b = _noise(width + (windows - 1) * hop, 2)
    path_a = reference_encode_blocks(model, a, hop, data.draw(_partitions(windows)))
    path_b = reference_encode_blocks(model, b, hop, data.draw(_partitions(windows)))
    want_a = encode_audio(model, a, hop)
    assert same_bytes(path_a.mu, want_a.mu) and same_bytes(path_a.logvar, want_a.logvar)
    mode = SynthesisMode.sampled(windows) if sampled else SynthesisMode.mean_only()
    curve = InterpolationCurve(np.linspace(-0.5, 1.5, windows))
    means, stds = reference_array_blend(path_a, path_b, curve.values)
    # decode blocks of at most `block` rows; the render encodes each as it decodes it
    with mock.patch.object(interpolate_module, "_BLOCK", block):
        got = extended_interpolate(model, a, b, curve, mode, hop, crossfade)
        want = decode_path(model, means, stds, mode, crossfade)
    assert same_bytes(got.samples, want.samples)


@st.composite
def _decode_partitions(draw, n):
    """Cut points 0 = c0 < c1 < ... = n (n >= 2), blocks of 2 to 256 rows: no lone row."""
    cuts = [0]
    while cuts[-1] < n:
        left = n - cuts[-1]
        size = draw(st.integers(2, min(256, left)))
        if left - size == 1:  # a lone last row: take it too, or leave two
            size = left if left <= 256 else size - 1
        cuts.append(cuts[-1] + size)
    return cuts


@pytest.mark.parametrize("shape", ["48-wide", "default"])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), rows=st.integers(2, 600), seed=st.integers(0, 2**16),
       sampled=st.booleans(), fade=st.sampled_from(["0", "1", "W/2 + 1", "W - 1"]))
def test_decoded_bits_do_not_depend_on_the_block_partition(shape, data, rows, seed, sampled,
                                                             fade):
    """The rule synthesis rests on: a decoded row has the same bits in any block of
    2 to 256 rows, so the decoder's join of any such partition, eps stream and
    carried seams included, is the bytes of decode_path's render."""
    model = _partition_model(shape)
    width = model.hyper.window_size
    crossfade = {"0": 0, "1": 1, "W/2 + 1": width // 2 + 1, "W - 1": width - 1}[fade]
    rng = np.random.default_rng(seed)
    means = 3.0 * rng.standard_normal((rows, model.hyper.latent_dim))
    stds = rng.uniform(0.0, 2.0, means.shape)
    mode = SynthesisMode.sampled(seed) if sampled else SynthesisMode.mean_only()
    cuts = data.draw(_decode_partitions(rows))
    blocks = ((means[i0:i1], stds[i0:i1] if sampled else None) for i0, i1 in zip(cuts, cuts[1:]))
    got = np.concatenate(list(_decode_blocks(model, blocks, mode.seed, crossfade)))
    want = decode_path(model, means, stds, mode, crossfade)
    assert same_bytes(got, want.samples)


class TestInferenceMatchesReference:
    HYPER = VaeHyperParams(window_size=48, latent_dim=12, hidden_sizes=(40, 24))

    def _models(self):
        return {"float32": float32_model(self.HYPER), "float64": init_model(self.HYPER)}

    @pytest.mark.parametrize(
        "hidden_sizes", [(), (40, 24), (16, 8, 4)], ids=["0-hidden", "2-hidden", "3-hidden"]
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_draws_the_reference_stream(self, hidden_sizes, dtype):
        # train seeds one generator for init, shuffles and eps: the init
        # must take the same draws in the same order, or every checkpoint moves
        hyper = VaeHyperParams(window_size=48, latent_dim=12, hidden_sizes=hidden_sizes)
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        got = init_model(hyper, rng=got_rng, dtype=dtype).params
        want = reference_init_params(hyper, want_rng, dtype)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_bytes(g, w)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_float32_init_is_float64_init_rounded(self):
        # float32_model builds its weights this way; the models it stands
        # in for were float64 weights rounded to float32
        got = init_model(self.HYPER, dtype=np.float32).params
        want = [p.astype(np.float32) for p in init_model(self.HYPER).params]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_bytes(g, w)

    @staticmethod
    def _with_signed_zeros(x):
        x[0, :] = 0.0
        x[-1, ::2] = -0.0
        x[:, 1] = -np.abs(x[:, 1])  # large negative inputs: negative pre-activations
        return x

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("batch", [1, 7, 1719])
    def test_encode_and_decode_bytes(self, dtype, batch):
        model = self._models()[dtype]
        rng = np.random.default_rng(batch)
        frames = self._with_signed_zeros(
            rng.uniform(-1.0, 1.0, (batch, self.HYPER.window_size)).astype(model.dtype)
        )
        z = self._with_signed_zeros(
            3.0 * rng.standard_normal((batch, self.HYPER.latent_dim)).astype(model.dtype)
        )
        mu, logvar = encode_frames(model, frames)
        want_mu, want_logvar = reference_encode_frames(model, frames)
        assert same_bytes(mu, want_mu) and same_bytes(logvar, want_logvar)
        assert same_bytes(decode_frames(model, z), reference_decode_frames(model, z))
        assert (frames[0] == 0).all() and np.signbit(frames[-1, ::2]).all()  # inputs untouched

    def test_zero_and_negative_zero_pre_activations(self):
        model = float32_model(self.HYPER)
        encoder, _, _, decoder = model.layers()
        for w, b in encoder + decoder:
            w[:, ::3] = 0.0
            b[::3] = -0.0
        frames = np.zeros((5, self.HYPER.window_size), dtype=np.float32)
        frames[1:] = np.random.default_rng(1).uniform(-1, 1, (4, self.HYPER.window_size))
        z = np.zeros((5, self.HYPER.latent_dim), dtype=np.float32)
        z[2:] = -0.0
        for got, want in zip(encode_frames(model, frames), reference_encode_frames(model, frames)):
            assert same_bytes(got, want)
        assert same_bytes(decode_frames(model, z), reference_decode_frames(model, z))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_on_special_values(self, dtype):
        info = np.finfo(dtype)
        values = np.array(
            [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, -np.nan, info.max, -info.max,
             info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
             3 * info.smallest_subnormal, -100 * info.smallest_subnormal],
            dtype=dtype,
        )
        want = reference_leaky(values)
        assert same_bytes(_leaky(values), want)
        in_place = values.copy()
        assert _leaky(in_place, out=in_place) is in_place
        assert same_bytes(in_place, want)


class TestReaderAndWavWriterMatchReference:
    MAGIC = b"RTEST\x00\x01"

    @pytest.mark.parametrize("header_len_mod", [0, 1, 2, 3])
    def test_container_tensors(self, tmp_path, header_len_mod):
        rng = np.random.default_rng(header_len_mod)
        tensors = [
            rng.standard_normal((5, 7)).astype(np.float32),
            np.float32(2.5),
            np.zeros((0, 3)),
            rng.standard_normal(11),
            np.array([[-0.0, np.inf], [np.nan, 1e-45]], dtype=np.float32),
        ]
        path = tmp_path / "c.bin"
        write_container(path, self.MAGIC, {"k": "v" * header_len_mod}, tensors)
        header, got = read_container(path, self.MAGIC)
        want_header, want = reference_read_container(path, self.MAGIC)
        assert header == want_header
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_bytes(g, w)

    def test_checkpoint_tensors(self, tmp_path):
        hyper = VaeHyperParams(window_size=32, latent_dim=4, hidden_sizes=(8,),
                               epochs=2, batch_size=16, sample_rate=8000)
        ckpt = train([window(make_noise(seconds=0.2, seed=3), 32, 16)], hyper)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        _, want = reference_read_container(path, b"RAVAE\x00\x01")
        loaded = load_checkpoint(path)
        got = [*loaded.params, *loaded.adam_m, *loaded.adam_v, loaded.loss_history]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_bytes(g, w)

    # the source file's encoding: both are read, and only float32 is written
    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    @pytest.mark.parametrize("n", [1, 2, 3, 1001])
    def test_wav_bytes(self, tmp_path, encoding, n):
        rng = np.random.default_rng(n)
        samples = rng.uniform(-1.3, 1.3, n).astype(np.float32)
        samples[::5] = -0.0
        buffers = [AudioBuffer(samples, 8000), AudioBuffer(samples[::-1], 44100)]
        for buf in buffers:
            source, got, want = tmp_path / "in.wav", tmp_path / "got.wav", tmp_path / "want.wav"
            reference_save_wav(buf, source, encoding)
            save_wav(load_wav(source), got)
            reference_save_wav(reference_load_mono_wav(source), want)
            assert got.read_bytes() == want.read_bytes()


class TestParentSidecarsRegenerate:
    """A sidecar as the commands wrote it before the recipe key existed (paths
    aside, byte for byte) regenerates the whole-path encode's artifact."""

    HYPER = TestBlockwiseSynthesisMatchesReference.HYPER
    COMMON = "checkpoint={ckpt}\nin1={in1}\nin2={in2}\nout={out}\n"
    SIDECARS = {
        "step": "command=synth step\n" + COMMON +
                "mode=mean\ncrossfade=5\nnormalize=0\nrange=1.0\nstep=0.5\n",
        "meso": "command=synth meso\n" + COMMON +
                "mode=mean\ncrossfade=0\nnormalize=0\ncurve=sine:p=50\n",
        "extend": "command=synth extend\n" + COMMON +
                  "mode=sample\nseed=7\ncrossfade=20\nnormalize=0\ncurve=lin:0:1\nhop=16\n",
        "export-latents": "command=export-latents\ncheckpoint={ckpt}\ninput={in1}\n"
                          "out={out}\nhop=16\nnormalize=0\n",
    }

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parent")
        model = float32_model(self.HYPER)
        zeros = [np.zeros_like(p) for p in model.params]
        save_checkpoint(Checkpoint(self.HYPER, model.params, zeros, zeros, 0,
                                   np.zeros((1, 2), np.float32)), root / "m.ckpt")
        # 748 windows at hop 16: one batch of them encodes to other bits than blocks do
        for i in (1, 2):
            save_wav(_noise(12000, i), root / f"in{i}.wav")
        return root, model

    def _want(self, command, model, root, out):
        a, b = (load_wav(root / f"in{i}.wav") for i in (1, 2))
        whole = reference_encode_whole
        if command == "export-latents":
            return reference_export_latents(whole(model, a, 16), out)
        if command == "step":
            buf = reference_stepwise(model, a, b, 1.0, 0.5, SynthesisMode.mean_only(), 5,
                                     encode=whole)
        else:
            hop, curve, mode, crossfade = {
                "meso": (48, "sine:p=50", SynthesisMode.mean_only(), 0),
                "extend": (16, "lin:0:1", SynthesisMode.sampled(7), 20)}[command]
            n = (len(a) - 48) // hop + 1
            buf = reference_extended(model, a, b, generate_curve(curve, n), mode, hop,
                                     crossfade, encode=whole)
        reference_save_wav(buf, out)

    @pytest.mark.parametrize("command", ["step", "meso", "extend", "export-latents"])
    def test_regenerates_through_recipe_1(self, files, tmp_path, command):
        root, model = files
        out = tmp_path / "regenerated"
        sidecar = tmp_path / "parent.cfg"
        sidecar.write_text(self.SIDECARS[command].format(
            ckpt=root / "m.ckpt", in1=root / "in1.wav", in2=root / "in2.wav", out=out))
        argv = ["export-latents"] if command == "export-latents" else ["synth", command]
        assert cli_main([*argv, "--config", str(sidecar)]) == 0
        self._want(command, model, root, tmp_path / "want")
        assert out.read_bytes() == (tmp_path / "want").read_bytes()
        assert "recipe=1" in (tmp_path / "regenerated.cfg").read_text().splitlines()


class TestLatentExportRoundTrip:
    def test_every_field_parses_back_to_its_float32(self, tmp_path):
        info = np.finfo(np.float32)
        rng = np.random.default_rng(9)
        # values across the whole exponent range, with the extremes and signed zero
        mu = (rng.standard_normal((20, 16)) * 10.0 ** rng.integers(-44, 38, (20, 16)))
        mu = mu.astype(np.float32)
        mu[0, :6] = [0.0, -0.0, info.max, -info.max, info.tiny, info.smallest_subnormal]
        bits = rng.integers(0, 0x7F800000, (20, 16), dtype=np.uint32)  # random finite patterns
        logvar = bits.view(np.float32) * np.float32(-1) ** np.arange(16, dtype=np.float32)
        export_latents([LatentPath(mu, logvar)], tmp_path / "latents.csv")
        rows = (tmp_path / "latents.csv").read_text().splitlines()[1:]
        assert len(rows) == 20
        for i, row in enumerate(rows):
            fields = row.split(",")
            assert fields[0] == str(i)
            got = np.array([np.float32(float(v)) for v in fields[1:]], dtype=np.float32)
            want = np.concatenate([mu[i], logvar[i]])
            assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()


class TestFrameFeaturesMatchReference:
    # 300 is not a power of two, so dividing by it differs from scaling by 1/300
    @pytest.mark.parametrize("size", [256, 300])
    @pytest.mark.parametrize("centroid, rms", [(True, True), (False, True), (True, False)])
    def test_strided_and_copied_frames(self, size, centroid, rms):
        config = FeatureConfig(sample_rate=8000, frame_size=size, hop=100,
                               centroid=centroid, rms=rms)
        samples = make_noise(seconds=0.4, rate=8000, seed=6).samples.copy()
        samples[:600] = 0.0  # silent frames: zero centroid mass
        n = (len(samples) - size) // 100 + 1
        view = np.lib.stride_tricks.sliding_window_view(samples, size)[: n * 100 : 100]
        want = reference_frame_features(view.copy(), config)
        assert same_bytes(frame_features(view, config), want)
        assert same_bytes(frame_features(view.astype(np.float64), config), want)
        wide = np.lib.stride_tricks.sliding_window_view(samples.astype(np.float64), size)
        assert same_bytes(frame_features(wide[: n * 100 : 100], config), want)

    def test_input_frames_are_not_modified(self):
        config = FeatureConfig(sample_rate=8000, frame_size=64, hop=32)
        frames = np.random.default_rng(2).standard_normal((9, 64))
        before = frames.copy()
        frame_features(frames, config)
        assert same_bytes(frames, before)
