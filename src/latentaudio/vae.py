"""Dense variational autoencoder on raw audio windows.

All numerics are hand-rolled numpy: forward passes, analytic backprop,
Adam, and a finite-difference gradient checker. The encoder maps a
window to (mu, logvar) through leaky-rectified hidden layers and two
affine heads; the decoder mirrors the chain and squashes output through
tanh so samples stay inside (-1, 1).

Inference and training share one in-place layer walk. Training keeps
activations only, and its backward walk forms no frame gradient. It
gathers each batch from the arrays it was given, views included, into
one buffer. Each training step is fused: the backward walk hands over
each tensor's gradient as soon as it has made its last read of the
tensor, and adam_step, the one Adam update, runs on that tensor then,
before the walk goes on (after LOMO, Lv et al., arXiv:2306.09782). Every
gradient is written into one scratch buffer the size of the largest
tensor, so training holds no parameter-sized set of gradients.

Training, checkpoints and inference are all float32. Only the gradient
checker runs in float64, on a model it builds for itself, so that finite
differences are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import read_container, read_record, read_value, record_header, write_container
from .exceptions import (
    CorruptFileError,
    EmptyDatasetError,
    NonFiniteLossError,
    ShapeMismatchError,
)

CHECKPOINT_MAGIC = b"RAVAE\x00\x01"

_LEAKY_SLOPE = 0.01
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# p, g, m, v and two work blocks of this many float32 elements, 1.5 MB in
# all, stay in a 2 MB L2; fewer, larger blocks spend less on per-call overhead
_ADAM_BLOCK = 65536


def _leaky(pre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Leaky ReLU as max(x, slope*x); out=pre computes it in place.

    For 0 < slope < 1 this equals where(x > 0, x, slope*x) bit for bit,
    ±0.0, ±inf, NaN and subnormals included.
    """
    return np.maximum(pre, pre * pre.dtype.type(_LEAKY_SLOPE), out=out)


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """h @ w + b with the bias added into the fresh matmul result."""
    out = h @ w
    out += b
    return out


def _leaky_grad(act: np.ndarray) -> np.ndarray:
    """Slope per element from the activation: max(x, slope*x) > 0 iff x > 0."""
    return np.where(act > 0, act.dtype.type(1.0), act.dtype.type(_LEAKY_SLOPE))


def _forward_layers(h: np.ndarray, layers: list, acts: list | None = None) -> np.ndarray:
    """Affine then in-place leaky ReLU per [W, b]; acts, if given (training),
    receives each output, so with h first, layer i maps acts[i] to acts[i + 1]."""
    for w, b in layers:
        h = _affine(h, w, b)
        _leaky(h, out=h)
        if acts is not None:
            acts.append(h)
    return h


def _slot(scratch: np.ndarray | None, like: np.ndarray) -> np.ndarray | None:
    """The head of scratch shaped like a tensor, to write its gradient into;
    None (a fresh array) without scratch."""
    return None if scratch is None else scratch[: like.size].reshape(like.shape)


def _backward_layers(d_pre, layers: list, acts: list, first: int, scratch, to_input: bool):
    """Yields (params index, gradient) for the W and b of each [W, b] in layers,
    last layer first, and returns dloss/dacts[0] if to_input, else None.

    d_pre is dloss/d(pre-activation) of the last layer; layer i reads acts[i],
    and for i >= 1 acts[i] is the leaky output of layer i - 1. layers[i]'s W is
    params[first + 2 * i]. W's last read, for the upstream gradient, comes
    before either gradient is yielded, so the consumer may update W and b in
    place before it resumes the walk.
    """
    for i in reversed(range(len(layers))):
        w, b = layers[i]
        upstream = d_pre @ w.T if i or to_input else None
        yield first + 2 * i, np.matmul(acts[i].T, d_pre, out=_slot(scratch, w))
        yield first + 2 * i + 1, np.sum(d_pre, axis=0, out=_slot(scratch, b))
        if i:
            d_pre = upstream * _leaky_grad(acts[i])
    return upstream


@dataclass(frozen=True)
class VaeHyperParams:
    """Architecture and optimization settings; every field round-trips
    through the checkpoint header."""

    window_size: int = 1024
    latent_dim: int = 256
    hidden_sizes: tuple = (512,)
    alpha: float = 1e-4
    learning_rate: float = 1e-4
    epochs: int = 500
    batch_size: int = 128
    sample_rate: int = 44100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        # a numpy float64 here would promote float32 training arithmetic to
        # float64 (NEP 50); a Python float does not
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "learning_rate", float(self.learning_rate))
        if self.latent_dim < 1 or self.window_size < 1:
            raise ValueError("latent_dim and window_size must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class LatentStats:
    """Per-window posterior: mean vector and log-variance vector."""

    mu: np.ndarray
    logvar: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu)
        logvar = np.asarray(self.logvar)
        if mu.ndim != 1 or mu.shape != logvar.shape:
            raise ValueError(
                f"mu/logvar must be 1-D and equal length, got {mu.shape} vs {logvar.shape}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "logvar", logvar)


def _param_shapes(hyper: VaeHyperParams) -> list:
    """Tensor shapes in the canonical parameter order (see VaeModel)."""
    enc = [hyper.window_size, *hyper.hidden_sizes]
    dec = [hyper.latent_dim, *reversed(hyper.hidden_sizes), hyper.window_size]
    pairs = [*zip(enc[:-1], enc[1:]), (enc[-1], hyper.latent_dim),
             (enc[-1], hyper.latent_dim), *zip(dec[:-1], dec[1:])]
    return [shape for n_in, n_out in pairs for shape in ((n_in, n_out), (n_out,))]


@dataclass
class VaeModel:
    """Weights for one encoder/decoder pair.

    params is one flat list in the canonical order: encoder hidden
    layers, mu head, logvar head, decoder layers, W before b in each.
    Gradients, Adam moments and the checkpoint tensor stream share this
    order, and _param_shapes gives its shapes. W is (fan_in, fan_out)
    and activations flow as x @ W + b.
    """

    params: list
    hyper: VaeHyperParams

    @property
    def dtype(self):
        return self.params[0].dtype

    def layers(self) -> tuple:
        """(encoder pairs, mu head, logvar head, decoder pairs) as [W, b]
        lists holding the tensors of params themselves."""
        pairs = [self.params[i : i + 2] for i in range(0, len(self.params), 2)]
        n_hidden = len(self.hyper.hidden_sizes)
        return pairs[:n_hidden], pairs[n_hidden], pairs[n_hidden + 1], pairs[n_hidden + 2 :]


def init_model(hyper: VaeHyperParams, rng=None, dtype=np.float64) -> VaeModel:
    """Seeded fan-in-scaled uniform weights, zero biases."""
    if rng is None:
        rng = np.random.default_rng(hyper.seed)
    params = []
    for shape in _param_shapes(hyper):
        if len(shape) == 1:
            params.append(np.zeros(shape, dtype=dtype))
        else:
            bound = 1.0 / math.sqrt(shape[0])
            params.append(rng.uniform(-bound, bound, size=shape).astype(dtype))
    return VaeModel(params, hyper)


def encode_frames(model: VaeModel, frames: np.ndarray, with_logvar: bool = True):
    """Batched encoder: (B, window_size) -> mu, logvar of shape (B, M).

    with_logvar=False runs the mu head only and returns None for logvar;
    the heads are separate matmuls, so mu has the same bits either way.
    """
    h = np.asarray(frames, dtype=model.dtype)
    if h.ndim != 2 or h.shape[1] != model.hyper.window_size:
        raise ShapeMismatchError(
            f"expected (B, {model.hyper.window_size}) frames, got {h.shape}"
        )
    encoder, mu_head, logvar_head, _ = model.layers()
    h = _forward_layers(h, encoder)
    return _affine(h, *mu_head), _affine(h, *logvar_head) if with_logvar else None


def decode_frames(model: VaeModel, z: np.ndarray) -> np.ndarray:
    """Batched decoder: (B, M) -> frames of shape (B, window_size)."""
    h = np.asarray(z, dtype=model.dtype)
    if h.ndim != 2 or h.shape[1] != model.hyper.latent_dim:
        raise ShapeMismatchError(
            f"expected (B, {model.hyper.latent_dim}) latents, got {h.shape}"
        )
    *hidden, out = model.layers()[3]
    h = _affine(_forward_layers(h, hidden), *out)
    return np.tanh(h, out=h)


def kl_divergence(stats: LatentStats) -> float:
    """Closed-form KL(N(mu, sigma^2 I) || N(0, I)), summed over dims."""
    mu = stats.mu.astype(np.float64)
    logvar = stats.logvar.astype(np.float64)
    # expm1(v) >= v holds after rounding too, so no term dips below zero
    return float(0.5 * np.sum(mu * mu + (np.expm1(logvar) - logvar)))


def _forward_batch(model: VaeModel, frames: np.ndarray, eps: np.ndarray):
    """Forward pass keeping the layer activations the backward pass reads."""
    encoder, mu_head, logvar_head, decoder = model.layers()
    enc_acts = [frames]
    h = _forward_layers(frames, encoder, enc_acts)
    mu = _affine(h, *mu_head)
    logvar = _affine(h, *logvar_head)
    sigma = np.exp(logvar / 2)
    z = mu + sigma * eps

    dec_acts = [z]
    x_hat = _affine(_forward_layers(z, decoder[:-1], dec_acts), *decoder[-1])
    np.tanh(x_hat, out=x_hat)
    return {
        "enc_acts": enc_acts, "mu": mu, "logvar": logvar, "sigma": sigma, "z": z,
        "dec_acts": dec_acts, "x_hat": x_hat,
    }


def _batch_losses(frames, cache, alpha):
    batch, width = frames.shape
    diff = cache["x_hat"] - frames
    recon = float(np.sum(diff * diff) / (batch * width))
    mu, logvar = cache["mu"], cache["logvar"]
    kl = float(0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0) / batch)
    return recon + alpha * kl, recon, kl


def _backward_walk(model: VaeModel, frames, eps, alpha: float, cache: dict, scratch=None):
    """Yields (params index, gradient) for every tensor of the batch-mean loss,
    last layer first, each once the walk has made its last read of that tensor.

    The loss is mean-over-batch of (per-window MSE + alpha * KL sum), so
    every upstream gradient carries the 1/batch factor once. cache is
    _forward_batch's for these frames and eps; the output stage is computed
    in place in its x_hat, so take the losses first. With scratch, a flat
    array at least as large as the largest tensor, every gradient is written
    into its head and holds until the walk resumes; without, each is fresh.
    """
    encoder, mu_head, logvar_head, decoder = model.layers()
    n_enc = 2 * len(encoder)
    batch, width = frames.shape

    # decoder output stage, through tanh: 2 (x_hat - x) / (B W) * (1 - x_hat^2)
    x_hat = cache["x_hat"]
    d_pre = np.subtract(x_hat, frames)
    np.multiply(2.0, d_pre, out=d_pre)
    np.divide(d_pre, batch * width, out=d_pre)
    np.square(x_hat, out=x_hat)
    np.subtract(1.0, x_hat, out=x_hat)
    np.multiply(d_pre, x_hat, out=d_pre)
    d_z = yield from _backward_layers(d_pre, decoder, cache["dec_acts"], n_enc + 4, scratch,
                                      to_input=True)

    # reparameterization split: z = mu + sigma * eps
    d_mu = d_z + alpha * cache["mu"] / batch
    d_logvar = d_z * eps * 0.5 * cache["sigma"] + (
        alpha * 0.5 * (np.exp(cache["logvar"]) - 1.0) / batch
    )

    head_in = cache["enc_acts"][-1]
    # both heads' weights are read before either is updated
    upstream = d_mu @ mu_head[0].T + d_logvar @ logvar_head[0].T if encoder else None
    yield from _backward_layers(d_logvar, [logvar_head], [head_in], n_enc + 2, scratch, False)
    yield from _backward_layers(d_mu, [mu_head], [head_in], n_enc, scratch, False)
    if encoder:
        yield from _backward_layers(upstream * _leaky_grad(head_in), encoder, cache["enc_acts"],
                                    0, scratch, to_input=False)


def _backward_batch(model: VaeModel, frames: np.ndarray, eps: np.ndarray, alpha: float):
    """Analytic gradients of the batch-mean loss, each a fresh array in the
    canonical parameter order, and the losses: returns (grads, losses)."""
    cache = _forward_batch(model, frames, eps)
    losses = _batch_losses(frames, cache, alpha)
    grads = [None] * len(model.params)
    for i, g in _backward_walk(model, frames, eps, alpha, cache):
        grads[i] = g
    return grads, losses


def _flat_view(a: np.ndarray) -> np.ndarray:
    if not a.flags.c_contiguous:
        raise ValueError("adam_step updates arrays in place and needs them C-contiguous")
    return a.reshape(-1)


def adam_step(p, g, m, v, step: int, learning_rate: float) -> None:
    """One tensor's bias-corrected Adam update at optimizer step `step`
    (counted from 1), in place on p and its moments m and v.

    The tensor is walked in blocks of _ADAM_BLOCK elements through two
    block-sized work arrays, so no parameter-sized temporary is made.
    Every element still gets the textbook operations in the textbook
    order, with no scalars folded together, so the result equals the
    unblocked update bit for bit. p, m and v must be C-contiguous; g is
    read in p's dtype.
    """
    g = np.asarray(g, dtype=p.dtype)
    if g.shape != p.shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    correction1, correction2 = 1.0 - _ADAM_BETA1 ** step, 1.0 - _ADAM_BETA2 ** step
    p, g, m, v = _flat_view(p), g.reshape(-1), _flat_view(m), _flat_view(v)
    work_a, work_b = np.empty((2, min(p.size, _ADAM_BLOCK)), dtype=p.dtype)
    for start in range(0, p.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        pb, gb, mb, vb = p[block], g[block], m[block], v[block]
        a, b = work_a[: pb.size], work_b[: pb.size]
        mb *= _ADAM_BETA1
        mb += np.multiply(1.0 - _ADAM_BETA1, gb, out=a)
        vb *= _ADAM_BETA2
        np.multiply(gb, gb, out=a)
        vb += np.multiply(1.0 - _ADAM_BETA2, a, out=a)
        m_hat = np.divide(mb, correction1, out=a)
        v_hat = np.divide(vb, correction2, out=b)
        denom = np.add(np.sqrt(v_hat, out=b), _ADAM_EPS, out=b)
        pb -= np.divide(np.multiply(learning_rate, m_hat, out=a), denom, out=a)


@dataclass
class Checkpoint:
    """A trained model and its training record: hyperparameters,
    parameters, Adam moments and per-epoch losses. Nothing reads the
    moments back; no command resumes training from a checkpoint. After
    load_checkpoint every tensor is its own array, so a model built from
    one holds only the parameters, and the moments go with the Checkpoint.

    Tensors are float32, the dtype they were trained in; loss_history
    rows are per-epoch (mean reconstruction, mean KL).
    """

    hyper: VaeHyperParams
    params: list
    adam_m: list
    adam_v: list
    adam_step_count: int
    loss_history: np.ndarray


def train(dataset, hyper: VaeHyperParams) -> Checkpoint:
    """Optimize a freshly initialized model over the window collection:
    one (N, window_size) frame array, or an iterable of them. The arrays
    are kept as they are, strided views such as audio.frame_view's
    included; each batch is gathered from them into one float32 buffer.

    Frames, parameters, Adam moments, activations and gradients are all
    float32, the checkpoint dtype, so the trained tensors are stored as
    they are. Each step runs the forward pass and the losses, raises
    NonFiniteLossError before any update, then walks the layers backward
    and runs adam_step on each tensor as soon as its gradient is formed.
    Every gradient is written into one scratch buffer the size of the
    largest tensor, allocated once per call, so no parameter-sized set of
    gradients is held. One seeded generator drives initialization, the
    per-epoch shuffle, and one fresh eps row per window per visit (drawn in
    float64, then rounded), so identical inputs give byte-identical
    checkpoints.
    """
    arrays = [dataset] if isinstance(dataset, np.ndarray) else [np.asarray(a) for a in dataset]
    if not arrays or sum(len(a) for a in arrays) == 0:
        raise EmptyDatasetError("training needs at least one window")
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != hyper.window_size:
            raise ShapeMismatchError(
                f"dataset windows are {a.shape[-1]} wide (array shape {a.shape}), "
                f"hyper says {hyper.window_size}"
            )
    lengths = [len(a) for a in arrays]
    starts = np.cumsum([0, *lengths[:-1]])
    n = sum(lengths)

    rng = np.random.default_rng(hyper.seed)
    model = init_model(hyper, rng=rng, dtype=np.float32)
    params = model.params
    adam_m, adam_v = [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params]
    step = 0
    scratch = np.empty(max(p.size for p in params), dtype=np.float32)
    batch_buf = np.empty((min(hyper.batch_size, n), hyper.window_size), dtype=np.float32)
    history = np.zeros((hyper.epochs, 2), dtype=np.float64)

    for epoch in range(hyper.epochs):
        order = rng.permutation(n)
        recon_sum = 0.0
        kl_sum = 0.0
        for start in range(0, n, hyper.batch_size):
            rows = order[start : start + hyper.batch_size]
            batch = batch_buf[: len(rows)]
            # each row from the array holding it (arrays[k] starts at row starts[k])
            owner = np.searchsorted(starts, rows, side="right") - 1
            for j, (k, i) in enumerate(zip(owner.tolist(), (rows - starts[owner]).tolist())):
                batch[j] = arrays[k][i]
            eps = rng.standard_normal((len(batch), hyper.latent_dim)).astype(np.float32)
            cache = _forward_batch(model, batch, eps)
            total, recon, kl = _batch_losses(batch, cache, hyper.alpha)
            if not math.isfinite(total):
                raise NonFiniteLossError(f"loss became non-finite at epoch {epoch + 1}")
            step += 1
            for i, g in _backward_walk(model, batch, eps, hyper.alpha, cache, scratch):
                adam_step(params[i], g, adam_m[i], adam_v[i], step, hyper.learning_rate)
            recon_sum += recon * len(batch)
            kl_sum += kl * len(batch)
        history[epoch] = (recon_sum / n, kl_sum / n)

    return Checkpoint(hyper=hyper, params=params, adam_m=adam_m, adam_v=adam_v,
                      adam_step_count=step, loss_history=history.astype(np.float32))


def model_from_checkpoint(ckpt: Checkpoint) -> VaeModel:
    """Rebuild a float32 inference model from stored tensors.

    float32 tensors are used as they are, not copied: the model's weights
    are ckpt.params, so writing to either writes to both. After
    load_checkpoint each is an array of its own, and the model holds only
    its parameters, not the Adam moments or the loss history.
    """
    return VaeModel([np.asarray(p, dtype=np.float32) for p in ckpt.params], ckpt.hyper)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Persist weights, Adam state, and loss history; bit-exact on reload."""
    header = {**record_header(ckpt.hyper), "adam_step": ckpt.adam_step_count}
    tensors = [*ckpt.params, *ckpt.adam_m, *ckpt.adam_v, ckpt.loss_history]
    write_container(path, CHECKPOINT_MAGIC, header, tensors)


def load_checkpoint(path) -> Checkpoint:
    header, tensors = read_container(path, CHECKPOINT_MAGIC)
    hyper = read_record(path, header, VaeHyperParams)
    shapes = _param_shapes(hyper)
    n_params = len(shapes)
    if len(tensors) != 3 * n_params + 1:
        raise CorruptFileError(
            f"{path}: expected {3 * n_params + 1} tensors, found {len(tensors)}"
        )
    for i, t in enumerate(tensors[:-1]):
        group, k = divmod(i, n_params)
        if t.shape != shapes[k]:
            raise CorruptFileError(
                f"{path}: {('params', 'adam_m', 'adam_v')[group]}[{k}] has shape "
                f"{t.shape}, the header's hyperparameters give {shapes[k]}"
            )
        # the checksum proves the bytes are as written, not that a model can use them
        if group == 0 and not np.isfinite(t).all():
            raise CorruptFileError(f"{path}: params[{k}] holds non-finite values")
    loss_history = tensors[-1]
    if loss_history.ndim != 2 or loss_history.shape[1] != 2:
        raise CorruptFileError(f"{path}: loss history has shape {loss_history.shape}")
    return Checkpoint(
        hyper=hyper,
        params=tensors[:n_params],
        adam_m=tensors[n_params : 2 * n_params],
        adam_v=tensors[2 * n_params : 3 * n_params],
        adam_step_count=read_value(path, header, "adam_step", int),
        loss_history=loss_history,
    )


@dataclass(frozen=True)
class GradientCheckReport:
    max_rel_error: float
    n_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _scalar_loss(model: VaeModel, x: np.ndarray, eps: np.ndarray) -> float:
    cache = _forward_batch(model, x[None, :], eps[None, :])
    total, _, _ = _batch_losses(x[None, :], cache, model.hyper.alpha)
    return total


def gradient_check(
    hyper: VaeHyperParams,
    tolerance: float = 1e-3,
    n_samples: int = 100,
    seed: int = 0,
    step: float = 1e-4,
    eps: np.ndarray | None = None,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Probes at least n_samples randomly chosen parameter entries (every
    tensor gets at least one) on a model built from hyper. Relative error uses
    |a - n| / max(|a|, |n|, 1e-8).
    """
    rng = np.random.default_rng(seed)
    model = init_model(hyper, rng=rng)
    x = rng.uniform(-1.0, 1.0, size=hyper.window_size)
    if eps is None:
        eps = rng.standard_normal(hyper.latent_dim)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (hyper.latent_dim,):
        raise ShapeMismatchError(f"eps shape {eps.shape} != ({hyper.latent_dim},)")

    analytic, _ = _backward_batch(model, x[None, :], eps[None, :], hyper.alpha)
    params = model.params
    # seed one probe per tensor so biases are always covered, then fill randomly
    coords = [(t, 0) for t in range(len(params))]
    while len(coords) < n_samples:
        t = int(rng.integers(len(params)))
        coords.append((t, int(rng.integers(params[t].size))))

    max_rel = 0.0
    for t, flat_idx in coords:
        p = params[t].reshape(-1)
        original = p[flat_idx]
        p[flat_idx] = original + step
        loss_plus = _scalar_loss(model, x, eps)
        p[flat_idx] = original - step
        loss_minus = _scalar_loss(model, x, eps)
        p[flat_idx] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        a = analytic[t].reshape(-1)[flat_idx]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return GradientCheckReport(max_rel_error=max_rel, n_checked=len(coords), tolerance=tolerance)
