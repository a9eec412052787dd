"""Dense variational autoencoder on raw audio windows.

All numerics are hand-rolled numpy: forward passes, analytic backprop,
Adam, and a finite-difference gradient checker. The encoder maps a
window to (mu, logvar) through leaky-rectified hidden layers and two
affine heads; the decoder mirrors the chain and squashes output through
tanh so samples stay inside (-1, 1).

Training, checkpoints and inference are all float32. Only the gradient
checker runs in float64, on a model it builds for itself, so that finite
differences are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .container import read_container, write_container
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
_ADAM_BLOCK = 16384  # two scratch blocks of this size stay in L2


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


def _leaky_grad(pre: np.ndarray) -> np.ndarray:
    one = pre.dtype.type(1.0)
    return np.where(pre > 0, one, pre.dtype.type(_LEAKY_SLOPE))


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
        # float64 (NEP 50), and its numpy 2 repr would not parse back from
        # a checkpoint header; a Python float does neither
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "learning_rate", float(self.learning_rate))
        if self.latent_dim < 1 or self.window_size < 1:
            raise ValueError("latent_dim and window_size must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")


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

    def __len__(self) -> int:
        return len(self.mu)


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


def encode_frames(model: VaeModel, frames: np.ndarray):
    """Batched encoder: (B, window_size) -> mu, logvar of shape (B, M)."""
    h = np.asarray(frames, dtype=model.dtype)
    if h.ndim != 2 or h.shape[1] != model.hyper.window_size:
        raise ShapeMismatchError(
            f"expected (B, {model.hyper.window_size}) frames, got {h.shape}"
        )
    encoder, mu_head, logvar_head, _ = model.layers()
    for w, b in encoder:
        h = _affine(h, w, b)
        _leaky(h, out=h)
    return _affine(h, *mu_head), _affine(h, *logvar_head)


def decode_frames(model: VaeModel, z: np.ndarray) -> np.ndarray:
    """Batched decoder: (B, M) -> frames of shape (B, window_size)."""
    h = np.asarray(z, dtype=model.dtype)
    if h.ndim != 2 or h.shape[1] != model.hyper.latent_dim:
        raise ShapeMismatchError(
            f"expected (B, {model.hyper.latent_dim}) latents, got {h.shape}"
        )
    *hidden, out = model.layers()[3]
    for w, b in hidden:
        h = _affine(h, w, b)
        _leaky(h, out=h)
    h = _affine(h, *out)
    return np.tanh(h, out=h)


def kl_divergence(stats: LatentStats) -> float:
    """Closed-form KL(N(mu, sigma^2 I) || N(0, I)), summed over dims."""
    mu = stats.mu.astype(np.float64)
    logvar = stats.logvar.astype(np.float64)
    # expm1(v) >= v holds after rounding too, so no term dips below zero
    return float(0.5 * np.sum(mu * mu + (np.expm1(logvar) - logvar)))


def _forward_batch(model: VaeModel, frames: np.ndarray, eps: np.ndarray):
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


def _batch_losses(frames, cache, alpha):
    batch, width = frames.shape
    diff = cache["x_hat"] - frames
    recon = float(np.sum(diff * diff) / (batch * width))
    mu, logvar = cache["mu"], cache["logvar"]
    kl = float(0.5 * np.sum(mu * mu + np.exp(logvar) - logvar - 1.0) / batch)
    return recon + alpha * kl, recon, kl


def _backward_batch(model: VaeModel, frames: np.ndarray, eps: np.ndarray, alpha: float):
    """Analytic gradients of the batch-mean loss; returns (grads, losses).

    The loss is mean-over-batch of (per-window MSE + alpha * KL sum), so
    every upstream gradient carries the 1/batch factor once. Gradients
    are appended back to front, bias before weight, and the list is
    reversed once into the canonical parameter order.
    """
    encoder, mu_head, logvar_head, decoder = model.layers()
    cache = _forward_batch(model, frames, eps)
    batch, width = frames.shape
    total, recon, kl = _batch_losses(frames, cache, alpha)

    grads = []

    # decoder output stage, through tanh
    d_xhat = 2.0 * (cache["x_hat"] - frames) / (batch * width)
    d_pre = d_xhat * (1.0 - cache["x_hat"] ** 2)
    grads += [d_pre.sum(axis=0), cache["dec_in"].T @ d_pre]
    upstream = d_pre @ decoder[-1][0].T
    for (layer_in, pre), (w, _) in zip(reversed(cache["dec_pre"]), reversed(decoder[:-1])):
        d_pre = upstream * _leaky_grad(pre)
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
        d_pre = upstream * _leaky_grad(pre)
        grads += [d_pre.sum(axis=0), layer_in.T @ d_pre]
        upstream = d_pre @ w.T

    grads.reverse()
    return grads, (total, recon, kl)


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter.

    The state also owns adam_step's two block-sized scratch arrays, made
    on first use, so a training run allocates them once.
    """

    m: list
    v: list
    step: int = 0
    _scratch: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def zeros_like(cls, params: list) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )

    def scratch(self, dtype) -> tuple:
        """Two work arrays of _ADAM_BLOCK elements of dtype."""
        dtype = np.dtype(dtype)
        if dtype not in self._scratch:
            self._scratch[dtype] = (
                np.empty(_ADAM_BLOCK, dtype=dtype),
                np.empty(_ADAM_BLOCK, dtype=dtype),
            )
        return self._scratch[dtype]


def _flat_view(a: np.ndarray) -> np.ndarray:
    if not a.flags.c_contiguous:
        raise ValueError("adam_step updates arrays in place and needs them C-contiguous")
    return a.reshape(-1)


def adam_step(params: list, grads: list, state: AdamState, learning_rate: float):
    """One bias-corrected Adam update, in place; increments state.step once.

    Each tensor is walked in blocks of _ADAM_BLOCK elements through the
    state's two scratch arrays, so no parameter-sized temporary is made.
    Every element still gets the textbook operations in the textbook
    order, with no scalars folded together, so the result equals the
    unblocked update bit for bit. Params and moments must be C-contiguous;
    grads are read in the parameter dtype.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatchError("params/grads/state length mismatch")
    state.step += 1
    correction1 = 1.0 - _ADAM_BETA1 ** state.step
    correction2 = 1.0 - _ADAM_BETA2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = np.asarray(g, dtype=p.dtype)
        if g.shape != p.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        work_a, work_b = state.scratch(p.dtype)
        p, g, m, v = _flat_view(p), g.reshape(-1), _flat_view(m), _flat_view(v)
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
    return params, state


@dataclass
class Checkpoint:
    """Everything needed to resume or reuse a training run.

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
    one (N, window_size) frame array as window() returns, or an iterable of them.

    Frames, parameters, Adam moments, activations and gradients are all
    float32, the checkpoint dtype, so the trained tensors are stored as
    they are. One seeded generator drives initialization, the per-epoch
    shuffle, and one fresh eps row per window per visit (drawn in float64,
    then rounded), so identical inputs give byte-identical checkpoints.
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
    frames = np.concatenate(arrays, axis=0, dtype=np.float32)

    rng = np.random.default_rng(hyper.seed)
    model = init_model(hyper, rng=rng, dtype=np.float32)
    params = model.params
    state = AdamState.zeros_like(params)
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
            grads, (total, recon, kl) = _backward_batch(
                model, batch, eps, hyper.alpha
            )
            if not math.isfinite(total):
                raise NonFiniteLossError(
                    f"loss became non-finite at epoch {epoch + 1}"
                )
            adam_step(params, grads, state, hyper.learning_rate)
            recon_sum += recon * len(batch)
            kl_sum += kl * len(batch)
        history[epoch] = (recon_sum / n, kl_sum / n)

    return Checkpoint(
        hyper=hyper,
        params=params,
        adam_m=state.m,
        adam_v=state.v,
        adam_step_count=state.step,
        loss_history=history.astype(np.float32),
    )


def model_from_checkpoint(ckpt: Checkpoint) -> VaeModel:
    """Rebuild a float32 inference model from stored tensors.

    float32 tensors are used as they are, not copied: the model's weights
    are ckpt.params, which after load_checkpoint are views of the one
    buffer the file was read into. Writing to either writes to both, and
    the model keeps that whole buffer alive, the Adam moments included.
    """
    return VaeModel([np.asarray(p, dtype=np.float32) for p in ckpt.params], ckpt.hyper)


def _hyper_to_header(hyper: VaeHyperParams) -> dict:
    return {
        "window_size": hyper.window_size,
        "latent_dim": hyper.latent_dim,
        "hidden_sizes": ",".join(str(h) for h in hyper.hidden_sizes),
        "alpha": repr(hyper.alpha),
        "learning_rate": repr(hyper.learning_rate),
        "epochs": hyper.epochs,
        "batch_size": hyper.batch_size,
        "sample_rate": hyper.sample_rate,
        "seed": hyper.seed,
    }


def _hyper_from_header(header: dict) -> VaeHyperParams:
    sizes = header["hidden_sizes"]
    return VaeHyperParams(
        window_size=int(header["window_size"]),
        latent_dim=int(header["latent_dim"]),
        hidden_sizes=tuple(int(h) for h in sizes.split(",")) if sizes else (),
        alpha=float(header["alpha"]),
        learning_rate=float(header["learning_rate"]),
        epochs=int(header["epochs"]),
        batch_size=int(header["batch_size"]),
        sample_rate=int(header["sample_rate"]),
        seed=int(header["seed"]),
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Persist weights, Adam state, and loss history; bit-exact on reload."""
    header = _hyper_to_header(ckpt.hyper)
    header["adam_step"] = ckpt.adam_step_count
    tensors = [*ckpt.params, *ckpt.adam_m, *ckpt.adam_v, ckpt.loss_history]
    write_container(path, CHECKPOINT_MAGIC, header, tensors)


def load_checkpoint(path) -> Checkpoint:
    header, tensors = read_container(path, CHECKPOINT_MAGIC)
    hyper = _hyper_from_header(header)
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
    loss_history = tensors[-1]
    if loss_history.ndim != 2 or loss_history.shape[1] != 2:
        raise CorruptFileError(f"{path}: loss history has shape {loss_history.shape}")
    return Checkpoint(
        hyper=hyper,
        params=tensors[:n_params],
        adam_m=tensors[n_params : 2 * n_params],
        adam_v=tensors[2 * n_params : 3 * n_params],
        adam_step_count=int(header["adam_step"]),
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
    grad_scale: float = 1.0,
) -> GradientCheckReport:
    """Compare analytic gradients against central finite differences.

    Probes at least n_samples randomly chosen parameter entries (every
    tensor gets at least one) on a model built from hyper. grad_scale
    multiplies the analytic side and exists so tests can prove the
    harness catches wrong gradients. Relative error uses
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
        a = analytic[t].reshape(-1)[flat_idx] * grad_scale
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        max_rel = max(max_rel, rel)
    return GradientCheckReport(max_rel_error=max_rel, n_checked=len(coords), tolerance=tolerance)
