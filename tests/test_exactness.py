"""Kernels against verbatim copies of the straightforward code they replaced.

adam_step and train_som avoid per-call temporaries, the feature
constants are built once per recipe, and the latent blend works on
(N, M) arrays instead of tuples of per-window stats. None of that may
change a single bit: each reference below is the plain numpy code the
kernel replaced, and results must be np.array_equal, not merely close.
"""

import numpy as np
import pytest

from helpers import make_noise
from latentaudio import (
    AdamState,
    FeatureConfig,
    InterpolationCurve,
    LatentPath,
    LatentStats,
    ShapeMismatchError,
    Thumbnail,
    adam_step,
    extract_thumbnail,
    train_som,
)
from latentaudio.features import _spectral_tables, dct_ii_matrix
from latentaudio.interpolate import _SIGMA_FLOOR, _blend
from latentaudio.som import _LR_FLOOR_FACTOR, _RADIUS_FLOOR, _quantization_error
from latentaudio.vae import _ADAM_BETA1, _ADAM_BETA2, _ADAM_BLOCK, _ADAM_EPS


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


class ReferencePath:
    """The tuple-of-LatentStats path, reduced to what blending reads."""

    def __init__(self, stats):
        self.stats = tuple(stats)

    def means(self):
        return np.array([s.mu for s in self.stats])

    def sigmas(self):
        return np.array([np.exp(s.logvar / 2) for s in self.stats])


def reference_tile_path(path, reps):
    return ReferencePath(path.stats * reps)


def reference_blend(path_a, path_b, weights):
    w = weights[:, None]
    means = w * path_a.means() + (1.0 - w) * path_b.means()
    stds = w * path_a.sigmas() + (1.0 - w) * path_b.sigmas()
    return means, np.maximum(stds, _SIGMA_FLOOR)


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
        state = AdamState.zeros_like(params)
        for step in range(1, 5):
            grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
            adam_step(params, grads, state, 1e-3)
            reference_adam_step(ref_params, grads, ref_m, ref_v, step, 1e-3)
        for got, want in zip(params + state.m + state.v, ref_params + ref_m + ref_v):
            assert got.dtype == dtype
            assert np.array_equal(got, want)

    def test_scratch_is_block_sized_and_reused(self):
        params = [np.zeros(3 * _ADAM_BLOCK)]
        state = AdamState.zeros_like(params)
        adam_step(params, [np.ones(3 * _ADAM_BLOCK)], state, 1e-3)
        first = state.scratch(np.float64)
        adam_step(params, [np.ones(3 * _ADAM_BLOCK)], state, 1e-3)
        assert state.scratch(np.float64) is first
        assert all(buf.shape == (_ADAM_BLOCK,) for buf in first)

    def test_non_contiguous_params_rejected(self):
        params = [np.zeros((4, 6))[:, ::2]]
        state = AdamState(m=[np.zeros((4, 3))], v=[np.zeros((4, 3))])
        with pytest.raises(ValueError):
            adam_step(params, [np.ones((4, 3))], state, 1e-3)


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

    def _paths(self, m):
        rng = np.random.default_rng(m)
        mu_a, lv_a, mu_b, lv_b = rng.standard_normal((4, self.N_WINDOWS, m)).astype(np.float32)
        ref_a = ReferencePath(LatentStats(mu, lv) for mu, lv in zip(mu_a, lv_a))
        ref_b = ReferencePath(LatentStats(mu, lv) for mu, lv in zip(mu_b, lv_b))
        return LatentPath(mu_a, lv_a), LatentPath(mu_b, lv_b), ref_a, ref_b

    @pytest.mark.parametrize("m", [8, 256])
    @pytest.mark.parametrize("segments", [1, 2, 21])
    def test_stepwise_segments(self, m, segments):
        path_a, path_b, ref_a, ref_b = self._paths(m)
        sweep = np.arange(segments) * 0.05
        means, stds = _blend(path_a, path_b, sweep[:, None])
        want_means, want_stds = reference_blend(
            reference_tile_path(ref_a, segments), reference_tile_path(ref_b, segments),
            np.repeat(sweep, self.N_WINDOWS),
        )
        assert np.array_equal(means, want_means)
        assert np.array_equal(stds, want_stds)

    @pytest.mark.parametrize("m", [8, 256])
    def test_per_window_curve(self, m):
        path_a, path_b, ref_a, ref_b = self._paths(m)
        curve = InterpolationCurve(np.sin(np.arange(self.N_WINDOWS) / 2.0))
        means, stds = _blend(path_a, path_b, curve.values)
        want_means, want_stds = reference_blend(ref_a, ref_b, curve.values)
        assert np.array_equal(means, want_means)
        assert np.array_equal(stds, want_stds)

    def test_unequal_shapes_rejected(self):
        with pytest.raises(ShapeMismatchError):
            LatentPath(np.zeros((3, 8)), np.zeros((3, 9)))
        with pytest.raises(ShapeMismatchError):
            LatentPath(np.zeros(8), np.zeros(8))
