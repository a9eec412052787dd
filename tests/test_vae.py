import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import make_sine
from latentaudio import (
    AdamState,
    EmptyDatasetError,
    LatentStats,
    NonFiniteLossError,
    ShapeMismatchError,
    VaeHyperParams,
    adam_step,
    decode_frames,
    encode_frames,
    gradient_check,
    init_model,
    kl_divergence,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
    window,
)
from latentaudio import vae as vae_module
from latentaudio.vae import _backward_batch, _batch_losses, _forward_batch, _param_shapes

ADAM_FIRST_STEP = 1e-4 * (1.0 / (1.0 + 1e-8))  # hand-computed: m_hat = v_hat = 1


def _zeroed(model):
    for p in model.params:
        p[...] = 0.0
    return model


def _monte_carlo_kl(stats: LatentStats, n_draws: int, seed: int) -> float:
    """Estimate E_q[log q(z) - log p(z)] by sampling the posterior."""
    rng = np.random.default_rng(seed)
    mu = stats.mu.astype(np.float64)
    logvar = stats.logvar.astype(np.float64)
    z = mu + np.exp(logvar / 2) * rng.standard_normal((n_draws, len(mu)))
    log_q = -0.5 * np.sum((z - mu) ** 2 / np.exp(logvar) + logvar + math.log(2 * math.pi), axis=1)
    log_p = -0.5 * np.sum(z**2 + math.log(2 * math.pi), axis=1)
    return float(np.mean(log_q - log_p))


def _posterior_model(mu, logvar):
    """A model whose posterior is (mu, logvar) for every input window.

    All weights are zero, so the encoder's hidden activations are zero and
    each head outputs its bias.
    """
    hyper = VaeHyperParams(window_size=4, latent_dim=len(mu), hidden_sizes=(2,))
    model = _zeroed(init_model(hyper))
    _, mu_head, logvar_head, _ = model.layers()
    mu_head[1][...] = mu
    logvar_head[1][...] = logvar
    return model


def _sample_z(mu, logvar, eps):
    """z from the batched forward pass on one window, for a given posterior."""
    model = _posterior_model(mu, logvar)
    cache = _forward_batch(model, np.zeros((1, 4)), np.asarray(eps, dtype=np.float64)[None, :])
    return cache["z"][0], cache["mu"][0]


class TestPackageExports:
    def test_every_exported_name_resolves_and_single_window_api_is_gone(self):
        import latentaudio

        for name in latentaudio.__all__:
            assert getattr(latentaudio, name) is not None
        deleted = {"encoder_forward", "decoder_forward", "reparameterize", "elbo_loss", "backward"}
        assert not deleted & set(latentaudio.__all__)
        assert not any(hasattr(latentaudio, name) for name in deleted)
        assert {"encode_frames", "decode_frames"} <= set(latentaudio.__all__)
        # window() returns the frame array itself
        assert "WindowSet" not in latentaudio.__all__
        assert not hasattr(latentaudio, "WindowSet") and not hasattr(latentaudio.audio, "WindowSet")


class TestForwardPasses:
    def test_encoder_zero_weights_gives_zero_stats(self, small_hyper):
        model = _zeroed(init_model(small_hyper))
        mu, logvar = encode_frames(model, np.random.default_rng(0).uniform(-1, 1, (1, 64)))
        assert np.array_equal(mu, np.zeros((1, 8)))
        assert np.array_equal(logvar, np.zeros((1, 8)))

    def test_encoder_shape_mismatch(self, small_model):
        with pytest.raises(ShapeMismatchError):
            encode_frames(small_model, np.zeros((1, 63)))
        with pytest.raises(ShapeMismatchError):
            encode_frames(small_model, np.zeros(64))

    def test_encoder_deterministic(self, small_hyper):
        x = np.random.default_rng(1).uniform(-1, 1, (1, 64))
        mu1, logvar1 = encode_frames(init_model(small_hyper), x)
        mu2, logvar2 = encode_frames(init_model(small_hyper), x)
        assert np.array_equal(mu1, mu2)
        assert np.array_equal(logvar1, logvar2)

    def test_decoder_zero_weights_gives_silence(self, small_hyper):
        model = _zeroed(init_model(small_hyper))
        assert np.array_equal(decode_frames(model, np.ones((1, 8))), np.zeros((1, 64)))

    def test_decoder_shape_mismatch(self, small_model):
        with pytest.raises(ShapeMismatchError):
            decode_frames(small_model, np.zeros((1, 9)))
        with pytest.raises(ShapeMismatchError):
            decode_frames(small_model, np.zeros(8))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, 8, elements=st.floats(-10, 10, allow_nan=False)))
    def test_decoder_output_in_open_interval(self, z):
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), sample_rate=8000, seed=5
        )
        out = decode_frames(init_model(hyper), z[None, :])
        assert np.all(np.abs(out) < 1.0)


class TestReparameterize:
    """z = mu + exp(logvar / 2) * eps in the batched forward pass."""

    def test_zero_eps_returns_mu_exactly(self):
        mu = np.array([0.3, -1.7])
        z, cache_mu = _sample_z(mu, np.array([0.5, -0.2]), np.zeros(2))
        assert np.array_equal(z, cache_mu)
        assert np.array_equal(z, mu)

    def test_unit_sigma(self):
        z, _ = _sample_z(np.array([1.0, 2.0]), np.zeros(2), np.ones(2))
        assert np.allclose(z, [2.0, 3.0])

    def test_sigma_two(self):
        z, _ = _sample_z(np.zeros(3), np.full(3, math.log(4.0)), np.full(3, 0.5))
        assert np.allclose(z, 1.0)

    def test_eps_length_checked(self, tiny_hyper):
        # gradient_check takes eps from its caller; a length-1 eps would
        # otherwise broadcast across every latent dimension unnoticed
        for length in (1, 3):
            with pytest.raises(ShapeMismatchError):
                gradient_check(tiny_hyper, n_samples=20, eps=np.zeros(length))

    @settings(max_examples=40, deadline=None)
    @given(
        mu=arrays(np.float64, 4, elements=st.floats(-5, 5, allow_nan=False)),
        logvar=arrays(np.float64, 4, elements=st.floats(-3, 3, allow_nan=False)),
    )
    def test_identity_property(self, mu, logvar):
        z, cache_mu = _sample_z(mu, logvar, np.zeros(4))
        assert np.array_equal(z, cache_mu)
        assert np.array_equal(z, mu)


class TestKlDivergence:
    def test_prior_matches_posterior(self):
        assert kl_divergence(LatentStats(np.zeros(4), np.zeros(4))) == 0.0

    def test_unit_mean_single_dim(self):
        assert kl_divergence(LatentStats(np.array([1.0]), np.array([0.0]))) == pytest.approx(0.5)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            stats = LatentStats(rng.uniform(-2, 2, 4), rng.uniform(-1, 1, 4))
            closed = kl_divergence(stats)
            estimate = _monte_carlo_kl(stats, 1_000_000, seed=trial)
            assert abs(closed - estimate) / closed < 0.01

    def test_tiny_logvar_is_not_negative(self):
        # exp(v) - v - 1 cancels to -1.1e-16 at v = 1e-8
        assert kl_divergence(LatentStats(np.zeros(3), np.full(3, 1e-8))) >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        mu=arrays(np.float64, 3, elements=st.floats(-4, 4, allow_nan=False)),
        logvar=arrays(np.float64, 3, elements=st.floats(-4, 4, allow_nan=False)),
    )
    def test_nonnegative_and_zero_iff_prior(self, mu, logvar):
        kl = kl_divergence(LatentStats(mu, logvar))
        assert kl >= 0.0
        # strict positivity needs a representable deviation: the quadratic
        # term (mu^2 or logvar^2/2) underflows to 0.0 for tiny inputs
        if max(np.max(np.abs(mu)), np.max(np.abs(logvar))) >= 1e-6:
            assert kl > 0.0
        elif np.all(mu == 0) and np.all(logvar == 0):
            assert kl == 0.0


def _loss_cache(x_hat, mu, logvar):
    """The forward-pass entries that _batch_losses reads, for one window."""
    return {"x_hat": np.asarray(x_hat)[None, :], "mu": mu[None, :], "logvar": logvar[None, :]}


class TestElboLoss:
    """Per-window MSE plus alpha * KL sum, from _batch_losses on one window."""

    def test_perfect_reconstruction_at_prior(self):
        x = np.linspace(-0.5, 0.5, 16)
        cache = _loss_cache(x, np.zeros(2), np.zeros(2))
        total, recon, kl = _batch_losses(x[None, :], cache, 1e-4)
        assert total == 0.0 and recon == 0.0 and kl == 0.0

    def test_constant_residual(self):
        x = np.zeros(1024)
        cache = _loss_cache(x + 0.1, np.zeros(2), np.zeros(2))
        total, recon, kl = _batch_losses(x[None, :], cache, 0.0)
        assert total == pytest.approx(0.01)
        assert recon == pytest.approx(0.01)

    def test_alpha_weighting(self):
        # mu chosen so the KL sum is exactly 100
        x = np.zeros(8)
        cache = _loss_cache(x, np.array([math.sqrt(200.0)]), np.array([0.0]))
        total, recon, kl = _batch_losses(x[None, :], cache, 1e-4)
        assert kl == pytest.approx(100.0)
        assert total == pytest.approx(0.01)


class TestBackward:
    def test_gradients_finite(self, tiny_hyper):
        model = init_model(tiny_hyper)
        rng = np.random.default_rng(0)
        grads, _ = _backward_batch(
            model, rng.uniform(-1, 1, (1, 8)), rng.standard_normal((1, 2)), tiny_hyper.alpha
        )
        assert all(np.isfinite(g).all() for g in grads)

    def test_zero_input_zeroes_first_weight_gradient(self, tiny_hyper):
        # the first encoder weight gradient is (input activations)^T @ delta
        model = init_model(tiny_hyper)
        grads, _ = _backward_batch(model, np.zeros((1, 8)), np.zeros((1, 2)), tiny_hyper.alpha)
        assert np.array_equal(grads[0], np.zeros_like(grads[0]))

    def test_matches_finite_differences(self, tiny_hyper):
        report = gradient_check(tiny_hyper, tolerance=1e-3, n_samples=120, seed=3)
        assert report.n_checked >= 100
        assert report.max_rel_error < 1e-3
        assert report.passed

    def test_corrupted_gradients_are_caught(self, tiny_hyper):
        report = gradient_check(tiny_hyper, tolerance=1e-3, n_samples=120, seed=3, grad_scale=1.1)
        assert not report.passed

    def test_zero_eps_still_passes(self, tiny_hyper):
        report = gradient_check(
            tiny_hyper, tolerance=1e-3, n_samples=120, seed=3, eps=np.zeros(2)
        )
        assert report.passed


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = [np.array([1.5, -2.0])]
        state = AdamState.zeros_like(params)
        adam_step(params, [np.zeros(2)], state, 1e-2)
        assert np.array_equal(params[0], [1.5, -2.0])
        assert state.step == 1

    def test_moments_decay_under_zero_gradient(self):
        params = [np.array([1.0])]
        state = AdamState.zeros_like(params)
        adam_step(params, [np.array([1.0])], state, 1e-4)
        m1, v1 = state.m[0].copy(), state.v[0].copy()
        adam_step(params, [np.array([0.0])], state, 1e-4)
        assert np.allclose(state.m[0], 0.9 * m1)
        assert np.allclose(state.v[0], 0.999 * v1)

    def test_first_step_hand_oracle(self):
        params = [np.array([1.0])]
        state = AdamState.zeros_like(params)
        adam_step(params, [np.array([1.0])], state, 1e-4)
        assert params[0][0] == pytest.approx(1.0 - ADAM_FIRST_STEP, abs=1e-12)

    def test_second_identical_step_hand_oracle(self):
        # with g = 1 twice, both bias-corrected moments stay exactly 1
        params = [np.array([1.0])]
        state = AdamState.zeros_like(params)
        adam_step(params, [np.array([1.0])], state, 1e-4)
        after_first = params[0][0]
        adam_step(params, [np.array([1.0])], state, 1e-4)
        assert params[0][0] - after_first == pytest.approx(-ADAM_FIRST_STEP, abs=1e-12)
        assert state.step == 2

    def test_length_mismatch(self):
        params = [np.zeros(2)]
        state = AdamState.zeros_like(params)
        with pytest.raises(ShapeMismatchError):
            adam_step(params, [], state, 1e-4)


def _sine_windows(n_windows=40, size=64, hop=32, rate=8000):
    length = size + (n_windows - 1) * hop
    buf = make_sine(freq=440, seconds=length / rate, rate=rate)
    return window(buf, size, hop)


class TestTrain:
    def test_empty_dataset(self, small_hyper):
        with pytest.raises(EmptyDatasetError):
            train([], small_hyper)

    def test_window_size_checked(self, small_hyper):
        ws = _sine_windows(size=32, hop=16)
        with pytest.raises(ShapeMismatchError):
            train(ws, small_hyper)

    def test_mixed_window_widths_name_the_bad_width(self, small_hyper):
        good = _sine_windows(size=small_hyper.window_size, hop=32)
        bad = _sine_windows(size=48, hop=24)
        with pytest.raises(ShapeMismatchError, match="48 wide"):
            train([good, bad], small_hyper)

    def test_deterministic_loss_history(self, small_hyper):
        ws = _sine_windows()
        h1 = train(ws, small_hyper).loss_history
        h2 = train(ws, small_hyper).loss_history
        assert np.array_equal(h1, h2)

    def test_loss_history_shape_and_finiteness(self, small_hyper):
        ckpt = train(_sine_windows(), small_hyper)
        assert ckpt.loss_history.shape == (small_hyper.epochs, 2)
        assert np.isfinite(ckpt.loss_history).all()
        assert ckpt.adam_step_count > 0

    def test_reconstruction_improves(self):
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=60,
            batch_size=16, learning_rate=1e-3, sample_rate=8000, seed=2,
        )
        history = train(_sine_windows(), hyper).loss_history
        assert history[-1, 0] < 0.5 * history[0, 0]

    def test_alpha_zero_still_learns(self):
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=30,
            batch_size=16, learning_rate=1e-3, alpha=0.0, sample_rate=8000, seed=2,
        )
        history = train(_sine_windows(), hyper).loss_history
        assert history[-1, 0] < history[0, 0]
        assert np.all(history[:, 1] >= 0)  # kl still reported

    def test_nonfinite_loss_raises(self):
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=5,
            batch_size=16, learning_rate=1e8, sample_rate=8000, seed=2,
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLossError):
                train(_sine_windows(), hyper)


class TestFloat32Training:
    """Training is float32 throughout; only the gradient checker is float64."""

    def test_numpy_scalar_hyperparameters_do_not_promote(self, small_hyper):
        # a numpy float64 alpha would turn float32 gradients float64 (NEP 50)
        hyper = VaeHyperParams(
            window_size=64, latent_dim=8, hidden_sizes=(16,), epochs=2, batch_size=8,
            alpha=np.float64(1e-4), learning_rate=np.float64(1e-4), sample_rate=8000, seed=5,
        )
        assert type(hyper.alpha) is float and type(hyper.learning_rate) is float
        assert hyper == small_hyper
        model = init_model(hyper, dtype=np.float32)
        x = np.zeros((1, 64), dtype=np.float32)
        grads, _ = _backward_batch(model, x, np.ones((1, 8), dtype=np.float32), hyper.alpha)
        assert all(g.dtype == np.float32 for g in grads)

    def test_trained_tensors_are_float32(self, small_hyper, monkeypatch):
        seen = set()

        def spy(model, frames, eps, alpha):
            grads, losses = _backward_batch(model, frames, eps, alpha)
            seen.update(a.dtype for a in (frames, eps, *grads))
            return grads, losses

        monkeypatch.setattr(vae_module, "_backward_batch", spy)
        ckpt = train(_sine_windows(), small_hyper)
        assert seen == {np.dtype(np.float32)}
        for tensors in (ckpt.params, ckpt.adam_m, ckpt.adam_v):
            assert len(tensors) == len(_param_shapes(small_hyper))
            assert all(t.dtype == np.float32 and t.flags.c_contiguous for t in tensors)
        assert ckpt.loss_history.dtype == np.float32

    def test_gradient_check_builds_a_float64_model(self, tiny_hyper, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            model = init_model(*args, **kwargs)
            built.append(model.dtype)
            return model

        monkeypatch.setattr(vae_module, "init_model", spy)
        report = gradient_check(tiny_hyper, tolerance=1e-3, n_samples=120, seed=3)
        assert built == [np.float64]
        assert report.passed


class TestCheckpointPersistence:
    def _trained(self, hyper):
        return train(_sine_windows(size=hyper.window_size, hop=hyper.window_size // 2), hyper)

    def test_round_trip_bit_exact(self, small_hyper, tmp_path):
        ckpt = self._trained(small_hyper)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert back.hyper == ckpt.hyper
        assert back.adam_step_count == ckpt.adam_step_count
        for mine, theirs in zip(
            ckpt.params + ckpt.adam_m + ckpt.adam_v,
            back.params + back.adam_m + back.adam_v,
        ):
            assert theirs.dtype == np.float32
            assert np.array_equal(mine, theirs)
        assert np.array_equal(back.loss_history, ckpt.loss_history)

    def test_numpy_scalar_hyperparameters_round_trip(self, tmp_path):
        # the header stores repr(alpha); numpy 2 spells a float64 "np.float64(...)"
        hyper = VaeHyperParams(
            window_size=8, latent_dim=2, hidden_sizes=(4,), epochs=1, batch_size=4,
            alpha=np.float64(1e-4), learning_rate=np.float32(1e-3), sample_rate=8000,
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._trained(hyper), path)
        assert load_checkpoint(path).hyper == hyper

    def test_save_load_save_is_byte_identical(self, small_hyper, tmp_path):
        ckpt = self._trained(small_hyper)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, small_hyper, tmp_path):
        from latentaudio import CorruptFileError

        path = tmp_path / "m.ckpt"
        save_checkpoint(self._trained(small_hyper), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptFileError):
            load_checkpoint(path)

    def test_header_disagreeing_with_tensors_detected(self, small_hyper, tmp_path):
        from latentaudio import CorruptFileError

        ckpt = self._trained(replace(small_hyper, latent_dim=16))
        # a valid, checksummed file whose header claims latent_dim=8
        ckpt.hyper = small_hyper
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        # the mu head weight is the first tensor whose shape needs latent_dim
        with pytest.raises(CorruptFileError, match=r"params\[2\] has shape \(16, 16\)"):
            load_checkpoint(path)

    def test_moment_disagreeing_with_header_detected(self, small_hyper, tmp_path):
        from latentaudio import CorruptFileError

        ckpt = self._trained(small_hyper)
        ckpt.adam_v[-1] = np.zeros(small_hyper.window_size + 1, dtype=np.float32)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        last = len(_param_shapes(small_hyper)) - 1
        with pytest.raises(CorruptFileError, match=rf"adam_v\[{last}\]"):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, small_hyper, tmp_path):
        from latentaudio import FormatVersionMismatchError

        path = tmp_path / "m.ckpt"
        save_checkpoint(self._trained(small_hyper), path)
        raw = bytearray(path.read_bytes())
        raw[6] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatVersionMismatchError):
            load_checkpoint(path)

    def test_model_from_checkpoint_is_float32_and_consistent(self, small_hyper, tmp_path):
        ckpt = self._trained(small_hyper)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        model = model_from_checkpoint(load_checkpoint(path))
        assert model.dtype == np.float32
        x = np.random.default_rng(4).uniform(-1, 1, (1, small_hyper.window_size))
        mu1, _ = encode_frames(model, x)
        mu2, _ = encode_frames(model_from_checkpoint(load_checkpoint(path)), x)
        assert np.array_equal(mu1, mu2)


@pytest.mark.parametrize(
    "hidden_sizes", [(), (16,), (32, 16, 8)], ids=["0-hidden", "1-hidden", "3-hidden"]
)
class TestHiddenLayerCounts:
    """Zero, one and three hidden layers: the edges of the layers() split."""

    def _hyper(self, hidden_sizes):
        return VaeHyperParams(window_size=32, latent_dim=4, hidden_sizes=hidden_sizes,
                              epochs=2, batch_size=8, sample_rate=8000, seed=3)

    def test_train_save_load_encode_decode(self, hidden_sizes, tmp_path):
        hyper = self._hyper(hidden_sizes)
        ckpt = train(_sine_windows(size=32, hop=16), hyper)
        assert [p.shape for p in ckpt.params] == _param_shapes(hyper)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        model = model_from_checkpoint(load_checkpoint(path))
        assert len(model.params) == len(_param_shapes(hyper))
        encoder, mu_head, logvar_head, decoder = model.layers()
        assert len(encoder) == len(hidden_sizes) and len(decoder) == len(hidden_sizes) + 1
        assert mu_head[0].shape == logvar_head[0].shape == ((hidden_sizes or (32,))[-1], 4)
        # layers() hands out the params tensors themselves, in canonical order
        flat = [t for group in (encoder, [mu_head, logvar_head], decoder)
                for layer in group for t in layer]
        assert len(flat) == len(model.params)
        assert all(t is p for t, p in zip(flat, model.params))
        frames = _sine_windows(n_windows=5, size=32, hop=16)
        mu, logvar = encode_frames(model, frames)
        assert mu.shape == logvar.shape == (5, 4)
        out = decode_frames(model, mu)
        assert out.shape == (5, 32) and out.dtype == np.float32 and np.all(np.abs(out) < 1)

    def test_gradients_pass_the_check(self, hidden_sizes):
        hyper = self._hyper(hidden_sizes)
        report = gradient_check(hyper, tolerance=1e-3, n_samples=120, seed=1)
        assert report.passed, report.max_rel_error
        model = init_model(hyper)
        grads, _ = _backward_batch(model, np.zeros((2, 32)), np.ones((2, 4)), hyper.alpha)
        assert [g.shape for g in grads] == [p.shape for p in model.params] == _param_shapes(hyper)
