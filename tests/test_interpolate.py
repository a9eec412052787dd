import os
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import float32_model, make_noise, make_sine
from latentaudio import (
    AudioBuffer,
    BadStepError,
    CurveLengthMismatchError,
    EmptySpecError,
    LatentPath,
    LoudInputError,
    ShapeMismatchError,
    SynthesisMode,
    VaeHyperParams,
    decode_path,
    encode_audio,
    encode_blocks,
    encode_frames,
    export_latents,
    extended_interpolate,
    generate_curve,
    init_model,
    meso_interpolate,
    stepwise_interpolate,
    window,
    window_count,
)
from latentaudio import interpolate as interpolate_module

MEAN = SynthesisMode.mean_only()

WIDE_HYPER = VaeHyperParams(
    window_size=1024, latent_dim=4, hidden_sizes=(8,), sample_rate=8000, seed=9
)


@pytest.fixture(scope="module")
def model():
    return init_model(
        VaeHyperParams(window_size=64, latent_dim=8, hidden_sizes=(16,), sample_rate=8000, seed=5)
    )


@pytest.fixture(scope="module")
def pair():
    return (
        make_sine(freq=200, seconds=0.2, rate=8000),
        make_noise(seconds=0.2, rate=8000, seed=4),
    )


def _reconstruction(model, buffer, hop=None):
    path = encode_audio(model, buffer, hop or model.hyper.window_size)
    return decode_path(model, path.means(), np.exp(path.logvar / 2), MEAN)


class TestEncodeAudio:
    def test_window_counts(self):
        model = init_model(WIDE_HYPER)
        buf = make_noise(seconds=4096 / 8000, rate=8000)
        assert len(encode_audio(model, buf, 1024)) == 4
        assert len(encode_audio(model, buf, 256)) == 13

    def test_deterministic(self, model, pair):
        p1 = encode_audio(model, pair[0], 64)
        p2 = encode_audio(model, pair[0], 64)
        for i in range(len(p1)):
            assert np.array_equal(p1.mu[i], p2.mu[i])
            assert np.array_equal(p1.logvar[i], p2.logvar[i])

    def test_order_matches_per_window_encoding(self, model, pair):
        path = encode_audio(model, pair[0], 32)
        probe_mu, _ = encode_frames(model, window(pair[0], 64, 32)[3:4])
        assert np.allclose(path.mu[3], probe_mu[0])


    def test_recipe_1_batch_is_the_only_copy_of_the_windows(self):
        # recipe 1 encodes every window in one unpadded batch at the first block and
        # yields its slices: one float32 copy of the windows, beside which only the
        # encoder's activations are allocated
        hidden, latent = 32, 8
        model = float32_model(VaeHyperParams(window_size=256, latent_dim=latent,
                                             hidden_sizes=(hidden,), sample_rate=8000))
        buf = make_noise(seconds=3000 * 64 / 8000, rate=8000, seed=6)
        n = window_count(len(buf), 256, 64)
        frame_bytes = n * 256 * 4
        # a hidden layer's output and the leaky ReLU's temporary, then mu and logvar
        activation_bytes = n * (2 * hidden + 2 * latent) * 4
        tracemalloc.start()
        try:
            rows = sum(len(block) for block in encode_blocks(model, buf, 64, recipe=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == n > 2000
        assert peak <= frame_bytes + activation_bytes + 64 * 1024, (peak, frame_bytes)

    @pytest.mark.parametrize("recipe", [1, 2])
    def test_every_encode_is_cut_on_the_decoders_spans(self, model, monkeypatch, recipe):
        # 20 windows at _BLOCK 16: _spans gives [10, 10], fixed 16-row runs [16, 4];
        # recipe 1 is one batch of all 20 rows per input
        monkeypatch.setattr(interpolate_module, "_BLOCK", 16)
        encode_block, rows = interpolate_module._encode_block, []

        def spy(model, frames, align, with_logvar=True):
            rows.append(len(frames))
            return encode_block(model, frames, align, with_logvar)

        monkeypatch.setattr(interpolate_module, "_encode_block", spy)
        a, b = (make_noise(seconds=20 * 64 / 8000, rate=8000, seed=seed) for seed in (1, 2))
        assert window_count(len(a), 64, 64) == window_count(len(b), 64, 64) == 20
        mode, curve = SynthesisMode.sampled(3), np.linspace(0, 1, 20)
        runs = {
            "encode_blocks": (1, lambda: list(encode_blocks(model, a, 64, recipe))),
            "render_stepwise": (2, lambda: interpolate_module._fill(model, *interpolate_module
                .render_stepwise(model, a, b, 0.5, 0.5, mode, recipe=recipe))),
            "render_extended": (2, lambda: interpolate_module._fill(model, *interpolate_module
                .render_extended(model, a, b, curve, mode, 64, recipe=recipe))),
        }
        for name, (inputs, run) in runs.items():
            rows.clear()
            run()
            assert rows == ([10, 10] if recipe == 2 else [20]) * inputs, name


class TestGenerateCurve:
    def test_constant(self):
        curve = generate_curve("const:1.0", 5)
        assert np.array_equal(curve, np.ones(5))

    def test_linear(self):
        curve = generate_curve("lin:0:1", 3)
        assert np.allclose(curve, [0.0, 0.5, 1.0])

    def test_sine_clamps_to_unit_range(self):
        curve = generate_curve("sine:p=4,ph=0,a=2,o=0", 4)
        assert np.allclose(curve, [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_sine_defaults_full_period(self):
        curve = generate_curve("sine:", 8)
        assert np.allclose(curve, np.sin(2 * np.pi * np.arange(8) / 8))

    def test_breakpoints_match_interp_oracle(self):
        curve = generate_curve("bp:0=0,10=1,20=0", 21)
        expected = np.interp(np.arange(21), [0, 10, 20], [0, 1, 0])
        assert np.allclose(curve, expected)

    def test_empty_spec(self):
        with pytest.raises(EmptySpecError):
            generate_curve("   ", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_curve("powerlaw:2", 4)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            generate_curve("const:0", 0)

    @pytest.mark.parametrize("spec, named", [
        ("bp:nan=1", "'nan=1' is not a finite number"),
        ("bp:inf=1,0=0", "'inf=1' is not a finite number"),
        ("bp:0=0,5=-inf", "'5=-inf' is not a finite number"),
        ("const:nan", "'nan' is not a finite number"),
        ("lin:0:inf", "'inf' is not a finite number"),
        ("sine:ph=inf", "'ph=inf' is not a finite number"),
        ("sine:p=nan", "'p=nan' is not a finite number"),
        ("sine:p=1e-320", "'sine:p=1e-320' overflows float64"),
        ("sine:a=1.7e308,o=1.7e308", "overflows float64"),
        ("lin:-1.7e308:1.7e308", "overflows float64"),
        ("bp:0=-1.7e308,10=1.7e308", "'bp:0=-1.7e308,10=1.7e308' overflows float64"),
    ])
    def test_non_finite_spec_is_value_error_without_warning(self, spec, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(named)):
                generate_curve(spec, 16)

    @pytest.mark.parametrize("spec, message", [
        ("sine:q=1", "unknown sine parameter 'q'"),
        ("sine:p=0", "sine period must be nonzero"),
        ("bp:", "breakpoint spec needs at least one index=value pair"),
        ("lin:0", "curve 'lin:0': item '' is not a finite number"),
        ("const:", "curve 'const:': item '' is not a finite number"),
        ("bp:a", "curve 'bp:a': item 'a' is not a finite number"),
        ("bp:0=x", "curve 'bp:0=x': item '0=x' is not a finite number"),
        # a sort would order a repeated index's points by value, not spec order
        ("bp:0=1,0=0,4=1", "curve 'bp:0=1,0=0,4=1': breakpoint index 0 is given twice"),
        ("bp:0=0,2.5=1,7=0,2.50=0", "breakpoint index 2.5 is given twice"),
        # the last value would win silently
        ("sine:p=4,p=8", "curve 'sine:p=4,p=8': sine parameter 'p' is given twice"),
        ("sine:a=1,ph=0,a=1", "sine parameter 'a' is given twice"),
    ])
    def test_malformed_spec(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_curve(spec, 8)

    @settings(max_examples=60, deadline=None)
    @given(
        amplitude=st.floats(-5, 5, allow_nan=False),
        offset=st.floats(-2, 2, allow_nan=False),
        length=st.integers(1, 50),
    )
    def test_all_curves_stay_clamped(self, amplitude, offset, length):
        curve = generate_curve(f"sine:p=7,a={amplitude},o={offset}", length)
        assert np.all(curve <= 1.0)
        assert np.all(curve >= -1.0)


class TestDecodePath:
    def test_concatenation_length(self, model):
        means = np.zeros((3, 8))
        out = decode_path(model, means, np.zeros((3, 8)), MEAN)
        assert len(out) == 3 * 64
        assert out.sample_rate == 8000

    def test_mean_only_ignores_stds(self, model):
        rng = np.random.default_rng(0)
        means = rng.standard_normal((4, 8))
        a = decode_path(model, means, np.zeros((4, 8)), MEAN)
        b = decode_path(model, means, rng.uniform(0, 5, (4, 8)), MEAN)
        assert np.array_equal(a.samples, b.samples)

    def test_sampled_same_seed_identical(self, model):
        rng = np.random.default_rng(1)
        means = rng.standard_normal((4, 8))
        stds = rng.uniform(0.1, 1.0, (4, 8))
        a = decode_path(model, means, stds, SynthesisMode.sampled(99))
        b = decode_path(model, means, stds, SynthesisMode.sampled(99))
        assert np.array_equal(a.samples, b.samples)

    def test_sampled_different_seeds_differ(self, model):
        rng = np.random.default_rng(1)
        means = rng.standard_normal((4, 8))
        stds = rng.uniform(0.1, 1.0, (4, 8))
        a = decode_path(model, means, stds, SynthesisMode.sampled(1))
        b = decode_path(model, means, stds, SynthesisMode.sampled(2))
        assert not np.array_equal(a.samples, b.samples)

    def test_negative_stds_rejected(self, model):
        with pytest.raises(ValueError):
            decode_path(model, np.zeros((2, 8)), np.full((2, 8), -0.1), MEAN)

    @pytest.mark.parametrize("field, bad", [
        ("means", np.inf), ("means", -np.inf), ("means", np.nan),
        ("stds", np.inf), ("stds", np.nan), ("stds", -0.1),
    ])
    @pytest.mark.parametrize("mode", [MEAN, SynthesisMode.sampled(1)], ids=["mean", "sampled"])
    def test_non_finite_latents_rejected_before_decoding(self, model, monkeypatch, field, bad,
                                                         mode):
        # a NaN std or an inf mean would decode to a whole window of NaN samples
        def no_decode(*args):
            raise AssertionError("decode_frames ran")

        monkeypatch.setattr(interpolate_module, "decode_frames", no_decode)
        latents = {"means": np.zeros((3, 8)), "stds": np.ones((3, 8))}
        latents[field][1, 2] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            decode_path(model, latents["means"], latents["stds"], mode)

    def test_means_and_stds_of_different_shapes(self, model):
        with pytest.raises(ShapeMismatchError, match="must be equal 2-D shapes"):
            decode_path(model, np.zeros((3, 8)), np.zeros((2, 8)), SynthesisMode.mean_only())

    def test_dim_mismatch(self, model):
        with pytest.raises(ShapeMismatchError):
            decode_path(model, np.zeros((2, 9)), np.zeros((2, 9)), MEAN)

    def test_crossfade_shortens_output(self, model):
        means = np.random.default_rng(2).standard_normal((3, 8))
        out = decode_path(model, means, np.zeros((3, 8)), MEAN, crossfade=16)
        assert len(out) == 3 * 64 - 2 * 16

    @pytest.mark.parametrize("n_windows", [1, 2])
    @pytest.mark.parametrize("crossfade", [-5, 64, 5000])
    def test_crossfade_out_of_range_rejected_before_decoding(
        self, model, monkeypatch, n_windows, crossfade
    ):
        # one window has no seam, but the width is still checked, and no
        # decode is spent on a call that is going to fail
        def no_decode(*args):
            raise AssertionError("decode_frames ran")

        monkeypatch.setattr(interpolate_module, "decode_frames", no_decode)
        zeros = np.zeros((n_windows, 8))
        with pytest.raises(ValueError, match="crossfade must be in"):
            decode_path(model, zeros, zeros, MEAN, crossfade=crossfade)

    def test_one_window_crossfade_keeps_the_frame(self, model):
        means = np.random.default_rng(3).standard_normal((1, 8))
        plain = decode_path(model, means, np.zeros((1, 8)), MEAN)
        faded = decode_path(model, means, np.zeros((1, 8)), MEAN, crossfade=63)
        assert np.array_equal(faded.samples, plain.samples)
        assert len(faded) == 64

    def test_sampled_mode_requires_seed(self):
        with pytest.raises(ValueError):
            SynthesisMode("sampled")

    def test_unknown_mode_kind(self):
        with pytest.raises(ValueError, match="unknown synthesis mode 'bogus'"):
            SynthesisMode("bogus")

    def test_sampled_mode_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0 for sampled mode, got -1"):
            SynthesisMode.sampled(-1)


class TestStepwise:
    @pytest.mark.parametrize(
        "range_r,step_s,n_segments", [(1.0, 0.5, 3), (1.0, 0.25, 5), (0.8, 0.2, 5)]
    )
    def test_segment_counts(self, model, pair, range_r, step_s, n_segments):
        out = stepwise_interpolate(model, pair[0], pair[1], range_r, step_s, MEAN)
        per_segment = (min(len(pair[0]), len(pair[1])) // 64) * 64
        assert len(out) == n_segments * per_segment

    def test_weight_zero_gives_second_input(self, model, pair):
        # the sweep weight multiplies input 1, so segment 0 is input 2's reconstruction
        out = stepwise_interpolate(model, pair[0], pair[1], 1.0, 0.5, MEAN)
        segment = len(out.samples) // 3
        expected = _reconstruction(model, pair[1])
        assert np.array_equal(out.samples[:segment], expected.samples)

    def test_weight_one_gives_first_input(self, model, pair):
        out = stepwise_interpolate(model, pair[0], pair[1], 1.0, 0.5, MEAN)
        segment = len(out.samples) // 3
        expected = _reconstruction(model, pair[0])
        assert np.array_equal(out.samples[-segment:], expected.samples)

    def test_bad_step(self, model, pair):
        with pytest.raises(BadStepError):
            stepwise_interpolate(model, pair[0], pair[1], 1.0, 0.0, MEAN)
        with pytest.raises(BadStepError):
            stepwise_interpolate(model, pair[0], pair[1], -1.0, 0.5, MEAN)

    @pytest.mark.parametrize("range_r,step_s", [
        (np.inf, 0.5), (np.nan, 0.5), (1.0, np.inf), (1.0, np.nan), (1.0, -np.inf),
        (1e300, 1e-300),  # both finite, but range / step is not
    ])
    def test_non_finite_sweep_rejected(self, model, pair, range_r, step_s):
        with pytest.raises(BadStepError):
            stepwise_interpolate(model, pair[0], pair[1], range_r, step_s, MEAN)

    def test_sampled_reproducible(self, model, pair):
        mode = SynthesisMode.sampled(5)
        a = stepwise_interpolate(model, pair[0], pair[1], 1.0, 0.5, mode)
        b = stepwise_interpolate(model, pair[0], pair[1], 1.0, 0.5, mode)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("mode", [MEAN, SynthesisMode.sampled(1)], ids=["mean", "sampled"])
    @pytest.mark.parametrize("crossfade", [0, 16])
    def test_traced_peak_is_the_output_plus_a_few_blocks(self, mode, crossfade):
        # 21 segments of one block of windows each: the whole-path blend this
        # replaced peaked at the output plus 22-36 block sizes here, the
        # blockwise body at the output plus 3.6-4.3
        hyper = VaeHyperParams(
            window_size=64, latent_dim=16, hidden_sizes=(16,), sample_rate=8000, seed=5
        )
        model = float32_model(hyper)
        block = interpolate_module._block()
        a, b = (make_noise(seconds=block * 64 / 8000, rate=8000, seed=s) for s in (1, 2))
        block_bytes = block * (64 * 4 + 16 * 8)  # float32 frames and float64 latents
        tracemalloc.start()
        try:
            out = stepwise_interpolate(model, a, b, 1.0, 0.05, mode, crossfade)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 21 * block * 64 - (21 * block - 1) * crossfade
        assert peak <= out.samples.nbytes + 6 * block_bytes


class TestMeso:
    def test_endpoint_identity_first_input(self, model, pair):
        n = min(len(pair[0]), len(pair[1])) // 64
        out = meso_interpolate(model, pair[0], pair[1], generate_curve("const:1", n), MEAN)
        assert np.array_equal(out.samples, _reconstruction(model, pair[0]).samples)

    def test_endpoint_identity_second_input(self, model, pair):
        n = min(len(pair[0]), len(pair[1])) // 64
        out = meso_interpolate(model, pair[0], pair[1], generate_curve("const:0", n), MEAN)
        assert np.array_equal(out.samples, _reconstruction(model, pair[1]).samples)

    def test_duration_matches_inputs(self, model, pair):
        n = min(len(pair[0]), len(pair[1])) // 64
        out = meso_interpolate(model, pair[0], pair[1], generate_curve("lin:0:1", n), MEAN)
        assert len(out) == n * 64

    def test_curve_length_mismatch(self, model, pair):
        with pytest.raises(CurveLengthMismatchError):
            meso_interpolate(model, pair[0], pair[1], generate_curve("const:1", 3), MEAN)

    def test_blend_linearity_against_direct_arithmetic(self, model):
        # single-window inputs let the blend be recomputed by hand
        a = make_sine(freq=300, seconds=64 / 8000, rate=8000)
        b = make_noise(seconds=64 / 8000, rate=8000, seed=8)
        c = 0.37
        path_a = encode_audio(model, a, 64)
        path_b = encode_audio(model, b, 64)
        expected_mu = c * path_a.mu[0] + (1 - c) * path_b.mu[0]
        expected_sigma = c * np.exp(path_a.logvar[0] / 2) + (1 - c) * np.exp(
            path_b.logvar[0] / 2
        )
        direct = decode_path(model, expected_mu[None], expected_sigma[None], MEAN)
        curved = meso_interpolate(model, a, b, [c], MEAN)
        assert np.array_equal(curved.samples, direct.samples)


class TestChecksBeforeWork:
    @pytest.fixture
    def no_encode(self, monkeypatch):
        def fail(*args):
            raise AssertionError("encode_frames ran")

        monkeypatch.setattr(interpolate_module, "encode_frames", fail)

    @pytest.mark.parametrize("crossfade", [-1, 64, 5000])
    def test_crossfade_checked_before_encoding(self, model, pair, no_encode, crossfade):
        n = min(len(pair[0]), len(pair[1])) // 64
        curve = generate_curve("lin:0:1", n)
        calls = [
            lambda: stepwise_interpolate(model, *pair, 1.0, 0.05, MEAN, crossfade),
            lambda: meso_interpolate(model, *pair, curve, MEAN, crossfade),
            lambda: extended_interpolate(model, *pair, curve, MEAN, 16, crossfade),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="crossfade must be in"):
                call()

    @pytest.mark.parametrize("mode", [MEAN, SynthesisMode.sampled(1)], ids=["mean", "sampled"])
    def test_output_longer_than_a_wav_rejected_before_decoding(self, model, pair, monkeypatch, mode):
        def no_decode(*args):
            raise AssertionError("decode_frames ran")

        monkeypatch.setattr(interpolate_module, "decode_frames", no_decode)
        # 1e18 segments: nothing sized by the path may be allocated first
        with pytest.raises(ValueError, match="more than one float32 WAV holds"):
            stepwise_interpolate(model, *pair, 1e15, 1e-3, mode)
        # a small limit stands in for the 2**30 samples an extend with a tiny hop reaches
        n = (min(len(pair[0]), len(pair[1])) - 64) // 2 + 1
        monkeypatch.setattr(interpolate_module, "MAX_FLOAT32_SAMPLES", n * 64 - 1)
        with pytest.raises(ValueError, match="more than one float32 WAV holds"):
            extended_interpolate(model, *pair, generate_curve("lin:0:1", n), mode, 2)

    @pytest.mark.parametrize("recipe", [1, 2])
    @pytest.mark.parametrize("mode", [MEAN, SynthesisMode.sampled(1)], ids=["mean", "sampled"])
    def test_step_output_longer_than_a_wav_rejected_before_encoding(self, model, pair,
                                                                    monkeypatch, mode, recipe):
        encode_block, encoded = interpolate_module._encode_block, []

        def spy(model, frames, *args):
            encoded.append(len(frames))
            return encode_block(model, frames, *args)

        monkeypatch.setattr(interpolate_module, "_encode_block", spy)
        # 1e6 segments of the pair's 25 windows
        with pytest.raises(ValueError, match="more than one float32 WAV holds"):
            interpolate_module.render_stepwise(model, *pair, 1.0, 1e-6, mode, recipe=recipe)
        assert encoded == []


class TestExtended:
    def test_duration_law_exact(self, model, pair):
        hop = 16
        min_len = min(len(pair[0]), len(pair[1]))
        n = (min_len - 64) // hop + 1
        out = extended_interpolate(
            model, pair[0], pair[1], generate_curve("lin:0:1", n), MEAN, hop=hop
        )
        assert len(out) == n * 64

    def test_stretch_factor_approaches_window_over_hop(self, model):
        a = make_sine(freq=250, seconds=1.0, rate=8000)
        b = make_noise(seconds=1.0, rate=8000, seed=3)
        n = (8000 - 64) // 16 + 1
        out = extended_interpolate(
            model, a, b, generate_curve("const:0.5", n), MEAN, hop=16
        )
        assert 3.9 <= len(out) / 8000 <= 4.0

    def test_hop_equal_to_window_degenerates_to_meso(self, model, pair):
        n = min(len(pair[0]), len(pair[1])) // 64
        curve = generate_curve("sine:p=5", n)
        ext = extended_interpolate(model, pair[0], pair[1], curve, MEAN, hop=64)
        meso = meso_interpolate(model, pair[0], pair[1], curve, MEAN)
        assert np.array_equal(ext.samples, meso.samples)

    def test_curve_length_mismatch(self, model, pair):
        with pytest.raises(CurveLengthMismatchError):
            extended_interpolate(
                model, pair[0], pair[1], generate_curve("const:1", 2), MEAN, hop=16
            )


class TestCurveIsItsWeights:
    """A curve is any 1-D sequence of finite weights, clamped into [-1, 1] where it
    is rendered; generate_curve returns that float64 array."""

    @staticmethod
    def _render(model, pair, curve, mode, hop):
        if hop == model.hyper.window_size:
            return meso_interpolate(model, *pair, curve, mode)
        return extended_interpolate(model, *pair, curve, mode, hop)

    @pytest.mark.parametrize("form", [list, np.array], ids=["list", "ndarray"])
    @pytest.mark.parametrize("hop", [64, 16], ids=["meso", "extend"])
    def test_a_plain_sequence_renders_like_the_generated_curve(self, model, pair, hop, form):
        n = window_count(min(map(len, pair)), 64, hop)
        curve = generate_curve("sine:p=7,a=2", n)  # leaves [-1, 1] before the clamp
        assert isinstance(curve, np.ndarray) and curve.dtype == np.float64
        mode = SynthesisMode.sampled(2)
        want = self._render(model, pair, curve, mode, hop)
        got = self._render(model, pair, form(curve.tolist()), mode, hop)
        assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("make, message", [
        (lambda n: [], "curve needs a 1-D, nonempty value sequence"),
        (lambda n: np.full((n, 1), 0.5), "curve needs a 1-D, nonempty value sequence"),
        (lambda n: [0.5] * (n - 1) + [np.nan], "curve values must be finite"),
        (lambda n: np.r_[np.inf, np.zeros(n - 1)], "curve values must be finite"),
    ], ids=["empty", "2-D", "nan", "inf"])
    @pytest.mark.parametrize("hop", [64, 16], ids=["meso", "extend"])
    def test_an_invalid_curve_is_refused_before_encoding(self, model, pair, monkeypatch, hop,
                                                         make, message):
        encode, encoded = interpolate_module.encode_frames, []

        def spy(model, frames, *args):
            encoded.append(len(frames))
            return encode(model, frames, *args)

        monkeypatch.setattr(interpolate_module, "encode_frames", spy)
        n = window_count(min(map(len, pair)), 64, hop)
        with pytest.raises(ValueError, match=re.escape(message)):
            self._render(model, pair, make(n), MEAN, hop)
        assert encoded == []

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), hop=st.sampled_from([64, 16]), sampled=st.booleans())
    def test_any_finite_curve_renders_like_its_clamp(self, model, pair, data, hop, sampled):
        n = window_count(min(map(len, pair)), 64, hop)
        curve = data.draw(arrays(np.float64, n,
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
        mode = SynthesisMode.sampled(4) if sampled else MEAN
        got = self._render(model, pair, curve, mode, hop)
        want = self._render(model, pair, np.clip(curve, -1, 1), mode, hop)
        assert got.samples.tobytes() == want.samples.tobytes()


class TestLoudInput:
    """A sampled blend of an input whose sigma, exp(logvar / 2), overflows names
    the input and its first such window, before anything is decoded."""

    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("strategy, recipe, window", [
        ("step", 2, 3), ("step", 1, 3), ("extend", 2, 11), ("extend", 1, 11),
    ])
    def test_names_input_and_window(self, model, pair, monkeypatch, index, strategy, recipe,
                                    window):
        def no_decode(*args):
            raise AssertionError("decode_frames ran")

        inputs = list(pair)
        loud = inputs[index].samples.copy()
        loud[3 * 64 + 40] = 1e37  # in window 3 at hop 64, windows 11-14 at hop 16
        inputs[index] = AudioBuffer(loud, inputs[index].sample_rate)
        mode = SynthesisMode.sampled(1)
        if strategy == "step":
            rendering = interpolate_module.render_stepwise(model, *inputs, 1.0, 0.5, mode,
                                                           recipe=recipe)
        else:
            n = (min(len(inputs[0]), len(inputs[1])) - 64) // 16 + 1
            rendering = interpolate_module.render_extended(
                model, *inputs, generate_curve("const:1", n), mode, 16, recipe=recipe)
        monkeypatch.setattr(interpolate_module, "decode_frames", no_decode)
        with pytest.raises(LoudInputError) as info:
            interpolate_module._fill(model, *rendering)
        assert (info.value.index, info.value.window) == (index, window)
        assert str(info.value).startswith(f"input {'ab'[index]}: window {window} encodes to a "
                                          "non-finite sigma")


class TestExportLatents:
    def _path(self, n=4, m=8):
        mu, logvar = np.random.default_rng(0).standard_normal((2, n, m)).astype(np.float32)
        return LatentPath(mu, logvar)

    def test_row_and_field_counts(self, tmp_path):
        export_latents([self._path(n=4, m=8)], tmp_path / "latents.csv")
        lines = (tmp_path / "latents.csv").read_text().strip().split("\n")
        assert len(lines) == 5
        assert lines[0].split(",")[:2] == ["idx", "mu_0"]
        assert all(len(line.split(",")) == 1 + 8 + 8 for line in lines)

    def test_empty_path_writes_header_only(self, tmp_path):
        export_latents([LatentPath(np.zeros((0, 2)), np.zeros((0, 2)))], tmp_path / "latents.csv")
        assert (tmp_path / "latents.csv").read_text() == "idx,mu_0,mu_1,lv_0,lv_1\n"

    def test_no_blocks_is_value_error_and_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError, match="no latent blocks to export"):
            export_latents(iter([]), tmp_path / "x.csv")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("second_width", [3, 1], ids=["wider", "narrower"])
    def test_blocks_of_another_latent_width_write_nothing(self, tmp_path, second_width):
        blocks = [self._path(n=4, m=2), self._path(n=4, m=2), self._path(n=3, m=second_width)]
        with pytest.raises(ShapeMismatchError,
                           match=f"latent block 2 is {second_width} wide, block 0 is 2 wide"):
            export_latents(iter(blocks), tmp_path / "mix.csv")
        assert not list(tmp_path.iterdir())

    def test_reparse_recovers_float32_values(self, tmp_path):
        path = self._path(n=3, m=8)
        out = tmp_path / "latents.csv"
        export_latents([path], out)
        rows = out.read_text().strip().split("\n")[1:]
        for i, row in enumerate(rows):
            fields = row.split(",")
            mu = np.array([np.float32(v) for v in fields[1:9]])
            lv = np.array([np.float32(v) for v in fields[9:]])
            assert np.array_equal(mu, path.mu[i])
            assert np.array_equal(lv, path.logvar[i])


def _within(seconds, fn):
    """fn() on a daemon thread: its result, or its error, or a failure if it
    has not returned within the given seconds (a deadlock hangs no test run)."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


class TestPool:
    """_ahead maps over a stream on the worker pool: results in order, at most
    _AHEAD items past the one the reader holds, and no work once it is closed."""

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(interpolate_module, "_workers", lambda: request.param)
        return request.param

    class Calls:
        """A spy fn: logs which items started, counts the calls running."""

        def __init__(self, fail_at=None):
            self.lock, self.started, self.running, self.fail_at = threading.Lock(), [], 0, fail_at

        def __call__(self, item):
            with self.lock:
                self.started.append(item)
                self.running += 1
            try:
                time.sleep(0.001 * (1 + item % 3))
                if item == self.fail_at:
                    raise ValueError(f"item {item} failed")
                return item * item
            finally:
                with self.lock:
                    self.running -= 1

        def settled(self, workers):
            """The items started once every task queued before now has left the pool."""
            assert list(interpolate_module._ahead(lambda x: x, range(workers))) == [*range(workers)]
            time.sleep(0.01)  # a call popped just before the last sentinel logs itself
            return list(self.started)

    @pytest.mark.parametrize("blas, cpus, env, want", [
        ("scipy-openblas", 4, {}, 1),  # BLAS uses every CPU
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "2"}, 2),
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "3"}, 1),
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "8"}, 1),
        ("scipy-openblas", 4, {"GOTO_NUM_THREADS": "2"}, 2),
        ("scipy-openblas", 4, {"OMP_NUM_THREADS": "1"}, 4),
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ("scipy-openblas", 4, {"OPENBLAS_NUM_THREADS": "x"}, 1),
        ("scipy-openblas", 4, {"MKL_NUM_THREADS": "1"}, 1),  # not OpenBLAS's variable
        ("scipy-openblas", 1, {"OPENBLAS_NUM_THREADS": "1"}, 1),  # taskset -c 0
        ("scipy-openblas", 64, {"OPENBLAS_NUM_THREADS": "1"}, 6),  # what 3 stages can run
        ("mkl-sdl", 4, {"MKL_NUM_THREADS": "2"}, 2),
        ("mkl-sdl", 4, {"OMP_NUM_THREADS": "1"}, 4),
        ("mkl-sdl", 4, {"OPENBLAS_NUM_THREADS": "1"}, 1),  # not MKL's variable
        ("accelerate", 4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, 1),
    ])
    def test_workers_are_cpus_over_blas_threads(self, monkeypatch, blas, cpus, env, want):
        for var in {*interpolate_module._OPENBLAS_THREADS, *interpolate_module._MKL_THREADS}:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(np, "show_config",
                            lambda mode: {"Build Dependencies": {"blas": {"name": blas}}})
        assert interpolate_module._workers() == want

    def test_results_in_order_and_at_most_ahead_started(self, workers):
        # more workers than cores, and threads switched as often as they can be
        calls, interval = self.Calls(), sys.getswitchinterval()

        def consume():
            got = []
            for i, value in enumerate(interpolate_module._ahead(calls, range(200))):
                with calls.lock:
                    assert max(calls.started) <= i + interpolate_module._AHEAD
                got.append(value)
            return got

        sys.setswitchinterval(1e-6)
        try:
            assert _within(60, consume) == [i * i for i in range(200)]
        finally:
            sys.setswitchinterval(interval)
        assert calls.running == 0

    def test_closed_part_way_runs_nothing_after(self, workers):
        calls = self.Calls()

        def read_two_and_close():  # item 2 sleeps longest: it runs at the close
            results = interpolate_module._ahead(calls, range(50))
            got = [next(results) for _ in range(2)]
            results.close()
            return got, calls.running

        assert _within(30, read_two_and_close) == ([0, 1], 0)
        assert len(calls.settled(workers)) <= 2 + interpolate_module._AHEAD

    def test_an_error_is_raised_in_order_and_runs_nothing_after(self, workers):
        calls, got = self.Calls(fail_at=5), []

        def consume():
            try:
                for value in interpolate_module._ahead(calls, range(50)):
                    got.append(value)
            except ValueError as exc:
                return str(exc), calls.running

        assert _within(30, consume) == ("item 5 failed", 0)
        assert got == [i * i for i in range(5)]
        assert len(calls.settled(workers)) <= 6 + interpolate_module._AHEAD

    def test_items_may_come_from_the_pool(self, workers):
        # extend's decode reads blocks that its encode streams make on the same pool;
        # only the reader's thread waits, so even one worker does not deadlock
        inner = interpolate_module._ahead(lambda x: x + 1, range(100))
        outer = interpolate_module._ahead(lambda x: 2 * x, inner)
        assert _within(30, lambda: list(outer)) == [2 * (x + 1) for x in range(100)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
    def test_a_forked_child_starts_its_own_workers(self, workers):
        assert list(interpolate_module._ahead(lambda x: x + 1, range(4))) == [1, 2, 3, 4]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking with threads alive
            pid = os.fork()
        if pid == 0:  # the child: its pool must run, not wait on the parent's threads
            ok = list(interpolate_module._ahead(lambda x: x + 1, range(4))) == [1, 2, 3, 4]
            os._exit(0 if ok else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
