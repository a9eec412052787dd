from dataclasses import replace

import numpy as np
import pytest

from helpers import make_noise, make_sine
from latentaudio import AudioBuffer, FeatureConfig, Thumbnail, TooShortError, extract_thumbnail

CONFIG = FeatureConfig(sample_rate=8000, frame_size=512, hop=256)


def _width(config):
    """Entries of a thumbnail extracted under config: per-frame means, then stds."""
    return len(extract_thumbnail(make_noise(seconds=0.5, rate=config.sample_rate), config).features)


def test_default_dimension_is_30():
    assert _width(FeatureConfig()) == 30


def test_dimension_tracks_recipe():
    assert _width(replace(CONFIG, n_mfcc=10, centroid=False)) == 22
    assert _width(replace(CONFIG, n_mfcc=13, centroid=False, rms=False)) == 26


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(n_mfcc=0)
    with pytest.raises(ValueError):
        FeatureConfig(n_mfcc=30, n_mels=26)


def test_config_rejects_zero_sample_rate():
    with pytest.raises(ValueError, match="sample_rate must be positive"):
        FeatureConfig(sample_rate=0)


@pytest.mark.parametrize("features, message", [
    (np.zeros((2, 3)), "features must be 1-D"),
    (np.array([0.0, np.nan]), "must be finite"),
    (np.array([np.inf, 0.0]), "must be finite"),
])
def test_thumbnail_rejects_bad_features(features, message):
    with pytest.raises(ValueError, match=message):
        Thumbnail(features)


def test_identical_audio_gives_identical_thumbnails():
    a = extract_thumbnail(make_sine(rate=8000, seconds=0.5), CONFIG)
    b = extract_thumbnail(make_sine(rate=8000, seconds=0.5), CONFIG)
    assert np.array_equal(a.features, b.features)


def test_silence_has_zero_stds():
    silent = AudioBuffer(np.zeros(4096, dtype=np.float32), 8000)
    thumb = extract_thumbnail(silent, CONFIG)
    per_frame = len(thumb.features) // 2  # means, then stds
    stds = thumb.features[per_frame:]
    assert np.array_equal(stds, np.zeros(per_frame))


def test_too_short():
    with pytest.raises(TooShortError):
        extract_thumbnail(AudioBuffer(np.zeros(100, dtype=np.float32), 8000), CONFIG)


def test_appending_subhop_silence_keeps_thumbnail():
    # 4096 samples: the last frame ends exactly on the buffer, so padding by
    # anything under one hop cannot start a new frame
    buf = make_noise(rate=8000, seconds=0.512, seed=1)
    padded = AudioBuffer(
        np.concatenate([buf.samples, np.zeros(CONFIG.hop - 1, dtype=np.float32)]), 8000
    )
    a = extract_thumbnail(buf, CONFIG)
    b = extract_thumbnail(padded, CONFIG)
    assert np.array_equal(a.features, b.features)


def test_mixed_rates_are_resampled_to_config_rate():
    # same signal at two rates lands on nearly the same thumbnail
    lo = make_sine(freq=400, rate=8000, seconds=0.5)
    hi = make_sine(freq=400, rate=16000, seconds=0.5)
    a = extract_thumbnail(lo, CONFIG)
    b = extract_thumbnail(hi, CONFIG)
    scale = np.maximum(np.abs(a.features), 1.0)
    assert np.max(np.abs(a.features - b.features) / scale) < 0.05


def test_distinct_sounds_get_distinct_thumbnails():
    a = extract_thumbnail(make_sine(freq=200, rate=8000, seconds=0.5), CONFIG)
    b = extract_thumbnail(make_noise(rate=8000, seconds=0.5, seed=2), CONFIG)
    assert not np.allclose(a.features, b.features)


def test_file_ref_named_on_thumbnail():
    buf = make_sine(rate=8000, seconds=0.3)
    assert extract_thumbnail(buf, CONFIG, "x.wav").file_ref == "x.wav"
    assert extract_thumbnail(buf, CONFIG).file_ref is None


def test_centroid_of_silence_is_zero():
    from latentaudio.features import frame_features

    frames = np.zeros((3, CONFIG.frame_size))
    feats = frame_features(frames, CONFIG)
    centroid_column = feats[:, CONFIG.n_mfcc]
    assert np.array_equal(centroid_column, np.zeros(3))


def test_centroid_tracks_frequency():
    from latentaudio import window
    from latentaudio.features import frame_features

    low = window(make_sine(freq=300, rate=8000, seconds=0.5), 512, 256)
    high = window(make_sine(freq=2000, rate=8000, seconds=0.5), 512, 256)
    c_low = frame_features(low, CONFIG)[:, CONFIG.n_mfcc].mean()
    c_high = frame_features(high, CONFIG)[:, CONFIG.n_mfcc].mean()
    assert c_low < c_high


def test_rms_matches_hand_computation():
    from latentaudio.features import frame_features

    frames = np.full((2, CONFIG.frame_size), 0.5)
    feats = frame_features(frames, CONFIG)
    assert np.allclose(feats[:, -1], 0.5)
