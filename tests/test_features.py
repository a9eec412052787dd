import numpy as np
import pytest

from helpers import make_noise, make_sine
from latentaudio import AudioBuffer, FeatureConfig, TooShortError, extract_thumbnail

CONFIG = FeatureConfig(sample_rate=8000, frame_size=512, hop=256)


def test_default_dimension_is_30():
    assert FeatureConfig().dimension == 30


def test_dimension_tracks_recipe():
    assert FeatureConfig(n_mfcc=10, include_centroid=False).dimension == 22
    assert FeatureConfig(n_mfcc=13, include_centroid=False, include_rms=False).dimension == 26


def test_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(n_mfcc=0)
    with pytest.raises(ValueError):
        FeatureConfig(n_mfcc=30, n_mels=26)


def test_identical_audio_gives_identical_thumbnails():
    a = extract_thumbnail(make_sine(rate=8000, seconds=0.5), CONFIG)
    b = extract_thumbnail(make_sine(rate=8000, seconds=0.5), CONFIG)
    assert np.array_equal(a.features, b.features)


def test_silence_has_zero_stds():
    silent = AudioBuffer(np.zeros(4096, dtype=np.float32), 8000)
    thumb = extract_thumbnail(silent, CONFIG)
    per_frame = CONFIG.per_frame_count
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


def test_file_ref_carried_from_source_label():
    buf = AudioBuffer(make_sine(rate=8000, seconds=0.3).samples, 8000, source_label="x.wav")
    assert extract_thumbnail(buf, CONFIG).file_ref == "x.wav"


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
