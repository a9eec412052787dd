import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import make_sine
from latentaudio import (
    AudioBuffer,
    MalformedWavError,
    RateMismatchError,
    TooShortError,
    UnsupportedEncodingError,
    load_wav,
    peak_normalize,
    resample,
    save_wav,
    truncate_pair,
    window,
)
from latentaudio import audio
from latentaudio.audio import MAX_FLOAT32_SAMPLES, write_wav
from latentaudio.cli import main as cli_main


# bytes 2-15 of the KSDATAFORMAT_SUBTYPE GUIDs for PCM and IEEE float
KS_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extension(subformat, bits, guid_tail=KS_GUID_TAIL):
    """The 24 bytes WAVE_FORMAT_EXTENSIBLE appends to the 16-byte fmt chunk."""
    return struct.pack("<HHIH", 22, bits, 0x4, subformat) + guid_tail


def _wav_bytes(fmt_tag, channels, rate, bits, payload, extra_chunk=None, fmt_ext=b""):
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
    ) + fmt_ext
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if extra_chunk is not None:
        chunks += extra_chunk
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


class TestAudioBuffer:
    def test_coerces_to_float32(self):
        buf = AudioBuffer(np.array([0.0, 1.0], dtype=np.float64), 8000)
        assert buf.samples.dtype == np.float32

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((2, 2)), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros(4), 0)

    def test_duration(self):
        assert AudioBuffer(np.zeros(4410), 44100).duration == pytest.approx(0.1)


class TestWavCodec:
    def test_float32_round_trip_is_exact(self, tmp_path):
        buf = make_sine(rate=8000, seconds=0.25)
        path = tmp_path / "x.wav"
        save_wav(buf, path)
        back = load_wav(path)
        assert back.sample_rate == buf.sample_rate
        assert np.array_equal(back.samples, buf.samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples_rejected(self, tmp_path, bad):
        payload = np.array([0.1, bad, -0.2], dtype="<f4").tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(3, 1, 8000, 32, payload))
        with pytest.raises(MalformedWavError, match="non-finite"):
            load_wav(path)

    def test_pcm16_scaling(self, tmp_path):
        payload = struct.pack("<4h", -32768, -16384, 0, 16384)
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(1, 1, 8000, 16, payload))
        back = load_wav(path)
        assert np.array_equal(back.samples, np.array([-1.0, -0.5, 0.0, 0.5], np.float32))

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("extensible", [False, True])
    def test_pcm24_matches_the_integer_oracle(self, tmp_path, channels, extensible):
        rng = np.random.default_rng(channels)
        ints = rng.integers(-2**23, 2**23, 3000 * channels)
        ints[:6] = [-2**23, 2**23 - 1, 0, -1, 1, -2]  # the extremes and the sign boundary
        payload = b"".join(int(i).to_bytes(3, "little", signed=True) for i in ints)
        tag, ext = (0xFFFE, _extension(1, 24)) if extensible else (1, b"")
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(tag, channels, 8000, 24, payload, fmt_ext=ext))
        values = ints.reshape(-1, channels) / 2.0**23  # exact in float64
        want = values.mean(axis=1).astype(np.float32)
        got = load_wav(path)
        assert got.sample_rate == 8000 and got.samples.tobytes() == want.tobytes()

    def test_pcm24_loads_in_one_array_beside_the_file_bytes(self, tmp_path):
        n = 300_000
        ints = np.random.default_rng(3).integers(-2**23, 2**23, n).astype("<i4")
        path = tmp_path / "long.wav"
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()  # the low three bytes
        path.write_bytes(_wav_bytes(1, 1, 48000, 24, payload))
        tracemalloc.start()
        try:
            got = load_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n + 4 * n + 65536, peak  # the bytes read and the float32 samples
        assert np.array_equal(got.samples * np.float32(2**23), ints)

    def test_stereo_downmix_is_mean(self, tmp_path):
        frames = np.array([[0.2, 0.4], [-1.0, 1.0], [0.5, 0.0]], dtype="<f4")
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(3, 2, 8000, 32, frames.tobytes()))
        back = load_wav(path)
        assert np.allclose(back.samples, [0.3, 0.0, 0.25])

    def test_loud_stereo_float_downmixes_finite(self, tmp_path):
        # each channel is finite, but their float32 sum overflows
        frames = np.array([[3e38, 3e38], [-3e38, -3e38], [3e38, -3e38]], dtype="<f4")
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(3, 2, 8000, 32, frames.tobytes()))
        back = load_wav(path)
        assert np.isfinite(back.samples).all()
        assert np.array_equal(back.samples, np.float32([3e38, -3e38, 0.0]))

    def test_stereo_downmix_holds_one_block_of_float64(self, tmp_path):
        # 30 s of 48 kHz stereo PCM16: the file's bytes, the interleaved float32
        # samples and the mono output, plus one block: its float64 means, and as
        # much again for the reduction's cast buffer and small objects
        n = 30 * 48000
        ints = np.random.default_rng(5).integers(-32768, 32768, 2 * n, dtype="<i2")
        path = tmp_path / "long.wav"
        path.write_bytes(_wav_bytes(1, 2, 48000, 16, ints.tobytes()))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            got = load_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = size + 4 * 2 * n + 4 * n + 2 * 8 * 65536
        assert peak <= bound, (peak, bound)
        want = (ints.reshape(-1, 2) / 2.0**15).mean(axis=1).astype(np.float32)
        assert got.samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tag", [1, 3])
    def test_stereo_downmix_bits_match_float32_mean(self, tmp_path, tag):
        # the float64 mean rounds to the bits the float32 mean gave for
        # two channels: PCM16 sums and halvings are exact in float32
        rng = np.random.default_rng(tag)
        if tag == 1:
            ints = rng.integers(-32768, 32768, (4000, 2)).astype("<i2")
            payload, values = ints.tobytes(), ints.astype(np.float32) / np.float32(32768.0)
        else:
            values = rng.uniform(-1.0, 1.0, (4000, 2)).astype("<f4")
            payload = values.tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(tag, 2, 8000, 16 if tag == 1 else 32, payload))
        want = values.mean(axis=1, dtype=np.float32)
        assert load_wav(path).samples.tobytes() == want.tobytes()

    def test_odd_sized_chunk_is_skipped_with_padding(self, tmp_path):
        extra = b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # 3 bytes + pad
        payload = np.array([0.5, -0.5], dtype="<f4").tobytes()
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(3, 1, 8000, 32, payload, extra_chunk=extra))
        assert np.array_equal(load_wav(path).samples, np.array([0.5, -0.5], np.float32))

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 40)
        with pytest.raises(MalformedWavError):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        good = _wav_bytes(1, 1, 8000, 16, struct.pack("<4h", 1, 2, 3, 4))
        path = tmp_path / "x.wav"
        path.write_bytes(good[:-3])
        with pytest.raises(MalformedWavError):
            load_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        raw = b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt)) + b"WAVE"
        raw += b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path = tmp_path / "x.wav"
        path.write_bytes(raw)
        with pytest.raises(MalformedWavError):
            load_wav(path)

    def test_fmt_chunk_too_small(self, tmp_path, capsys):
        # 14 bytes: the fmt fields up to block align, without bits per sample
        fmt = struct.pack("<HHIIH", 1, 1, 8000, 16000, 2)
        payload = b"\x00\x00" * 4
        chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        chunks += b"data" + struct.pack("<I", len(payload)) + payload
        path = tmp_path.resolve() / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)
        message = f"{path}: fmt chunk too small (14 bytes)"
        with pytest.raises(MalformedWavError, match=re.escape(message)):
            load_wav(path)
        out = tmp_path / "m.ckpt"
        assert cli_main(["train", "--dataset-dir", str(tmp_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("channels, rate", [(0, 8000), (1, 0)])
    def test_invalid_fmt_fields(self, tmp_path, channels, rate):
        path = tmp_path / "bad.wav"
        path.write_bytes(_wav_bytes(1, channels, rate, 16, b"\x00\x00" * 4))
        with pytest.raises(MalformedWavError, match="invalid fmt fields"):
            load_wav(path)

    def test_unsupported_format_tag(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(2, 1, 8000, 16, b"\x00\x00"))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(1, 1, 8000, 8, b"\x00" * 6))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    @pytest.mark.parametrize("tag, bits, payload", [
        (1, 16, struct.pack("<4h", 1, -2, 300, -32768)),
        (3, 32, np.array([0.5, -0.25, 1.0, 0.0], dtype="<f4").tobytes()),
    ])
    def test_extensible_loads_like_plain_tag(self, tmp_path, tag, bits, payload):
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(_wav_bytes(tag, 1, 8000, bits, payload))
        ext.write_bytes(_wav_bytes(0xFFFE, 1, 8000, bits, payload, fmt_ext=_extension(tag, bits)))
        want, got = load_wav(plain), load_wav(ext)
        assert got.sample_rate == want.sample_rate
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("bits, extension", [
        (24, _extension(3, 24)),  # float at 24 bits
        (16, _extension(1, 16, guid_tail=bytes(14))),
    ])
    def test_extensible_other_subformats_rejected(self, tmp_path, bits, extension):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(0xFFFE, 1, 8000, bits, b"\x00" * 6, fmt_ext=extension))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    def test_extensible_truncated_extension(self, tmp_path):
        path = tmp_path / "x.wav"
        payload = struct.pack("<2h", 1, 2)
        path.write_bytes(_wav_bytes(0xFFFE, 1, 8000, 16, payload, fmt_ext=_extension(1, 16)[:10]))
        with pytest.raises(MalformedWavError):
            load_wav(path)

    def test_refuses_empty_write(self, tmp_path):
        with pytest.raises(ValueError):
            save_wav(AudioBuffer(np.zeros(0), 8000), tmp_path / "x.wav")

    def test_float32_limit_fills_the_riff_size(self):
        # RIFF size = "WAVE" + fmt chunk header and body + data chunk header + data
        header = 4 + (8 + 16) + 8
        assert header + 4 * MAX_FLOAT32_SAMPLES <= 2**32 - 1
        assert header + 4 * (MAX_FLOAT32_SAMPLES + 1) > 2**32 - 1

    def test_refuses_more_than_one_wav_holds(self, tmp_path, monkeypatch):
        # a RIFF size limit of 100 samples stands in for the 32-bit one
        monkeypatch.setattr(audio, "_RIFF_MAX", audio._RIFF_OVERHEAD + 100 * 4)
        save_wav(AudioBuffer(np.zeros(100), 8000), tmp_path / "full.wav")
        assert len(load_wav(tmp_path / "full.wav")) == 100
        with pytest.raises(ValueError, match="more than one float32 WAV holds"):
            save_wav(AudioBuffer(np.zeros(101), 8000), tmp_path / "x.wav")
        assert not (tmp_path / "x.wav").exists()

    # the dtype the middle block arrives in: each block is converted as it is written
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_blocks_write_the_bytes_of_one_buffer(self, tmp_path, dtype):
        rng = np.random.default_rng(4)
        samples = rng.uniform(-1.2, 1.2, 1001).astype(np.float32)
        save_wav(AudioBuffer(samples, 22050), tmp_path / "whole.wav")
        blocks = (samples[:0], samples[:3], samples[3:500].astype(dtype), samples[500:])
        write_wav(iter(blocks), len(samples), 22050, tmp_path / "blocks.wav")
        assert (tmp_path / "blocks.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()

    @pytest.mark.parametrize("n_samples", [9, 11])
    def test_blocks_that_miss_the_header_length_write_nothing(self, tmp_path, n_samples):
        path = tmp_path / "x.wav"
        path.write_bytes(b"earlier")
        blocks = (np.zeros(4, dtype=np.float32), np.zeros(6, dtype=np.float32))
        with pytest.raises(ValueError, match=f"10 samples written under a header for {n_samples}"):
            write_wav(blocks, n_samples, 8000, path)
        assert [p.name for p in tmp_path.iterdir()] == ["x.wav"]
        assert path.read_bytes() == b"earlier"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_block_writes_nothing(self, tmp_path, bad):
        # load_wav refuses such a file, so the writer does not make one
        path = tmp_path / "x.wav"
        second = np.zeros(6, dtype=np.float32)
        second[4] = bad
        with pytest.raises(ValueError, match="non-finite samples in the block from sample 4"):
            write_wav((np.zeros(4, dtype=np.float32), second), 10, 8000, path)
        with pytest.raises(ValueError, match="non-finite"):
            save_wav(AudioBuffer(second, 8000), path)
        assert not list(tmp_path.iterdir())

    def test_length_is_checked_before_the_first_block(self, tmp_path):
        def blocks():
            raise AssertionError("a block was read")
            yield

        for n_samples, message in ((0, "empty"), (MAX_FLOAT32_SAMPLES + 1, "float32 WAV holds")):
            with pytest.raises(ValueError, match=message):
                write_wav(blocks(), n_samples, 8000, tmp_path / "x.wav")
        assert not list(tmp_path.iterdir())


def _fuzz_seeds():
    """A valid file of each accepted layout, built from fixed samples."""
    pcm = struct.pack("<6h", 0, 1, -2, 32767, -32768, 300)  # 3 stereo frames
    pcm24 = b"".join(i.to_bytes(3, "little", signed=True)
                     for i in (0, 1, -2, 2**23 - 1, -2**23, 300))
    # near the largest finite float32, one flipped bit often makes inf or NaN
    big = np.finfo(np.float32).max
    floats = np.array([0.5, -0.25, 1.0, 0.0, -1.0, *[big, -big] * 6], dtype="<f4").tobytes()
    odd_chunk = b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # padded to even
    return {
        "pcm16": _wav_bytes(1, 2, 8000, 16, pcm),
        "float32": _wav_bytes(3, 1, 44100, 32, floats, extra_chunk=odd_chunk),
        "extensible-pcm16": _wav_bytes(0xFFFE, 1, 8000, 16, pcm, fmt_ext=_extension(1, 16)),
        "pcm24": _wav_bytes(1, 2, 8000, 24, pcm24),
        "extensible-pcm24": _wav_bytes(0xFFFE, 1, 8000, 24, pcm24, fmt_ext=_extension(1, 24)),
    }


_WAV_SEEDS = _fuzz_seeds()
# hypothesis reuses tmp_path across examples; each example overwrites one file
_FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _loads_finite_or_fails_cleanly(path):
    try:
        buf = load_wav(path)
    except (MalformedWavError, UnsupportedEncodingError):
        return
    assert buf.samples.dtype == np.float32 and buf.samples.ndim == 1
    assert np.isfinite(buf.samples).all()
    assert buf.sample_rate > 0


class TestWavFuzz:
    @pytest.mark.parametrize("kind", sorted(_WAV_SEEDS))
    def test_seeds_load(self, tmp_path, kind):
        path = tmp_path / "seed.wav"
        path.write_bytes(_WAV_SEEDS[kind])
        assert len(load_wav(path)) > 0

    @_FUZZ
    @given(data=st.data(), kind=st.sampled_from(sorted(_WAV_SEEDS)))
    def test_any_truncation_loads_or_is_a_wav_error(self, tmp_path, data, kind):
        raw = _WAV_SEEDS[kind]
        path = tmp_path / "cut.wav"
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
        _loads_finite_or_fails_cleanly(path)

    @_FUZZ
    @given(data=st.data(), kind=st.sampled_from(sorted(_WAV_SEEDS)))
    def test_any_byte_flip_loads_or_is_a_wav_error(self, tmp_path, data, kind):
        raw = bytearray(_WAV_SEEDS[kind])
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        path = tmp_path / "flipped.wav"
        path.write_bytes(bytes(raw))
        _loads_finite_or_fails_cleanly(path)


class TestPeakNormalize:
    def test_peak_becomes_exactly_one(self):
        buf = AudioBuffer(np.array([0.1, -0.4, 0.2], np.float32), 8000)
        out = peak_normalize(buf)
        assert np.max(np.abs(out.samples)) == np.float32(1.0)

    def test_all_zero_unchanged(self):
        buf = AudioBuffer(np.zeros(16), 8000)
        assert peak_normalize(buf) is buf

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float32,
            st.integers(1, 64),
            elements=st.floats(-10, 10, width=32, allow_nan=False),
        )
    )
    def test_idempotent(self, samples):
        buf = AudioBuffer(samples, 8000)
        once = peak_normalize(buf)
        twice = peak_normalize(once)
        assert np.array_equal(once.samples, twice.samples)


class TestResample:
    def test_identity_rate_is_same_object(self):
        buf = make_sine(rate=8000, seconds=0.1)
        assert resample(buf, 8000) is buf

    @pytest.mark.parametrize("n,src,dst", [(8000, 8000, 4000), (1000, 4000, 44100), (7, 3, 5)])
    def test_output_length_law(self, n, src, dst):
        buf = AudioBuffer(np.zeros(n), src)
        assert len(resample(buf, dst)) == round(n * dst / src)

    def test_matches_linear_interpolation_oracle(self):
        buf = make_sine(rate=8000, seconds=0.05)
        out = resample(buf, 12000)
        positions = np.arange(len(out)) * (8000 / 12000)
        expected = np.interp(positions, np.arange(len(buf)), buf.samples)
        assert np.allclose(out.samples, expected.astype(np.float32), atol=1e-6)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            resample(make_sine(seconds=0.01), 0)

    def test_empty_buffer_stays_empty_at_the_new_rate(self):
        out = resample(AudioBuffer(np.zeros(0, dtype=np.float32), 8000), 16000)
        assert len(out) == 0 and out.sample_rate == 16000 and out.samples.dtype == np.float32

    @staticmethod
    def _whole_input(buffer, target_rate):
        """One interp over the whole input, cast once: what resample computes by blocks."""
        n_out = int(round(len(buffer) * target_rate / buffer.sample_rate))
        positions = np.arange(n_out) * (buffer.sample_rate / target_rate)
        return np.interp(positions, np.arange(len(buffer)), buffer.samples).astype(np.float32)

    @pytest.mark.parametrize("block", [1, 2, 7, 64])
    @pytest.mark.parametrize("src, dst", [(48000, 44100), (44100, 48000), (8000, 44100),
                                          (44100, 8000), (3, 5)])
    def test_blocks_give_the_bits_of_the_whole_input(self, monkeypatch, block, src, dst):
        monkeypatch.setattr(audio, "_RESAMPLE_BLOCK", block)
        rng = np.random.default_rng(block)
        samples = rng.uniform(-1.0, 1.0, 1001).astype(np.float32)
        samples[100:140] = 0.25  # flat runs and full scale
        samples[-3:] = [1.0, -1.0, 1.0]
        buf = AudioBuffer(samples, src)
        got = resample(buf, dst).samples
        assert got.tobytes() == self._whole_input(buf, dst).tobytes()

    def test_real_block_size_on_a_long_pcm16_input(self, tmp_path):
        # 30 s of 48 kHz PCM16 to 44.1 kHz: the file's bytes, a float32 copy of
        # the input and one of the output, plus one block's float64 temporaries
        n_in = 30 * 48000
        ints = np.random.default_rng(0).integers(-32768, 32768, n_in, dtype="<i2")
        path = tmp_path / "long.wav"
        path.write_bytes(_wav_bytes(1, 1, 48000, 16, ints.tobytes()))
        del ints
        tracemalloc.start()
        try:
            out = resample(load_wav(path), 44100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_out = round(n_in * 44100 / 48000)
        assert len(out) == n_out
        bound = 4 * n_in + 4 * n_out + 8 * 8 * 65536  # eight float64 arrays of a block
        assert peak < bound, (peak, bound)
        want = self._whole_input(load_wav(path), 44100)
        assert out.samples.tobytes() == want.tobytes()


class TestWindow:
    def test_counts(self):
        buf = AudioBuffer(np.zeros(4096), 8000)
        assert len(window(buf, 1024, 1024)) == 4
        assert len(window(buf, 1024, 256)) == 13

    def test_frames_match_manual_slices(self):
        buf = AudioBuffer(np.arange(20, dtype=np.float32), 8000)
        frames = window(buf, 6, 4)
        assert frames.dtype == np.float32 and frames.shape == (4, 6) and frames.flags.writeable
        for i, frame in enumerate(frames):
            assert np.array_equal(frame, buf.samples[i * 4 : i * 4 + 6])

    def test_too_short(self):
        with pytest.raises(TooShortError):
            window(AudioBuffer(np.zeros(10), 8000), 11, 1)

    def test_zero_window_size(self):
        with pytest.raises(ValueError, match="window_size must be >= 1, got 0"):
            audio.window_count(100, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 400),
        size=st.integers(1, 64),
        hop=st.integers(1, 64),
    )
    def test_count_formula(self, length, size, hop):
        buf = AudioBuffer(np.arange(length, dtype=np.float32), 8000)
        if length < size:
            with pytest.raises(TooShortError):
                window(buf, size, hop)
        else:
            frames = window(buf, size, hop)
            assert len(frames) == (length - size) // hop + 1
            last = (len(frames) - 1) * hop
            assert np.array_equal(frames[-1], buf.samples[last : last + size])


class TestTruncatePair:
    def test_keeps_head_of_longer(self):
        a = AudioBuffer(np.arange(10, dtype=np.float32), 8000)
        b = AudioBuffer(np.arange(6, dtype=np.float32) + 100, 8000)
        ta, tb = truncate_pair(a, b)
        assert np.array_equal(ta.samples, a.samples[:6])
        assert np.array_equal(tb.samples, b.samples)

    def test_rate_mismatch(self):
        with pytest.raises(RateMismatchError):
            truncate_pair(
                AudioBuffer(np.zeros(4), 8000), AudioBuffer(np.zeros(4), 44100)
            )
