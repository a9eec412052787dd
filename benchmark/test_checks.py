"""Each benchmark check accepts a right output and rejects a wrong one.

Run with: python3 -m pytest -q benchmark
"""

import json
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import checks
import inputs
from checks import CheckFailed
from spans import LAYER_METRICS, Recorder

HEADER = {"window_size": "8", "latent_dim": "2", "hidden_sizes": "4", "sample_rate": "100",
          "epochs": "3"}


def write_container(path, header: dict, tensors) -> None:
    text = "".join(f"{k}={v}\n" for k, v in header.items()).encode()
    body = b"RAVAE\x00\x01" + struct.pack("<I", len(text)) + text
    for t in tensors:
        t = np.ascontiguousarray(t, dtype="<f4")
        body += struct.pack("<I", t.ndim) + struct.pack(f"<{t.ndim}I", *t.shape) + t.tobytes()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def tiny_tensors(rng):
    params = [rng.standard_normal(s).astype(np.float32) * 0.5 for s in checks.checkpoint_shapes(HEADER)]
    return params * 3 + [np.ones((3, 2), dtype=np.float32)]


@pytest.fixture
def model(tmp_path):
    path = tmp_path / "tiny.ckpt"
    write_container(path, HEADER, tiny_tensors(np.random.default_rng(0)))
    return checks.ReferenceModel(path)


def test_forward_pass_follows_the_documented_layers(model):
    x = np.linspace(-1, 1, 8, dtype=np.float32)[None, :]
    w1, b1 = model.encoder[0]
    h = x @ w1 + b1
    h = np.where(h > 0, h, 0.01 * h)
    mu, logvar = model.encode(x)
    np.testing.assert_allclose(mu, h @ model.mu_head[0] + model.mu_head[1], rtol=1e-6)
    np.testing.assert_allclose(logvar, h @ model.logvar_head[0] + model.logvar_head[1], rtol=1e-6)
    out = model.decode(mu)
    assert out.shape == (1, 8) and np.all(np.abs(out) < 1)


def test_blend_check_rejects_reversed_weights(model):
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-0.5, 0.5, 64).astype(np.float32), rng.uniform(-0.5, 0.5, 72).astype(np.float32)
    weights = np.linspace(0, 1, 8)
    right = model.decode(
        (weights[:, None] * model.encode(checks.frames_of(a, 8, 8))[0].astype(np.float64)
         + (1 - weights[:, None]) * model.encode(checks.frames_of(b[:64], 8, 8))[0]).astype(np.float32))
    ref = checks.blend_decode(model, a, b, weights, 8)
    checks.check_close(right, ref, checks.SAMPLE_ATOL, "meso")
    wrong = checks.blend_decode(model, a, b, 1 - weights, 8)
    with pytest.raises(CheckFailed):
        checks.check_close(wrong, ref, checks.SAMPLE_ATOL, "meso")
    with pytest.raises(CheckFailed):
        checks.check_close(ref[:-1], ref, checks.SAMPLE_ATOL, "meso")


def test_crossfade_reference_against_a_plain_join():
    frames = np.random.default_rng(2).uniform(-0.5, 0.5, (5, 16))
    ones = checks.crossfade_expected(np.ones((5, 16)), 4)
    np.testing.assert_allclose(ones, 1.0)
    assert len(ones) == checks.joined_length(5, 16, 4)
    joined = checks.crossfade_expected(frames, 4)
    # the ramp weights the incoming frame by (j+1)/(k+1) over the k overlapped samples
    np.testing.assert_allclose(joined[12:16], frames[0, 12:] * (1 - np.arange(1, 5) / 5)
                               + frames[1, :4] * np.arange(1, 5) / 5)
    plain = np.concatenate([frames[0], frames[1, 4:], frames[2, 4:], frames[3, 4:], frames[4, 4:]])
    with pytest.raises(CheckFailed):
        checks.check_close(plain, joined, checks.SAMPLE_ATOL, "crossfade")


def test_audio_check_rejects_nan_clipping_and_empty():
    checks.check_audio(np.array([0.0, 0.99, -0.99], dtype=np.float32), "ok")
    for bad in ([0.0, np.nan], [0.0, 1.0], [-1.5], []):
        with pytest.raises(CheckFailed):
            checks.check_audio(np.array(bad, dtype=np.float32), "bad")


def test_length_laws():
    assert checks.window_count(441000, 1024, 256) == 1719
    assert checks.joined_length(1719, 1024, 64) == 1719 * 1024 - 1718 * 64
    assert checks.step_segments(1.0, 0.05) == 21
    assert checks.concat_length([(100, 22050), (200, 44100), (48, 48000)]) == 100 + 100 + 22
    checks.check_length(10, 10, "ok")
    with pytest.raises(CheckFailed):
        checks.check_length(1718 * 1024, checks.joined_length(1719, 1024), "extend")


def test_identity_check_rejects_one_flipped_byte():
    checks.check_identical(b"abc", b"abc", "ok")
    with pytest.raises(CheckFailed):
        checks.check_identical(b"abc", b"abd", "regen")


def test_latents_csv_check(model):
    frames = np.random.default_rng(3).uniform(-1, 1, (3, 8)).astype(np.float32)
    mu, logvar = model.encode(frames)

    def csv(mu, logvar):
        head = "idx,mu_0,mu_1,lv_0,lv_1\n"
        return head + "".join(",".join([str(i)] + [str(v) for v in (*m, *lv)]) + "\n"
                              for i, (m, lv) in enumerate(zip(mu, logvar)))

    checks.check_latents_csv(csv(mu, logvar), mu, logvar)
    with pytest.raises(CheckFailed):
        checks.check_latents_csv(csv(mu + 1e-3, logvar), mu, logvar)
    with pytest.raises(CheckFailed):
        checks.check_latents_csv(csv(mu[:2], logvar[:2]), mu, logvar)
    with pytest.raises(CheckFailed):
        checks.check_latents_csv(csv(logvar, mu), mu, logvar)


def test_checkpoint_check_rejects_missing_and_misshapen_tensors():
    tensors = tiny_tensors(np.random.default_rng(4))
    checks.check_checkpoint(HEADER, tensors)
    with pytest.raises(CheckFailed):
        checks.check_checkpoint(HEADER, tensors[:-2] + tensors[-1:])
    with pytest.raises(CheckFailed):
        checks.check_checkpoint(HEADER, [tensors[0].T] + tensors[1:])
    with pytest.raises(CheckFailed):
        checks.check_checkpoint(HEADER, tensors, epochs=2)


def test_container_reader_rejects_a_flipped_byte(tmp_path):
    path = tmp_path / "c.ckpt"
    write_container(path, HEADER, tiny_tensors(np.random.default_rng(5)))
    raw = bytearray(path.read_bytes())
    raw[40] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckFailed):
        checks.read_container(path)


def test_loss_log_check():
    checks.check_loss_log("1 0.5 2.0\n2 0.4 2.5\n", 2)
    for bad, epochs in (("1 0.5 2.0\n2 0.6 2.5\n", 2), ("1 0.5 2.0\n2 nan 2.5\n", 2),
                        ("1 0.5 2.0\n", 2), ("1 0.5 2.0\n3 0.4 2.5\n", 2)):
        with pytest.raises(CheckFailed):
            checks.check_loss_log(bad, epochs)


def test_cluster_checks():
    family = {"a.wav": 0, "b.wav": 0, "c.wav": 1}
    clusters = checks.parse_clusters("0,0: a.wav;b.wav\n2,1: c.wav\n")
    assert clusters == {(0, 0): ["a.wav", "b.wav"], (2, 1): ["c.wav"]}
    checks.check_clusters(clusters, family)
    for bad in ({(0, 0): ["a.wav", "b.wav"]},  # c.wav lost
                {(0, 0): ["a.wav", "b.wav"], (1, 0): ["c.wav", "a.wav"]},  # a.wav twice
                {(0, 0): ["a.wav", "c.wav"], (1, 0): ["b.wav"]}):  # families mixed
        with pytest.raises(CheckFailed):
            checks.check_clusters(bad, family)
    checks.check_qe([2.0, 1.0, 1.0])
    with pytest.raises(CheckFailed):
        checks.check_qe([1.0, 0.5, 1.5])


@pytest.mark.parametrize("encoding", ["pcm16", "float32", "extensible16"])
def test_wav_reader_round_trips_the_generator(tmp_path, encoding):
    x = np.sin(np.arange(101) / 5.0) * 0.5
    inputs.write_wav(tmp_path / "x.wav", x, 22050, encoding)
    samples, rate = checks.read_wav(tmp_path / "x.wav")
    assert rate == 22050 and len(samples) == 101
    np.testing.assert_allclose(samples, x, atol=1 / 32768 if encoding != "float32" else 1e-7)


def test_resample_law():
    x = np.arange(10, dtype=np.float32)
    y = checks.resample_linear(x, 48000, 44100)
    assert len(y) == round(10 * 44100 / 48000)
    np.testing.assert_allclose(y, np.arange(len(y)) * 48000 / 44100, rtol=1e-6)
    assert checks.resample_linear(x, 44100, 44100) is x


def test_train_corpus_has_a_partial_last_batch():
    assert inputs.train_window_count() % inputs.TRAIN_BATCH != 0


def test_self_time_subtracts_traced_children():
    rec = Recorder()
    rec.spans += [["cli.main", 0, 100, None, "0:a", 0], ["vae.train", 10, 90, 0, "0:a", 0],
                  ["vae.adam_step", 20, 30, 1, "0:a", 0], ["vae.adam_step", 40, 45, 1, "0:a", 0]]
    stats = rec.stats()
    assert stats["cli.main"]["self_ns"] == 20
    assert stats["vae.train"]["self_ns"] == 65
    assert stats["vae.adam_step"] == {"calls": 2, "ns": 15, "self_ns": 15, "work": 0}
    assert rec.top_level_ns("0:a") == 100
    metrics = rec.layer_metrics(rounds=1)
    assert metrics["vae.adam_step.calls"]["value"] == 2
    assert metrics["vae.train.self_ms"]["value"] == pytest.approx(65e-6)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, _, unit) in LAYER_METRICS.items()]
    assert {m["name"] for m in spec["end_to_end"]} == {"round_ms", "peak_rss_mb", "setup_s"}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
