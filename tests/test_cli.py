"""End-to-end command tests driven through cli.main().

Every command is exercised in-process so exit codes, stdout, sidecar
files, and artifact bytes can all be checked. A small 8 kHz corpus and a
deliberately tiny model keep the module fast.
"""

import argparse
import dataclasses
import inspect
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import zlib
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import write_corpus
from latentaudio import (
    AudioBuffer,
    CorruptFileError,
    SynthesisMode,
    encode_audio,
    export_latents,
    extended_interpolate,
    generate_curve,
    load_checkpoint,
    load_som,
    load_wav,
    meso_interpolate,
    model_from_checkpoint,
    resample,
    save_checkpoint,
    save_som,
    save_wav,
    stepwise_interpolate,
)
from latentaudio import audio, cli, container, interpolate, train_som
from latentaudio.cli import BenchReport, main, run_bench
from latentaudio.som import SOM_MAGIC, DurationBandWarning
from latentaudio.vae import CHECKPOINT_MAGIC

RATE = 8000
WINDOW = 64
EPOCHS = 3

TRAIN_FLAGS = [
    "--window-size", str(WINDOW),
    "--latent-dim", "8",
    "--hidden-sizes", "16",
    "--epochs", str(EPOCHS),
    "--batch-size", "16",
    "--sample-rate", str(RATE),
    "--hop", str(WINDOW),
    "--seed", "1",
]

FEATURE_FLAGS = [
    "--feat-rate", str(RATE),
    "--frame-size", "512",
    "--feat-hop", "256",
]

SOM_FLAGS = [
    *FEATURE_FLAGS,
    "--width", "2",
    "--height", "2",
    "--som-epochs", "30",
    "--seed", "1",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory, rate=RATE, n_files=4)
    return directory


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("model") / "model.ckpt"
    code = main(["train", "--dataset-dir", str(corpus), "--out", str(path), *TRAIN_FLAGS])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def som_map(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("som") / "map.som"
    code = main(["som", "build", "--dataset-dir", str(corpus), "--out", str(path), *SOM_FLAGS])
    assert code == 0
    return path


@pytest.fixture
def reads(monkeypatch):
    """The arguments of every extract_thumbnail and load_wav call the CLI makes."""
    calls = {"extract_thumbnail": [], "load_wav": []}
    for name, log in calls.items():
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _real=real, _log=log: _log.append(a) or _real(*a))
    return calls


def _synth(strategy, checkpoint, corpus, out, *extra):
    wavs = sorted(corpus.glob("*.wav"))
    return main([
        "synth", strategy,
        "--checkpoint", str(checkpoint),
        "--in1", str(wavs[0]),
        "--in2", str(wavs[1]),
        "--out", str(out),
        *extra,
    ])


class TestTrain:
    def test_writes_checkpoint_sidecar_and_loss_log(self, checkpoint):
        assert checkpoint.exists()
        sidecar = checkpoint.parent / (checkpoint.name + ".cfg")
        assert sidecar.read_text().splitlines()[0] == "command=train"
        loss_lines = (checkpoint.parent / (checkpoint.name + ".loss.txt")).read_text().splitlines()
        assert len(loss_lines) == EPOCHS
        first = loss_lines[0].split()
        assert first[0] == "1" and len(first) == 3

    def test_deterministic_across_runs(self, corpus, checkpoint, tmp_path):
        other = tmp_path / "again.ckpt"
        code = main(["train", "--dataset-dir", str(corpus), "--out", str(other), *TRAIN_FLAGS])
        assert code == 0
        assert other.read_bytes() == checkpoint.read_bytes()

    def test_regenerates_from_sidecar(self, corpus, checkpoint, tmp_path):
        sidecar = str(checkpoint) + ".cfg"
        out = tmp_path / "regen.ckpt"
        code = main(["train", "--config", sidecar, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_wav_suffix_matched_in_any_case(self, corpus, checkpoint, tmp_path):
        upper = tmp_path / "UPPER"
        upper.mkdir()
        for src, suffix in zip(sorted(corpus.glob("*.wav")), (".WAV", ".wav", ".Wav", ".WAV")):
            (upper / (src.stem + suffix)).write_bytes(src.read_bytes())
        out = tmp_path / "upper.ckpt"
        code = main(["train", "--dataset-dir", str(upper), "--out", str(out), *TRAIN_FLAGS])
        assert code == 0
        assert out.read_bytes() == checkpoint.read_bytes()  # same files, same order

    def test_missing_dataset_dir(self, tmp_path, capsys):
        code = main([
            "train", "--dataset-dir", str(tmp_path / "nowhere"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_sample_is_input_error_not_divergence(self, corpus, tmp_path, capsys):
        bad_dir = tmp_path / "bad"
        bad_dir.mkdir()
        for src in corpus.glob("*.wav"):
            (bad_dir / src.name).write_bytes(src.read_bytes())
        # save_wav refuses a NaN, so the sample's bytes are patched in place
        raw = bytearray((bad_dir / "tone0.wav").read_bytes())
        raw[44 + 4 * 100 : 44 + 4 * 101] = np.float32(np.nan).tobytes()
        (bad_dir / "tone0.wav").write_bytes(raw)
        code = main([
            "train", "--dataset-dir", str(bad_dir),
            "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS,
        ])
        assert code == 2
        assert "non-finite samples" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--alpha", "--learning-rate"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_hyperparameter_is_usage_error(self, corpus, tmp_path, capsys,
                                                      flag, value):
        # not exit 3: the loss never diverged, the input was bad
        out = tmp_path / "m.ckpt"
        code = main(["train", "--dataset-dir", str(corpus), "--out", str(out),
                     *TRAIN_FLAGS, flag, value])
        assert code == 2 and not out.exists()
        assert "must be finite" in capsys.readouterr().err

    def test_diverging_run_exits_3(self, corpus, tmp_path):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([
                "train", "--dataset-dir", str(corpus),
                "--out", str(tmp_path / "m.ckpt"),
                *TRAIN_FLAGS, "--learning-rate", "1e8",
            ])
        assert code == 3


class TestSynth:
    def test_step_duration(self, checkpoint, corpus, tmp_path):
        out = tmp_path / "step.wav"
        assert _synth("step", checkpoint, corpus, out, "--range", "1.0", "--step", "0.5") == 0
        buf = load_wav(out)
        n_windows = (RATE - WINDOW) // WINDOW + 1
        assert len(buf) == 3 * n_windows * WINDOW  # weights 0, 0.5, 1.0
        assert (tmp_path / "step.wav.cfg").exists()

    def test_meso_matches_library_call(self, checkpoint, corpus, tmp_path):
        out = tmp_path / "meso.wav"
        assert _synth("meso", checkpoint, corpus, out, "--curve", "const:1") == 0
        wavs = sorted(corpus.glob("*.wav"))
        model = model_from_checkpoint(load_checkpoint(checkpoint))
        a = resample(load_wav(wavs[0]), RATE)
        b = resample(load_wav(wavs[1]), RATE)
        count = (min(len(a), len(b)) - WINDOW) // WINDOW + 1
        expected = meso_interpolate(
            model, a, b, generate_curve("const:1", count), SynthesisMode.mean_only()
        )
        assert np.array_equal(load_wav(out).samples, expected.samples)

    def test_extend_stretches_duration(self, checkpoint, corpus, tmp_path):
        out = tmp_path / "ext.wav"
        assert _synth("extend", checkpoint, corpus, out, "--hop", "16") == 0
        buf = load_wav(out)
        ratio = len(buf) / RATE  # inputs are 1 s long
        assert 3.9 <= ratio <= 4.0

    def test_sampled_mode_reproducible(self, checkpoint, corpus, tmp_path):
        out1, out2 = tmp_path / "s1.wav", tmp_path / "s2.wav"
        for out in (out1, out2):
            code = _synth("step", checkpoint, corpus, out, "--mode", "sample", "--seed", "5")
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sampled_regenerates_from_sidecar(self, checkpoint, corpus, tmp_path):
        out1 = tmp_path / "first.wav"
        assert _synth("extend", checkpoint, corpus, out1,
                      "--mode", "sample", "--seed", "9", "--hop", "32") == 0
        out2 = tmp_path / "second.wav"
        code = main(["synth", "extend", "--config", str(out1) + ".cfg", "--out", str(out2)])
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command, hop", [
        pytest.param("synth extend", "0", id="0"),
        pytest.param("synth extend", "-5", id="-5"),
        # an explicit 0 is a value, not "unset": it must not fall back to the window size
        pytest.param("export-latents", "0", id="export-latents-0"),
        pytest.param("export-latents", "-1", id="export-latents--1"),
    ])
    def test_non_positive_hop_is_usage_error(
        self, checkpoint, corpus, tmp_path, capsys, command, hop
    ):
        out = tmp_path / "x.out"
        if command == "synth extend":
            code = _synth("extend", checkpoint, corpus, out, "--hop", hop)
        else:
            code = main(["export-latents", "--checkpoint", str(checkpoint),
                         "--input", str(sorted(corpus.glob("*.wav"))[0]),
                         "--out", str(out), "--hop", hop])
        assert code == 2
        assert f"hop must be >= 1, got {hop}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.out.cfg").exists()

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--range", "inf"], "range must be >= 0", id="range-inf"),
        pytest.param(["--range", "nan"], "range must be >= 0", id="range-nan"),
        pytest.param(["--step", "nan"], "step must be finite", id="step-nan"),
        pytest.param(["--range", "1e15", "--step", "1e-3"], "one float32 WAV holds",
                     id="longer-than-a-wav"),
    ])
    def test_bad_sweep_size_is_usage_error(
        self, checkpoint, corpus, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "x.wav"
        assert _synth("step", checkpoint, corpus, out, *flags) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "x.wav.cfg").exists()

    @pytest.mark.parametrize("sweep", [["--step", "1e-300"], ["--range", "1e307", "--step", "0.1"]])
    def test_overlong_step_output_is_one_short_line(self, checkpoint, corpus, tmp_path, capsys,
                                                    sweep):
        out = tmp_path / "o.wav"
        assert _synth("step", checkpoint, corpus, out, *sweep) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "more than one float32 WAV holds" in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err) < 200

    def test_mean_synthesis_creates_no_generator(self, checkpoint, corpus, tmp_path, monkeypatch):
        # only sampled mode draws eps; on NumPy 2 a process that never asks for a
        # generator also never loads numpy.random, about 5 MB of peak RSS
        def no_generator(*args):
            raise RuntimeError("a generator was created")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        assert _synth("step", checkpoint, corpus, tmp_path / "s.wav", "--step", "0.25") == 0
        assert _synth("extend", checkpoint, corpus, tmp_path / "e.wav", "--hop", "32") == 0
        with pytest.raises(RuntimeError, match="a generator was created"):
            _synth("step", checkpoint, corpus, tmp_path / "x.wav", "--mode", "sample", "--seed", "1")

    def test_bad_mode_rejected(self, checkpoint, corpus, tmp_path, capsys):
        code = _synth("step", checkpoint, corpus, tmp_path / "x.wav", "--mode", "zig")
        assert code == 2
        assert "mode" in capsys.readouterr().err

    def test_non_finite_curve_is_usage_error(self, checkpoint, corpus, tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert _synth("meso", checkpoint, corpus, out, "--curve", "bp:nan=1") == 2
        err = capsys.readouterr().err
        assert "'nan=1' is not a finite number" in err and "Warning" not in err
        assert not out.exists() and not (tmp_path / "x.wav.cfg").exists()

    @pytest.mark.parametrize("curve, message", [
        ("lin:0", "curve 'lin:0': item '' is not a finite number"),
        ("const:", "curve 'const:': item '' is not a finite number"),
        ("bp:a", "curve 'bp:a': item 'a' is not a finite number"),
        ("bp:0=1,0=0,4=1", "curve 'bp:0=1,0=0,4=1': breakpoint index 0 is given twice"),
        ("sine:p=4,p=8", "curve 'sine:p=4,p=8': sine parameter 'p' is given twice"),
    ])
    def test_malformed_curve_is_usage_error_naming_the_spec(
        self, checkpoint, corpus, tmp_path, capsys, curve, message
    ):
        out = tmp_path / "x.wav"
        assert _synth("meso", checkpoint, corpus, out, "--curve", curve) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists() and not (tmp_path / "x.wav.cfg").exists()

    @pytest.mark.parametrize("strategy, flag, value", [
        ("meso", "--hop", "3"), ("meso", "--range", "2"), ("step", "--curve", "x"),
        ("step", "--hop", "3"), ("extend", "--range", "2"), ("extend", "--step", "0.1"),
    ])
    def test_option_of_another_strategy_is_usage_error(
        self, checkpoint, corpus, tmp_path, capsys, strategy, flag, value
    ):
        out = tmp_path / "x.wav"
        assert _synth(strategy, checkpoint, corpus, out, flag, value) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "x.wav.cfg").exists()

    @pytest.mark.parametrize("strategy, own", [
        ("step", {"range", "step"}), ("meso", {"curve"}), ("extend", {"curve", "hop"}),
    ])
    def test_sidecar_holds_only_what_the_strategy_reads(
        self, checkpoint, corpus, tmp_path, strategy, own
    ):
        out = tmp_path / "o.wav"
        assert _synth(strategy, checkpoint, corpus, out) == 0
        lines = (tmp_path / "o.wav.cfg").read_text().splitlines()
        common = {"command", "checkpoint", "in1", "in2", "out", "mode",  # mean mode: no seed
                  "crossfade", "normalize", "recipe"}
        assert {line.partition("=")[0] for line in lines} == common | own

    def test_mean_mode_accepts_seed_and_records_none(self, checkpoint, corpus, tmp_path):
        out = tmp_path / "o.wav"
        assert _synth("meso", checkpoint, corpus, out, "--seed", "5") == 0
        lines = (tmp_path / "o.wav.cfg").read_text().splitlines()
        assert "mode=mean" in lines
        assert not [line for line in lines if line.startswith("seed=")]

    @pytest.mark.parametrize("strategy", ["step", "meso", "extend"])
    def test_mean_sidecar_with_seed_regenerates(self, checkpoint, corpus, tmp_path, strategy):
        # sidecars written before mean mode dropped its seed hold seed=0 after mode
        first = tmp_path / "first.wav"
        assert _synth(strategy, checkpoint, corpus, first) == 0
        lines = (tmp_path / "first.wav.cfg").read_text().splitlines()
        at = lines.index("mode=mean") + 1
        legacy = tmp_path / "legacy.cfg"
        legacy.write_text("\n".join(lines[:at] + ["seed=0"] + lines[at:]) + "\n")
        second = tmp_path / "second.wav"
        assert main(["synth", strategy, "--config", str(legacy), "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("strategy, flags", [
        ("step", ["--range", "0.5", "--step", "0.25"]),
        ("meso", ["--curve", "sine:p=5"]),
        ("extend", ["--curve", "lin:1:0", "--hop", "32"]),
    ])
    def test_pre_split_sidecar_regenerates(self, checkpoint, corpus, tmp_path, strategy, flags):
        # every synth sidecar held these 12 keys, in this order, while all
        # three strategies took every option
        pre_split = ("checkpoint", "in1", "in2", "out", "mode", "seed", "range", "step",
                     "curve", "hop", "crossfade", "normalize")
        first = tmp_path / "first.wav"
        # such sidecars predate the recipe key, so they regenerate through recipe 1
        assert _synth(strategy, checkpoint, corpus, first,
                      "--mode", "sample", "--seed", "4", "--recipe", "1", *flags) == 0
        written = (tmp_path / "first.wav.cfg").read_text().splitlines()
        # the other strategies' keys at values that would change the artifact if read
        values = {"range": "2.0", "step": "0.5", "curve": "const:1", "hop": "16",
                  **dict(line.split("=", 1) for line in written)}
        legacy = tmp_path / "legacy.cfg"
        legacy.write_text("\n".join([f"command=synth {strategy}"] +
                                    [f"{key}={values[key]}" for key in pre_split]) + "\n")
        second = tmp_path / "second.wav"
        assert main(["synth", strategy, "--config", str(legacy), "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()


class TestStreamedSynthesis:
    """synth writes each block of the join as it is decoded, not a whole buffer."""

    FLAGS = {"step": ["--step", "0.25"], "meso": ["--curve", "sine:p=7"],
             "extend": ["--curve", "lin:1:0", "--hop", "24"]}

    @pytest.mark.parametrize("crossfade", [0, 1, WINDOW // 2 + 1, WINDOW - 1])
    @pytest.mark.parametrize("mode", ["mean", "sample"])
    @pytest.mark.parametrize("strategy", ["step", "meso", "extend"])
    def test_wav_is_save_wav_of_the_library_result(
        self, checkpoint, corpus, tmp_path, monkeypatch, strategy, mode, crossfade
    ):
        # blocks of 2 to 4 windows: the unfinished tail crosses every block boundary
        monkeypatch.setattr(interpolate, "_BLOCK", 4)
        flags = self.FLAGS[strategy]
        out = tmp_path / "cli.wav"
        assert _synth(strategy, checkpoint, corpus, out, "--mode", mode, "--seed", "3",
                      "--crossfade", str(crossfade), *flags) == 0
        model = model_from_checkpoint(load_checkpoint(checkpoint))
        a, b = (resample(load_wav(w), RATE) for w in sorted(corpus.glob("*.wav"))[:2])
        synthesis = SynthesisMode.sampled(3) if mode == "sample" else SynthesisMode.mean_only()
        if strategy == "step":
            buf = stepwise_interpolate(model, a, b, 1.0, 0.25, synthesis, crossfade)
        else:
            hop = 24 if strategy == "extend" else WINDOW
            curve = generate_curve(flags[1], (min(len(a), len(b)) - WINDOW) // hop + 1)
            if strategy == "extend":
                buf = extended_interpolate(model, a, b, curve, synthesis, hop, crossfade)
            else:
                buf = meso_interpolate(model, a, b, curve, synthesis, crossfade)
        save_wav(buf, tmp_path / "library.wav")
        assert out.read_bytes() == (tmp_path / "library.wav").read_bytes()

    def test_traced_peak_stays_far_below_the_output(self, checkpoint, tmp_path):
        # two 4 s inputs swept in 101 segments: 3.2 M samples, 12.9 MB of float32
        a, b = write_corpus(tmp_path / "in", rate=RATE, n_files=2, seconds=4.0)
        out = tmp_path / "long.wav"
        argv = ["synth", "step", "--checkpoint", str(checkpoint), "--in1", str(a),
                "--in2", str(b), "--out", str(out), "--step", "0.01"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output_bytes = out.stat().st_size - 44  # the float32 data after the header
        assert output_bytes > 12_000_000
        assert peak < output_bytes / 8, (peak, output_bytes)

    @pytest.mark.parametrize("earlier", [None, b"an earlier render"])
    def test_a_block_that_fails_leaves_no_trace(
        self, checkpoint, corpus, tmp_path, monkeypatch, capsys, earlier
    ):
        out = tmp_path / "o.wav"
        if earlier is not None:
            out.write_bytes(earlier)
        real, listings = interpolate.decode_frames, []

        def fail_on_second_block(model, z):
            listings.append(sorted(p.name for p in tmp_path.iterdir()))
            if len(listings) == 2:
                raise ValueError("decoder failed")
            return real(model, z)

        # one worker decodes the blocks one at a time, on this thread
        monkeypatch.setattr(interpolate, "_workers", lambda: 1)
        monkeypatch.setattr(interpolate, "decode_frames", fail_on_second_block)
        # 5 segments of 125 windows make 3 blocks; the first went to the temp file
        assert _synth("step", checkpoint, corpus, out) == 2
        assert "decoder failed" in capsys.readouterr().err
        assert len(listings) == 2
        assert [name for name in listings[1] if name.startswith(".o.wav.")]
        if earlier is None:
            assert not list(tmp_path.iterdir())
        else:
            assert [p.name for p in tmp_path.iterdir()] == ["o.wav"]
            assert out.read_bytes() == earlier


class TestAbortedRender:
    """A render that fails part way, while the worker pool still holds its
    blocks, exits 2 with its one error line and leaves no file behind; no
    encode or decode runs once main has returned."""

    @pytest.fixture(params=[1, 2, 3])
    def spy(self, request, monkeypatch):
        monkeypatch.setattr(interpolate, "_workers", lambda: request.param)
        monkeypatch.setattr(interpolate, "_BLOCK", 128)  # the same blocks on any pool
        state = {"lock": threading.Lock(), "running": 0, "late": [], "returned": False,
                 "decodes": 0, "workers": request.param}

        def spied(name, fn):
            def call(model, rows, *args):
                with state["lock"]:
                    if state["returned"]:
                        state["late"].append(name)
                    state["running"] += 1
                try:
                    time.sleep(0.002)  # the pool holds blocks when the render fails
                    return fn(model, rows, *args)
                finally:
                    with state["lock"]:
                        state["running"] -= 1
            return call

        for name in ("encode_frames", "decode_frames"):
            monkeypatch.setattr(interpolate, name, spied(name, getattr(interpolate, name)))
        return state

    @staticmethod
    def _main(spy, argv):
        code = main(argv)
        with spy["lock"]:
            spy["returned"] = True
            running = spy["running"]
        # every task queued before now has left the pool once these have run
        assert list(interpolate._ahead(lambda x: x, range(spy["workers"]))) == [
            *range(spy["workers"])]
        time.sleep(0.02)
        assert (running, spy["late"]) == (0, [])
        return code

    def test_decode_failure(self, checkpoint, corpus, tmp_path, monkeypatch, capsys, spy):
        decode = interpolate.decode_frames

        def fail_on_third_call(model, z):
            with spy["lock"]:
                spy["decodes"] += 1
                third = spy["decodes"] == 3
            if third:
                raise ValueError("decoder failed")
            return decode(model, z)

        monkeypatch.setattr(interpolate, "decode_frames", fail_on_third_call)
        wavs = sorted(corpus.glob("*.wav"))
        out = tmp_path / "out" / "x.wav"
        out.parent.mkdir()
        # 497 windows at hop 16: 4 encode blocks of each input, 4 decode blocks
        argv = ["synth", "extend", "--checkpoint", str(checkpoint), "--in1", str(wavs[0]),
                "--in2", str(wavs[1]), "--out", str(out), "--curve", "lin:0:1", "--hop", "16",
                "--mode", "sample"]
        assert self._main(spy, argv) == 2
        assert capsys.readouterr().err == "error: decoder failed\n"
        assert spy["decodes"] >= 3 and not list(out.parent.iterdir())

    def test_loud_input_part_way(self, checkpoint, corpus, tmp_path, capsys, spy):
        wavs = sorted(corpus.glob("*.wav"))
        quiet = load_wav(wavs[1])
        loud = quiet.samples.copy()
        loud[300 * 16 + 3] = 1e37  # in windows 297-300 at hop 16: the third decode block
        save_wav(AudioBuffer(loud, RATE), tmp_path / "loud.wav")
        out = tmp_path / "out" / "x.wav"
        out.parent.mkdir()
        argv = ["synth", "extend", "--checkpoint", str(checkpoint), "--in1", str(wavs[0]),
                "--in2", str(tmp_path / "loud.wav"), "--out", str(out), "--curve", "lin:0:1",
                "--hop", "16", "--mode", "sample"]
        assert self._main(spy, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {(tmp_path / 'loud.wav').resolve()}: window 297 encodes "
                              "to a non-finite sigma in sample mode")
        assert len(err.splitlines()) == 1 and not list(out.parent.iterdir())


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["train", "synth", "som build", "bench"])
    def test_rejected_naming_seed(self, checkpoint, corpus, tmp_path, capsys, command):
        out = tmp_path / "x.out"
        argv = {
            "train": ["train", "--dataset-dir", str(corpus), "--out", str(out), *TRAIN_FLAGS],
            "synth": ["synth", "step", "--checkpoint", str(checkpoint),
                      "--in1", str(corpus / "tone0.wav"), "--in2", str(corpus / "tone1.wav"),
                      "--out", str(out), "--mode", "sample"],
            "som build": ["som", "build", "--dataset-dir", str(corpus), "--out", str(out),
                          *SOM_FLAGS],
            "bench": ["bench", "--checkpoint", str(checkpoint), "--seconds", "0.1"],
        }[command]
        assert main([*argv, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "got -1" in err
        assert not out.exists() and not (tmp_path / "x.out.cfg").exists()


# option -> (kind, default, required, help) for train and som build; most are
# generated from VaeHyperParams and FeatureConfig, and none may change unnoticed
TRAIN_OPTIONS = {
    "dataset_dir": ("path", None, True, "directory of training WAVs"),
    "out": ("path", None, True, "checkpoint output path"),
    "window_size": ("int", 1024, False, ""),
    "latent_dim": ("int", 256, False, ""),
    "hidden_sizes": ("ints", (512,), False, "comma-separated hidden widths"),
    "alpha": ("float", 1e-4, False, "KL weight"),
    "learning_rate": ("float", 1e-4, False, ""),
    "epochs": ("int", 500, False, ""),
    "batch_size": ("int", 128, False, ""),
    "sample_rate": ("int", 44100, False, ""),
    "hop": ("int", 256, False, "training window hop"),
    "seed": ("int", 0, False, ""),
}
SOM_BUILD_OPTIONS = {
    "dataset_dir": ("path", None, True, ""),
    "out": ("path", None, True, "map output path"),
    "width": ("int", None, False, "grid width (default: sized from corpus)"),
    "height": ("int", None, False, "grid height (default: sized from corpus)"),
    "som_epochs": ("int", 100, False, ""),
    "som_lr": ("float", 0.5, False, ""),
    "som_radius": ("float", None, False, "initial radius (default: half the longer side)"),
    "seed": ("int", 0, False, ""),
    "feat_rate": ("int", 44100, False, "analysis sample rate"),
    "frame_size": ("int", 2048, False, ""),
    "feat_hop": ("int", 1024, False, ""),
    "n_mfcc": ("int", 13, False, ""),
    "n_mels": ("int", 26, False, ""),
    "centroid": ("bool", True, False, "include spectral centroid"),
    "rms": ("bool", True, False, "include RMS energy"),
}


class TestRecordOptions:
    """train's and som build's options are generated from the records they fill."""

    def test_train_options_are_pinned(self):
        assert {f.name: (f.ftype, f.default, f.required, f.help)
                for f in cli.TRAIN_FIELDS} == TRAIN_OPTIONS

    def test_som_build_options_are_pinned(self):
        # som build leaves every map setting unset; train_som's defaults fill them in
        signature = inspect.signature(train_som).parameters
        effective = {key: signature[arg].default for arg, key in cli._MAP_KEYS.items()}
        assert all(f.default is None for f in cli.SOM_BUILD_FIELDS if f.name in effective)
        assert {f.name: (f.ftype, effective.get(f.name, f.default), f.required, f.help)
                for f in cli.SOM_BUILD_FIELDS} == SOM_BUILD_OPTIONS

    @pytest.mark.parametrize("command, options", [
        (["train"], TRAIN_OPTIONS), (["som", "build"], SOM_BUILD_OPTIONS),
    ])
    def test_parser_flags(self, command, options):
        parser = cli.build_parser()
        for word in command:
            parser = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices[word]
        flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
        assert set(flags) == set(options)
        for name, (kind, _, _, text) in options.items():
            assert flags[name].default is None and flags[name].help == text
            if kind != "bool":
                assert flags[name].metavar == kind.upper()


class TestConfigHandling:
    def test_unknown_key_rejected(self, checkpoint, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("command=train\nturbo=1\n")
        code = main(["train", "--config", str(bad),
                     "--dataset-dir", str(corpus), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "turbo" in capsys.readouterr().err

    def test_command_mismatch_rejected(self, checkpoint, tmp_path, capsys):
        code = main(["synth", "step", "--config", str(checkpoint) + ".cfg",
                     "--out", str(tmp_path / "x.wav")])
        assert code == 2
        assert "train" in capsys.readouterr().err

    def test_malformed_flag_value(self, corpus, tmp_path, capsys):
        code = main(["train", "--dataset-dir", str(corpus),
                     "--out", str(tmp_path / "m.ckpt"), "--epochs", "three"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--epochs", "abc"), ("--hidden-sizes", "1,x")])
    def test_unparsable_flag_value_names_its_flag(self, corpus, tmp_path, capsys, flag, value):
        code = main(["train", "--dataset-dir", str(corpus),
                     "--out", str(tmp_path / "m.ckpt"), flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and repr(value.split(",")[-1]) in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, line", [("train", "epochs=abc"),
                                               ("synth step", "normalize=yes"),
                                               ("synth step", "mode=median")])
    def test_unparsable_config_value_names_file_line_and_key(self, tmp_path, capsys,
                                                             command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"command={command}\n# a comment\n{line}\n")
        assert main([*command.split(), "--config", str(cfg)]) == 2
        key, _, value = line.partition("=")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: {key}: ") and repr(value) in err

    def test_missing_required_flag(self, corpus, capsys):
        code = main(["train", "--dataset-dir", str(corpus)])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_line_without_equals_rejected(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("command=train\nepochs 3\n")
        code = main(["train", "--config", str(bad),
                     "--dataset-dir", str(corpus), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"{bad}:2: expected key=value" in capsys.readouterr().err

    def test_key_set_twice_names_it_and_both_lines(self, checkpoint, corpus, tmp_path, capsys):
        out = tmp_path / "x.wav"
        assert _synth("meso", checkpoint, corpus, out) == 0
        lines = (tmp_path / "x.wav.cfg").read_text().splitlines()
        first = 1 + next(i for i, line in enumerate(lines) if line.startswith("curve="))
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("\n".join([*lines, "curve=const:1"]) + "\n")
        out.unlink()
        assert main(["synth", "meso", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:{len(lines) + 1}: key 'curve' is set again (first on line {first})" in err
        assert not out.exists()

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"map=\xff\n")
        assert main(["som", "clusters", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and "0xff" in err

    def test_dataset_without_wavs_rejected(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no audio here\n")
        code = main(["train", "--dataset-dir", str(tmp_path), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "no .wav files" in capsys.readouterr().err

    def test_comments_and_blanks_ignored(self, corpus, checkpoint, tmp_path):
        cfg = tmp_path / "ok.cfg"
        text = open(str(checkpoint) + ".cfg").read()
        cfg.write_text("# comment\n\n" + text)
        out = tmp_path / "m.ckpt"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


def _contract_argv(case, checkpoint, corpus, som_map, out):
    """The argv of one run of a command; every case but bare som clusters and
    bench names out."""
    wavs = [str(corpus / "tone0.wav"), str(corpus / "tone1.wav")]
    pair = ["--checkpoint", str(checkpoint), "--in1", wavs[0], "--in2", wavs[1], "--out", str(out)]
    on_map = ["--map", str(som_map), "--dataset-dir", str(corpus)]
    if case == "som concat":
        unit = cli._map_clusters({"map": str(som_map), "dataset_dir": str(corpus)})[0].unit
        on_map += ["--unit", f"{unit[0]},{unit[1]}"]
    return {
        "train": ["train", "--dataset-dir", str(corpus), "--out", str(out), *TRAIN_FLAGS],
        "synth step": ["synth", "step", *pair, "--mode", "sample", "--seed", "3"],
        "synth meso": ["synth", "meso", *pair],
        "synth extend": ["synth", "extend", *pair, "--hop", "16"],
        "som build": ["som", "build", "--dataset-dir", str(corpus), "--out", str(out), *SOM_FLAGS],
        "som clusters": ["som", "clusters", *on_map],
        "som clusters --out": ["som", "clusters", *on_map, "--out", str(out)],
        "som concat": ["som", "concat", *on_map, "--out", str(out)],
        "bench": ["bench", "--checkpoint", str(checkpoint), "--seconds", "0.1"],
        "export-latents": ["export-latents", "--checkpoint", str(checkpoint),
                           "--input", wavs[0], "--out", str(out)],
    }[case]


CONTRACT_CASES = ["train", "synth step", "synth meso", "synth extend", "som build",
                  "som clusters", "som clusters --out", "som concat", "bench", "export-latents"]


class TestCommandContract:
    """A command returns its report and prints nothing; main writes <out>.cfg
    exactly when the resolved config sets out, then prints the report."""

    def test_cases_cover_every_command(self):
        assert set(cli.COMMANDS) == {case.removesuffix(" --out") for case in CONTRACT_CASES}

    @pytest.mark.filterwarnings("ignore")  # 4 x 1 s corpus sits below the duration band
    @pytest.mark.parametrize("case", CONTRACT_CASES)
    def test_report_and_sidecar(self, case, checkpoint, corpus, som_map, tmp_path, capsys,
                                monkeypatch):
        # bench times real decodes; a fixed report makes its text comparable
        monkeypatch.setattr(cli, "run_bench", lambda *args: BenchReport(2, 30, 1.25, 2.5))
        out = tmp_path / "artifact"
        sidecar = tmp_path / "artifact.cfg"
        argv = _contract_argv(case, checkpoint, corpus, som_map, out)
        args = cli._parser().parse_args(argv)
        report = args.handler(cli._resolve(args))
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "")
        assert isinstance(report, str) and not sidecar.exists()

        assert main(argv) == 0
        assert capsys.readouterr().out == report + "\n"
        assert sidecar.exists() == (str(out) in argv)
        if sidecar.exists():
            assert sidecar.read_text().splitlines()[0] == f"command={case.removesuffix(' --out')}"


class TestBadOut:
    """An --out that is a directory, or whose parent is not an existing directory,
    is refused before the command runs: exit 2 naming the path, nothing written."""

    @staticmethod
    def _files(*directories):
        return {p: p.read_bytes() if p.is_file() else None
                for d in directories for p in sorted(d.rglob("*"))}

    @pytest.mark.parametrize("kind", ["missing-parent", "directory"])
    @pytest.mark.parametrize("case", ["train", "som build", "synth meso", "export-latents",
                                      "som clusters --out"])
    def test_refused_before_anything_is_written(self, case, kind, checkpoint, corpus, som_map,
                                                tmp_path, capsys):
        out = tmp_path / "missing" / "artifact" if kind == "missing-parent" else tmp_path / "dir"
        if kind == "directory":
            out.mkdir()
        watched = (tmp_path, corpus, checkpoint.parent, som_map.parent)
        before = self._files(*watched)
        assert main(_contract_argv(case, checkpoint, corpus, som_map, out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out.resolve()) in captured.err
        assert ("is a directory" if kind == "directory" else "not an existing directory") \
            in captured.err
        assert self._files(*watched) == before

    @pytest.mark.parametrize("case, beside", [
        *((case, ".cfg") for case in CONTRACT_CASES if case not in ("som clusters", "bench")),
        ("train", ".loss.txt"),
    ])
    def test_a_directory_where_a_file_beside_out_goes_is_refused(
            self, case, beside, checkpoint, corpus, som_map, tmp_path, capsys):
        # main writes <out>.cfg after every command with an out, train <out>.loss.txt
        out = tmp_path / "artifact"
        blocked = tmp_path / ("artifact" + beside)
        blocked.mkdir()
        watched = (tmp_path, corpus, checkpoint.parent, som_map.parent)
        before = self._files(*watched)
        assert main(_contract_argv(case, checkpoint, corpus, som_map, out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{blocked.resolve()} is a directory" in captured.err
        assert self._files(*watched) == before

    @pytest.mark.filterwarnings("ignore")  # 4 x 1 s corpus sits below the duration band
    @pytest.mark.parametrize("case, flag", [
        ("synth step", "--in1"), ("synth meso", "--in2"), ("synth extend", "--checkpoint"),
        ("export-latents", "--input"), ("export-latents", "--checkpoint"),
        ("som clusters --out", "--map"), ("som concat", "--map"), ("synth meso", "--config"),
    ])
    def test_an_out_that_names_an_input_is_refused(self, case, flag, checkpoint, corpus,
                                                   som_map, tmp_path, capsys):
        # copies, so that a command that wrote over its input would spoil no other test
        inputs = tmp_path / "inputs"
        shutil.copytree(corpus, inputs / "corpus")
        shutil.copy(checkpoint, inputs / "model.ckpt")
        shutil.copy(som_map, inputs / "map.som")
        argv = _contract_argv(case, inputs / "model.ckpt", inputs / "corpus",
                              inputs / "map.som", tmp_path / "artifact")
        if flag == "--config":
            (inputs / "run.cfg").write_text(f"command={case}\n")
            argv += ["--config", str(inputs / "run.cfg")]
        target = argv[argv.index(flag) + 1]
        argv[argv.index("--out") + 1] = target
        before = self._files(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--out and {flag} both name {target}" in captured.err
        assert self._files(tmp_path) == before  # the input as it was, and no sidecar

    def test_only_train_writes_a_loss_log(self, checkpoint, corpus, som_map, tmp_path):
        out = tmp_path / "artifact"
        (tmp_path / "artifact.loss.txt").mkdir()
        assert main(_contract_argv("synth meso", checkpoint, corpus, som_map, out)) == 0
        assert out.is_file() and (tmp_path / "artifact.cfg").is_file()

    def test_train_is_not_reached(self, corpus, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("train ran")

        monkeypatch.setattr(cli, "train", never)
        for out in (tmp_path / "missing" / "m.ckpt", tmp_path):
            argv = ["train", "--dataset-dir", str(corpus), "--out", str(out), *TRAIN_FLAGS]
            assert main(argv) == 2
            assert str(out.resolve()) in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


def test_closed_stdout_exits_1_without_an_error_line(som_map, corpus):
    """A reader that has gone (| head, | true) is no input error."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so before it prints its report
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "latentaudio.cli", "som", "clusters",
             "--map", str(som_map), "--dataset-dir", str(corpus)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert "error:" not in done.stderr and "Exception ignored" not in done.stderr


class TestSomCommands:
    def test_build_writes_map_and_resolved_sidecar(self, som_map):
        assert som_map.exists()
        som = load_som(som_map)
        assert (som.width, som.height) == (2, 2)
        sidecar = dict(
            line.split("=", 1)
            for line in (som_map.parent / (som_map.name + ".cfg")).read_text().splitlines()
        )
        assert sidecar["command"] == "som build"
        assert sidecar["width"] == "2"
        assert float(sidecar["som_radius"]) == 1.0

    @pytest.mark.parametrize("side", ["--width", "--height"])
    def test_zero_grid_side_is_usage_error(self, corpus, tmp_path, capsys, side):
        # an explicit 0 is a value, not "unset": it must not fall back to the corpus size
        out = tmp_path / "zero.som"
        code = main(["som", "build", "--dataset-dir", str(corpus), "--out", str(out),
                     side, "0"])
        assert code == 2
        assert "grid sides must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--som-lr", "--som-radius"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_is_usage_error(self, corpus, tmp_path, capsys, flag, value):
        # a NaN rate or radius would turn every prototype into NaN
        out = tmp_path / "bad.som"
        code = main(["som", "build", "--dataset-dir", str(corpus), "--out", str(out),
                     *SOM_FLAGS, flag, value])
        assert code == 2 and not out.exists()
        assert "must be finite" in capsys.readouterr().err

    def test_sidecar_records_every_map_setting_defaults_included(self, corpus, tmp_path):
        out = tmp_path / "default.som"
        argv = ["som", "build", "--dataset-dir", str(corpus), "--out", str(out), *FEATURE_FLAGS]
        assert main(argv) == 0
        sidecar = dict(line.split("=", 1)
                       for line in (tmp_path / "default.som.cfg").read_text().splitlines())
        # four files give a 3x3 grid; train_som's defaults fill the rest
        assert {key: sidecar[key] for key in cli._MAP_KEYS.values()} == {
            "width": "3", "height": "3", "som_epochs": "100", "som_lr": "0.5",
            "som_radius": "1.5", "seed": "0"}
        again = tmp_path / "again.som"
        assert main(["som", "build", "--config", str(out) + ".cfg", "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be >= 0"),
        ("--som-lr", "0", "lr0 must be finite and > 0"),
        ("--som-epochs", "0", "epochs must be >= 1"),
        ("--width", "0", "grid sides must be >= 1"),
        ("--som-radius", "nan", "radius0 must be finite and > 0"),
    ])
    def test_bad_map_setting_fails_before_any_extraction(
        self, corpus, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        calls = []
        extract = cli.extract_thumbnail
        monkeypatch.setattr(cli, "extract_thumbnail",
                            lambda *args: calls.append(args) or extract(*args))
        out = tmp_path / "bad.som"
        code = main(["som", "build", "--dataset-dir", str(corpus), "--out", str(out),
                     *FEATURE_FLAGS, flag, value])
        assert code == 2
        assert message in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_build_deterministic(self, corpus, som_map, tmp_path):
        other = tmp_path / "again.som"
        code = main(["som", "build", "--dataset-dir", str(corpus),
                     "--out", str(other), *SOM_FLAGS])
        assert code == 0
        assert other.read_bytes() == som_map.read_bytes()

    def test_clusters_listing_partitions_corpus(self, som_map, corpus, capsys):
        code = main(["som", "clusters", "--map", str(som_map), "--dataset-dir", str(corpus)])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        members = []
        for line in lines:
            unit, _, refs = line.partition(": ")
            x, y = unit.split(",")
            assert 0 <= int(x) < 2 and 0 <= int(y) < 2
            members.extend(refs.split(";"))
        assert sorted(members) == sorted(p.name for p in corpus.glob("*.wav"))

    def test_clusters_file_output(self, som_map, corpus, tmp_path):
        out = tmp_path / "clusters.txt"
        code = main(["som", "clusters", "--map", str(som_map),
                     "--dataset-dir", str(corpus), "--out", str(out)])
        assert code == 0
        assert out.read_text().strip()
        assert (tmp_path / "clusters.txt.cfg").exists()

    def test_concat_unit_audio(self, som_map, corpus, tmp_path, capsys):
        code = main(["som", "clusters", "--map", str(som_map), "--dataset-dir", str(corpus)])
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        unit, _, refs = first.partition(": ")
        names = refs.split(";")
        out = tmp_path / "cluster.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 4 x 1 s corpus sits below the duration band
            code = main(["som", "concat", "--map", str(som_map),
                         "--dataset-dir", str(corpus), "--unit", unit, "--out", str(out)])
        assert code == 0
        joined = load_wav(out)
        total = sum(len(load_wav(corpus / n)) for n in names)
        assert len(joined) == total

    def test_concat_warning_is_one_line(self, som_map, corpus, tmp_path, capsys):
        main(["som", "clusters", "--map", str(som_map), "--dataset-dir", str(corpus)])
        unit = capsys.readouterr().out.split(":", 1)[0]
        argv = ["som", "concat", "--map", str(som_map), "--dataset-dir", str(corpus),
                "--unit", unit, "--out", str(tmp_path / "j.wav")]
        with warnings.catch_warnings():
            warnings.simplefilter("always", DurationBandWarning)
            assert main(argv) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"warning: cluster audio is \d+\.\d\d s, outside the 10-30 s "
                            r"band\n", err), err
        assert ".py:" not in err
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DurationBandWarning)
            assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_concat_unknown_unit(self, som_map, corpus, tmp_path, capsys):
        code = main(["som", "concat", "--map", str(som_map), "--dataset-dir", str(corpus),
                     "--unit", "9,9", "--out", str(tmp_path / "x.wav")])
        assert code == 2
        assert "no cluster" in capsys.readouterr().err

    def test_concat_malformed_unit(self, som_map, corpus, tmp_path, capsys):
        code = main(["som", "concat", "--map", str(som_map), "--dataset-dir", str(corpus),
                     "--unit", "a;b", "--out", str(tmp_path / "x.wav")])
        assert code == 2
        assert "unit" in capsys.readouterr().err

    def test_malformed_unit_fails_before_any_read(self, som_map, corpus, tmp_path, capsys, reads):
        code = main(["som", "concat", "--map", str(som_map), "--dataset-dir", str(corpus),
                     "--unit", "a;b", "--out", str(tmp_path / "x.wav")])
        assert code == 2
        assert "unit must be x,y integers" in capsys.readouterr().err
        assert reads == {"extract_thumbnail": [], "load_wav": []}


class TestWavListing:
    """A directory named *.wav beside the WAVs is not a corpus file."""

    @pytest.fixture
    def with_subdir(self, corpus, tmp_path):
        directory = tmp_path / "data"
        directory.mkdir()
        for wav in corpus.glob("*.wav"):
            (directory / wav.name).write_bytes(wav.read_bytes())
        (directory / "sub.wav").mkdir()
        return directory

    def test_train_skips_directory(self, with_subdir, checkpoint, tmp_path):
        out = tmp_path / "model.ckpt"
        assert main(["train", "--dataset-dir", str(with_subdir), "--out", str(out),
                     *TRAIN_FLAGS]) == 0
        assert out.read_bytes() == checkpoint.read_bytes()

    def test_som_build_skips_directory(self, with_subdir, som_map, tmp_path):
        out = tmp_path / "map.som"
        assert main(["som", "build", "--dataset-dir", str(with_subdir), "--out", str(out),
                     *SOM_FLAGS]) == 0
        assert out.read_bytes() == som_map.read_bytes()


class TestTooShortInput:
    """A file too short for one window exits 2 with a message naming it."""

    @pytest.fixture
    def short(self, corpus, tmp_path):
        """A copy of the corpus plus short.wav, 40 samples: under one window."""
        directory = tmp_path / "data"
        directory.mkdir()
        for wav in corpus.glob("*.wav"):
            (directory / wav.name).write_bytes(wav.read_bytes())
        save_wav(AudioBuffer(np.full(40, 0.5, dtype=np.float32), RATE), directory / "short.wav")
        return directory, (directory / "short.wav").resolve()

    def _fails_naming(self, argv, path, wanted, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and wanted in err

    def test_train(self, short, tmp_path, capsys):
        directory, path = short
        self._fails_naming(["train", "--dataset-dir", str(directory),
                            "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS],
                           path, f"40 samples at {RATE} Hz are shorter than one 64", capsys)

    def test_som_build(self, short, tmp_path, capsys):
        directory, path = short
        self._fails_naming(["som", "build", "--dataset-dir", str(directory),
                            "--out", str(tmp_path / "m.som"), *SOM_FLAGS],
                           path, f"need at least 512 samples at {RATE} Hz, got 40", capsys)

    def test_som_clusters(self, short, som_map, capsys):
        directory, path = short
        self._fails_naming(["som", "clusters", "--map", str(som_map),
                            "--dataset-dir", str(directory)],
                           path, "need at least 512 samples", capsys)

    @pytest.mark.parametrize("strategy", ["step", "meso", "extend"])
    @pytest.mark.parametrize("slot", ["--in1", "--in2"])
    def test_synth(self, short, checkpoint, tmp_path, capsys, strategy, slot):
        directory, path = short
        other = {"--in1": "--in2", "--in2": "--in1"}[slot]
        self._fails_naming(["synth", strategy, "--checkpoint", str(checkpoint),
                            slot, str(path), other, str(directory / "tone0.wav"),
                            "--out", str(tmp_path / "o.wav")],
                           path, "shorter than one 64-sample window", capsys)
        assert not (tmp_path / "o.wav").exists()

    def test_export_latents(self, short, checkpoint, tmp_path, capsys):
        _, path = short
        self._fails_naming(["export-latents", "--checkpoint", str(checkpoint),
                            "--input", str(path), "--out", str(tmp_path / "z.csv")],
                           path, "shorter than one 64-sample window", capsys)


class TestThumbnailCache:
    """clusters and concat take a file's thumbnail from the map when its content
    key (byte size, CRC32) is there, and extract it otherwise."""

    @pytest.fixture
    def built(self, corpus, tmp_path):
        """A copy of the corpus, its map, and a copy of the map without rows."""
        directory = tmp_path / "data"
        directory.mkdir()
        for wav in corpus.glob("*.wav"):
            (directory / wav.name).write_bytes(wav.read_bytes())
        som_path = tmp_path / "map.som"
        assert main(["som", "build", "--dataset-dir", str(directory), "--out", str(som_path),
                     *SOM_FLAGS]) == 0
        cold = load_som(som_path)
        cold.thumbnail_rows = {}
        save_som(cold, tmp_path / "cold.som")
        return directory, som_path, tmp_path / "cold.som"

    @staticmethod
    def _listing(som_path, directory, out):
        assert main(["som", "clusters", "--map", str(som_path), "--dataset-dir", str(directory),
                     "--out", str(out)]) == 0
        return out.read_text()

    def _check(self, built, tmp_path, reads, extracted):
        """The warm listing extracts only the files named extracted, and equals
        the listing of the map without rows, which extracts each content once."""
        directory, som_path, cold = built
        warm = self._listing(som_path, directory, tmp_path / "warm.txt")
        assert sorted(a[2] for a in reads["extract_thumbnail"]) == sorted(extracted)
        assert self._listing(cold, directory, tmp_path / "cold.txt") == warm
        contents = {p.read_bytes() for p in directory.iterdir()}
        assert len(reads["extract_thumbnail"]) == len(extracted) + len(contents)
        return warm

    def test_build_records_one_row_per_file(self, built):
        directory, som_path, _ = built
        som = load_som(som_path)
        keys = []
        for wav in sorted(directory.glob("*.wav")):
            data = wav.read_bytes()
            keys.append((len(data), zlib.crc32(data)))
        assert list(som.thumbnail_rows) == keys
        assert all(row.dtype == np.float32 and row.shape == (som.dimension,)
                   for row in som.thumbnail_rows.values())

    def test_build_reads_each_file_once(self, corpus, tmp_path, reads, monkeypatch):
        opened = []
        read_bytes = pathlib.Path.read_bytes
        monkeypatch.setattr(pathlib.Path, "read_bytes",
                            lambda self: opened.append(self.name) or read_bytes(self))
        assert main(["som", "build", "--dataset-dir", str(corpus),
                     "--out", str(tmp_path / "m.som"), *SOM_FLAGS]) == 0
        names = sorted(p.name for p in corpus.glob("*.wav"))
        assert sorted(opened) == names and reads["load_wav"] == []
        assert sorted(a[2] for a in reads["extract_thumbnail"]) == names

    def test_unchanged_corpus_extracts_nothing(self, built, tmp_path, reads):
        self._check(built, tmp_path, reads, [])

    def test_concat_unchanged_corpus_extracts_nothing(self, built, tmp_path, reads):
        directory, som_path, cold = built
        unit = self._listing(som_path, directory, tmp_path / "listing.txt").split(":")[0]
        outs = []
        for name in (som_path, cold):
            outs.append(tmp_path / f"{name.stem}.wav")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DurationBandWarning)
                assert main(["som", "concat", "--map", str(name), "--dataset-dir", str(directory),
                             "--unit", unit, "--out", str(outs[-1])]) == 0
        assert len(reads["extract_thumbnail"]) == len(os.listdir(directory))  # the cold map's
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("length", ["same", "shorter"])
    def test_edited_file_is_extracted_again(self, built, tmp_path, reads, length):
        # tone0.wav takes tone3.wav's sound, reversed so its bytes match no file's
        directory = built[0]
        samples = load_wav(directory / "tone3.wav").samples[::-1]
        if length == "shorter":
            samples = samples[: len(samples) // 2]
        save_wav(AudioBuffer(samples.copy(), RATE), directory / "tone0.wav")
        self._check(built, tmp_path, reads, ["tone0.wav"])

    def test_renamed_and_duplicate_files_hit(self, built, tmp_path, reads):
        directory = built[0]
        (directory / "tone1.wav").rename(directory / "renamed.wav")
        (directory / "copy.wav").write_bytes((directory / "tone2.wav").read_bytes())
        listing = self._check(built, tmp_path, reads, [])
        assert "renamed.wav" in listing and "copy.wav" in listing

    def test_added_file_extracted_and_removed_file_absent(self, built, tmp_path, reads):
        directory = built[0]
        (directory / "tone3.wav").unlink()
        save_wav(AudioBuffer(load_wav(directory / "tone1.wav").samples * np.float32(0.5), RATE),
                 directory / "added.wav")
        listing = self._check(built, tmp_path, reads, ["added.wav"])
        assert "tone3.wav" not in listing and "added.wav" in listing

    def test_version_1_map_exits_2(self, built, tmp_path, capsys):
        directory, som_path, _ = built
        old = bytearray(som_path.read_bytes())
        old[len(SOM_MAGIC) - 1] = 1
        (tmp_path / "v1.som").write_bytes(bytes(old))
        assert main(["som", "clusters", "--map", str(tmp_path / "v1.som"),
                     "--dataset-dir", str(directory)]) == 2
        assert "format version 1, expected 2" in capsys.readouterr().err


class TestBench:
    def test_command_reports_latency(self, checkpoint, capsys):
        code = main(["bench", "--checkpoint", str(checkpoint),
                     "--seconds", "0.5", "--reps", "30", "--warmup", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "median" in out and "10 ms reference target" in out

    def test_run_bench_window_count_and_floor(self, checkpoint):
        model = model_from_checkpoint(load_checkpoint(checkpoint))
        report = run_bench(model, seconds=0.5, reps=10, warmup=1, seed=0)
        assert isinstance(report, BenchReport)
        assert report.n_windows == math.ceil(0.5 * RATE / WINDOW)
        assert report.reps == 30  # floored
        assert report.median_ms > 0
        assert report.p95_ms >= report.median_ms

    @pytest.mark.parametrize("seconds", ["nan", "inf", "-1", "0"])
    def test_bad_seconds_is_usage_error(self, checkpoint, capsys, seconds):
        code = main(["bench", "--checkpoint", str(checkpoint), "--seconds", seconds])
        assert code == 2
        captured = capsys.readouterr()
        assert "seconds" in captured.err and captured.out == ""

    def test_over_long_decode_fails_before_any_decode(self, checkpoint, capsys, monkeypatch):
        # with the limit at 10 windows, 10 fit and 11 do not
        monkeypatch.setattr(cli, "MAX_FLOAT32_SAMPLES", 10 * WINDOW + WINDOW // 2)
        model = model_from_checkpoint(load_checkpoint(checkpoint))
        assert run_bench(model, seconds=10 * WINDOW / RATE, reps=1, warmup=1).n_windows == 10

        def no_decode(*args, **kwargs):
            raise AssertionError("decoded before the length check")

        monkeypatch.setattr(cli, "decode_path", no_decode)
        code = main(["bench", "--checkpoint", str(checkpoint),
                     "--seconds", str(10.5 * WINDOW / RATE)])
        assert code == 2
        assert "seconds" in capsys.readouterr().err


class TestNonFinite:
    """Neither a loud input nor a damaged model yields audio or latents that
    are not finite: the command exits 2 and leaves no file behind."""

    # exp(logvar / 2) overflows on these inputs; the error line, not a numpy
    # overflow warning, says so
    def test_sampled_synth_of_loud_input_writes_nothing(self, checkpoint, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for i in range(2):  # finite float32 samples, which load_wav accepts
            loud = (rng.uniform(-1.0, 1.0, RATE) * 1e37).astype(np.float32)
            save_wav(AudioBuffer(loud, RATE), tmp_path / f"loud{i}.wav")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["synth", "meso", "--checkpoint", str(checkpoint),
                     "--in1", str(tmp_path / "loud0.wav"), "--in2", str(tmp_path / "loud1.wav"),
                     "--out", str(out / "o.wav"), "--mode", "sample"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {(tmp_path / 'loud0.wav').resolve()}: window 0 encodes "
                              "to a non-finite sigma in sample mode")
        assert err.endswith("(--normalize)\n") and err.count("\n") == 1
        assert not list(out.iterdir())

    @pytest.mark.parametrize("slot", ["--in1", "--in2"])
    def test_loud_window_is_named_by_input_path_and_window(self, checkpoint, corpus, tmp_path,
                                                           capsys, slot):
        quiet = load_wav(sorted(corpus.glob("*.wav"))[0])
        loud = quiet.samples.copy()
        loud[5 * WINDOW + 3] = 1e37  # window 5 of meso's abutting windows
        save_wav(AudioBuffer(loud, RATE), tmp_path / "loud.wav")
        other = {"--in1": "--in2", "--in2": "--in1"}[slot]
        argv = ["synth", "meso", "--checkpoint", str(checkpoint), slot, str(tmp_path / "loud.wav"),
                other, str(sorted(corpus.glob("*.wav"))[0]), "--out", str(tmp_path / "o.wav"),
                "--mode", "sample"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {(tmp_path / 'loud.wav').resolve()}: window 5 ")
        assert not (tmp_path / "o.wav").exists()
        assert main([*argv, "--normalize"]) == 0

    @pytest.mark.parametrize("damage", ["nan-prototype", "zero-std"])
    @pytest.mark.parametrize("command", ["som clusters", "som concat"])
    def test_map_with_unusable_tensor(self, som_map, corpus, tmp_path, capsys, command, damage):
        som = load_som(som_map)
        if damage == "nan-prototype":
            som.prototypes[1, 0, 2] = np.nan
            message = "non-finite values in prototypes"
        else:
            som.feature_std[3] = 0.0
            message = "values <= 0 in feature std"
        damaged = tmp_path / "damaged.som"
        save_som(som, damaged)  # written with a valid checksum
        out = tmp_path / "out"
        out.mkdir()
        argv = {"som clusters": ["som", "clusters", "--out", str(out / "listing.txt")],
                "som concat": ["som", "concat", "--unit", "0,0", "--out", str(out / "o.wav")]}
        assert main([*argv[command], "--map", str(damaged), "--dataset-dir", str(corpus)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {damaged.resolve()}: {message}" + (
            ", which no trained map has\n" if damage == "zero-std" else "\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("command, bad", [("synth meso", np.nan),
                                              ("export-latents", np.inf)])
    def test_checkpoint_with_non_finite_weight(self, checkpoint, corpus, tmp_path, capsys,
                                               command, bad):
        ckpt = load_checkpoint(checkpoint)
        ckpt.params[2][0, 0] = bad  # written with a valid checksum
        damaged = tmp_path / "damaged.ckpt"
        save_checkpoint(ckpt, damaged)
        with pytest.raises(CorruptFileError, match=f"{re.escape(str(damaged))}: params\\[2\\]"):
            load_checkpoint(damaged)
        out = tmp_path / "out"
        out.mkdir()
        wavs = [str(w) for w in sorted(corpus.glob("*.wav"))[:2]]
        argv = {"synth meso": ["synth", "meso", "--in1", wavs[0], "--in2", wavs[1]],
                "export-latents": ["export-latents", "--input", wavs[0]]}[command]
        assert main([*argv, "--checkpoint", str(damaged), "--out", str(out / "o")]) == 2
        assert "non-finite values" in capsys.readouterr().err
        assert not list(out.iterdir())


class TestCountTooLargeToAllocate:
    """A count whose array no address space holds (10**14 float64 values are
    over 700 TiB) is one error line and exit 2, and leaves no file behind."""

    @pytest.mark.parametrize("command", ["train", "som build", "bench"])
    def test_exits_2_without_traceback_or_artifact(self, checkpoint, corpus, tmp_path, capsys,
                                                   command):
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--dataset-dir", str(corpus), "--out", str(out),
                      *TRAIN_FLAGS, "--epochs", str(10**14)],
            "som build": ["som", "build", "--dataset-dir", str(corpus), "--out", str(out),
                          *SOM_FLAGS, "--som-epochs", str(10**14)],
            "bench": ["bench", "--checkpoint", str(checkpoint), "--seconds", "0.05",
                      "--warmup", "1", "--reps", str(10**14)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "allocate" in captured.err
        assert not list(tmp_path.iterdir())


class TestExportLatents:
    def test_row_count_matches_window_count(self, checkpoint, corpus, tmp_path):
        wav = sorted(corpus.glob("*.wav"))[0]
        out = tmp_path / "latents.csv"
        code = main(["export-latents", "--checkpoint", str(checkpoint),
                     "--input", str(wav), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        n_windows = (RATE - WINDOW) // WINDOW + 1
        assert len(lines) == n_windows + 1
        assert lines[0].startswith("idx,mu_0")

    def test_values_match_library_encode(self, checkpoint, corpus, tmp_path):
        wav = sorted(corpus.glob("*.wav"))[0]
        out = tmp_path / "latents.csv"
        assert main(["export-latents", "--checkpoint", str(checkpoint),
                     "--input", str(wav), "--out", str(out), "--hop", "32"]) == 0
        model = model_from_checkpoint(load_checkpoint(checkpoint))
        path = encode_audio(model, resample(load_wav(wav), RATE), 32)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == len(path)
        got_mu0 = np.array([np.float32(r.split(",")[1]) for r in rows])
        assert np.array_equal(got_mu0, path.means()[:, 0].astype(np.float32))

    def test_streamed_csv_is_the_export_of_the_whole_path(self, checkpoint, corpus, tmp_path,
                                                          monkeypatch):
        # 249 rows in blocks of 16: the last one is short
        monkeypatch.setattr(interpolate, "_BLOCK", 16)
        wav = sorted(corpus.glob("*.wav"))[0]
        out = tmp_path / "latents.csv"
        assert main(["export-latents", "--checkpoint", str(checkpoint),
                     "--input", str(wav), "--out", str(out), "--hop", "32"]) == 0
        assert "recipe=2" in (tmp_path / "latents.csv.cfg").read_text().splitlines()
        model = model_from_checkpoint(load_checkpoint(checkpoint))
        export_latents([encode_audio(model, resample(load_wav(wav), RATE), 32)], tmp_path / "w.csv")
        assert out.read_bytes() == (tmp_path / "w.csv").read_bytes()

    @pytest.mark.parametrize("value", ["0", "3"])
    def test_unknown_recipe_is_usage_error(self, checkpoint, corpus, tmp_path, capsys, value):
        wav = sorted(corpus.glob("*.wav"))[0]
        assert main(["export-latents", "--checkpoint", str(checkpoint), "--input", str(wav),
                     "--out", str(tmp_path / "x.csv"), "--recipe", value]) == 2
        assert "--recipe: must be one of 1, 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_checkpoint_header_disagreeing_with_tensors_exits_2(
        self, checkpoint, corpus, tmp_path, capsys
    ):
        ckpt = load_checkpoint(checkpoint)
        ckpt.hyper = dataclasses.replace(ckpt.hyper, latent_dim=4)  # tensors hold 8
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, bad)
        out = tmp_path / "latents.csv"
        code = main(["export-latents", "--checkpoint", str(bad),
                     "--input", str(sorted(corpus.glob("*.wav"))[0]), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert "params[2] has shape (16, 8)" in capsys.readouterr().err

    def test_checkpoint_that_is_a_fifo_exits_2_naming_it(self, corpus, tmp_path, capsys):
        # no writer: opening it would block, so the check comes before the open
        fifo = tmp_path / "fifo.ckpt"
        os.mkfifo(fifo)
        out = tmp_path / "latents.csv"
        codes = []
        run = threading.Thread(target=lambda: codes.append(main([
            "export-latents", "--checkpoint", str(fifo),
            "--input", str(sorted(corpus.glob("*.wav"))[0]), "--out", str(out)])), daemon=True)
        run.start()
        run.join(timeout=10)
        assert not run.is_alive(), "export-latents blocked on the FIFO"
        assert codes == [2] and not out.exists()
        assert f"{fifo}: not a regular file" in capsys.readouterr().err


CHECKPOINT_KEYS = ["window_size", "latent_dim", "hidden_sizes", "alpha", "learning_rate",
                   "epochs", "batch_size", "sample_rate", "seed", "adam_step"]
MAP_KEYS = ["width", "height", "epochs", "lr0", "radius0", "seed", "feat_sample_rate",
            "feat_frame_size", "feat_hop", "feat_n_mfcc", "feat_n_mels", "feat_centroid",
            "feat_rms", "thumbnail_keys"]


def _damaged(src, dst, magic, key, value=None):
    """A checksummed copy of src whose header lacks key (value None) or holds value."""
    header, tensors = container.read_container(src, magic)
    if value is None:
        del header[key]
    else:
        header[key] = value
    container.write_container(dst, magic, header, tensors)
    return dst


class TestDamagedHeaders:
    """A checksummed file with a bad header is a CorruptFileError, exit 2."""

    def test_key_lists_are_the_written_headers(self, checkpoint, som_map):
        assert list(container.read_container(checkpoint, CHECKPOINT_MAGIC)[0]) == CHECKPOINT_KEYS
        assert list(container.read_container(som_map, SOM_MAGIC)[0]) == MAP_KEYS

    def _export(self, ckpt, corpus, tmp_path):
        out = tmp_path / "latents.csv"
        code = main(["export-latents", "--checkpoint", str(ckpt),
                     "--input", str(sorted(corpus.glob("*.wav"))[0]), "--out", str(out)])
        return code, out

    def _clusters(self, som_path, corpus, tmp_path):
        out = tmp_path / "clusters.txt"
        code = main(["som", "clusters", "--map", str(som_path),
                     "--dataset-dir", str(corpus), "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("key", CHECKPOINT_KEYS)
    def test_checkpoint_missing_key(self, checkpoint, corpus, tmp_path, capsys, key):
        bad = _damaged(checkpoint, tmp_path / "bad.ckpt", CHECKPOINT_MAGIC, key)
        message = f"{bad}: header has no {key!r}"
        with pytest.raises(CorruptFileError) as info:
            load_checkpoint(bad)
        assert message in str(info.value)
        code, out = self._export(bad, corpus, tmp_path)
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key", MAP_KEYS)
    def test_map_missing_key(self, som_map, corpus, tmp_path, capsys, key):
        bad = _damaged(som_map, tmp_path / "bad.som", SOM_MAGIC, key)
        message = f"{bad}: header has no {key!r}"
        with pytest.raises(CorruptFileError) as info:
            load_som(bad)
        assert message in str(info.value)
        code, out = self._clusters(bad, corpus, tmp_path)
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("window_size", "abc", "header window_size='abc'"),
        ("window_size", "0", "header window_size: latent_dim and window_size must be >= 1"),
        ("alpha", "nan", "header alpha: alpha must be finite"),
        ("adam_step", "1.5", "header adam_step='1.5'"),
    ])
    def test_checkpoint_bad_value(self, checkpoint, corpus, tmp_path, capsys, key, value, message):
        bad = _damaged(checkpoint, tmp_path / "bad.ckpt", CHECKPOINT_MAGIC, key, value)
        code, out = self._export(bad, corpus, tmp_path)
        assert code == 2 and not out.exists()
        assert f"{bad}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("feat_hop", "0", "header feat_hop: frame_size must be >= 2 and hop >= 1"),
        ("feat_centroid", "yes", "header feat_centroid='yes'"),
        ("width", "two", "header width='two'"),
        # the map holds 4 rows of 30 features, and thumbnail_keys is size,crc pairs
        ("thumbnail_keys", "12,x", "header thumbnail_keys='12,x'"),
        ("thumbnail_keys", "1,2,3", "thumbnail_keys holds an odd count of numbers"),
        ("thumbnail_keys", "1,2", "thumbnail rows shape (4, 30), expected (1, 30)"),
        ("thumbnail_keys", "", "thumbnail rows shape (4, 30), expected (0, 30)"),
    ])
    def test_map_bad_value(self, som_map, corpus, tmp_path, capsys, key, value, message):
        bad = _damaged(som_map, tmp_path / "bad.som", SOM_MAGIC, key, value)
        code, out = self._clusters(bad, corpus, tmp_path)
        assert code == 2 and not out.exists()
        assert f"{bad}: {message}" in capsys.readouterr().err


class _HalfThenFail:
    """A file whose every write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


class TestAtomicArtifacts:
    """A write that fails midway keeps the previous artifact and leaves no temp file."""

    @pytest.fixture
    def failing_writes(self, monkeypatch):
        real = container.atomic_write

        @contextmanager
        def half_then_fail(path, *args, **kwargs):
            with real(path, *args, **kwargs) as fh:
                yield _HalfThenFail(fh)

        def install():
            for module in (container, audio, interpolate, cli):
                monkeypatch.setattr(module, "atomic_write", half_then_fail)

        return install

    def _check_unchanged(self, directory, argv, install, capsys):
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        install()
        assert main(argv) == 2
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before

    def test_train_checkpoint_loss_log_and_sidecar(self, corpus, tmp_path, failing_writes, capsys):
        argv = ["train", "--dataset-dir", str(corpus), "--out", str(tmp_path / "m.ckpt"),
                *TRAIN_FLAGS]
        self._check_unchanged(tmp_path, argv, failing_writes, capsys)
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "m.ckpt.cfg", "m.ckpt.loss.txt"]

    def test_synth_wav_and_sidecar(self, checkpoint, corpus, tmp_path, failing_writes, capsys):
        wavs = sorted(corpus.glob("*.wav"))
        argv = ["synth", "meso", "--checkpoint", str(checkpoint), "--in1", str(wavs[0]),
                "--in2", str(wavs[1]), "--out", str(tmp_path / "o.wav")]
        self._check_unchanged(tmp_path, argv, failing_writes, capsys)
        assert sorted(os.listdir(tmp_path)) == ["o.wav", "o.wav.cfg"]

    def test_latents_csv(self, checkpoint, corpus, tmp_path, failing_writes, capsys):
        argv = ["export-latents", "--checkpoint", str(checkpoint),
                "--input", str(sorted(corpus.glob("*.wav"))[0]), "--out", str(tmp_path / "l.csv")]
        self._check_unchanged(tmp_path, argv, failing_writes, capsys)
        assert sorted(os.listdir(tmp_path)) == ["l.csv", "l.csv.cfg"]

    def test_clusters_listing(self, som_map, corpus, tmp_path, failing_writes, capsys):
        argv = ["som", "clusters", "--map", str(som_map), "--dataset-dir", str(corpus),
                "--out", str(tmp_path / "c.txt")]
        self._check_unchanged(tmp_path, argv, failing_writes, capsys)
        assert sorted(os.listdir(tmp_path)) == ["c.txt", "c.txt.cfg"]

    @pytest.mark.filterwarnings("ignore")  # 4 x 1 s corpus sits below the duration band
    def test_concat_wav(self, som_map, corpus, tmp_path, failing_writes, capsys):
        main(["som", "clusters", "--map", str(som_map), "--dataset-dir", str(corpus)])
        unit = capsys.readouterr().out.split(":", 1)[0]
        argv = ["som", "concat", "--map", str(som_map), "--dataset-dir", str(corpus),
                "--unit", unit, "--out", str(tmp_path / "j.wav")]
        self._check_unchanged(tmp_path, argv, failing_writes, capsys)
        assert sorted(os.listdir(tmp_path)) == ["j.wav", "j.wav.cfg"]

    def test_som_map(self, corpus, tmp_path, failing_writes, capsys):
        argv = ["som", "build", "--dataset-dir", str(corpus), "--out", str(tmp_path / "m.som"),
                *SOM_FLAGS]
        self._check_unchanged(tmp_path, argv, failing_writes, capsys)
        assert sorted(os.listdir(tmp_path)) == ["m.som", "m.som.cfg"]
