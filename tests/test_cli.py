"""End-to-end command tests driven through cli.main().

Every command is exercised in-process so exit codes, stdout, sidecar
files, and artifact bytes can all be checked. A small 8 kHz corpus and a
deliberately tiny model keep the module fast.
"""

import dataclasses
import math
import os
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import write_corpus
from latentaudio import (
    AudioBuffer,
    SynthesisMode,
    encode_audio,
    generate_curve,
    load_checkpoint,
    load_som,
    load_wav,
    meso_interpolate,
    model_from_checkpoint,
    resample,
    save_checkpoint,
    save_wav,
)
from latentaudio import audio, cli, container, interpolate
from latentaudio.cli import BenchReport, main, run_bench

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

SOM_FLAGS = [
    "--feat-rate", str(RATE),
    "--frame-size", "512",
    "--feat-hop", "256",
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
        samples = load_wav(bad_dir / "tone0.wav").samples.copy()
        samples[100] = np.nan
        save_wav(AudioBuffer(samples, RATE), bad_dir / "tone0.wav", encoding="float32")
        code = main([
            "train", "--dataset-dir", str(bad_dir),
            "--out", str(tmp_path / "m.ckpt"), *TRAIN_FLAGS,
        ])
        assert code == 2
        assert "non-finite samples" in capsys.readouterr().err

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

    def test_missing_required_flag(self, corpus, capsys):
        code = main(["train", "--dataset-dir", str(corpus)])
        assert code == 2
        assert "--out" in capsys.readouterr().err

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
