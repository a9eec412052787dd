"""The two workloads: their inputs, their operation mix and their checks.

Each workload is a closed loop with one client: a round runs a fixed list
of CLI operations one after another, in process, through
latentaudio.cli.main(argv). A run repeats whole rounds, so every run
attempts the same operations in the same proportions. The corpus workload
runs the operations of two parts, training and the SOM, in one round.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from checks import require


@dataclass(frozen=True)
class Op:
    """One CLI invocation; outputs are compared byte for byte across rounds."""

    name: str
    argv: list | Callable[[], list]
    outputs: tuple = ()
    known_fault: bool = False  # fails on every run for a named program fault

    def args(self) -> list:
        """The argv, built now when it depends on an earlier operation's output."""
        return self.argv() if callable(self.argv) else self.argv


@dataclass
class Result:
    op: Op
    code: int
    ns: int
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int


@dataclass
class Workload:
    work: Path
    seed: int
    env: dict = field(default_factory=dict)  # for the program's own subprocesses

    name = ""

    def prepare(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def verify_ops(self) -> list:
        """Extra operations run once after the timed rounds, for checks only."""
        return []

    def check(self, results: dict) -> None:
        """results: op name -> Result of the last round (and verify ops)."""
        raise NotImplementedError

    def named_metrics(self, latencies: dict, rounds: list) -> list:
        raise NotImplementedError


def _median_ms(latencies: dict, *names) -> float:
    return sum(statistics.median(latencies[n]) for n in names) / 1e6


# ------------------------------------------------------------ synth-session

SINE = "sine:p=40,a=0.5,o=0.5"
SAMPLE_SEED = "7"
CROSSFADE = 64
EXTEND_HOP = 256


class SynthSession(Workload):
    """A composer blending two 10 s pairs with a default-shape model."""

    name = "synth-session"

    def prepare(self) -> None:
        self.inp = inputs.make_synth_inputs(self.work / "in", self.seed)
        self.out = self.work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.ckpt = self.work / "model.ckpt"
        # the program's own train makes the checkpoint, so no committed file
        # has to follow the checkpoint format
        subprocess.run(
            [sys.executable, "-m", "latentaudio.cli", "train",
             "--dataset-dir", str(self.inp.train_dir), "--out", str(self.ckpt),
             "--epochs", "2", "--hop", "1024", "--seed", "0"],
            env=self.env, check=True, capture_output=True, timeout=120,
        )

    def _synth(self, strategy: str, a: Path, b: Path, out: str, *extra) -> list:
        return ["synth", strategy, "--checkpoint", str(self.ckpt), "--in1", str(a),
                "--in2", str(b), "--out", str(self.out / out), *extra]

    def ops(self) -> list:
        i, o = self.inp, self.out
        return [
            Op("synth-step-s0.25", self._synth("step", i.a44, i.b44, "step25.wav", "--step", "0.25"),
               (o / "step25.wav",)),
            Op("synth-step-s0.05", self._synth("step", i.a48, i.b48, "step05.wav", "--step", "0.05"),
               (o / "step05.wav",)),
            Op("synth-meso-sine", self._synth("meso", i.a48, i.b48, "meso.wav", "--curve", SINE),
               (o / "meso.wav",)),
            Op("synth-extend", self._synth("extend", i.a44, i.b44, "extend.wav",
                                           "--hop", str(EXTEND_HOP), "--curve", "lin:0:1"),
               (o / "extend.wav",)),
            Op("synth-extend-crossfade",
               self._synth("extend", i.a48, i.b48, "extend_xf.wav", "--hop", str(EXTEND_HOP),
                           "--curve", "lin:1:0", "--crossfade", str(CROSSFADE)),
               (o / "extend_xf.wav",)),
            Op("synth-extend-sample",
               self._synth("extend", i.a44, i.b44, "extend_sample.wav", "--hop", str(EXTEND_HOP),
                           "--curve", "lin:0:1", "--mode", "sample", "--seed", SAMPLE_SEED),
               (o / "extend_sample.wav",)),
            Op("export-latents",
               ["export-latents", "--checkpoint", str(self.ckpt), "--input", str(i.a48),
                "--out", str(o / "latents.csv")],
               (o / "latents.csv",)),
            Op("synth-regen-sidecar",
               ["synth", "extend", "--config", str(o / "extend_sample.wav.cfg"),
                "--out", str(o / "regen.wav")],
               (o / "regen.wav",)),
            # in1 is WAVE_FORMAT_EXTENSIBLE with a PCM16 subformat: load_wav
            # rejects it ("format tag 65534 at 16 bits not supported")
            Op("synth-meso-extensible",
               self._synth("meso", i.extensible, i.b44, "meso_ext.wav", "--curve", SINE),
               (), known_fault=True),
        ]

    def verify_ops(self) -> list:
        i = self.inp
        return [
            Op("meso-const1", self._synth("meso", i.a44, i.b48, "const1.wav", "--curve", "const:1")),
            Op("meso-const0-swapped", self._synth("meso", i.b48, i.a44, "const0.wav", "--curve", "const:0")),
        ]

    def check(self, results: dict) -> None:
        for name, res in results.items():
            if not res.op.known_fault:
                require(res.ok, f"{name} exited {res.code}: {res.stderr.strip()}")
        model = checks.ReferenceModel(self.ckpt)
        rate, w = model.rate, model.window
        a44, b44 = checks.load_at(self.inp.a44, rate), checks.load_at(self.inp.b44, rate)
        a48, b48 = checks.load_at(self.inp.a48, rate), checks.load_at(self.inp.b48, rate)
        n44, n48 = min(len(a44), len(b44)), min(len(a48), len(b48))
        wav = {name: checks.read_wav(self.out / out)[0] for name, out in (
            ("step25", "step25.wav"), ("step05", "step05.wav"), ("meso", "meso.wav"),
            ("extend", "extend.wav"), ("extend_xf", "extend_xf.wav"),
            ("sample", "extend_sample.wav"), ("regen", "regen.wav"),
            ("const1", "const1.wav"), ("const0", "const0.wav"))}
        for name, samples in wav.items():
            checks.check_audio(samples, name)

        for name, (a, b, n), s in (("step25", (a44, b44, n44), 0.25), ("step05", (a48, b48, n48), 0.05)):
            segments, per = checks.step_segments(1.0, s), checks.window_count(n, w, w)
            checks.check_length(len(wav[name]), checks.joined_length(segments * per, w), name)
            weights = np.repeat(np.arange(segments) * s, per)
            ref = checks.blend_decode(model, a, b, weights, w, tiles=segments)
            checks.check_close(wav[name], ref.reshape(-1), checks.SAMPLE_ATOL, name)

        count = checks.window_count(n48, w, w)
        checks.check_length(len(wav["meso"]), checks.joined_length(count, w), "meso")
        sine = np.clip(0.5 + 0.5 * np.sin(2 * np.pi * np.arange(count) / 40.0), -1, 1)
        ref = checks.blend_decode(model, a48, b48, sine, w)
        checks.check_close(wav["meso"], ref.reshape(-1), checks.SAMPLE_ATOL, "meso")

        count = checks.window_count(n44, w, EXTEND_HOP)
        checks.check_length(len(wav["extend"]), checks.joined_length(count, w), "extend")
        ref = checks.blend_decode(model, a44, b44, np.linspace(0, 1, count), EXTEND_HOP)
        checks.check_close(wav["extend"], ref.reshape(-1), checks.SAMPLE_ATOL, "extend")

        count = checks.window_count(n48, w, EXTEND_HOP)
        checks.check_length(len(wav["extend_xf"]), checks.joined_length(count, w, CROSSFADE),
                            "extend crossfade")
        ref = checks.blend_decode(model, a48, b48, np.linspace(1, 0, count), EXTEND_HOP)
        checks.check_close(wav["extend_xf"], checks.crossfade_expected(ref, CROSSFADE),
                           checks.SAMPLE_ATOL, "extend crossfade")

        count = checks.window_count(n44, w, EXTEND_HOP)
        checks.check_length(len(wav["sample"]), checks.joined_length(count, w), "extend sample")
        checks.check_identical((self.out / "regen.wav").read_bytes(),
                               (self.out / "extend_sample.wav").read_bytes(),
                               "sidecar regeneration of the sample-mode extend")
        checks.check_identical(wav["const1"].tobytes(), wav["const0"].tobytes(),
                               "meso const:1 against const:0 with inputs swapped")

        mu, logvar = model.encode(checks.frames_of(a48, w, w))
        checks.check_latents_csv((self.out / "latents.csv").read_text(), mu, logvar)

        fault = results["synth-meso-extensible"]
        if fault.ok:  # the fault is mended: hold the output to the meso laws
            samples = checks.read_wav(self.out / "meso_ext.wav")[0]
            checks.check_audio(samples, "meso extensible")
            n = min(len(checks.load_at(self.inp.extensible, rate)), len(b44))
            checks.check_length(len(samples), checks.joined_length(n // w, w), "meso extensible")
        else:
            require(fault.code == 2 and "65534" in fault.stderr,
                    f"synth-meso-extensible failed otherwise than expected: {fault.stderr.strip()}")

    def named_metrics(self, latencies: dict, rounds: list) -> list:
        n = len(latencies["synth-meso-sine"])
        rendering = [r for r in rounds[0] if r.op.name.startswith("synth-") and not r.op.known_fault]
        audio_s = 0.0
        for r in rendering:
            samples, rate = checks.read_wav(r.op.outputs[0])
            audio_s += len(samples) / rate
        realtime = statistics.median(
            audio_s * 1e9 / sum(r.ns for r in rnd if r.op.name.startswith("synth-") and not r.op.known_fault)
            for rnd in rounds
        )
        return [
            Metric("synth_step_ms", _median_ms(latencies, "synth-step-s0.25", "synth-step-s0.05"), "ms", n),
            Metric("synth_meso_ms", _median_ms(latencies, "synth-meso-sine"), "ms", n),
            Metric("synth_extend_ms", _median_ms(latencies, "synth-extend", "synth-extend-crossfade",
                                                 "synth-extend-sample"), "ms", n),
            Metric("export_latents_ms", _median_ms(latencies, "export-latents"), "ms", n),
            Metric("render_x_realtime", realtime, "s/s", n),
        ]


# ------------------------------------------------------------ corpus: training part

class TrainCorpus(Workload):
    """Default-architecture training on mixed-rate takes, partial last batch."""

    def prepare(self) -> None:
        self.corpus = inputs.make_train_corpus(self.work / "in", self.seed)
        self.windows = inputs.train_window_count()
        require(self.windows % inputs.TRAIN_BATCH != 0, "train corpus has no partial batch")
        self.ckpt = self.work / "model.ckpt"

    def ops(self) -> list:
        return [Op("train",
                   ["train", "--dataset-dir", str(self.corpus), "--out", str(self.ckpt),
                    "--epochs", str(inputs.TRAIN_EPOCHS), "--batch-size", str(inputs.TRAIN_BATCH),
                    "--hop", str(inputs.TRAIN_HOP)],
                   (self.ckpt, Path(f"{self.ckpt}.loss.txt")))]

    def check(self, results: dict) -> None:
        res = results["train"]
        require(res.ok, f"train exited {res.code}: {res.stderr.strip()}")
        require(f"trained on {self.windows} windows" in res.stdout,
                f"train saw other than {self.windows} windows: {res.stdout.strip()}")
        checks.check_loss_log(Path(f"{self.ckpt}.loss.txt").read_text(), inputs.TRAIN_EPOCHS)
        header, tensors = checks.read_container(self.ckpt)
        checks.check_checkpoint(header, tensors, inputs.TRAIN_EPOCHS)
        require((header["window_size"], header["latent_dim"], header["hidden_sizes"])
                == ("1024", "256", "512"), "checkpoint: not the default architecture")

    def named_metrics(self, latencies: dict, rounds: list) -> list:
        n = len(latencies["train"])
        seconds = statistics.median(latencies["train"]) / 1e9
        return [
            Metric("train_windows_per_s", self.windows * inputs.TRAIN_EPOCHS / seconds,
                   "windows*epochs/s", n),
            Metric("checkpoint_mb", os.path.getsize(self.ckpt) / 1e6, "MB", n),
        ]


# ------------------------------------------------------------ corpus: SOM part

class SomCorpus(Workload):
    """Map, list and join a corpus of short clips from four timbre families."""

    def prepare(self) -> None:
        self.corpus = inputs.make_som_corpus(self.work / "in", self.seed)
        self.map = self.work / "map.som"
        self.listing = self.work / "clusters.txt"
        self.joined = self.work / "cluster.wav"

    def _largest_unit(self) -> str:
        return self.listing.read_text().split(":", 1)[0]

    def ops(self) -> list:
        d = str(self.corpus.directory)
        return [
            Op("som-build", ["som", "build", "--dataset-dir", d, "--out", str(self.map)],
               (self.map,)),
            Op("som-clusters", ["som", "clusters", "--map", str(self.map), "--dataset-dir", d,
                                "--out", str(self.listing)], (self.listing,)),
            Op("som-concat", lambda: ["som", "concat", "--map", str(self.map), "--dataset-dir", d,
                                      "--unit", self._largest_unit(), "--out", str(self.joined)],
               (self.joined,)),
        ]

    def check(self, results: dict) -> None:
        for name, res in results.items():
            require(res.ok, f"{name} exited {res.code}: {res.stderr.strip()}")
        clusters = checks.parse_clusters(self.listing.read_text())
        checks.check_clusters(clusters, self.corpus.family)
        _, tensors = checks.read_container(self.map)
        checks.check_qe(tensors[3])
        members = sorted(clusters[tuple(int(v) for v in self._largest_unit().split(","))])
        sources = [checks.read_wav(self.corpus.directory / m) for m in members]
        joined, rate = checks.read_wav(self.joined)
        require(rate == sources[0][1], "som concat: not at the first member's rate")
        checks.check_length(len(joined), checks.concat_length([(len(s), r) for s, r in sources]),
                            "som concat")
        checks.check_audio(joined, "som concat")

    def named_metrics(self, latencies: dict, rounds: list) -> list:
        n = len(latencies["som-build"])
        return [Metric(f"som_{part}_s", _median_ms(latencies, f"som-{part}") / 1e3, "s", n)
                for part in ("build", "clusters", "concat")]


# ------------------------------------------------------------ corpus

class Corpus(Workload):
    """Train the VAE on a corpus of takes, then map a corpus of clips with the
    SOM. The SOM part's interpreter-bound work swings more with the load on a
    shared host than the BLAS-bound training does; run alone, its round time
    spread too widely from run to run to hold a bound."""

    name = "corpus"

    def prepare(self) -> None:
        self.parts = [TrainCorpus(self.work / "train", self.seed, self.env),
                      SomCorpus(self.work / "som", self.seed, self.env)]
        for part in self.parts:
            part.work.mkdir(parents=True, exist_ok=True)
            part.prepare()

    def ops(self) -> list:
        return [op for part in self.parts for op in part.ops()]

    def check(self, results: dict) -> None:
        for part in self.parts:
            names = {op.name for op in part.ops()}
            part.check({name: res for name, res in results.items() if name in names})

    def named_metrics(self, latencies: dict, rounds: list) -> list:
        return [m for part in self.parts for m in part.named_metrics(latencies, rounds)]


WORKLOADS = {w.name: w for w in (SynthSession, Corpus)}
